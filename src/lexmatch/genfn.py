"""Offspring laws, generating-function analytics and regime classification.

An offspring law pi lives on the non-negative integers with probability
generating function phi and mean m = phi'(1).  Everything downstream of a
sparse-graph/branching-tree limit is driven by the *excess* generating
function

    hphi(x) = phi'(x) / phi'(1),

the pgf of the law of the number of children of a non-root vertex of the
unimodular branching tree (equivalently, the excess-degree law
k -> (k+1) pi(k+1) / m).  This module computes phi and hphi in closed form
per family, locates the fixed points of the doubled map D(t) = S(S(t)),
S(t) = hphi(1 - t), evaluates the matching functional F_pi whose maximum
gives the asymptotic matched-vertex density, and encloses the
subcriticality coefficient rho (the contraction rate of the two-step
message operator) in an interval [lo, hi].  A two-point law attains lo,
so lo is a lower bound; hi is an upper bound, and only hi < 1 certifies
the contracting regime.

The regime is read off the structure of D.  S is decreasing, so D fixes
the one fixed point gamma of S and pairs each other fixed point t < gamma
with its conjugate S(t) > gamma.  F_pi'(x) = m hphi'(1-x) (D(x) - x), so
the maxima of F_pi are the fixed points where D(x) - x changes sign from +
to -, and gamma is one iff hphi'(1-gamma) <= 1 (that is, D'(gamma) <= 1).
No margin is fixed: a sign of D(t) - t counts only where it clears a bound
on its rounding error, and the degenerate family is recognised exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "DomainError",
    "LawError",
    "DegenerateFamilyError",
    "OffspringLaw",
    "RegimeReport",
    "size_biased_pgf_inverse",
    "double_map",
    "single_fixed_point",
    "double_fixed_points",
    "F_pi",
    "matching_vertex_density",
    "rho_subcritical",
    "macroscopic_law",
    "parse_law",
]

_FINITE_SUPPORT_CAP = 64


class LawError(ValueError):
    """Invalid offspring-law parameters."""


class DomainError(LawError):
    """Generating-function argument outside [0, 1]."""


class DegenerateFamilyError(LawError):
    """The doubled map t -> hphi(1-hphi(1-t)) is the identity on [0, 1].

    Such laws have a continuum of fixed points and no finite fixed-point
    list; maximal matchings are asymptotically perfect for them.
    """


def _as_unit_interval(x):
    """Validate x in [0,1] (scalar or array), clipping float fuzz up to 1e-9."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9):
        raise DomainError(f"argument outside [0, 1]: {x!r}")
    clipped = np.clip(arr, 0.0, 1.0)
    return clipped if arr.ndim else float(clipped)


@dataclass(frozen=True)
class OffspringLaw:
    """Offspring distribution pi with closed-form generating function.

    Families
    --------
    poisson(c)      pi = Poisson(c); phi(x) = exp(c(x-1)).
    binomial(n, q)  pi = Binomial(n, q); phi(x) = (1-q+qx)^n.
    geometric(p)    The exceptional family whose excess pgf is the Moebius
                    function hphi(x) = p x / (1 - (1-p) x); concretely
                    pi(k) = C (1-p)^k / k for k >= 2 (a truncated
                    log-series law).  For it the doubled map is the
                    identity, so the fixed-point analysis degenerates and
                    maximal matchings are asymptotically perfect.
    finite(pmf)     Arbitrary pmf on {0, ..., len-1}, support <= 64.

    The excess law k -> (k+1) pi(k+1)/m, whose pgf is hphi = phi'/phi'(1),
    draws the children of a non-root vertex; all recursions here use it.
    ``excess`` returns it as a law of its own: Poisson(c) and the point mass
    at 0 are their own excess laws, Binomial(n, q) gives Binomial(n-1, q)
    (n = 0 is the point mass at 0), a finite pmf gives a finite pmf, and
    geometric(p) gives geometric1(p), the geometric law p (1-p)^(k-1) on
    {1, 2, ...}: an internal family that no spec string names and that only
    ``excess_pgf``, ``excess_pmf`` and ``sample_excess`` read.
    """

    family: str
    params: tuple = ()
    pmf: tuple = field(default=(), compare=True)

    # -- constructors -------------------------------------------------

    @staticmethod
    def poisson(c: float) -> "OffspringLaw":
        if not (c > 0 and math.isfinite(c)):
            raise LawError(f"poisson parameter must be positive, got {c}")
        return OffspringLaw("poisson", (float(c),))

    @staticmethod
    def binomial(n: int, q: float) -> "OffspringLaw":
        if n < 1 or int(n) != n:
            raise LawError(f"binomial n must be a positive integer, got {n}")
        if not (0.0 < q <= 1.0):
            raise LawError(f"binomial q must lie in (0, 1], got {q}")
        return OffspringLaw("binomial", (int(n), float(q)))

    @staticmethod
    def geometric(p: float) -> "OffspringLaw":
        if not (0.0 < p < 1.0):
            raise LawError(f"geometric p must lie in (0, 1), got {p}")
        return OffspringLaw("geometric", (float(p),))

    @staticmethod
    def finite_support(pmf) -> "OffspringLaw":
        probs = tuple(float(v) for v in pmf)
        if len(probs) == 0 or len(probs) > _FINITE_SUPPORT_CAP:
            raise LawError(f"finite support size must be in 1..{_FINITE_SUPPORT_CAP}")
        if not all(0.0 <= v < math.inf for v in probs):
            raise LawError("pmf entries must be finite and non-negative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise LawError(f"pmf sums to {sum(probs)!r}, expected 1 within 1e-12")
        return OffspringLaw("finite", (), probs)

    # -- basic quantities ---------------------------------------------

    @cached_property
    def excess(self) -> "OffspringLaw":
        """The excess law k -> (k+1) pi(k+1)/m as an OffspringLaw (pgf hphi)."""
        if self.family == "geometric1":
            raise LawError("the excess law of geometric1 is in no family")
        if self.family == "binomial":
            n, q = self.params
            return OffspringLaw("binomial", (n - 1, q))
        if self.family == "geometric":
            return OffspringLaw("geometric1", self.params)
        if self.family == "finite" and self.mean > 0.0:
            probs = np.arange(1, len(self.pmf)) * np.asarray(self.pmf)[1:] / self.mean
            return OffspringLaw("finite", (), tuple(probs.tolist()))
        return self  # Poisson(c) and the point mass at 0

    @property
    def mean(self) -> float:
        """phi'(1); zero only for the point mass at 0."""
        if self.family == "poisson":
            return self.params[0]
        if self.family == "binomial":
            n, q = self.params
            return n * q
        if self.family == "geometric":
            p = self.params[0]
            q = 1.0 - p
            return q * q / (p * (-math.log(p) - q))
        if self.family == "geometric1":
            return 1.0 / self.params[0]
        ks = np.arange(len(self.pmf))
        return float(np.dot(ks, self.pmf))

    def pgf(self, x, order: int = 0):
        """phi(x) (order 0), phi'(x) (order 1) or phi''(x) (order 2) on [0, 1]."""
        x = _as_unit_interval(x)
        if order not in (0, 1, 2):
            raise LawError(f"order must be 0, 1 or 2, got {order}")
        xa = np.asarray(x, dtype=float)
        if self.family == "poisson":
            c = self.params[0]
            val = c**order * np.exp(c * (xa - 1.0))
        elif self.family == "binomial":
            n, q = self.params
            val = math.perm(n, order) * q**order * (1.0 - q + q * xa) ** max(n - order, 0)
        elif self.family == "geometric":
            q = 1.0 - self.params[0]
            norm = -math.log(self.params[0]) - q
            if order == 0:
                val = (-np.log(1.0 - q * xa) - q * xa) / norm
            else:  # q^2 x / ((1 - qx) norm), then q^2 / ((1 - qx)^2 norm)
                val = q * q * xa ** (2 - order) / ((1.0 - q * xa) ** order * norm)
        elif self.family == "geometric1":
            p = self.params[0]
            denom = 1.0 - (1.0 - p) * xa
            if order == 0:
                val = p * xa / denom
            else:
                val = p * order * (1.0 - p) ** (order - 1) / denom ** (order + 1)
        else:
            coeffs = np.asarray(self.pmf)
            for _ in range(order):
                coeffs = (coeffs * np.arange(len(coeffs)))[1:] if len(coeffs) > 1 else np.array([0.0])
            val = np.polyval(coeffs[::-1], xa)
        return val if np.ndim(x) else float(val)

    def excess_pgf(self, x, order: int = 0):
        """hphi(x) = phi'(x)/phi'(1) (order 0) or hphi'(x) (order 1)."""
        return self.excess.pgf(x, order)

    def excess_pmf(self) -> np.ndarray:
        """Excess-law pmf (k+1) pi(k+1) / m, truncated to mass >= 1 - 1e-12."""
        return self.excess._pmf_table()

    def _pmf_table(self) -> np.ndarray:
        """pi(0), pi(1), ... up to mass >= 1 - 1e-12, for the families of excess laws."""
        if self.family in ("binomial", "finite"):
            return self.pmf_values(self._table_kmax())
        c = p = self.params[0]
        probs = []
        total = 0.0
        while total < 1.0 - 1e-12 and len(probs) < 4000:
            k = len(probs)
            if self.family == "poisson":
                pk = math.exp(-c + k * math.log(c) - math.lgamma(k + 1))
            else:  # geometric1
                pk = 0.0 if k == 0 else p * (1.0 - p) ** (k - 1)
            probs.append(pk)
            total += pk
        return np.asarray(probs)

    def pmf_values(self, kmax: int) -> np.ndarray:
        """pi(0..kmax) as an array (closed form per family)."""
        ks = np.arange(kmax + 1)
        if self.family == "poisson":
            c = self.params[0]
            return np.exp(-c + ks * math.log(c) - np.array([math.lgamma(k + 1) for k in ks]))
        if self.family == "binomial":
            n, q = self.params
            return np.array(
                [math.comb(n, k) * q**k * (1 - q) ** (n - k) if k <= n else 0.0 for k in ks]
            )
        if self.family == "geometric":
            p = self.params[0]
            q = 1.0 - p
            norm = -math.log(p) - q
            return np.array([0.0 if k < 2 else q**k / (k * norm) for k in ks])
        if self.family == "geometric1":
            p = self.params[0]
            return np.array([0.0 if k == 0 else p * (1.0 - p) ** (k - 1) for k in range(kmax + 1)])
        out = np.zeros(kmax + 1)
        upto = min(kmax + 1, len(self.pmf))
        out[:upto] = self.pmf[:upto]
        return out

    # -- sampling ------------------------------------------------------

    def sample(self, rng: np.random.Generator, size=None):
        """Draw offspring counts from pi."""
        if self.family == "poisson":
            return rng.poisson(self.params[0], size)
        if self.family == "binomial":
            n, q = self.params
            return rng.binomial(n, q, size)
        if self.family == "geometric1":
            return rng.geometric(self.params[0], size)
        if size is None:
            return int(np.searchsorted(self._cdf, rng.random(), side="right"))
        return np.searchsorted(self._cdf, rng.random(size), side="right").astype(np.int64)

    def sample_excess(self, rng: np.random.Generator, size=None):
        """Draw from the excess law (children of a non-root tree vertex)."""
        return self.excess.sample(rng, size)

    @cached_property
    def _cdf(self) -> np.ndarray:
        """The normalised cumulative table that `sample` searches, built once per law."""
        cdf = np.cumsum(self.pmf_values(self._table_kmax()))
        return cdf / cdf[-1]

    def _table_kmax(self) -> int:
        if self.family == "finite":
            return len(self.pmf) - 1
        if self.family in ("geometric", "geometric1"):
            p = self.params[0]
            return max(4, int(2 + math.log(1e-14) / math.log(1.0 - p)))
        n, _ = self.params
        return n


def parse_law(text: str) -> OffspringLaw:
    """Parse a law spec string: poisson:1.0, geom:0.5, binom:3:0.5, pmf:0.2,0.5,0.3."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "poisson" and len(parts) == 2:
            return OffspringLaw.poisson(float(parts[1]))
        if kind in ("geom", "geometric") and len(parts) == 2:
            return OffspringLaw.geometric(float(parts[1]))
        if kind in ("binom", "binomial") and len(parts) == 3:
            return OffspringLaw.binomial(int(parts[1]), float(parts[2]))
        if kind == "pmf" and len(parts) == 2:
            return OffspringLaw.finite_support([float(v) for v in parts[1].split(",")])
    except LawError:
        raise
    except (TypeError, ValueError) as exc:
        raise LawError(f"cannot parse law spec {text!r}: {exc}") from exc
    raise LawError(f"unknown law spec {text!r}")


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------


def size_biased_pgf_inverse(law: OffspringLaw, y):
    """Invert the increasing map hphi on [0, 1] by bisection (vectorized) to 1e-12."""
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(ya < -1e-12) or np.any(ya > 1.0 + 1e-12):
        raise DomainError(f"inverse argument outside [0, 1]: {y!r}")
    lo_val = float(law.excess_pgf(0.0))
    ya = np.clip(ya, lo_val, 1.0)
    lo = np.zeros_like(ya)
    hi = np.ones_like(ya)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = law.excess_pgf(mid) < ya
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) < 1e-12:
            break
    out = 0.5 * (lo + hi)
    return out if np.ndim(y) else float(out[0])


def double_map(law: OffspringLaw, t):
    """The doubled excess map t -> hphi(1 - hphi(1 - t))."""
    t = _as_unit_interval(t)
    return law.excess_pgf(1.0 - np.asarray(law.excess_pgf(1.0 - np.asarray(t))))


def _bisect(above, lo: float, hi: float) -> float:
    """Bisect [lo, hi] (above(lo) true, above(hi) false) until lo and hi are adjacent doubles."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return mid


def single_fixed_point(law: OffspringLaw) -> float:
    """gamma, the one fixed point of the decreasing map S(t) = hphi(1 - t), by bisection."""
    return _bisect(lambda t: float(law.excess_pgf(1.0 - t)) > t, 0.0, 1.0)


def _residual(law: OffspringLaw, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D(t) - t and a first-order bound on its rounding error (Higham 2002, section 5.1).

    hphi errs by (4 + 2n) eps relative, n the Poisson exponent c, the binomial power or
    the pmf length (Horner on positive terms); hphi' carries its argument's error forward.
    """
    ex, eps = law.excess, np.finfo(float).eps
    rel = (4 + 2 * (ex.params[0] if ex.params else len(ex.pmf))) * eps
    s = ex.pgf(1.0 - t)
    d = ex.pgf(1.0 - s)
    err_s = rel * s + ex.pgf(1.0 - t, 1) * eps * (1.0 - t)
    return d - t, rel * d + ex.pgf(1.0 - s, 1) * (err_s + eps * (1.0 - s)) + eps * np.abs(d - t)


_SCAN_POINTS = 10_000


def double_fixed_points(law: OffspringLaw) -> list[float]:
    """All fixed points of D(t) = S(S(t)), S(t) = hphi(1-t), on [0, 1], ascending.

    S is decreasing, so D fixes gamma = S(gamma) and pairs every other fixed
    point t < gamma with its conjugate S(t) > gamma.  No margin is fixed: a
    point of a scan of [0, gamma) counts only where |D(t) - t| exceeds the
    bound on its rounding error (``_residual``), so its sign is the true one,
    and consecutive counted points of opposite signs are bisected to adjacent
    doubles; a leafless law (hphi(0) = 0) has the low 0 by algebra.  Returns
    lows + [gamma] + their conjugates.  As F_pi'(x) = m hphi'(1-x) (D(x) - x),
    these are the critical points of F_pi, and gamma is a maximum iff
    hphi'(1-gamma) <= 1; a root where D(x) - x touches zero without changing
    sign is no maximum, and the scan may miss it.  Raises DegenerateFamilyError
    when D is the identity, i.e. hphi is Moebius: a polynomial hphi of degree d
    gives D of degree d^2, and Poisson has D(0) = e^-c > 0, so the excess law
    is geometric1 (from geom:p) or the point mass at 1 (every law on {0, 2}).
    """
    ex = law.excess
    leafless = ex.pgf(0.0) == 0.0
    if ex.family == "geometric1" or (leafless and ex.mean == 1.0):
        raise DegenerateFamilyError("doubled map is the identity on [0,1]; continuum of fixed points")
    gamma = single_fixed_point(law)
    # 10^4 equispaced points up to gamma (1 - 10^-4), then gamma (1 - 10^-j) for
    # j = 4.25, 4.5, ..., 6: they crowd gamma, where conjugate pairs are born
    crowd = 1.0 - 10.0 ** -np.linspace(4.25, 6.0, 8)
    grid = np.r_[np.linspace(0.0, gamma, _SCAN_POINTS, endpoint=False), gamma * crowd]
    resid, bound = _residual(law, grid)
    counted = np.flatnonzero((np.abs(resid) > bound) & (grid > 0.0 if leafless else True))
    up = resid[counted] > 0.0  # compare signs: a product of two tiny residuals underflows
    lows = [0.0] if leafless else []
    for f in np.flatnonzero(up[:-1] != up[1:]):
        lo, hi, side = grid[counted[f]], grid[counted[f + 1]], up[f]
        lows.append(float(_bisect(lambda x: (double_map(law, x) > x) == side, lo, hi)))
    return lows + [gamma] + [float(law.excess_pgf(1.0 - t)) if t else 1.0 for t in reversed(lows)]


def F_pi(law: OffspringLaw, x) -> float:
    """The matching functional phi(1-x) + phi(1-hphi(1-x)) + m x hphi(1-x).

    Its maximum over [0,1] equals 2 minus the asymptotic matched-vertex
    density of graphs converging locally to the branching tree of pi.
    """
    x = _as_unit_interval(x)
    xa = np.asarray(x, dtype=float)
    h = np.asarray(law.excess_pgf(1.0 - xa))
    val = (
        np.asarray(law.pgf(1.0 - xa))
        + np.asarray(law.pgf(1.0 - h))
        + law.mean * xa * h
    )
    return val if np.ndim(x) else float(val)


def matching_vertex_density(law: OffspringLaw) -> float:
    """Asymptotic fraction of matched vertices: 2 - max F_pi on [0, 1].

    The maximum is taken over the fixed points of the doubled map plus a
    safety grid scan.  Degenerate families (identity doubled map) have
    asymptotically perfect matchings, so 1 is returned for them.
    """
    try:
        fps = double_fixed_points(law)
    except DegenerateFamilyError:
        return 1.0
    candidates = np.concatenate([fps, np.linspace(0.0, 1.0, 2001)])
    return 2.0 - float(np.max(F_pi(law, candidates)))


# rho enclosure: curve samples, first s-grid points, sub-pieces per kept s-piece,
# rounds of splitting, and the most s-points one round may evaluate
_RHO_CURVE_POINTS = 20_001
_RHO_S_POINTS = 2_001
_RHO_SPLIT = 8
_RHO_ROUNDS = 7
_RHO_MAX_S_POINTS = 100_000


def _upper_hull(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the upper concave envelope of points sorted by x (monotone chain)."""
    hx, hy = [], []
    for x, y in zip(xs.tolist(), ys.tolist()):
        while len(hx) > 1 and (hx[-1] - hx[-2]) * (y - hy[-2]) >= (hy[-1] - hy[-2]) * (x - hx[-2]):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return np.array(hx), np.array(hy)


def _rho_interval(law: OffspringLaw) -> tuple[float, float]:
    """Enclosure [lo, hi] of rho (see rho_subcritical) by a concave envelope.

    Write y = 1 - X, s = E[hphi(y)] and g(s) = hphi'(1 - s).  For a fixed s
    the largest E[hphi'(y)] is C(s), the upper concave envelope of the curve
    y -> (hphi(y), hphi'(y)), so rho is the maximum over s of C(s) g(s) and
    two-point laws attain it.  lo is the largest C_lo(s) g(s) on the s-grid,
    with C_lo the hull of exact curve samples: a two-point law attains it.
    Every derivative of a pgf grows on [0, 1], so between samples i and i+1
    the curve lies under the line from sample i with slope
    hphi''(y_{i+1}) / hphi'(y_i), capped at hphi'(y_{i+1}); the hull C_up of
    these corners lies above C.  C rises and g falls, so C_up(b) g(a) bounds
    C g on an s-piece [a, b]; pieces whose bound is still >= lo are split
    and bounded again, and hi is the largest bound left.
    """
    ex = law.excess
    u = np.linspace(0.0, 1.0, _RHO_CURVE_POINTS)
    # every derivative of a pgf grows with y: crowd the samples towards y = 1
    h, d, d2 = (np.asarray(ex.pgf(u * (2.0 - u), order)) for order in range(3))
    if d[-1] == 0.0:  # hphi' = 0: the excess law is the point mass at 0
        return 0.0, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        run = np.where(d[1:] > d[:-1], (d[1:] - d[:-1]) * d[:-1] / d2[1:], 0.0)
    corners = np.minimum(h[:-1] + run, h[1:])
    lo_x, lo_y = _upper_hull(h, d)
    up_x, up_y = _upper_hull(np.r_[h[0], corners, h[-1]], np.r_[d[0], d[1:], d[-1]])
    s = np.linspace(h[0], 1.0, _RHO_S_POINTS)[None, :]  # later rounds: one row per kept piece
    lo = 0.0
    for _ in range(_RHO_ROUNDS):
        g = np.asarray(ex.pgf(1.0 - s, 1))
        lo = max(lo, float(np.max(np.interp(s, lo_x, lo_y) * g)))
        bound = np.interp(s[:, 1:], up_x, up_y) * g[:, :-1]
        keep = bound >= lo
        hi = float(np.max(bound[keep], initial=lo))
        if keep.sum() * _RHO_SPLIT > _RHO_MAX_S_POINTS:
            break
        a, b = s[:, :-1][keep], s[:, 1:][keep]
        s = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, _RHO_SPLIT + 1)
    return lo, hi * (1.0 + 1e-12)  # the relative pad covers rounding


def rho_subcritical(law: OffspringLaw) -> float:
    """Subcriticality coefficient: the supremum over [0,1]-valued X of

        E[hphi'(1-X)] * hphi'(1 - E[hphi(1-X)]).

    Returns the lower end of the enclosure: a value that an explicit
    two-point law attains (up to rounding), so a lower bound of rho.
    ``macroscopic_law`` reports both ends and decides rho < 1 on the upper.
    """
    return _rho_interval(law)[0]


@dataclass(frozen=True)
class RegimeReport:
    """Macroscopic-level structure of the message distribution.

    k counts the renormalisation layers (0, 1 or 2): 1 when F_pi peaks at
    gamma, 2 at a conjugate pair, 0 at {0, 1}.  F_pi'(x) = m hphi'(1-x)
    (D(x) - x) puts its maxima at fixed points of D, and gamma is one iff
    hphi'(1-gamma) <= 1.  atoms is the law of the macroscopic level;
    fixed_points lists the doubled-map fixed points (lows, gamma, the lows'
    conjugates, to adjacent doubles with no margin; empty when
    degenerate_family, D the identity); [rho, rho_upper] encloses the subcriticality coefficient
    (rho is attained by a two-point law, rho_upper bounds it from above);
    unique_double_fp records whether gamma is the only fixed point in the
    open interval (0, 1).  subcritical means rho_upper < 1: this is where
    the code decides the regime.
    """

    k: int
    atoms: tuple
    fixed_points: tuple
    rho: float
    rho_upper: float
    unique_double_fp: bool
    degenerate_family: bool = False

    @property
    def subcritical(self) -> bool:
        return self.rho_upper < 1.0


def macroscopic_law(law: OffspringLaw) -> RegimeReport:
    """Classify the macroscopic level distribution of the messages.

    F_pi'(x) = m hphi'(1-x) (D(x) - x), so F_pi peaks where D(x) - x
    changes sign from + to -, and F_pi(t) = F_pi(S(t)) on a conjugate pair.
    gamma is a peak iff D'(gamma) = hphi'(1-gamma)^2 <= 1, and surely when
    no fixed point lies below it (then D(x) >= x on [0, gamma)).  The best
    point is the argmax of F_pi over the low fixed points and over gamma
    when gamma is a peak.  Interior is 0 < t < 1, with no margin.  An interior
    gamma yields k=1 with level law (gamma, 1-gamma); an interior low gl, however
    small (4.2e-18 at Poisson(40)), yields k=2 with level law (gl, S(gl)-gl,
    1-S(gl)); a best point at 0 (exact, leafless laws only) or gamma = 1 (hphi
    identically 1) yields k=0 (level identically 0, perfect-matching regime).
    """
    rho, rho_upper = _rho_interval(law)
    try:
        fps = double_fixed_points(law)
    except DegenerateFamilyError:
        return RegimeReport(0, (1.0,), (), rho, rho_upper, False, degenerate_family=True)
    lows, gamma = fps[: len(fps) // 2], fps[len(fps) // 2]
    peak = not lows or law.excess_pgf(1.0 - gamma, 1) <= 1.0
    best = max(lows + [gamma] if peak else lows, key=lambda t: F_pi(law, t))
    interior = [t for t in fps if 0.0 < t < 1.0]
    if best == gamma and best in interior:
        k, atoms = 1, (gamma, 1.0 - gamma)
    elif best in interior:
        gh = float(law.excess_pgf(1.0 - best))
        k, atoms = 2, (best, gh - best, 1.0 - gh)
    else:
        k, atoms = 0, (1.0,)
    return RegimeReport(k, atoms, tuple(fps), rho, rho_upper, unique_double_fp=interior == [gamma])
