"""Offspring laws, generating-function analytics and regime classification.

An offspring law pi lives on the non-negative integers with probability
generating function phi and mean m = phi'(1).  Everything downstream of a
sparse-graph/branching-tree limit is driven by the *excess* generating
function

    hphi(x) = phi'(x) / phi'(1),

the pgf of the law of the number of children of a non-root vertex of the
unimodular branching tree (equivalently, the excess-degree law
k -> (k+1) pi(k+1) / m).  This module computes phi and hphi in closed form
per family, locates the fixed points of the doubled map
t -> hphi(1 - hphi(1 - t)), evaluates the matching functional F_pi whose
maximum gives the asymptotic matched-vertex density, recovers the
Karp-Sipser constants for Poisson laws, and encloses the subcriticality
coefficient rho (the contraction rate of the two-step message operator) in
an interval [lo, hi].  A two-point law attains lo, so lo is a lower bound;
hi is an upper bound, and only hi < 1 certifies the contracting regime.
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
    "KarpSipserConstants",
    "size_biased_pgf_inverse",
    "double_map",
    "double_fixed_points",
    "F_pi",
    "matching_vertex_density",
    "karp_sipser_poisson",
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

    @staticmethod
    def delta(k: int) -> "OffspringLaw":
        return OffspringLaw.finite_support([0.0] * k + [1.0])

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
        table = self.pmf_values(self._table_kmax())
        return _sample_table(table, rng, size)

    def sample_excess(self, rng: np.random.Generator, size=None):
        """Draw from the excess law (children of a non-root tree vertex)."""
        return self.excess.sample(rng, size)

    def _table_kmax(self) -> int:
        if self.family == "finite":
            return len(self.pmf) - 1
        if self.family in ("geometric", "geometric1"):
            p = self.params[0]
            return max(4, int(2 + math.log(1e-14) / math.log(1.0 - p)))
        if self.family == "poisson":
            c = self.params[0]
            return int(c + 12 * math.sqrt(c) + 30)
        n, _ = self.params
        return n

    # -- spec-string round trip ---------------------------------------

    def spec_string(self) -> str:
        if self.family == "poisson":
            return f"poisson:{self.params[0]:g}"
        if self.family == "geometric":
            return f"geom:{self.params[0]:g}"
        if self.family == "binomial":
            return f"binom:{self.params[0]}:{self.params[1]:g}"
        if self.family == "geometric1":
            raise LawError("no spec string names geometric1")
        return "pmf:" + ",".join(f"{v:g}" for v in self.pmf)


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


_SCAN_POINTS = 10_000


def double_fixed_points(law: OffspringLaw, tol: float = 1e-12) -> list[float]:
    """All fixed points of t -> hphi(1-hphi(1-t)) on [0, 1].

    Sign-change scan on a 10^4-point grid followed by bisection; tangential
    roots are recovered from grid minima of the residual.  Raises
    DegenerateFamilyError when the map is the identity on a subinterval
    (residual below 10*tol at >= 10 distinct equispaced interior points).
    """
    if tol <= 0:
        raise LawError("tol must be positive")
    grid = np.linspace(0.0, 1.0, _SCAN_POINTS)
    resid = np.asarray(double_map(law, grid)) - grid

    interior = np.linspace(0.05, 0.95, 10)
    interior_resid = np.abs(np.asarray(double_map(law, interior)) - interior)
    if np.all(interior_resid < 10.0 * tol):
        raise DegenerateFamilyError(
            "doubled map is the identity on [0,1]; continuum of fixed points"
        )

    roots: list[float] = []

    def _add(r: float) -> None:
        for existing in roots:
            if abs(existing - r) < 1e-8:
                return
        roots.append(r)

    # grid zeros and sign changes, in grid order
    for i in np.flatnonzero((resid[:-1] == 0.0) | (resid[:-1] * resid[1:] < 0.0)):
        if resid[i] == 0.0:
            _add(grid[i])
            continue
        lo, hi, flo = grid[i], grid[i + 1], resid[i]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fm = double_map(law, mid) - mid
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        _add(0.5 * (lo + hi))
    if resid[-1] == 0.0:
        _add(1.0)

    # tangential roots: local minima of |resid| that touch zero
    absr = np.abs(resid)
    inner = absr[1:-1]
    for i in 1 + np.flatnonzero((inner < 1e-7) & (inner <= absr[:-2]) & (inner <= absr[2:])):
        lo, hi = grid[i - 1], grid[i + 1]
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if abs(double_map(law, m1) - m1) < abs(double_map(law, m2) - m2):
                hi = m2
            else:
                lo = m1
            if hi - lo < tol:
                break
        cand = 0.5 * (lo + hi)
        if abs(double_map(law, cand) - cand) < 1e-9:
            _add(cand)

    roots.sort()
    return roots


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
        fps = double_fixed_points(law, tol=1e-12)
    except DegenerateFamilyError:
        return 1.0
    candidates = np.concatenate([fps, np.linspace(0.0, 1.0, 2001)])
    return 2.0 - float(np.max(F_pi(law, candidates)))


@dataclass(frozen=True)
class KarpSipserConstants:
    """Closed-form asymptotics for Poisson(c) maximum matchings."""

    gamma_low: float
    gamma_high: float
    beta: float
    edge_density: float
    vertex_density: float


def karp_sipser_poisson(c: float) -> KarpSipserConstants:
    """Extreme conjugate pair and matching densities for Poisson(c).

    gamma_low/gamma_high solve gamma_high = exp(-c gamma_low) and
    gamma_low = exp(-c gamma_high); beta = c gl gh + gl + gh - 1 is the
    atom of the level-0 message CDF at zero; the matched-vertex density is
    2 - gh - gl - c gl gh.
    """
    if not (c > 0 and math.isfinite(c)):
        raise LawError(f"c must be positive, got {c}")
    law = OffspringLaw.poisson(c)
    fps = double_fixed_points(law, tol=1e-14)
    gl, gh = fps[0], math.exp(-c * fps[0])
    beta = c * gl * gh + gl + gh - 1.0
    edge = (2.0 - gh - gl - c * gl * gh) / c
    return KarpSipserConstants(gl, gh, beta, edge, c * edge)


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

    k counts the renormalisation layers (0, 1 or 2); atoms is the law of
    the macroscopic level; fixed_points lists the doubled-map fixed
    points; [rho, rho_upper] encloses the subcriticality coefficient (rho
    is attained by a two-point law, rho_upper bounds it from above);
    unique_double_fp records whether the doubled map has exactly one fixed
    point in the open interval (0, 1).  subcritical means rho_upper < 1:
    this is where the code decides the regime.
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

    A single argmax gamma of F_pi yields k=1 with level law
    (gamma, 1-gamma); a conjugate argmax pair (gl, gh) yields k=2 with
    level law (gl, gh-gl, 1-gh); argmax at the endpoints {0, 1} yields
    k=0 (level identically 0, leafless perfect-matching regime).
    """
    rho, rho_upper = _rho_interval(law)
    try:
        fps = double_fixed_points(law, tol=1e-12)
    except DegenerateFamilyError:
        return RegimeReport(0, (1.0,), (), rho, rho_upper, False, degenerate_family=True)
    interior = [t for t in fps if 1e-10 < t < 1.0 - 1e-10]
    fvals = [float(F_pi(law, t)) for t in fps]
    fmax = max(fvals) if fvals else 2.0
    argmax = [t for t, v in zip(fps, fvals) if v > fmax - 1e-8]
    argmax_interior = [t for t in argmax if 1e-10 < t < 1.0 - 1e-10]

    if len(argmax_interior) == 1 and len(argmax) == 1:
        g = argmax_interior[0]
        k, atoms = 1, (g, 1.0 - g)
    elif len(argmax_interior) == 2 and len(argmax) == 2:
        gl, gh = argmax_interior
        k, atoms = 2, (gl, gh - gl, 1.0 - gh)
    else:
        k, atoms = 0, (1.0,)
    return RegimeReport(k, atoms, tuple(fps), rho, rho_upper, unique_double_fp=len(interior) == 1)


def _sample_table(pmf: np.ndarray, rng: np.random.Generator, size=None):
    cdf = np.cumsum(pmf)
    cdf = cdf / cdf[-1]
    if size is None:
        return int(np.searchsorted(cdf, rng.random(), side="right"))
    u = rng.random(size)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)
