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
Karp-Sipser constants for Poisson laws, and computes the subcriticality
coefficient rho (the contraction rate of the two-step message operator).
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


def _as_unit_interval(x, tol: float = 1e-9):
    """Validate x in [0,1] (scalar or array), clipping float fuzz."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -tol) or np.any(arr > 1.0 + tol):
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
        if any(v < 0 for v in probs):
            raise LawError("pmf entries must be non-negative")
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
        ks = np.arange(len(self.pmf))
        return float(np.dot(ks, self.pmf))

    def pgf(self, x, order: int = 0):
        """phi(x) (order 0) or phi'(x) (order 1) on [0, 1]."""
        x = _as_unit_interval(x)
        if order not in (0, 1):
            raise LawError(f"order must be 0 or 1, got {order}")
        if self.family == "poisson":
            c = self.params[0]
            val = np.exp(c * (np.asarray(x) - 1.0))
            val = c * val if order == 1 else val
        elif self.family == "binomial":
            n, q = self.params
            base = 1.0 - q + q * np.asarray(x)
            val = n * q * base ** max(n - 1, 0) if order == 1 else base ** n
        elif self.family == "geometric":
            p = self.params[0]
            q = 1.0 - p
            norm = -math.log(p) - q
            xa = np.asarray(x)
            if order == 1:
                val = (q * q * xa) / ((1.0 - q * xa) * norm)
            else:
                val = (-np.log(1.0 - q * xa) - q * xa) / norm
        elif self.family == "geometric1":
            p = self.params[0]
            xa = np.asarray(x)
            denom = 1.0 - (1.0 - p) * xa
            val = p / denom**2 if order == 1 else p * xa / denom
        else:
            coeffs = np.asarray(self.pmf)
            ks = np.arange(len(coeffs))
            if order == 1:
                dcoeffs = (coeffs * ks)[1:] if len(coeffs) > 1 else np.array([0.0])
                val = np.polyval(dcoeffs[::-1], np.asarray(x, dtype=float))
            else:
                val = np.polyval(coeffs[::-1], np.asarray(x, dtype=float))
        return val if np.ndim(x) else float(val)

    def excess_pgf(self, x, order: int = 0):
        """hphi(x) = phi'(x)/phi'(1) (order 0) or hphi'(x) (order 1)."""
        return self.excess.pgf(x, order)

    def excess_pmf(self, tail: float = 1e-12) -> np.ndarray:
        """Excess-law pmf (k+1) pi(k+1) / m, truncated to mass >= 1-tail."""
        return self.excess._pmf_table(tail)

    def _pmf_table(self, tail: float) -> np.ndarray:
        """pi(0), pi(1), ... up to mass >= 1-tail, for the families of excess laws."""
        if self.family in ("binomial", "finite"):
            return self.pmf_values(self._table_kmax())
        c = p = self.params[0]
        probs = []
        total = 0.0
        while total < 1.0 - tail and len(probs) < 4000:
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
        if self.family == "geometric":
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


def size_biased_pgf_inverse(law: OffspringLaw, y, tol: float = 1e-12):
    """Invert the increasing map hphi on [0, 1] by bisection (vectorized)."""
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
        if np.max(hi - lo) < tol:
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


def _nelder_mead(fun, x0: np.ndarray, scale: float = 0.02, iters: int = 400):
    """Minimal Nelder-Mead for smooth low-dimensional refinement."""
    n = len(x0)
    simplex = [np.asarray(x0, dtype=float)]
    for i in range(n):
        pt = simplex[0].copy()
        pt[i] += scale
        simplex.append(pt)
    vals = [fun(p) for p in simplex]
    for _ in range(iters):
        order = np.argsort(vals)
        simplex = [simplex[i] for i in order]
        vals = [vals[i] for i in order]
        if abs(vals[-1] - vals[0]) < 1e-14:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        refl = centroid + (centroid - simplex[-1])
        frefl = fun(refl)
        if vals[0] <= frefl < vals[-2]:
            simplex[-1], vals[-1] = refl, frefl
        elif frefl < vals[0]:
            expd = centroid + 2.0 * (centroid - simplex[-1])
            fexp = fun(expd)
            if fexp < frefl:
                simplex[-1], vals[-1] = expd, fexp
            else:
                simplex[-1], vals[-1] = refl, frefl
        else:
            contr = centroid + 0.5 * (simplex[-1] - centroid)
            fcon = fun(contr)
            if fcon < vals[-1]:
                simplex[-1], vals[-1] = contr, fcon
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    vals[i] = fun(simplex[i])
    best = int(np.argmin(vals))
    return simplex[best], vals[best]


def rho_subcritical(law: OffspringLaw, grid: int = 200) -> float:
    """Subcriticality coefficient: the supremum over [0,1]-valued X of

        E[hphi'(1-X)] * hphi'(1 - E[hphi(1-X)]).

    For a fixed value of the moment E[hphi(1-X)] the objective is linear
    in the law of X, so the supremum is attained on two-point supports
    (x1, x2, lambda); those are scanned on a grid and refined locally.
    Values below 1 certify the exponentially-contracting message regime.
    """
    if grid < 100:
        raise LawError("grid must be >= 100")

    def objective(x1, x2, lam):
        d1 = law.excess_pgf(1.0 - x1, 1)
        d2 = law.excess_pgf(1.0 - x2, 1)
        h1 = law.excess_pgf(1.0 - x1)
        h2 = law.excess_pgf(1.0 - x2)
        mean_d = lam * d1 + (1.0 - lam) * d2
        mean_h = lam * h1 + (1.0 - lam) * h2
        return mean_d * np.asarray(law.excess_pgf(1.0 - mean_h, 1))

    xs = np.linspace(0.0, 1.0, grid)
    best_val = -np.inf
    best_arg = (0.0, 0.0, 1.0)
    for lam in np.linspace(0.0, 1.0, 50):
        vals = objective(xs[:, None], xs[None, :], lam)
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[idx] > best_val:
            best_val = float(vals[idx])
            best_arg = (float(xs[idx[0]]), float(xs[idx[1]]), float(lam))

    def neg(params):
        x1, x2, lam = np.clip(params, 0.0, 1.0)
        return -float(objective(x1, x2, lam))

    refined, fval = _nelder_mead(neg, np.asarray(best_arg), scale=1.5 / grid)
    return max(best_val, -fval)


@dataclass(frozen=True)
class RegimeReport:
    """Macroscopic-level structure of the message distribution.

    k counts the renormalisation layers (0, 1 or 2); atoms is the law of
    the macroscopic level; fixed_points lists the doubled-map fixed
    points; rho is the subcriticality coefficient; unique_double_fp
    records whether the doubled map has exactly one fixed point in the
    open interval (0, 1); subcritical means rho < 1.
    """

    k: int
    atoms: tuple
    fixed_points: tuple
    rho: float
    unique_double_fp: bool
    subcritical: bool
    degenerate_family: bool = False


def macroscopic_law(law: OffspringLaw) -> RegimeReport:
    """Classify the macroscopic level distribution of the messages.

    A single argmax gamma of F_pi yields k=1 with level law
    (gamma, 1-gamma); a conjugate argmax pair (gl, gh) yields k=2 with
    level law (gl, gh-gl, 1-gh); argmax at the endpoints {0, 1} yields
    k=0 (level identically 0, leafless perfect-matching regime).
    """
    rho = rho_subcritical(law)
    try:
        fps = double_fixed_points(law, tol=1e-12)
    except DegenerateFamilyError:
        return RegimeReport(
            k=0,
            atoms=(1.0,),
            fixed_points=(),
            rho=rho,
            unique_double_fp=False,
            subcritical=rho < 1.0,
            degenerate_family=True,
        )
    interior = [t for t in fps if 1e-10 < t < 1.0 - 1e-10]
    unique_fp = len(interior) == 1
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
    return RegimeReport(
        k=k,
        atoms=atoms,
        fixed_points=tuple(fps),
        rho=rho,
        unique_double_fp=unique_fp,
        subcritical=rho < 1.0,
        degenerate_family=False,
    )


def _sample_table(pmf: np.ndarray, rng: np.random.Generator, size=None):
    cdf = np.cumsum(pmf)
    cdf = cdf / cdf[-1]
    if size is None:
        return int(np.searchsorted(cdf, rng.random(), side="right"))
    u = rng.random(size)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)
