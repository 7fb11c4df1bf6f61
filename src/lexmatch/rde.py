"""Distributional fixed points of the lexicographic message recursion.

The stationary law of a message (level, z) is encoded by a vector of
monotone grid-sampled functions (h_0, ..., h_k): h_j(t) is the
probability that the level is below j, plus the probability that it
equals j with z <= t.  The functions solve the coupled system

    h_j(t) = hphi(1 - E[h_{k-j}(W - t)])        for 0 < j <= k,
    h_0(t) = 1_{t>=0} hphi(1 - E[h_k(W - t)]),

with increasing-limit stitching between consecutive layers; the plateau
values are fixed points of the doubled map and the atom beta = h_0(0)
controls the asymptotic matching size.  When the excess law puts no mass
at zero (leafless trees) the indicator disappears and the limits 0 and 1
pin the outer layers instead.

Solvers here iterate the damped operator on a uniform grid with the
weight expectation computed by trapezoid quadrature on the weight CDF
and the atom of h_0 handled in closed form (smearing it onto the grid
would bias the size formulas).  A pool-based population-dynamics solver
provides an independent route to the same law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .genfn import OffspringLaw, size_biased_pgf_inverse, F_pi
from .randgraph import WeightLaw

__all__ = [
    "ConvergenceError",
    "GridSpec",
    "GridCdf",
    "CdfSystem",
    "SolverAttempt",
    "ZetaSampler",
    "solve_system",
    "conservation_check",
    "size_from_system",
    "zeta_prime",
    "population_dynamics",
    "rde_step",
    "system_to_csv",
]


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance; carries last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [-T, T - step] containing 0 exactly.

    T defaults to 8 * (mean effective weight + 1); message supports are
    alternating weight sums, so integrable weights stay well inside.
    """

    n_points: int = 4096
    t_max: float | None = None
    MIN_POINTS: ClassVar[int] = 64

    def build(self, default_t: float) -> np.ndarray:
        T = self.t_max if self.t_max is not None else default_t
        if self.n_points < self.MIN_POINTS:
            raise ValueError(f"grid needs at least {self.MIN_POINTS} points")
        if not (math.isfinite(T) and T > 0):
            raise ValueError(f"grid half-width must be positive and finite, got {T}")
        step = 2.0 * T / self.n_points
        i0 = self.n_points // 2
        return (np.arange(self.n_points) - i0) * step


@dataclass
class GridCdf:
    """Monotone grid-sampled cadlag function with a tracked atom at zero."""

    t: np.ndarray
    values: np.ndarray
    atom0: float = 0.0

    @property
    def left_limit(self) -> float:
        return float(self.values[0])

    @property
    def right_limit(self) -> float:
        return float(self.values[-1])

    def __post_init__(self):
        if np.any(np.diff(self.values) < -1e-10):
            raise ValueError("GridCdf values must be non-decreasing")


@dataclass(frozen=True)
class SolverAttempt:
    """One fixed-point attempt of the grid solver.

    `reason` says why it ended: "converged", "stalled" (the residual of
    the undamped first attempt stopped shrinking) or "max_iter".
    """

    damping: float
    iterations: int
    residual: float
    reason: str

    def describe(self) -> str:
        return (
            f"damping {self.damping:g}: {self.reason} after {self.iterations} "
            f"iterations (residual {self.residual:.3e})"
        )


@dataclass
class CdfSystem:
    """Solved layer vector with plateau levels and convergence history.

    `residuals` is the residual history of the final (converged) attempt;
    `attempts` records every attempt, in order.
    """

    k: int
    levels: list
    law: OffspringLaw
    wlaw: WeightLaw
    residuals: list = field(default_factory=list)
    leafless: bool = False
    attempts: list = field(default_factory=list)

    @property
    def beta(self) -> float:
        return self.levels[0].atom0

    @property
    def plateau(self) -> list[float]:
        """l_1..l_k: the stitched limits P(level < j)."""
        return [self.levels[j].right_limit for j in range(self.k)]

    def level_masses(self) -> np.ndarray:
        return np.array([lv.right_limit - lv.left_limit for lv in self.levels])

    def stitching_gap(self) -> float:
        gaps = [
            abs(self.levels[j].right_limit - self.levels[j + 1].left_limit)
            for j in range(self.k)
        ]
        return max(gaps) if gaps else 0.0


class _Quadrature:
    """E[h(W - t)] on an aligned lattice, exact for piecewise-linear h.

    The weight support is covered by grid-aligned nodes w_s; cell masses
    come from CDF differences and each cell contributes the trapezoid
    (h(w_s - t) + h(w_{s+1} - t))/2.  With both lattices Delta-aligned the
    sum over cells is a correlation, evaluated with numpy.
    """

    def __init__(self, t: np.ndarray, wlaw: WeightLaw):
        self.t = t
        self.wlaw = wlaw
        self.n = len(t)
        self.i0 = int(np.searchsorted(t, 0.0))
        assert t[self.i0] == 0.0
        self.step = float(t[1] - t[0])
        a, b = wlaw.support()
        if math.isinf(b):
            # truncate the exponential tail at negligible mass
            b = -math.log(1e-14) / wlaw.params[0]
        j_lo = int(math.floor(a / self.step)) - 1
        j_hi = int(math.ceil(b / self.step)) + 1
        nodes = np.arange(j_lo, j_hi + 1)
        cdf_at = wlaw.cdf(nodes * self.step)
        masses = np.diff(cdf_at)
        total = masses.sum()
        if total <= 0:
            raise ValueError("weight law has no mass on the quadrature window")
        masses = masses / total
        # point weights: half of each adjacent cell mass
        q = np.zeros(len(nodes))
        q[:-1] += 0.5 * masses
        q[1:] += 0.5 * masses
        self.j_lo = j_lo
        self.q = q

    def expect(self, values: np.ndarray) -> np.ndarray:
        """E[h(W - t_i)] for h piecewise linear with flat extensions."""
        K = len(self.q)
        # index of h-node for cell node s at output i: base + s - i
        base = 2 * self.i0 + self.j_lo
        lo_idx = base - (self.n - 1)
        hi_idx = base + K - 1
        left_pad = max(0, -lo_idx)
        right_pad = max(0, hi_idx - (self.n - 1))
        ext = np.concatenate(
            [
                np.full(left_pad, values[0]),
                values,
                np.full(right_pad, values[-1]),
            ]
        )
        window = ext[lo_idx + left_pad : hi_idx + left_pad + 1]
        out = np.correlate(window, self.q, mode="valid")[::-1]
        return out

    def survival(self) -> np.ndarray:
        """P(W >= t_i), used for the closed-form atom contribution."""
        return 1.0 - np.asarray(self.wlaw.cdf(self.t))


def _expect_layer(quad: _Quadrature, cdf: GridCdf) -> np.ndarray:
    """Expectation with the atom at zero of the layer handled exactly."""
    if cdf.atom0 > 0.0:
        cont = cdf.values.copy()
        cont[quad.i0 :] -= cdf.atom0
        return quad.expect(cont) + cdf.atom0 * quad.survival()
    return quad.expect(cdf.values)


def _monotone_guard(arr: np.ndarray) -> np.ndarray:
    if np.any(np.diff(arr) < -1e-9):
        raise ConvergenceError("iterate lost monotonicity", float("nan"))
    return np.maximum.accumulate(np.clip(arr, 0.0, 1.0))


def _recenter(values: np.ndarray, i0: int) -> np.ndarray:
    """Integer-cell shift putting the half-mass crossing at t = 0.

    Layers without an indicator are translation invariant, so the
    iteration has a neutral drift mode; pinning the crossing removes it.
    """
    lo, hi = values[0], values[-1]
    if hi - lo < 1e-12:
        return values
    target = 0.5 * (lo + hi)
    idx = int(np.searchsorted(values, target))
    shift = idx - i0
    if abs(shift) < 2:
        return values
    out = np.roll(values, -shift)
    if shift > 0:
        out[-shift:] = values[-1]
    else:
        out[:-shift] = values[0]
    return _monotone_guard(out)


# An undamped attempt whose minimum residual over the last _STALL_WINDOW
# iterations stays above _STALL_RATIO times its minimum before them is
# taken to be stuck in the period-2 cycle of the order-reversing operator.
# Slow contractions that still converge within the default 5000 iterations
# shrink it by more per window: poisson:2.71 with uniform weights, which
# converges at iteration 4899, peaks at a window ratio of 0.89.
_STALL_WINDOW = 50
_STALL_RATIO = 0.9


def _iterate(law, quad, layers, k, leafless, tol, max_iter, damping, stall_exit=False):
    """Damped fixed-point iteration of the joint layer operator.

    Returns the final layers, the residual history and why the attempt
    ended: "converged", "max_iter", or "stalled" (only with stall_exit).
    The input list is left untouched.
    """
    i0 = quad.i0
    layers = list(layers)
    residuals = []
    floor = math.inf  # minimum residual before the current window
    for it in range(max_iter):
        expect = [_expect_layer(quad, lv) for lv in layers]
        new_vals = []
        for j in range(k + 1):
            raw = np.asarray(law.excess_pgf(np.clip(1.0 - expect[k - j], 0.0, 1.0)))
            if j == 0 and not leafless:
                raw = raw * (quad.t >= 0.0)
            new_vals.append(raw)
        resid = 0.0
        for j in range(k + 1):
            mixed = (1.0 - damping) * layers[j].values + damping * new_vals[j]
            if leafless and 2 * j == k:
                mixed = _recenter(mixed, i0)
            mixed = _monotone_guard(mixed)
            resid = max(resid, float(np.max(np.abs(mixed - layers[j].values))))
            atom = float(mixed[i0]) if (j == 0 and not leafless) else 0.0
            layers[j] = GridCdf(quad.t, mixed, atom)
        residuals.append(resid)
        if resid < tol:
            return layers, residuals, "converged"
        if stall_exit and it >= _STALL_WINDOW:
            floor = min(floor, residuals[it - _STALL_WINDOW])
            if min(residuals[-_STALL_WINDOW:]) > _STALL_RATIO * floor:
                return layers, residuals, "stalled"
    return layers, residuals, "max_iter"


def _iterate_with_fallback(law, quad, layers, k, leafless, tol, max_iter, damping):
    """Run the fixed-point attempts from `layers`; return the converged
    layers, the final attempt's residual history and every attempt.

    With a given damping there is one attempt of up to max_iter
    iterations.  Without one, an undamped attempt runs first (it meets the
    two-step contraction rate when the regime contracts); it ends early
    once its residual stalls, i.e. the minimum over the last _STALL_WINDOW
    iterations stays above _STALL_RATIO times the minimum before them.
    Then a half-damped attempt, which tames the period-2 oscillation of
    the order-reversing operator, restarts from the same initial layers.
    Raises ConvergenceError naming every attempt when none converges.
    """
    plan = [(1.0, True), (0.5, False)] if damping is None else [(damping, False)]
    attempts = []
    for step, stall_exit in plan:
        out, residuals, reason = _iterate(
            law, quad, layers, k, leafless, tol, max_iter, step, stall_exit
        )
        attempts.append(SolverAttempt(step, len(residuals), residuals[-1], reason))
        if reason == "converged":
            return out, residuals, attempts
    raise ConvergenceError(
        "no convergence: " + "; ".join(a.describe() for a in attempts),
        attempts[-1].residual,
    )


def solve_system(
    law: OffspringLaw,
    wlaw: WeightLaw,
    k: int,
    grid: GridSpec = GridSpec(),
    tol: float = 1e-9,
    max_iter: int = 5000,
    damping: float | None = None,
) -> CdfSystem:
    """Solve the renormalised (k+1)-layer system for the message law.

    k should come from the macroscopic regime classification.  With the
    default damping=None an undamped attempt runs first and, if its
    residual stalls (as in the period-2 cycle outside the contracting
    regime), a half-damped attempt restarts from the initial layers; a
    given damping makes a single attempt of up to max_iter iterations.
    The returned system lists every attempt in `attempts`, and
    ConvergenceError names each one when none converges.  With a leafless
    excess law (hphi(0) = 0) the indicator variant is replaced by the
    pinned-limit variant automatically.  The weight law must be atomless:
    the grid tracks no atom but the one of h_0 at zero.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not wlaw.atomless:
        raise ValueError(f"solve_system needs an atomless weight law, got {wlaw.spec_string()}")
    leafless = float(law.excess_pgf(0.0)) == 0.0
    t = grid.build(default_t=8.0 * (wlaw.mean + 1.0))
    quad = _Quadrature(t, wlaw)
    n = len(t)
    i0 = quad.i0

    # initial layers: stacked ramps giving a rough increasing profile per
    # layer; outer-pair attraction pulls the plateaus to the extreme
    # doubled fixed points from below/above
    layers = []
    for j in range(k + 1):
        lo = j / (k + 2.0)
        hi = (j + 1.5) / (k + 2.0)
        ramp = lo + (hi - lo) * (np.arange(n) / (n - 1.0))
        if j == 0 and not leafless:
            ramp = ramp * (t >= 0.0)
        if leafless and j == 0:
            ramp = np.clip(ramp - lo, 0.0, 1.0)
        if leafless and j == k:
            ramp = np.clip(ramp + (1.0 - hi), 0.0, 1.0)
        layers.append(GridCdf(t, _monotone_guard(ramp), 0.0))

    layers, residuals, attempts = _iterate_with_fallback(
        law, quad, layers, k, leafless, tol, max_iter, damping
    )
    return CdfSystem(
        k=k,
        levels=layers,
        law=law,
        wlaw=wlaw,
        residuals=residuals,
        leafless=leafless,
        attempts=attempts,
    )


def _inverse_integral(law: OffspringLaw, a: float, b: float, points: int = 4097) -> float:
    """Integral of 1 - hphi^{-1}(u) over [a, b] by trapezoid quadrature."""
    if b <= a:
        sign = -1.0
        a, b = b, a
    else:
        sign = 1.0
    if b - a < 1e-15:
        return 0.0
    u = np.linspace(a, b, points)
    vals = 1.0 - np.asarray(size_biased_pgf_inverse(law, u))
    return sign * float(np.trapezoid(vals, u))


def conservation_check(sys: CdfSystem) -> dict:
    """Numerical residuals of the boundary-value conservation identities.

    "bords": beta (1 - hphi^{-1}(beta)) + int_beta^{l_1} (1 - hphi^{-1})
             minus l_k l_1 + int_{l_k}^1 (1 - hphi^{-1});
    "energy": the j <-> k-j balance for interior layers (vacuous when
    k <= 2 since the two sides coincide symbolically).
    """
    law = sys.law
    if sys.k == 0:
        return {"bords": 0.0, "energy": []}
    ls = {j + 1: sys.levels[j].right_limit for j in range(sys.k)}
    ls[sys.k + 1] = 1.0
    beta = sys.beta
    l1, lk = ls[1], ls[sys.k]
    lhs = beta * (1.0 - float(size_biased_pgf_inverse(law, beta))) + _inverse_integral(
        law, beta, l1
    )
    rhs = lk * l1 + _inverse_integral(law, lk, 1.0)
    energy = []
    for j in range(1, sys.k):
        left = ls[j] * ls[sys.k - j + 1] + _inverse_integral(law, ls[j], ls[j + 1])
        right = ls[j + 1] * ls[sys.k - j] + _inverse_integral(
            law, ls[sys.k - j], ls[sys.k - j + 1]
        )
        energy.append(abs(left - right))
    return {"bords": abs(lhs - rhs), "energy": energy}


def size_from_system(sys: CdfSystem) -> float:
    """Matched-edge density beta (1 - hphi^{-1}(beta)) + int_beta^1 (1 - hphi^{-1}).

    Multiplying by the offspring mean gives the matched-vertex density,
    which cross-checks against (2 - F_pi(l_1)) / phi'(1).
    """
    law = sys.law
    beta = sys.beta
    out = _inverse_integral(law, beta, 1.0)
    if beta > 0:
        out += beta * (1.0 - float(size_biased_pgf_inverse(law, beta)))
    return out


def size_from_functional(sys: CdfSystem) -> float:
    """The same edge density through the matching functional at l_1."""
    law = sys.law
    l1 = sys.levels[0].right_limit if sys.k >= 1 else 1.0
    return (2.0 - float(F_pi(law, l1))) / law.mean


@dataclass
class ZetaSampler:
    """Sampler of stationary messages (level, z).

    source="grid": inverse-CDF per layer of a solved CdfSystem, with the
    layer-0 atom at zero reproduced exactly.  source="pool": empirical
    resampling from a population-dynamics pool.
    """

    source: str
    k: int
    level_probs: np.ndarray
    layers: list | None = None  # (t, values, lo, hi, atom) tuples for grid source
    pool_levels: np.ndarray | None = None
    pool_z: np.ndarray | None = None

    def sample(self, rng: np.random.Generator, n: int):
        if self.source == "pool":
            idx = rng.integers(0, len(self.pool_levels), n)
            return self.pool_levels[idx].copy(), self.pool_z[idx].copy()
        levels = np.searchsorted(np.cumsum(self.level_probs), rng.random(n), side="right")
        levels = np.minimum(levels, self.k).astype(np.int64)
        z = np.empty(n)
        for j in range(self.k + 1):
            mask = levels == j
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            t, values, lo, hi, atom = self.layers[j]
            u = lo + (hi - lo) * rng.random(cnt)
            zj = np.interp(u, values, t)
            if atom > 0.0:
                zj = np.where(u <= lo + atom, 0.0, zj)
            z[mask] = zj
        return levels, z


def zeta_prime(sys: CdfSystem) -> ZetaSampler:
    """Inverse-CDF sampler of the solved message law."""
    probs = sys.level_masses()
    total = probs.sum()
    if total <= 0:
        raise ValueError("solved system carries no probability mass")
    layers = []
    for j in range(sys.k + 1):
        lv = sys.levels[j]
        # strictly increasing values are required by interp; collapse
        # flat stretches by a negligible slope
        vals = np.maximum.accumulate(lv.values + 1e-15 * np.arange(len(lv.values)))
        layers.append((lv.t, vals, lv.left_limit, lv.right_limit, lv.atom0))
    return ZetaSampler(
        source="grid", k=sys.k, level_probs=probs / total, layers=layers
    )


def rde_step(
    sampler: ZetaSampler,
    law: OffspringLaw,
    wlaw: WeightLaw,
    rng: np.random.Generator,
    n: int,
):
    """Push n samples through one step of the lexicographic recursion.

    Draws N from the excess law, fresh weights from wlaw, inputs from the
    sampler, and returns the resulting (levels, z) arrays.  Stationarity
    of the sampler's law means the output law matches the input law.
    """
    N = np.asarray(law.sample_excess(rng, n))
    M = max(int(N.max()), 1)
    in_lvl, in_z = sampler.sample(rng, n * M)
    in_lvl = in_lvl.reshape(n, M)
    in_z = in_z.reshape(n, M)
    w = np.asarray(wlaw.sample(rng, (n, M)), dtype=float)
    return _lex_reduce(sampler.k, N, in_lvl, in_z, w)


def _lex_reduce(k, N, in_lvl, in_z, w):
    """maxlex((0,0), max_m (k, w_m) - (lvl_m, z_m)) row-wise."""
    n, M = in_lvl.shape
    cand_lvl = k - in_lvl
    cand_z = w - in_z
    valid = np.arange(M)[None, :] < np.asarray(N)[:, None]
    lvl_masked = np.where(valid, cand_lvl, -(10**9))
    max_lvl = lvl_masked.max(axis=1)
    z_masked = np.where(valid & (lvl_masked == max_lvl[:, None]), cand_z, -np.inf)
    max_z = z_masked.max(axis=1)
    out_lvl = np.where(max_lvl > 0, max_lvl, 0).astype(np.int64)
    out_z = np.where(
        max_lvl > 0, max_z, np.where(max_lvl == 0, np.maximum(max_z, 0.0), 0.0)
    )
    return out_lvl, out_z


def population_dynamics(
    law: OffspringLaw,
    wlaw: WeightLaw,
    k: int,
    pool_size: int = 20_000,
    iters: int = 60,
    seed=None,
) -> ZetaSampler:
    """Pool-based Monte Carlo solver for the message law.

    Repeatedly replaces uniformly chosen pool entries by one application
    of the recursion fed from the current pool (asynchronous batches, so
    the order-reversing operator cannot lock into a two-cycle).  `iters`
    counts full-pool sweeps.
    """
    if pool_size < 10_000:
        raise ValueError("pool_size must be at least 10^4")
    rng = seed.generator() if hasattr(seed, "generator") else np.random.default_rng(seed)
    pool_lvl = np.zeros(pool_size, dtype=np.int64)
    pool_z = np.zeros(pool_size)
    batch = max(1, pool_size // 8)
    total = iters * pool_size
    done = 0
    while done < total:
        b = min(batch, total - done)
        N = np.asarray(law.sample_excess(rng, b))
        M = max(int(N.max()), 1)
        idx = rng.integers(0, pool_size, (b, M))
        w = np.asarray(wlaw.sample(rng, (b, M)), dtype=float)
        out_lvl, out_z = _lex_reduce(k, N, pool_lvl[idx], pool_z[idx], w)
        slots = rng.integers(0, pool_size, b)
        pool_lvl[slots] = out_lvl
        pool_z[slots] = out_z
        done += b
    probs = np.bincount(pool_lvl, minlength=k + 1).astype(float) / pool_size
    return ZetaSampler(
        source="pool", k=k, level_probs=probs, pool_levels=pool_lvl, pool_z=pool_z
    )


def system_to_csv(sys: CdfSystem) -> str:
    """CSV dump: header comment with grid metadata, then level,t,h rows."""
    t = sys.levels[0].t
    step = float(t[1] - t[0])
    plateaus = ",".join(f"{v:.12g}" for v in sys.plateau)
    lines = [
        f"# lexmatch-cdfsystem v1 k={sys.k} T={float(-t[0]):.12g} delta={step:.12g} "
        f"beta={sys.beta:.12g} plateaus={plateaus}"
    ]
    lines.append("level,t,h")
    for j, lv in enumerate(sys.levels):
        for ti, hi in zip(lv.t, lv.values):
            lines.append(f"{j},{ti:.12g},{hi:.12g}")
    return "\n".join(lines) + "\n"
