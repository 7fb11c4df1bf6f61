"""Distributional fixed points of the lexicographic message recursion.

The stationary law of a message (level, z) is encoded by a vector of
monotone grid-sampled functions (h_0, ..., h_k): h_j(t) is the
probability that the level is below j, plus the probability that it
equals j with z <= t.  The functions solve the coupled system

    h_j(t) = hphi(1 - E[h_{k-j}(W - t)])        for 0 < j <= k,
    h_0(t) = 1_{t>=0} hphi(1 - E[h_k(W - t)]),

with increasing-limit stitching between consecutive layers; the plateau
values are fixed points of the doubled map, and the atom beta = h_0(0)
gives the matched-edge density in closed form, (1 - phi(hphi^{-1}(beta)))/m,
which is (1 - beta)/c for Poisson(c).  When the excess law puts no mass
at zero (leafless trees) the indicator disappears and the limits 0 and 1
pin the outer layers instead.

A solved `CdfSystem` holds the grid t, one (k + 1) x n array h whose row
j samples h_j on t, and beta, the atom of h_0 at zero.  The grid solver
iterates on it with the weight expectation computed by trapezoid
quadrature on the weight CDF and the atom handled in closed form
(smearing it onto the grid would bias the size formulas), in one fixed
plan: undamped until the residual stalls, then half-damped from the
start.  A pool-based population-dynamics solver provides an independent
route to the same law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .bp import _lex_reduce
from .genfn import OffspringLaw, size_biased_pgf_inverse, F_pi
from .randgraph import RngSeed, WeightLaw

__all__ = [
    "ConvergenceError",
    "GridSpec",
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
    """Solved layers h_0..h_k on the grid t, with convergence history.

    Row j of the (k + 1) x len(t) array `h` samples h_j on `t`; `beta` is
    the atom of h_0 at zero (0.0 for a leafless law).  `residuals` is the
    residual history of the final (converged) attempt; `attempts` records
    every attempt, in order.
    """

    k: int
    t: np.ndarray
    h: np.ndarray
    beta: float
    law: OffspringLaw
    wlaw: WeightLaw
    residuals: list = field(default_factory=list)
    leafless: bool = False
    attempts: list = field(default_factory=list)

    @property
    def plateau(self) -> list[float]:
        """l_1..l_k: the stitched limits P(level < j), as Python floats."""
        return self.h[: self.k, -1].tolist()

    def level_masses(self) -> np.ndarray:
        return self.h[:, -1] - self.h[:, 0]


class _Quadrature:
    """E[h(W - t)] on an aligned lattice, exact for piecewise-linear h.

    The weight support is covered by grid-aligned nodes w_s; cell masses
    come from CDF differences and each cell contributes the trapezoid
    (h(w_s - t) + h(w_{s+1} - t))/2.  With both lattices Delta-aligned the
    sum over cells is a correlation, evaluated with numpy.
    """

    def __init__(self, t: np.ndarray, wlaw: WeightLaw):
        self.t = t
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
        # P(W >= t_i), for the closed-form atom contribution
        self.survival = 1.0 - np.asarray(wlaw.cdf(t))

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


def _expect_layers(quad: _Quadrature, h: np.ndarray, beta: float) -> np.ndarray:
    """E[h_j(W - t)] for every row, with the atom beta of h_0 at zero handled exactly."""
    out = np.empty_like(h)
    for j, row in enumerate(h):
        if j == 0 and beta > 0.0:
            cont = row.copy()
            cont[quad.i0 :] -= beta
            out[j] = quad.expect(cont) + beta * quad.survival
        else:
            out[j] = quad.expect(row)
    return out


def _monotone_guard(arr: np.ndarray) -> np.ndarray:
    if np.any(np.diff(arr) < -1e-9):
        raise ConvergenceError("iterate lost monotonicity", float("nan"))
    return np.maximum.accumulate(np.clip(arr, 0.0, 1.0), axis=-1)


def _recenter(values: np.ndarray, i0: int) -> np.ndarray:
    """Integer-cell shift putting the half-mass crossing at t = 0.

    Layers without an indicator are translation invariant, so the
    iteration has a neutral drift mode; pinning the crossing removes it.
    The caller guards monotonicity of the result.
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
    return out


# (damping, stall exit) of each attempt, in order; see solve_system
_PLAN = ((1.0, True), (0.5, False))
_TOL = 1e-9
_MAX_ITER = 5000
# An undamped attempt whose minimum residual over the last _STALL_WINDOW
# iterations stays above _STALL_RATIO times its minimum before them is
# taken to be stuck in the period-2 cycle of the order-reversing operator.
# Slow contractions that still converge within _MAX_ITER iterations
# shrink it by more per window: poisson:2.71 with uniform weights, which
# converges at iteration 4899, peaks at a window ratio of 0.89.
_STALL_WINDOW = 50
_STALL_RATIO = 0.9


def _iterate(law, quad, h, leafless, damping, stall_exit):
    """Damped fixed-point iteration of the joint layer operator from h.

    Returns the final layers, their h_0 atom, the residual history and why
    the attempt ended: "converged", "max_iter", or "stalled" (only with
    stall_exit).  The input array is left untouched.
    """
    k = len(h) - 1
    i0 = quad.i0
    beta = 0.0
    residuals = []
    floor = math.inf  # minimum residual before the current window
    for it in range(_MAX_ITER):
        expect = _expect_layers(quad, h, beta)
        raw = np.asarray(law.excess_pgf(np.clip(1.0 - expect[::-1], 0.0, 1.0)))
        if not leafless:
            raw[0] *= quad.t >= 0.0
        mixed = (1.0 - damping) * h + damping * raw
        if leafless and k % 2 == 0:
            mixed[k // 2] = _recenter(mixed[k // 2], i0)
        mixed = _monotone_guard(mixed)
        residuals.append(float(np.max(np.abs(mixed - h))))
        h = mixed
        beta = 0.0 if leafless else float(h[0, i0])
        if residuals[-1] < _TOL:
            return h, beta, residuals, "converged"
        if stall_exit and it >= _STALL_WINDOW:
            floor = min(floor, residuals[it - _STALL_WINDOW])
            if min(residuals[-_STALL_WINDOW:]) > _STALL_RATIO * floor:
                return h, beta, residuals, "stalled"
    return h, beta, residuals, "max_iter"


def solve_system(
    law: OffspringLaw,
    wlaw: WeightLaw,
    k: int,
    grid: GridSpec = GridSpec(),
) -> CdfSystem:
    """Solve the renormalised (k+1)-layer system for the message law.

    k should come from the macroscopic regime classification.  An undamped
    attempt runs first; if its residual stalls (as in the period-2 cycle
    outside the contracting regime), i.e. the minimum over the last
    _STALL_WINDOW iterations stays above _STALL_RATIO times the minimum
    before them, a half-damped attempt of up to _MAX_ITER iterations
    restarts from the initial layers.  The returned system lists every
    attempt in `attempts`, and ConvergenceError names each one when none
    converges.  With a leafless excess law (hphi(0) = 0) the indicator
    variant is replaced by the pinned-limit variant automatically.  The
    weight law must be atomless: the grid tracks no atom but the one of
    h_0 at zero.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not wlaw.atomless:
        raise ValueError(f"solve_system needs an atomless weight law, got {wlaw.spec_string()}")
    leafless = float(law.excess_pgf(0.0)) == 0.0
    t = grid.build(default_t=8.0 * (wlaw.mean + 1.0))
    quad = _Quadrature(t, wlaw)
    n = len(t)

    # initial layers: stacked ramps giving a rough increasing profile per
    # layer; outer-pair attraction pulls the plateaus to the extreme
    # doubled fixed points from below/above
    j = np.arange(k + 1)[:, None]
    lo, hi = j / (k + 2.0), (j + 1.5) / (k + 2.0)
    h0 = lo + (hi - lo) * (np.arange(n) / (n - 1.0))
    if leafless:
        h0[k] += 1.0 - hi[k]  # lift h_k to end at 1; h_0 already starts at 0
    else:
        h0[0] *= t >= 0.0
    h0 = _monotone_guard(h0)

    attempts = []
    for damping, stall_exit in _PLAN:
        h, beta, residuals, reason = _iterate(law, quad, h0, leafless, damping, stall_exit)
        attempts.append(SolverAttempt(damping, len(residuals), residuals[-1], reason))
        if reason == "converged":
            return CdfSystem(k, t, h, beta, law, wlaw, residuals, leafless, attempts)
    raise ConvergenceError(
        "no convergence: " + "; ".join(a.describe() for a in attempts),
        attempts[-1].residual,
    )


def _tail_integral(law: OffspringLaw, a: float) -> float:
    """int_a^1 (1 - hphi^{-1}(u)) du = (1 - phi(x))/m - (1 - x) a, x = hphi^{-1}(a).

    Substitute u = hphi(x) and integrate by parts; for a below hphi(0) the
    inverse clips to x = 0 and the same formula holds.
    """
    x = float(size_biased_pgf_inverse(law, a))
    return (1.0 - float(law.pgf(x))) / law.mean - (1.0 - x) * a


def conservation_check(sys: CdfSystem) -> dict:
    """Residual of the boundary-value conservation identity.

    "bords": beta (1 - hphi^{-1}(beta)) + int_beta^{l_1} (1 - hphi^{-1})
             minus l_k l_1 + int_{l_k}^1 (1 - hphi^{-1}), in closed form
    (the left side is size_from_system minus the tail from l_1).  At the
    plateau pair l_1 = hphi(1 - l_k), l_k = hphi(1 - l_1) it is the
    identity size_from_system = size_from_functional, so it reads the
    formula gap up to the solver's plateau error.
    """
    if sys.k == 0:
        return {"bords": 0.0}
    l1, lk = float(sys.h[0, -1]), float(sys.h[sys.k - 1, -1])
    lhs = size_from_system(sys) - _tail_integral(sys.law, l1)
    rhs = lk * l1 + _tail_integral(sys.law, lk)
    return {"bords": abs(lhs - rhs)}


def size_from_system(sys: CdfSystem) -> float:
    """Matched-edge density beta (1 - hphi^{-1}(beta)) + int_beta^1 (1 - hphi^{-1}).

    In closed form (1 - phi(hphi^{-1}(beta)))/m, which for Poisson(c) is
    (1 - beta)/c.  Times the mean it is the matched-vertex density, which
    cross-checks against (2 - F_pi(l_1)) / phi'(1).
    """
    law = sys.law
    return (1.0 - float(law.pgf(size_biased_pgf_inverse(law, sys.beta)))) / law.mean


def size_from_functional(sys: CdfSystem) -> float:
    """The same edge density through the matching functional at l_1."""
    law = sys.law
    l1 = float(sys.h[0, -1]) if sys.k >= 1 else 1.0
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
    system: CdfSystem | None = None  # grid source
    values: np.ndarray | None = None  # rows of system.h, made strictly increasing
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
            lo, hi = self.system.h[j, 0], self.system.h[j, -1]
            u = lo + (hi - lo) * rng.random(cnt)
            zj = np.interp(u, self.values[j], self.system.t)
            if j == 0 and self.system.beta > 0.0:
                zj = np.where(u <= lo + self.system.beta, 0.0, zj)
            z[mask] = zj
        return levels, z


def zeta_prime(sys: CdfSystem) -> ZetaSampler:
    """Inverse-CDF sampler of the solved message law."""
    probs = sys.level_masses()
    total = probs.sum()
    if total <= 0:
        raise ValueError("solved system carries no probability mass")
    # strictly increasing values are required by interp; collapse flat
    # stretches by a negligible slope
    values = np.maximum.accumulate(sys.h + 1e-15 * np.arange(len(sys.t)), axis=1)
    return ZetaSampler(
        source="grid", k=sys.k, level_probs=probs / total, system=sys, values=values
    )


def rde_step(
    sampler: ZetaSampler,
    law: OffspringLaw,
    wlaw: WeightLaw,
    rng: np.random.Generator,
    n: int,
):
    """Push n samples through one step of the lexicographic recursion.

    Draws N from the excess law, then N.sum() inputs from the sampler and
    as many fresh weights from wlaw: a node with N children draws exactly
    N inputs, and a node with none gives (0, 0).  Returns the resulting
    (levels, z) arrays.  Stationarity of the sampler's law means the
    output law matches the input law.
    """
    N = np.asarray(law.sample_excess(rng, n))
    total = int(N.sum())
    in_lvl, in_z = sampler.sample(rng, total)
    w = np.asarray(wlaw.sample(rng, total), dtype=float)
    return _lex_reduce(sampler.k, N, in_lvl, in_z, w)


def population_dynamics(
    law: OffspringLaw,
    wlaw: WeightLaw,
    k: int,
    *,
    pool_size: int,
    iters: int,
    seed: RngSeed,
) -> ZetaSampler:
    """Pool-based Monte Carlo solver for the message law.

    Repeatedly replaces uniformly chosen pool entries by one application
    of the recursion fed from the current pool (asynchronous batches, so
    the order-reversing operator cannot lock into a two-cycle).  An update
    whose node has N children draws exactly N pool entries and N weights.
    `iters` counts full-pool sweeps.  The pool starts at (k // 2, 0),
    which is (0, 0) for k <= 1: for k >= 2 the recursion maps the levels
    {0, k} into {0, k}, so an all-(0, 0) pool would never reach the
    middle levels.
    """
    if pool_size < 10_000:
        raise ValueError("pool_size must be at least 10^4")
    rng = seed.generator()
    pool_lvl = np.full(pool_size, k // 2, dtype=np.int64)
    pool_z = np.zeros(pool_size)
    batch = max(1, pool_size // 8)
    total = iters * pool_size
    done = 0
    while done < total:
        b = min(batch, total - done)
        N = np.asarray(law.sample_excess(rng, b))
        inputs = int(N.sum())
        idx = rng.integers(0, pool_size, inputs)
        w = np.asarray(wlaw.sample(rng, inputs), dtype=float)
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
    t = sys.t
    step = float(t[1] - t[0])
    plateaus = ",".join(f"{v:.12g}" for v in sys.plateau)
    lines = [
        f"# lexmatch-cdfsystem v1 k={sys.k} T={float(-t[0]):.12g} delta={step:.12g} "
        f"beta={sys.beta:.12g} plateaus={plateaus}"
    ]
    lines.append("level,t,h")
    for j, row in enumerate(sys.h):
        for ti, hi in zip(t, row):
            lines.append(f"{j},{ti:.12g},{hi:.12g}")
    return "\n".join(lines) + "\n"
