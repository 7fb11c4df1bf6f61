"""Grid and population solvers for the message law against closed forms."""

import math

import numpy as np
import pytest

from lexmatch import genfn, rde
from lexmatch.genfn import OffspringLaw
from lexmatch.randgraph import RngSeed, WeightLaw
from lexmatch.rde import (
    ConvergenceError,
    GridSpec,
    SolverAttempt,
    conservation_check,
    population_dynamics,
    rde_step,
    size_from_functional,
    size_from_system,
    solve_system,
    system_to_csv,
    zeta_prime,
)

LAW1 = OffspringLaw.poisson(1.0)
LAW3 = OffspringLaw.poisson(3.0)
UNIF = WeightLaw.uniform(0.0, 1.0)
KS1 = genfn.karp_sipser_poisson(1.0)
GAMMA = KS1.gamma_low


@pytest.fixture(scope="module")
def sys1():
    return solve_system(LAW1, UNIF, 1)


@pytest.fixture(scope="module")
def sys2():
    return solve_system(LAW3, UNIF, 2)


class TestSolveSystem:
    def test_input_limits_raise_value_error(self):
        with pytest.raises(ValueError, match="at least 64 points"):
            GridSpec(10).build(1.0)
        with pytest.raises(ValueError, match="k must be >= 0"):
            solve_system(LAW1, UNIF, -1, GridSpec(64))
        with pytest.raises(ValueError, match="atomless weight law, got const:0"):
            solve_system(LAW1, WeightLaw.constant(0.0), 1, GridSpec(64))
        for t_max in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                GridSpec(128, t_max=t_max).build(1.0)
            with pytest.raises(ValueError, match="positive and finite"):
                GridSpec(128).build(t_max)

    def test_plateau_matches_gamma(self, sys1):
        assert sys1.plateau[0] == pytest.approx(GAMMA, abs=1e-4)

    def test_stitching(self, sys1):
        # h_0(+inf) = h_1(-inf) = gamma
        assert sys1.stitching_gap() < 1e-6
        assert sys1.h[1, 0] == pytest.approx(GAMMA, abs=1e-4)

    def test_beta_matches_conservation_value(self, sys1):
        assert sys1.beta == pytest.approx(KS1.beta, abs=2e-3)

    def test_monotone_layers(self, sys1):
        for row in sys1.h:
            assert np.all(np.diff(row) >= -1e-12)

    def test_two_step_contraction_rate(self, sys1):
        rho = genfn.rho_subcritical(LAW1)
        r = np.array(sys1.residuals)
        pre_floor = r[r > 1e-7]  # ignore the numerical floor near tol
        ratios = pre_floor[2:] / pre_floor[:-2]
        tail = ratios[len(ratios) // 2 :]
        assert np.all(tail <= rho + 0.05)

    def test_k2_poisson3(self, sys2):
        ks3 = genfn.karp_sipser_poisson(3.0)
        assert sys2.plateau[0] == pytest.approx(ks3.gamma_low, abs=1e-4)
        assert sys2.plateau[1] == pytest.approx(ks3.gamma_high, abs=1e-4)
        assert sys2.beta == pytest.approx(ks3.beta, abs=2e-3)
        cons = conservation_check(sys2)
        assert cons["bords"] < 5e-3

    def test_leafless_delta3(self):
        sys0 = solve_system(OffspringLaw.delta(3), UNIF, 0)
        assert sys0.leafless and sys0.beta == 0.0
        # perfect-matching regime: edge density 1/m, vertex density 1
        assert size_from_system(sys0) == pytest.approx(1.0 / 3.0, abs=2e-3)

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(rde, "_MAX_ITER", 5)
        with pytest.raises(ConvergenceError) as exc:
            solve_system(OffspringLaw.poisson(3.0), UNIF, 2)
        assert exc.value.residual > 0


class TestSolverAttempts:
    def test_falls_back_after_stall(self, sys2, monkeypatch):
        # k = 2: the undamped iteration locks into a period-2 cycle, so it
        # must stop early, and the half-damped restart from the initial
        # layers must give exactly what a lone half-damped attempt gives
        stalled, converged = sys2.attempts
        assert stalled.damping == 1.0 and stalled.reason == "stalled"
        assert stalled.iterations <= 200 and stalled.residual > 0.1
        assert converged == SolverAttempt(0.5, len(sys2.residuals), sys2.residuals[-1], "converged")
        monkeypatch.setattr(rde, "_PLAN", ((0.5, False),))
        alone = solve_system(LAW3, UNIF, 2)
        assert np.array_equal(alone.h, sys2.h) and alone.beta == sys2.beta
        assert alone.plateau == sys2.plateau and type(alone.plateau[0]) is float
        assert alone.residuals == sys2.residuals
        assert alone.attempts == [converged]

    @pytest.mark.parametrize(
        "law, grid, iterations",
        [
            (OffspringLaw.poisson(1.0), GridSpec(), 36),
            (OffspringLaw.poisson(2.0), GridSpec(), 107),
            (OffspringLaw.binomial(3, 0.5), GridSpec(), 63),
            # slow contraction near c = e: its residual shrinks by less than
            # half over some 50-iteration windows, yet it converges undamped
            (OffspringLaw.poisson(2.65), GridSpec(1024), 1349),
        ],
        ids=["poisson1", "poisson2", "binomial3", "poisson2.65-slow"],
    )
    def test_contracting_k1_single_undamped_attempt(self, law, grid, iterations):
        s = solve_system(law, UNIF, 1, grid)
        assert len(s.residuals) == iterations
        assert s.attempts == [SolverAttempt(1.0, iterations, s.residuals[-1], "converged")]

    def test_failure_names_both_attempts(self, monkeypatch):
        monkeypatch.setattr(rde, "_MAX_ITER", 60)
        with pytest.raises(ConvergenceError) as exc:
            solve_system(LAW3, UNIF, 2)
        msg = str(exc.value)
        assert "damping 1: stalled after" in msg
        assert "; damping 0.5: max_iter after 60 iterations" in msg
        assert exc.value.residual > 0


class TestConservation:
    def test_k1_residual(self, sys1):
        cons = conservation_check(sys1)
        assert cons["bords"] < 2e-3

    def test_exponential_weights(self):
        # the quadrature truncates the unbounded exponential tail at 1e-14 mass
        s = solve_system(OffspringLaw.poisson(2.0), WeightLaw.exponential(1.0), 1)
        assert conservation_check(s)["bords"] < 2e-3
        assert abs(size_from_system(s) - size_from_functional(s)) < 2e-3

    def test_k0_vacuous(self):
        sys0 = solve_system(OffspringLaw.delta(3), UNIF, 0)
        cons = conservation_check(sys0)
        assert cons == {"bords": 0.0}

    def test_residual_shrinks_with_grid(self):
        # conservation residual is dominated by solver discretization; it
        # should not grow when the step halves, and stays within spec at both
        res = {}
        for n in (1024, 2048):
            s = solve_system(LAW1, UNIF, 1, GridSpec(n))
            res[n] = conservation_check(s)["bords"]
        assert res[2048] <= max(0.75 * res[1024], 5e-6)
        assert res[1024] < 2e-3


class TestSize:
    def test_matches_vertex_density(self, sys1):
        # c = 1: edge density equals vertex density
        assert size_from_system(sys1) == pytest.approx(0.544062, abs=2e-3)

    def test_beta_zero_limit_formula(self, sys1):
        # with beta = 0 the formula reduces to the perfect-matching integral
        from dataclasses import replace

        forced = replace(sys1, beta=0.0)
        direct = rde._inverse_integral(LAW1, 0.0, 1.0)
        assert size_from_system(forced) == pytest.approx(direct, abs=1e-12)

    def test_two_formulas_agree(self, sys1, sys2):
        assert size_from_system(sys1) == pytest.approx(size_from_functional(sys1), abs=2e-3)
        ks3 = genfn.karp_sipser_poisson(3.0)
        assert size_from_system(sys2) == pytest.approx(size_from_functional(sys2), abs=2e-3)
        assert size_from_system(sys2) == pytest.approx(ks3.edge_density, abs=2e-3)


class TestZetaPrime:
    def test_level_mass(self, sys1):
        zp = zeta_prime(sys1)
        rng = np.random.default_rng(1)
        lv, z = zp.sample(rng, 100_000)
        assert (lv == 0).mean() == pytest.approx(GAMMA, abs=0.01)

    def test_atom_mass(self, sys1):
        zp = zeta_prime(sys1)
        rng = np.random.default_rng(2)
        lv, z = zp.sample(rng, 100_000)
        assert ((lv == 0) & (z == 0.0)).mean() == pytest.approx(KS1.beta, abs=0.01)

    def test_one_step_stationarity(self, sys1):
        zp = zeta_prime(sys1)
        rng = np.random.default_rng(3)
        lv, _ = zp.sample(rng, 100_000)
        out_lv, _ = rde_step(zp, LAW1, UNIF, rng, 100_000)
        tv = 0.5 * sum(
            abs((out_lv == j).mean() - (lv == j).mean()) for j in (0, 1)
        )
        assert tv < 0.02


class TestPopulationDynamics:
    def test_all_leaves_collapse(self):
        # law = delta_1 has excess law delta_0: every update is (0, 0)
        pool = population_dynamics(
            OffspringLaw.delta(1), UNIF, 1, pool_size=10_000, iters=3, seed=RngSeed(4)
        )
        assert pool.level_probs[0] == 1.0
        assert np.all(pool.pool_z == 0.0)

    def test_level_mass_matches_gamma(self):
        pool = population_dynamics(LAW1, UNIF, 1, pool_size=20_000, iters=60, seed=RngSeed(5))
        assert pool.level_probs[0] == pytest.approx(GAMMA, abs=0.02)

    def test_two_seeds_agree(self):
        p1 = population_dynamics(LAW1, UNIF, 1, pool_size=20_000, iters=40, seed=RngSeed(6))
        p2 = population_dynamics(LAW1, UNIF, 1, pool_size=20_000, iters=40, seed=RngSeed(7))
        tv = 0.5 * np.abs(p1.level_probs - p2.level_probs).sum()
        assert tv < 0.03

    def test_agrees_with_grid_solver(self, sys1):
        pool = population_dynamics(LAW1, UNIF, 1, pool_size=30_000, iters=60, seed=RngSeed(8))
        tv = 0.5 * np.abs(pool.level_probs - sys1.level_masses()).sum()
        assert tv < 0.02
        # Kolmogorov distance between z-marginals within each level
        zp = zeta_prime(sys1)
        rng = np.random.default_rng(9)
        glv, gz = zp.sample(rng, 50_000)
        plv, pz = pool.sample(rng, 50_000)
        grid = np.linspace(-1.5, 1.5, 2001)
        for j in (0, 1):
            a = np.sort(gz[glv == j])
            b = np.sort(pz[plv == j])
            ks = np.max(
                np.abs(np.searchsorted(a, grid) / len(a) - np.searchsorted(b, grid) / len(b))
            )
            assert ks < 0.03

    def test_pure_function_of_seed(self):
        a, b = (
            population_dynamics(LAW1, UNIF, 1, pool_size=10_000, iters=2, seed=RngSeed(11))
            for _ in range(2)
        )
        assert np.array_equal(a.pool_levels, b.pool_levels)
        assert np.array_equal(a.pool_z, b.pool_z)

    def test_pool_size_floor(self):
        with pytest.raises(ValueError):
            population_dynamics(LAW1, UNIF, 1, pool_size=100, iters=1, seed=RngSeed(1))


class TestSerialization:
    def test_csv_header(self, sys1):
        txt = system_to_csv(sys1)
        head = txt.splitlines()[0]
        assert head.startswith("# lexmatch-cdfsystem v1 k=1")
        assert "beta=" in head and "plateaus=" in head
        assert txt.splitlines()[1] == "level,t,h"
