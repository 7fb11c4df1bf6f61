"""Generating-function analytics against independent scalar oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmatch import genfn
from lexmatch.genfn import (
    DegenerateFamilyError,
    DomainError,
    LawError,
    OffspringLaw,
    parse_law,
)


def bisect_fixed_point(f, lo=0.0, hi=1.0, iters=200):
    """Independent oracle: bisection for the root of f(t) - t on [lo, hi]."""
    flo = f(lo) - lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid) - mid
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# gamma solves t = exp(-t); it is also the unique doubled-map fixed point
# for Poisson(1).
GAMMA_1 = bisect_fixed_point(lambda t: math.exp(-t))


class TestPgfEval:
    def test_poisson_normalization(self):
        assert OffspringLaw.poisson(1.0).pgf(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_poisson_closed_form(self):
        val = OffspringLaw.poisson(1.0).pgf(0.5)
        assert val == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_deterministic_two_children(self):
        law = OffspringLaw.finite_support([0, 0, 1])
        assert law.pgf(0.3) == pytest.approx(0.09, abs=1e-12)

    def test_derivative_is_mean_at_one(self):
        for law in [
            OffspringLaw.poisson(2.3),
            OffspringLaw.binomial(5, 0.4),
            OffspringLaw.geometric(0.35),
            OffspringLaw.finite_support([0.2, 0.5, 0.3]),
        ]:
            assert law.pgf(1.0, order=1) == pytest.approx(law.mean, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            OffspringLaw.poisson(1.0).pgf(1.5)
        with pytest.raises(DomainError):
            OffspringLaw.poisson(1.0).pgf(-0.2)

    def test_finite_pgf_matches_direct_sum(self):
        pmf = [0.1, 0.2, 0.3, 0.4]
        law = OffspringLaw.finite_support(pmf)
        x = 0.37
        direct = sum(p * x**k for k, p in enumerate(pmf))
        ddirect = sum(p * k * x ** (k - 1) for k, p in enumerate(pmf) if k >= 1)
        assert law.pgf(x) == pytest.approx(direct, abs=1e-14)
        assert law.pgf(x, order=1) == pytest.approx(ddirect, abs=1e-14)


class TestSizeBiasedPgf:
    def test_poisson_equals_plain_pgf(self):
        law = OffspringLaw.poisson(1.7)
        for x in np.linspace(0, 1, 11):
            assert law.excess_pgf(x) == pytest.approx(law.pgf(x), abs=1e-12)

    def test_deterministic_binary_is_identity(self):
        law = OffspringLaw.finite_support([0, 0, 1])
        assert law.excess_pgf(0.3) == pytest.approx(0.3, abs=1e-14)

    def test_binomial_at_zero(self):
        # phi'(0)/phi'(1) = (3*0.5*0.25)/1.5
        law = OffspringLaw.binomial(3, 0.5)
        assert law.excess_pgf(0.0) == pytest.approx(0.25, abs=1e-12)

    def test_normalized_at_one(self):
        for law in [
            OffspringLaw.poisson(0.4),
            OffspringLaw.binomial(7, 0.2),
            OffspringLaw.geometric(0.6),
            OffspringLaw.finite_support([0.5, 0.25, 0.25]),
        ]:
            assert law.excess_pgf(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_geometric_moebius_form(self):
        p = 0.3
        law = OffspringLaw.geometric(p)
        for x in np.linspace(0, 1, 13):
            expected = p * x / (1 - (1 - p) * x)
            assert law.excess_pgf(x) == pytest.approx(expected, abs=1e-12)

    def test_excess_pmf_matches_pgf(self):
        law = OffspringLaw.finite_support([0.2, 0.5, 0.3])
        pmf = law.excess_pmf()
        x = 0.61
        assert sum(p * x**k for k, p in enumerate(pmf)) == pytest.approx(law.excess_pgf(x), abs=1e-12)

    def test_excess_law_methods(self):
        # the excess law of a binomial(n, q) is binomial(n - 1, q)
        law = OffspringLaw.binomial(3, 0.5)
        assert law.excess_pgf(0.5) == pytest.approx(0.75**2, abs=1e-15)
        assert np.allclose(law.excess_pmf(), [0.25, 0.5, 0.25], atol=1e-12)
        draws = law.sample_excess(np.random.default_rng(2), 4000)
        assert set(np.unique(draws)) <= {0, 1, 2}

    def test_inverse(self):
        for law in [OffspringLaw.poisson(1.0), OffspringLaw.binomial(4, 0.3)]:
            for y in np.linspace(float(law.excess_pgf(0.0)), 1.0, 7):
                x = genfn.size_biased_pgf_inverse(law, y)
                assert law.excess_pgf(x) == pytest.approx(y, abs=1e-10)


class TestDoubleFixedPoints:
    def test_poisson_1_single_point(self):
        pts = genfn.double_fixed_points(OffspringLaw.poisson(1.0), tol=1e-12)
        assert len(pts) == 1
        assert pts[0] == pytest.approx(GAMMA_1, abs=1e-9)
        # cross-check: the fixed point of t = exp(-t) satisfies the doubled map
        assert abs(genfn.double_map(OffspringLaw.poisson(1.0), GAMMA_1) - GAMMA_1) < 1e-12

    def test_poisson_3_three_points_conjugate(self):
        law = OffspringLaw.poisson(3.0)
        pts = genfn.double_fixed_points(law, tol=1e-12)
        assert len(pts) == 3
        gl, gh = pts[0], pts[-1]
        assert abs(gh - math.exp(-3.0 * gl)) < 1e-9
        assert abs(gl - math.exp(-3.0 * gh)) < 1e-9
        for t in pts:
            assert abs(genfn.double_map(law, t) - t) < 1e-9

    def test_symmetry_under_conjugation(self):
        law = OffspringLaw.poisson(3.0)
        pts = genfn.double_fixed_points(law)
        mapped = sorted(float(law.excess_pgf(1.0 - t)) for t in pts)
        assert np.allclose(mapped, pts, atol=1e-9)

    def test_geometric_family_degenerate(self):
        with pytest.raises(DegenerateFamilyError):
            genfn.double_fixed_points(OffspringLaw.geometric(0.5))

    def test_deterministic_two_degenerate(self):
        with pytest.raises(DegenerateFamilyError):
            genfn.double_fixed_points(OffspringLaw.delta(2))


class TestFPi:
    def test_at_zero(self):
        for law in [OffspringLaw.poisson(2.0), OffspringLaw.binomial(3, 0.3)]:
            expected = 1.0 + law.pgf(0.0)
            assert genfn.F_pi(law, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_poisson_1_collapse_at_gamma(self):
        val = genfn.F_pi(OffspringLaw.poisson(1.0), GAMMA_1)
        assert val == pytest.approx(2 * GAMMA_1 + GAMMA_1**2, abs=1e-9)

    def test_poisson_3_boundary_invariance(self):
        law = OffspringLaw.poisson(3.0)
        pts = genfn.double_fixed_points(law)
        assert genfn.F_pi(law, pts[0]) == pytest.approx(genfn.F_pi(law, pts[-1]), abs=1e-9)


class TestMatchingVertexDensity:
    def test_poisson_1(self):
        expected = 2.0 - 2.0 * GAMMA_1 - GAMMA_1**2
        assert genfn.matching_vertex_density(OffspringLaw.poisson(1.0)) == pytest.approx(
            expected, abs=1e-9
        )

    def test_empty_graphs(self):
        assert genfn.matching_vertex_density(OffspringLaw.finite_support([1.0])) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_geometric_perfect(self):
        assert genfn.matching_vertex_density(OffspringLaw.geometric(0.4)) == 1.0

    def test_deterministic_one_perfect_pairing(self):
        assert genfn.matching_vertex_density(OffspringLaw.delta(1)) == pytest.approx(
            1.0, abs=1e-9
        )


class TestKarpSipser:
    def test_c1_unique(self):
        ks = genfn.karp_sipser_poisson(1.0)
        assert ks.gamma_low == pytest.approx(GAMMA_1, abs=1e-9)
        assert ks.gamma_high == pytest.approx(GAMMA_1, abs=1e-9)
        assert ks.vertex_density == pytest.approx(
            genfn.matching_vertex_density(OffspringLaw.poisson(1.0)), abs=1e-9
        )

    def test_c3_identities(self):
        ks = genfn.karp_sipser_poisson(3.0)
        assert abs(ks.gamma_high - math.exp(-3.0 * ks.gamma_low)) < 1e-10
        assert abs(ks.beta - (3.0 * ks.gamma_low * ks.gamma_high + ks.gamma_low + ks.gamma_high - 1.0)) < 1e-12

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0, 5.0])
    def test_vertex_is_c_times_edge(self, c):
        ks = genfn.karp_sipser_poisson(c)
        assert ks.vertex_density == pytest.approx(c * ks.edge_density, abs=0.0)


def poisson_rho_oracle(c: float) -> float:
    """Independent oracle: max of c^2 y e^(-cy) over y in [e^-c, 1]."""
    ys = np.linspace(math.exp(-c), 1.0, 2_000_001)
    return float(np.max(c * c * ys * np.exp(-c * ys)))


class TestRhoSubcritical:
    def test_poisson_1(self):
        assert genfn.rho_subcritical(OffspringLaw.poisson(1.0)) == pytest.approx(
            math.exp(-1.0), abs=1e-6
        )

    def test_poisson_2(self):
        assert genfn.rho_subcritical(OffspringLaw.poisson(2.0)) == pytest.approx(
            2.0 / math.e, abs=1e-6
        )

    def test_poisson_e_critical(self):
        assert genfn.rho_subcritical(OffspringLaw.poisson(math.e)) == pytest.approx(
            1.0, abs=1e-3
        )

    @pytest.mark.parametrize("c", [0.5, 1.7, 2.5])
    def test_matches_poisson_reduction(self, c):
        assert genfn.rho_subcritical(OffspringLaw.poisson(c)) == pytest.approx(
            poisson_rho_oracle(c), abs=1e-6
        )

    def test_dominates_constant_restrictions(self):
        law = OffspringLaw.binomial(4, 0.3)
        rho = genfn.rho_subcritical(law)
        rng = np.random.default_rng(7)
        for x in rng.random(100):
            val = float(law.excess_pgf(1.0 - x, 1)) * float(
                law.excess_pgf(1.0 - float(law.excess_pgf(1.0 - x)), 1)
            )
            assert rho >= val - 1e-9


class TestMacroscopicLaw:
    def test_poisson_1_single_level(self):
        rep = genfn.macroscopic_law(OffspringLaw.poisson(1.0))
        assert rep.k == 1
        assert rep.atoms[0] == pytest.approx(GAMMA_1, abs=1e-6)
        assert rep.atoms[1] == pytest.approx(1.0 - GAMMA_1, abs=1e-6)
        assert rep.subcritical and rep.unique_double_fp

    def test_poisson_3_two_levels(self):
        rep = genfn.macroscopic_law(OffspringLaw.poisson(3.0))
        assert rep.k == 2
        assert sum(rep.atoms) == pytest.approx(1.0, abs=1e-10)
        assert not rep.subcritical
        assert not rep.unique_double_fp

    def test_deterministic_two_degenerate(self):
        rep = genfn.macroscopic_law(OffspringLaw.delta(2))
        assert rep.degenerate_family

    def test_leafless_delta3_level_zero(self):
        # every vertex has >= 2 children: argmax of F_pi sits at {0, 1}
        rep = genfn.macroscopic_law(OffspringLaw.delta(3))
        assert rep.k == 0
        assert rep.unique_double_fp  # interior doubled fixed point exists

    def test_fixed_point_residuals(self):
        for law in [OffspringLaw.poisson(1.0), OffspringLaw.poisson(3.0)]:
            rep = genfn.macroscopic_law(law)
            for t in rep.fixed_points:
                assert abs(genfn.double_map(law, t) - t) < 1e-9

    def test_subcritical_implies_unique(self):
        for c in [0.3, 0.8, 1.5, 2.2, 2.6]:
            rep = genfn.macroscopic_law(OffspringLaw.poisson(c))
            if rep.subcritical:
                assert rep.unique_double_fp


class TestLawPlumbing:
    def test_parse_round_trip(self):
        for text in ["poisson:1.0", "geom:0.5", "binom:3:0.5", "pmf:0.2,0.5,0.3"]:
            law = parse_law(text)
            assert parse_law(law.spec_string()) == law

    def test_parse_rejects_garbage(self):
        for text in ["", "poisson", "poisson:a", "pmf:0.2,0.5", "zipf:2"]:
            with pytest.raises(LawError):
                parse_law(text)

    def test_finite_support_cap(self):
        with pytest.raises(LawError):
            OffspringLaw.finite_support([1.0 / 65] * 65)

    def test_negative_pmf_rejected(self):
        with pytest.raises(LawError):
            OffspringLaw.finite_support([1.2, -0.2])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10).filter(
            lambda v: sum(v) > 1e-3
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pgf_normalized_for_any_finite_law(self, raw):
        total = sum(raw)
        law = OffspringLaw.finite_support([v / total for v in raw])
        assert law.pgf(1.0) == pytest.approx(1.0, abs=1e-9)
        if law.mean > 0:
            assert law.excess_pgf(1.0) == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(min_value=0.05, max_value=4.0))
    @settings(max_examples=40, deadline=None)
    def test_poisson_excess_sampler_mean(self, c):
        law = OffspringLaw.poisson(c)
        rng = np.random.default_rng(3)
        draws = law.sample_excess(rng, 4000)
        assert np.mean(draws) == pytest.approx(c, abs=0.15 * c + 0.1)

    def test_geometric_pmf_normalises(self):
        law = OffspringLaw.geometric(0.3)
        pmf = law.pmf_values(2000)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
        assert pmf[0] == 0.0 and pmf[1] == 0.0

    def test_geometric_excess_sampler_matches_law(self):
        law = OffspringLaw.geometric(0.5)
        rng = np.random.default_rng(11)
        draws = law.sample_excess(rng, 20000)
        # excess law is geometric on {1,2,...}: mean 1/p
        assert np.mean(draws) == pytest.approx(2.0, abs=0.05)
