"""Cross-module ties: solved message law feeding tree sweeps, and the
analytic size formulas against graph-level Monte Carlo."""

import numpy as np
import pytest

from lexmatch import bp, exact, randgraph, rde
from lexmatch.genfn import OffspringLaw
from lexmatch.randgraph import RngSeed, WeightLaw, assign_weights, erdos_renyi, ubgw_tree

from karp_sipser import karp_sipser_poisson

LAW = OffspringLaw.poisson(1.0)
UNIF = WeightLaw.uniform(0, 1)
KS = karp_sipser_poisson(1.0)


@pytest.fixture(scope="module")
def sampler():
    system = rde.solve_system(LAW, UNIF, 1)
    return rde.zeta_prime(system)


def sampled_spec(g, sampler, rng):
    if not g.boundary:
        return {}
    bts = sorted(g.boundary)
    lv, z = sampler.sample(rng, len(bts))
    return {b: (int(l), float(zz)) for b, l, zz in zip(bts, lv, z)}


class TestSampledBoundarySweeps:
    def test_root_messages_stationary_at_shallow_depth(self, sampler):
        # with stationary boundary draws even a depth-2 truncation must
        # reproduce the level law of the messages at the root
        rng = np.random.default_rng(31)
        hits = 0
        total = 0
        for i in range(4000):
            g = ubgw_tree(LAW, "vertex", 2, RngSeed(3100, i))
            g = assign_weights(g, UNIF, RngSeed(3101, i))
            spec = sampled_spec(g, sampler, rng)
            f = bp.sweep_bounded(g, 1, spec)
            root = g.root_vertex()
            for v in g.adjacency[root]:
                total += 1
                hits += f.messages[(root, v)][0] == 0
        assert total > 2000
        assert hits / total == pytest.approx(KS.gamma_low, abs=0.03)

    def test_sampled_fields_inside_squeeze_bounds(self, sampler):
        rng = np.random.default_rng(32)
        for i in range(100):
            g = ubgw_tree(LAW, "vertex", 3, RngSeed(3200, i))
            g = assign_weights(g, UNIF, RngSeed(3201, i))
            if not g.boundary:
                continue
            sq = bp.squeeze(g, 1)
            f = bp.sweep_bounded(g, 1, sampled_spec(g, sampler, rng))
            for key, val in f.messages.items():
                if key[1] in g.boundary and key in f.boundary_spec:
                    continue
                if key[1] in f.boundary_spec:
                    continue
                assert sq.lower[key] <= val <= sq.upper[key]

    def test_extraction_valid_under_sampled_boundaries(self, sampler):
        rng = np.random.default_rng(33)
        for i in range(200):
            g = ubgw_tree(LAW, "vertex", 3, RngSeed(3300, i))
            g = assign_weights(g, UNIF, RngSeed(3301, i))
            f = bp.sweep_bounded(g, 1, sampled_spec(g, sampler, rng))
            bp.extract_matching(g, f)  # raises if not a matching


class TestDualRoutes:
    def test_dp_gains_equal_sweep_messages_at_scale(self):
        # comb: 4000-vertex spine with a pendant leaf on every third vertex
        edges = {(i, i + 1): 0.0 for i in range(3999)}
        nxt = 4000
        for i in range(0, 4000, 3):
            edges[(i, nxt)] = 0.0
            nxt += 1
        g = randgraph.WeightedGraph(nxt, [u for u, _ in edges], [v for _, v in edges], list(edges.values()),
                                    randgraph.VertexRoot(0))
        g = assign_weights(g, UNIF, RngSeed(3600))
        m_dp, gains = exact.tree_opt_dp(g)
        field = bp.sweep_tree(g, 1)
        m_bp = bp.extract_matching(g, field)
        assert m_bp.size == m_dp.size
        assert m_bp.weight == pytest.approx(m_dp.weight, abs=1e-9)
        for key, (lvl, z) in field.messages.items():
            gs, gw = gains[key]
            assert lvl == gs and abs(z - gw) < 1e-9


class TestAnalyticVersusSimulation:
    def test_edge_density_ties_grid_solver_to_leaf_removal(self):
        system = rde.solve_system(LAW, UNIF, 1)
        analytic = rde.size_from_system(system)
        fracs = []
        for i in range(6):
            g = erdos_renyi(10_000, 1.0, RngSeed(3400, i))
            m, certified, _ = exact.leaf_removal(g, RngSeed(3401, i))
            if certified:
                fracs.append(m.size / g.m)
        assert len(fracs) >= 5
        assert np.mean(fracs) == pytest.approx(analytic, abs=0.01)

    def test_matched_fraction_ties_bp_to_density_formula(self):
        # vertex-rooted trees, exact sweeps: matched-vertex frequency at the
        # root approaches the closed-form density as depth grows
        hits = 0
        n = 4000
        for i in range(n):
            g = ubgw_tree(LAW, "vertex", 9, RngSeed(3500, i))
            g = assign_weights(g, UNIF, RngSeed(3501, i))
            whole = randgraph.WeightedGraph(g.n, g.lo, g.hi, g.w, g.root, frozenset())
            m = bp.extract_matching(whole, bp.sweep_tree(whole, 1))
            hits += m.covers(whole.root_vertex())
        # depth truncation bias is O(gamma^depth); 0.02 absorbs it at depth 9
        assert hits / n == pytest.approx(KS.vertex_density, abs=0.02)
