"""Brute-force oracles, forest DP, leaf removal and matching structure."""

import itertools
import math
import time
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from lexmatch import bp, exact, randgraph
from lexmatch.exact import (
    BLOCKING,
    FREE,
    MANDATORY,
    CycleError,
    EnumerationLimitError,
    Matching,
    NotAMatchingError,
    brute_force_opt,
    leaf_removal,
    mandatory_blocking,
    perf_of,
    tree_opt_dp,
    uniform_max_matching,
)
from lexmatch.genfn import OffspringLaw
from lexmatch.randgraph import RngSeed, VertexRoot, WeightLaw, assign_weights, ubgw_tree


def graph_of(n, edge_weights, root=0):
    ew = dict(edge_weights)
    lo, hi = [u for u, _ in ew], [v for _, v in ew]
    return randgraph.WeightedGraph(n, lo, hi, list(ew.values()), VertexRoot(root))


def path(weights):
    return graph_of(len(weights) + 1, {(i, i + 1): w for i, w in enumerate(weights)})


def exhaustive_best(g):
    """Independent oracle: scan all 2^m edge subsets for the best matching."""
    edges = g.edges()
    best = None
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            seen = set()
            ok = True
            for u, v in combo:
                if u in seen or v in seen:
                    ok = False
                    break
                seen.update((u, v))
            if not ok:
                continue
            w = sum(g.weights[e] for e in combo)
            key = (len(combo), w)
            if best is None or key > best[0]:
                best = (key, frozenset(combo))
    return best


def random_small_tree(i, max_depth=4):
    g = ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 1 + i % max_depth, RngSeed(1234, i))
    return assign_weights(g, WeightLaw.uniform(0, 1), RngSeed(4321, i))


def random_small_forest(i):
    """Two to four small trees and up to three isolated vertices, relabelled at random."""
    lo, hi, w, n = [], [], [], 0
    for j in range(2 + i % 3):
        t = random_small_tree(4 * i + j, max_depth=2)
        lo, hi, w, n = lo + [u + n for u in t.lo], hi + [v + n for v in t.hi], w + list(t.w), n + t.n
    n += i % 4
    perm = RngSeed(4567, i).generator().permutation(n).tolist()
    return randgraph.WeightedGraph(n, [perm[u] for u in lo], [perm[v] for v in hi], w, VertexRoot(perm[0]))


class TestBruteForce:
    def test_single_edge(self):
        g = graph_of(2, {(0, 1): 0.7})
        m = brute_force_opt(g)
        assert m.edges == frozenset({(0, 1)}) and m.weight == pytest.approx(0.7)
        pv, _ = perf_of(m)
        assert astuple(pv) == pytest.approx((1.0, 0.7))

    def test_two_edge_path_takes_heavier(self):
        m = brute_force_opt(path([0.3, 0.9]))
        assert m.edges == frozenset({(1, 2)})

    def test_size_beats_weight(self):
        m = brute_force_opt(path([0.5, 0.9, 0.5]))
        assert m.edges == frozenset({(0, 1), (2, 3)})
        assert m.weight == pytest.approx(1.0)

    def test_against_subset_scan(self):
        for i in range(40):
            g = random_small_tree(i, max_depth=3)
            if g.m > 12:
                continue
            best = exhaustive_best(g)
            m = brute_force_opt(g)
            assert (m.size, m.weight) == pytest.approx(best[0])
            assert m.edges == best[1]

    def test_cap(self):
        g = graph_of(28, {(i, i + 1): 1.0 for i in range(27)})
        with pytest.raises(EnumerationLimitError):
            brute_force_opt(g)

    def test_no_single_swap_improvement(self):
        for i in range(25):
            g = random_small_tree(i)
            if g.m > 20:
                continue
            m = brute_force_opt(g)
            covered = {v for e in m.edges for v in e}
            # no exposed edge can be added
            for u, v in g.edges():
                if (u, v) not in m.edges:
                    assert u in covered or v in covered
            # no swap of one matched edge for a heavier incident edge
            for u, v in m.edges:
                for x, y in g.edges():
                    if (x, y) in m.edges:
                        continue
                    touching = {x, y} & {u, v}
                    others = covered - {u, v}
                    if touching and not ({x, y} & others):
                        assert g.weights[(x, y)] <= g.weights[(u, v)] + 1e-12


class TestTreeDp:
    def test_empty_forest(self):
        g = graph_of(3, {})
        m, gains = tree_opt_dp(g)
        assert m.size == 0 and gains == {}

    def test_matches_brute_force(self):
        # single BFS-numbered trees, then relabelled forests, which _orient_forest walks by csr
        forests = [random_small_tree(i) for i in range(300)] + [random_small_forest(i) for i in range(150)]
        for g in forests:
            if g.m > 26:
                continue
            dp, _ = tree_opt_dp(g)
            bf = brute_force_opt(g)
            assert dp.size == bf.size
            assert dp.weight == pytest.approx(bf.weight, abs=1e-9)

    def test_lex_gain_criterion(self):
        # lex mode: gains are (size, weight) pairs and the decision rule is
        # gains(u,v) + gains(v,u) < (1, w) lexicographically
        for i in range(60):
            g = random_small_tree(i, max_depth=3)
            if g.m > 14 or g.m == 0:
                continue
            m, gains = tree_opt_dp(g)
            for u, v in g.edges():
                a = gains[(u, v)]
                b = gains[(v, u)]
                decided = (a[0] + b[0], a[1] + b[1]) < (1, g.weights[(u, v)])
                assert ((u, v) in m.edges) == decided

    def test_cycle_rejected(self):
        g = graph_of(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
        with pytest.raises(CycleError):
            tree_opt_dp(g)

    def test_maximality_check(self, monkeypatch):
        # the check reads the returned matching: one that lost an edge is refused
        made = exact.Matching
        monkeypatch.setattr(exact, "Matching", lambda g, ids: made(g, list(ids)[1:]))
        with pytest.raises(AssertionError, match=r"^tree DP left an augmentable edge exposed$"):
            tree_opt_dp(path([1.0, 2.0]))


class TestLeafRemoval:
    def test_forest_exact(self):
        for i in range(50):
            g = random_small_tree(i)
            if g.m > 26:
                continue
            m, is_exact, core = leaf_removal(g, RngSeed(9, i))
            assert is_exact and core == 0
            assert m.size == brute_force_opt(g).size

    def test_triangle(self):
        g = graph_of(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
        m, is_exact, core = leaf_removal(g, RngSeed(1))
        assert is_exact and m.size == 1 and core == 2

    def test_disjoint_cycles_certified(self):
        # cycles of lengths 3, 4, 5 and 6, plus a pendant path into the 6-cycle
        edges = {}
        start = 0
        for length in (3, 4, 5, 6):
            for j in range(length):
                a, b = start + j, start + (j + 1) % length
                edges[(min(a, b), max(a, b))] = 0.1
            start += length
        edges[(start - 1, start)] = 0.1
        edges[(start, start + 1)] = 0.1
        g = graph_of(start + 2, edges)
        for s in range(10):
            m, is_exact, core = leaf_removal(g, RngSeed(31, s))
            assert is_exact and core > 0
            assert m.size == 1 + 2 + 2 + 3 + 1

    def test_degree_three_core_not_certified(self):
        # K4 is its own 2-core and every vertex has degree 3
        g = graph_of(4, {e: 0.1 for e in itertools.combinations(range(4), 2)})
        for s in range(5):
            m, is_exact, core = leaf_removal(g, RngSeed(32, s))
            assert not is_exact and core > 0 and m.size == 2

    def test_certified_size_is_optimal(self):
        certified_with_core = 0
        for i in range(300):
            g = randgraph.erdos_renyi(24, 2.0, RngSeed(33, i))
            if g.m > 22:
                continue
            m, is_exact, core = leaf_removal(g, RngSeed(34, i))
            if is_exact:
                assert m.size == brute_force_opt(g).size
                certified_with_core += core > 0
        assert certified_with_core > 0  # some certified runs had a cycle core

    def test_er_critical_mostly_certified(self):
        law_density = 0.544062
        n = 5000
        hits = 0
        fracs = []
        for i in range(4):
            g = randgraph.erdos_renyi(n, 1.0, RngSeed(77, i))
            m, is_exact, _ = leaf_removal(g, RngSeed(78, i))
            if is_exact:
                hits += 1
                fracs.append(2.0 * m.size / n)
        assert hits >= 3
        assert abs(np.mean(fracs) - law_density) < 0.02

    def test_matching_valid(self):
        g = randgraph.erdos_renyi(500, 2.5, RngSeed(5))
        m, _, _ = leaf_removal(g, RngSeed(6))
        Matching(g, [g.edge_id(u, v) for u, v in m.edges])  # raises if not vertex-disjoint


def relabelled(g, perm):
    """g with vertex v renamed perm[v]."""
    lo, hi = perm[np.asarray(g.lo)], perm[np.asarray(g.hi)]
    return randgraph.WeightedGraph(g.n, lo, hi, g.w, VertexRoot(int(perm[g.root_vertex()])))


class TestLeafRemovalOrderFree:
    """The Karp-Sipser core does not depend on the order leaves go in, so neither does the
    certificate, nor the size of a certified run: both survive a random relabelling."""

    def assert_order_free(self, g, rng, seed):
        m, is_exact, core = leaf_removal(g, seed)
        for _ in range(3):
            h = relabelled(g, rng.permutation(g.n))
            m2, is_exact2, core2 = leaf_removal(h, seed)
            assert is_exact2 == is_exact
            if is_exact:
                assert (m2.size, core2) == (m.size, core)
        return is_exact, core

    def test_erdos_renyi(self):
        rng = np.random.default_rng(81)
        outcomes = set()
        for c in (1.0, 2.0, math.e, 3.0, 4.0):
            for i in range(8):
                g = randgraph.erdos_renyi(60, c, RngSeed(82, 10 * i + int(c)))
                is_exact, core = self.assert_order_free(g, rng, RngSeed(83, i))
                outcomes.add((is_exact, core > 0))
        assert outcomes == {(True, False), (True, True), (False, True)}  # including cycle cores

    def test_three_regular(self):
        rng = np.random.default_rng(84)
        outcomes = set()
        for n in (6, 8, 10, 40):
            for i in range(10):
                g = randgraph.configuration_model([3] * n, RngSeed(85, 100 * n + i))
                is_exact, core = self.assert_order_free(g, rng, RngSeed(86, i))
                outcomes.add((is_exact, core > 0))
        assert {(True, True), (False, True)} <= outcomes


def rebuild_leaf_removal(g, seed):
    """Reference Karp-Sipser run that lists every live edge before each random step.

    This is the quadratic formulation leaf_removal must reproduce draw for
    draw: the random edge is live_edges[rng.integers(0, len(live_edges))]
    with live edges in edge order, by ascending u, then ascending v > u in
    u's shrinking list of neighbours.
    """
    rng = seed.generator()
    adj = [list(nb) for nb in g.adjacency]
    alive = [True] * g.n
    matched = []
    leaves = [v for v in range(g.n) if len(adj[v]) == 1]
    is_exact = True
    removed_core = 0
    edges_left = g.m

    def remove_vertex(v):
        alive[v] = False
        for w in adj[v]:
            adj[w].remove(v)
            if len(adj[w]) == 1:
                leaves.append(w)
        adj[v] = []

    while edges_left > 0:
        while leaves:
            v = leaves.pop()
            if not alive[v] or len(adj[v]) != 1:
                continue
            u = adj[v][0]
            matched.append((v, u))
            edges_left -= len(adj[u]) + len(adj[v]) - 1
            remove_vertex(v)
            remove_vertex(u)
        if edges_left <= 0:
            break
        if removed_core == 0:
            # the first random step: a core of disjoint cycles keeps the certificate
            is_exact = max(map(len, adj)) <= 2
        live_edges = [(u, v) for u in range(g.n) if alive[u] for v in adj[u] if u < v]
        if not live_edges:
            break
        u, v = live_edges[int(rng.integers(0, len(live_edges)))]
        matched.append((u, v))
        edges_left -= len(adj[u]) + len(adj[v]) - 1
        remove_vertex(u)
        remove_vertex(v)
        removed_core += 2
    return Matching(g, [g.edge_id(u, v) for u, v in matched]), is_exact, removed_core


def assert_same_removal(g, seed):
    got = leaf_removal(g, seed)
    want = rebuild_leaf_removal(g, seed)
    assert (got[0].edges, got[0].weight, got[1], got[2]) == (
        want[0].edges,
        want[0].weight,
        want[1],
        want[2],
    )
    return got


class TestLeafRemovalDifferential:
    @pytest.mark.parametrize(
        "c", [0.5, 1.0, 2.0, math.e, 3.0, 4.0], ids=["0.5", "1", "2", "e", "3", "4"]
    )
    def test_erdos_renyi(self, c):
        core_steps = 0
        for n in (20, 300, 2000):
            for i in range(3):
                g = randgraph.erdos_renyi(n, c, RngSeed(61, 10 * n + i))
                g = assign_weights(g, WeightLaw.uniform(0, 1), RngSeed(62, 10 * n + i))
                core_steps += assert_same_removal(g, RngSeed(63, 10 * n + i))[2]
        if c > math.e:
            assert core_steps > 0  # the random phase was exercised

    def test_three_regular(self):
        for n in (10, 200, 2000):
            for i in range(3):
                g = randgraph.configuration_model([3] * n, RngSeed(64, 10 * n + i))
                g = assign_weights(g, WeightLaw.uniform(0, 1), RngSeed(65, 10 * n + i))
                _, is_exact, core = assert_same_removal(g, RngSeed(66, 10 * n + i))
                # small instances can reduce to disjoint cycles, which stay certified
                assert core > 0

    @pytest.mark.parametrize(
        "n, edges",
        [
            (3, [(0, 1), (1, 2), (0, 2)]),
            (9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6), (7, 8)]),
            (5, list(itertools.combinations(range(5), 2))),
            (6, []),
            (1, []),
        ],
        ids=["triangle", "disjoint-cycles", "k5", "isolated", "single-vertex"],
    )
    def test_edge_cases(self, n, edges):
        g = graph_of(n, {e: 0.1 * (j + 1) for j, e in enumerate(edges)})
        for s in range(5):
            assert_same_removal(g, RngSeed(67, s))

    def test_scaling_within_budget(self):
        # the rebuild-per-step reference needs about 11 s here
        n = 80_000
        g = randgraph.erdos_renyi(n, 3.0, RngSeed(68))
        start = time.monotonic()
        m, is_exact, core = leaf_removal(g, RngSeed(69))
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"leaf removal took {elapsed:.1f}s (budget 5s)"
        assert not is_exact and core > 0
        covered = {v for e in m.edges for v in e}
        assert all(u in covered or v in covered for u, v in g.edges())  # maximal


def reference_orient_forest(g, avoid=frozenset()):
    """The all-starts, separate-queue BFS that _orient_forest replaced, kept as its oracle."""
    parent = [-2] * g.n
    order = []
    root_pref = g.root_vertex() if g.n else 0
    starts = [v for v in [root_pref, *range(g.n)] if v not in avoid]
    starts += [v for v in range(g.n) if v in avoid]
    seen_edges = 0
    for s in starts:
        if parent[s] != -2:
            continue
        parent[s] = -1
        queue = [s]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for w in g.adjacency[v]:
                if w == parent[v]:
                    continue
                if parent[w] != -2:
                    raise CycleError("graph contains a cycle")
                parent[w] = v
                seen_edges += 1
                queue.append(w)
    if seen_edges != g.m:
        raise CycleError("graph contains a cycle")
    return parent, order


class TestOrientForestDifferential:
    @staticmethod
    def oriented(g, avoid):
        try:
            return exact._orient_forest(g, avoid=avoid), reference_orient_forest(g, avoid)
        except CycleError:
            with pytest.raises(CycleError):
                reference_orient_forest(g, avoid)
            return None

    def test_same_parents_and_order(self):
        graphs = [random_small_tree(i) for i in range(40)]
        graphs += [ubgw_tree(OffspringLaw.poisson(1.0), "edge", 3, RngSeed(71, i)) for i in range(20)]
        graphs += [randgraph.erdos_renyi(30, c, RngSeed(72, i)) for c in (0.5, 0.9, 2.0) for i in range(20)]
        # roots inside `avoid`, isolated vertices and a lone vertex
        graphs += [graph_of(4, {(1, 2): 0.5, (2, 3): 0.5}, root=2), graph_of(1, {})]
        forests = cycles = 0
        for g in graphs:
            avoids = (frozenset(), g.boundary, frozenset({g.root_vertex()}), frozenset(range(0, g.n, 2)))
            for avoid in avoids:
                pair = self.oriented(g, avoid)
                if pair is None:
                    cycles += 1
                    continue
                new, ref = pair
                assert (list(new[0]), list(new[1])) == ref  # parent and order; new[2] holds the parent edges
                forests += new[0].count(-1) > 1
        assert forests > 20 and cycles > 20


class TestMatchingEnumerator:
    @staticmethod
    def enumerated(g):
        return [tuple(sel) for sel, _ in exact._matchings(g)]

    def test_counts(self):
        def fib(n):
            a, b = 0, 1
            for _ in range(n):
                a, b = b, a + b
            return a

        for n_edges in range(12):
            assert len(self.enumerated(path([1.0] * n_edges))) == fib(n_edges + 2)
        for d in range(8):
            star = graph_of(d + 1, {(0, j): 1.0 for j in range(1, d + 1)})
            assert len(self.enumerated(star)) == d + 1
        # path on vertices 0..4 (F(6) = 8 matchings) beside a star centred at 5 (4)
        union = graph_of(9, {**{(i, i + 1): 1.0 for i in range(4)}, (5, 6): 1.0, (5, 7): 1.0, (5, 8): 1.0})
        assert len(self.enumerated(union)) == 8 * 4

    def test_order_and_weights_against_subsets(self):
        for i in range(40):
            g = random_small_tree(i, max_depth=3)
            if g.m > 14:
                continue
            edges = g.edges()
            subsets = [
                combo
                for r in range(len(edges) + 1)
                for combo in itertools.combinations(range(len(edges)), r)
                if len({v for j in combo for v in edges[j]}) == 2 * r
            ]
            # depth first by increasing edge index: every matching before its
            # extensions, i.e. lexicographic order of the index tuples
            assert self.enumerated(g) == sorted(subsets)
            for sel, weight in exact._matchings(g):
                assert weight == sum(g.weights[edges[j]] for j in sel)


def table_corpus():
    """Forests and Erdos-Renyi graphs with cycles, with every edge count up to the cap.

    One forest per m = 0..26 and one graph with m >= n, so with a cycle,
    per m = 3..26, each weighted by uniform:0:1 and by const:1.0.
    """
    forests, cyclic = {0: graph_of(3, {})}, {}
    for i in range(4000):
        t = random_small_forest(i) if i % 2 else random_small_tree(i)
        forests.setdefault(t.m, t)
        n = 3 + i % 12
        g = randgraph.erdos_renyi(n, min(n - 1.0, 1.0 + i % 7), RngSeed(91, i))
        if g.m >= g.n:
            cyclic.setdefault(g.m, g)
        if len(forests) == 27 and len(cyclic) == 24:
            break
    graphs = [forests[m] for m in range(27)] + [cyclic[m] for m in range(3, 27)]
    return [
        assign_weights(g, law, RngSeed(92, j))
        for j, g in enumerate(graphs)
        for law in (WeightLaw.uniform(0, 1), WeightLaw.constant(1.0))
    ]


class TestMatchingTable:
    """The bitmask table against the backtracking search it replaces from _ARRAY_EDGES edges up."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return table_corpus()

    def test_same_matchings_as_search(self, corpus):
        for g in corpus:
            masks, sizes, weights = exact._matching_table(g)
            assert (masks.dtype, sizes.dtype, weights.dtype) == (np.int32, np.int8, np.float64)
            searched = {tuple(sel): weight for sel, weight in exact._matchings(g)}  # in search order
            table = {tuple(exact._ids(g.m, k)): w for k, w in zip(masks.tolist(), weights.tolist())}
            assert len(table) == len(masks) == len(searched)
            assert table.keys() == searched.keys()
            assert all(table[sel].hex() == searched[sel].hex() for sel in table)  # bit for bit
            assert sizes.tolist() == [len(sel) for sel in table]
            best = int(sizes.max())
            top = np.sort(masks[sizes == best])[::-1].tolist()
            assert [tuple(exact._ids(g.m, k)) for k in top] == [sel for sel in searched if len(sel) == best]

    def test_enumerators_agree_across_crossover(self, corpus, monkeypatch):
        for g in corpus:
            got = []
            for edges in (0, exact._OPT_EDGE_CAP + 1):  # all table, all search
                monkeypatch.setattr(exact, "_ARRAY_EDGES", edges)
                opt = brute_force_opt(g)
                row = [opt, exact.eps_threshold(g, opt)]
                if g.m <= exact._ENUM_EDGE_CAP:
                    row += [mandatory_blocking(g), [uniform_max_matching(g, RngSeed(93, j)) for j in range(3)]]
                got.append(row)
            assert got[0] == got[1]

    @pytest.mark.parametrize("edges", [0, exact._OPT_EDGE_CAP + 1])
    def test_eps_threshold(self, edges, monkeypatch):
        monkeypatch.setattr(exact, "_ARRAY_EDGES", edges)
        g = path([0.1, 0.9, 0.1])  # the middle edge alone outweighs the two ends
        assert exact.eps_threshold(g, brute_force_opt(g)) == (2 - 1) / (0.9 - 0.2)
        g = path([0.5, 0.9, 0.5])
        assert exact.eps_threshold(g, brute_force_opt(g)) == math.inf
        with pytest.raises(EnumerationLimitError):
            exact.eps_threshold(path([1.0] * 27), Matching(path([1.0] * 27), []))

    def test_structure_cap(self):
        g = path([1.0] * (exact._ENUM_EDGE_CAP + 1))
        with pytest.raises(EnumerationLimitError):
            mandatory_blocking(g)
        with pytest.raises(EnumerationLimitError):
            uniform_max_matching(g, RngSeed(94))

    def test_peak_allocation_per_matching(self):
        # the 26-edge path has F(28) matchings; the table keeps 13 bytes each
        # (int32 mask, int8 size, float64 weight) and peaked at 22.2 while built
        g = path([1.0] * 26)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            masks, _, _ = exact._matching_table(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(masks) == 317_811
        assert peak / len(masks) < 24


class TestMandatoryBlocking:
    def test_single_edge(self):
        g = graph_of(2, {(0, 1): 1.0})
        assert mandatory_blocking(g) == {(0, 1): MANDATORY}

    def test_two_edge_path_both_free(self):
        cls = mandatory_blocking(path([1.0, 1.0]))
        assert set(cls.values()) == {FREE}

    def test_star_all_free(self):
        g = graph_of(4, {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0})
        assert set(mandatory_blocking(g).values()) == {FREE}

    def test_three_edge_path(self):
        cls = mandatory_blocking(path([1.0, 1.0, 1.0]))
        assert cls[(0, 1)] == MANDATORY
        assert cls[(1, 2)] == BLOCKING
        assert cls[(2, 3)] == MANDATORY

    def test_mandatory_in_every_maximum(self):
        for i in range(30):
            g = random_small_tree(i, max_depth=3)
            if g.m > 14:
                continue
            cls = mandatory_blocking(g)
            edges = g.edges()
            sels = [tuple(sel) for sel, _ in exact._matchings(g)]
            best = max(map(len, sels))
            sets = [{edges[i] for i in sel} for sel in sels if len(sel) == best]
            for e, label in cls.items():
                if label == MANDATORY:
                    assert all(e in s for s in sets)
                elif label == BLOCKING:
                    assert all(e not in s for s in sets)


class TestUniformMaxMatching:
    def test_single_edge(self):
        g = graph_of(2, {(0, 1): 1.0})
        m = uniform_max_matching(g, RngSeed(3))
        assert m.edges == frozenset({(0, 1)})

    def test_two_edge_path_even_split(self):
        g = path([1.0, 1.0])
        counts = {}
        for i in range(10_000):
            m = uniform_max_matching(g, RngSeed(10, i))
            e = next(iter(m.edges))
            counts[e] = counts.get(e, 0) + 1
        assert abs(counts[(0, 1)] / 10_000 - 0.5) < 0.02

    def test_star_of_stars_root_matched(self):
        # root 0 with neighbours 1,2; leaves 3 under 1 and 4 under 2;
        # 3 maximum matchings, 2 of which match the root
        g = graph_of(5, {(0, 1): 1.0, (0, 2): 1.0, (1, 3): 1.0, (2, 4): 1.0})
        hits = 0
        n = 10_000
        for i in range(n):
            m = uniform_max_matching(g, RngSeed(20, i))
            if m.covers(0):
                hits += 1
        assert abs(hits / n - 2.0 / 3.0) < 0.02


class TestPerf:
    def test_empty(self):
        g = path([1.0])
        pv, pe = perf_of(Matching(g, []))
        assert astuple(pv) == (0.0, 0.0) and astuple(pe) == (0.0, 0.0)

    def test_perfect(self):
        g = path([0.8])
        m = brute_force_opt(g)
        pv, _ = perf_of(m)
        assert astuple(pv) == pytest.approx((1.0, 0.8))

    def test_proportionality_identity(self):
        for i in range(40):
            g = random_small_tree(i)
            if g.m == 0 or g.m > 26:
                continue
            m = brute_force_opt(g)
            pv, pe = perf_of(m)
            ratio = 2.0 * g.m / g.n
            assert pv.match_prob == pytest.approx(ratio * pe.match_prob, abs=1e-12)
            assert pv.expected_weight == pytest.approx(ratio * pe.expected_weight, abs=1e-12)

    # perf_of reads only a Matching, which its constructor checked: these
    # are the constructor's refusals

    def test_rejects_non_matching(self):
        g = path([1.0, 1.0, 1.0])
        with pytest.raises(NotAMatchingError, match=r"^two matched edges share vertex 1$"):
            Matching(g, [1, 0])
        with pytest.raises(NotAMatchingError, match=r"^two matched edges share vertex 2$"):
            Matching(g, [2, 1])
        with pytest.raises(NotAMatchingError, match=r"^two matched edges share vertex 1$"):
            Matching(g, [1, 1])  # a repeated id
        assert Matching(g, [2, 0]) == Matching(g, (0, 2))

    def test_rejects_non_edge(self):
        g = path([1.0, 1.0])
        for i in (2, -1, 10**12):
            with pytest.raises(NotAMatchingError, match=rf"^edge id {i} not in range\(2\)$"):
                Matching(g, [0, i])
        tree = ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 3, RngSeed(3))  # edge c - 1 ends at vertex c
        with pytest.raises(NotAMatchingError, match=rf"^edge id {tree.m} not in range\({tree.m}\)$"):
            Matching(tree, [tree.m])
        m = Matching(tree, [tree.m - 1])
        assert (m.edges, m.weight, m.n, m.m) == ({(tree.lo[-1], tree.n - 1)}, tree.w[-1], tree.n, tree.m)


class TestMatchingWeight:
    """Every producer's weight is g.w summed over its edge ids in ascending order, exactly."""

    @staticmethod
    def assert_id_order_weight(g, m):
        ids = sorted(g.edge_id(u, v) for u, v in m.edges)
        assert m.weight == sum(g.w[i] for i in ids)

    def test_small_trees(self):
        for i in range(60):
            g = random_small_tree(i)
            made = [
                bp.extract_matching(g, bp.sweep_tree(g, 1)),
                bp.scalar_sweep_eps(g, 2.0**-8)[1],
                tree_opt_dp(g)[0],
                leaf_removal(g, RngSeed(5, i))[0],
            ]
            if g.m <= 20:
                made += [brute_force_opt(g), uniform_max_matching(g, RngSeed(6, i))]
            for m in made:
                self.assert_id_order_weight(g, m)

    def test_large_graphs(self):
        tree = random_small_tree(8, max_depth=9)  # depth 9
        assert tree.n > 300
        for m in (bp.extract_matching(tree, bp.sweep_tree(tree, 1)), tree_opt_dp(tree)[0]):
            self.assert_id_order_weight(tree, m)
        for c in (1.0, 3.0):  # the 3/n graph has a 2-core: random steps too
            g = assign_weights(randgraph.erdos_renyi(2000, c, RngSeed(7)), WeightLaw.uniform(0, 1), RngSeed(8))
            m, _, core = leaf_removal(g, RngSeed(9))
            assert core > 0 or c < 2
            self.assert_id_order_weight(g, m)


class TestStoredForm:
    """A Matching keeps its ends in id order; its pairs, size, covers and text read them."""

    @staticmethod
    def corpus():
        trees = [random_small_tree(i, max_depth=5) for i in range(20)]
        forests = []  # ER forests: csr-numbered, several components each
        for i in range(30):
            g = randgraph.erdos_renyi(60, 0.8, RngSeed(31, i))
            try:
                roots = list(exact._orient_forest(g)[0]).count(-1)
            except CycleError:
                continue
            assert roots > 1
            forests.append(g)
        cyclic = [randgraph.erdos_renyi(30, 3.0, RngSeed(32, i)) for i in range(10)]
        assert all(g.tree for g in trees) and not any(g.tree for g in forests + cyclic)
        assert len(forests) >= 10 and all(g.m >= g.n for g in cyclic)
        return trees + forests + cyclic

    @staticmethod
    def disjoint_ids(g, rng):
        """A random vertex-disjoint set of g's edge ids, in random order."""
        used, ids = set(), []
        for i in rng.permutation(g.m).tolist():
            if g.lo[i] not in used and g.hi[i] not in used and rng.random() < 0.7:
                used.update((g.lo[i], g.hi[i]))
                ids.append(i)
        return ids

    def test_readers(self):
        rng = np.random.default_rng(33)
        for g in self.corpus():
            for ids in [[]] + [self.disjoint_ids(g, rng) for _ in range(5)]:
                m = Matching(g, ids)
                assert type(m.weight) is float  # the empty matching's included: 0.0, not 0
                covered = {g.lo[i] for i in ids} | {g.hi[i] for i in ids}
                assert m.edges == {(g.lo[i], g.hi[i]) for i in ids} and m.size == len(ids)
                assert [m.covers(v) for v in range(g.n)] == [v in covered for v in range(g.n)]
                shuffled = Matching(g, rng.permutation(np.array(ids, dtype=int)).tolist())
                assert shuffled == m and hash(shuffled) == hash(m)
                assert "edges" not in vars(m)
                head, *lines = exact.matching_to_text(m).splitlines()
                assert head == f"size={len(ids)} weight={m.weight:.17g}"
                assert [tuple(map(int, ln.split())) for ln in lines] == sorted(m.edges)

    def test_shared_vertex_names_the_first_repeat(self):
        # the first vertex that repeats among the lo ends in ascending id order, then the hi ends
        rng = np.random.default_rng(34)
        for g in self.corpus():
            for v in range(g.n):
                _, eids = g.incident(v)
                if len(eids) < 2:
                    continue
                ids = self.disjoint_ids(g, rng) + rng.choice(eids, 2, replace=False).tolist()
                rng.shuffle(ids)
                ends = [g.lo[i] for i in sorted(ids)] + [g.hi[i] for i in sorted(ids)]
                first = next(x for x in ends if ends.count(x) > 1)
                with pytest.raises(NotAMatchingError, match=rf"^two matched edges share vertex {first}$"):
                    Matching(g, ids)
