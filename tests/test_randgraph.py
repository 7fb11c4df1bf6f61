"""Generators and serialization: determinism and distributional checks."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmatch import randgraph
from lexmatch.cli import cli
from lexmatch.genfn import OffspringLaw, parse_law
from lexmatch.randgraph import (
    EdgeRoot,
    GraphError,
    RngSeed,
    VertexRoot,
    WeightedGraph,
    WeightLaw,
    assign_weights,
    configuration_model,
    erdos_renyi,
    graph_from_text,
    graph_to_text,
    parse_weight_law,
    ubgw_tree,
)


def tv_distance(counts_a: dict, counts_b: dict) -> float:
    keys = set(counts_a) | set(counts_b)
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    return 0.5 * sum(abs(counts_a.get(k, 0) / na - counts_b.get(k, 0) / nb) for k in keys)


def graph_from(n, edge_weights, root, boundary=()):
    """The graph on range(n) with the edges and weights of a dict, in its order."""
    lo, hi = [u for u, _ in edge_weights], [v for _, v in edge_weights]
    return WeightedGraph(n, lo, hi, list(edge_weights.values()), root, frozenset(boundary))


def path_graph(weights):
    ew = {(i, i + 1): w for i, w in enumerate(weights)}
    return graph_from(len(weights) + 1, ew, VertexRoot(0))


class TestRngSeed:
    def test_replay_identical(self):
        a = RngSeed(42, 3).generator().random(10)
        b = RngSeed(42, 3).generator().random(10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngSeed(42, 0).generator().random(10)
        b = RngSeed(42, 1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_children_distinct(self):
        kids = {RngSeed(7, 2).child(i) for i in range(50)}
        assert len(kids) == 50

    def test_direct_seeds_keep_their_draws(self):
        # first draws of seeds with an empty path, as derived before paths existed
        assert RngSeed(42, 3).generator().random(4).tolist() == [
            0.6724719521589736, 0.37504987912462506, 0.4880688888778242, 0.5649928562071913
        ]
        assert RngSeed(7).generator().random(4).tolist() == [
            0.048373749046626946, 0.8224166666374553, 0.09368511632803123, 0.10349355193634491
        ]

    def test_child_path_does_not_collide_with_grandchild(self):
        # under arithmetic stream derivation both were stream 1000004
        a = RngSeed(7).child(1_000_003)
        b = RngSeed(7).child(0).child(0)
        assert a != b
        key_a, key_b = (s.generator().bit_generator.state["state"]["key"] for s in (a, b))
        assert not np.array_equal(key_a, key_b)

    def test_generator_is_keyed_by_seed_stream_and_path(self):
        for seed in (RngSeed(7), RngSeed(42, 3).child(5), RngSeed(2**70, 9).child(2**32 - 1).child(0)):
            ss = np.random.SeedSequence(entropy=seed.seed, spawn_key=(seed.stream, *seed.path))
            want = np.random.Generator(np.random.Philox(ss)).random(5)
            assert np.array_equal(seed.generator().random(5), want)

    def test_child_index_is_one_word(self):
        for bad in (-1, 2**32):
            with pytest.raises(GraphError):
                RngSeed(7).child(bad)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 2**32 - 1), max_size=3),
        st.lists(st.integers(0, 2**32 - 1), max_size=3),
        st.integers(0, 3),
    )
    def test_distinct_paths_draw_differently(self, path_a, path_b, stream):
        if path_a == path_b:
            return
        seeds = []
        for path in (path_a, path_b):
            seed = RngSeed(11, stream)
            for index in path:
                seed = seed.child(index)
            seeds.append(seed)
        a, b = (s.generator().bit_generator.random_raw() for s in seeds)
        assert a != b


def _numpy_key(seed: int, stream: int, path: tuple) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, *path))
    return ss.generate_state(2, np.uint64)


class TestRngSeedChildren:
    """`children` keys a block of seeds exactly as SeedSequence keys each one."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**300 - 1),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 2**32 - 1), max_size=3),
        st.one_of(st.sampled_from([0, 2**32 - 64]), st.integers(0, 2**32 - 64)),
        st.one_of(st.just(()), st.just((0,)), st.integers(0, 2**32 - 1).map(lambda w: (w,))),
    )
    def test_keys_equal_seed_sequence(self, seed, stream, path, start, tail):
        base = RngSeed(seed, stream, tuple(path))
        kids = base.children(start, start + 64, tail)
        assert [k.path for k in kids] == [(*path, i, *tail) for i in range(start, start + 64)]
        for kid in kids:
            assert kid.key.dtype == np.uint64
            assert np.array_equal(kid.key, _numpy_key(seed, stream, kid.path))
            plain = RngSeed(seed, stream, kid.path)
            assert kid == plain and hash(kid) == hash(plain) and repr(kid) == repr(plain)
        for kid in (kids[0], kids[-1]):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, *kid.path))
            want = np.random.Generator(np.random.Philox(ss)).random(5)
            assert np.array_equal(kid.generator().random(5), want)

    def test_child_and_children_agree(self):
        base = RngSeed(7, 3).child(2)
        for kid in base.children(0, 5) + base.children(10, 12, (0,)):
            plain = RngSeed(7, 3, kid.path)
            assert plain.key is None and plain == kid
            assert np.array_equal(plain.generator().random(8), kid.generator().random(8))
            assert np.array_equal(kid.key, plain.generator().bit_generator.state["state"]["key"])

    def test_empty_range(self):
        assert RngSeed(7).children(5, 5) == []
        assert RngSeed(7).children(9, 3, (0,)) == []

    @pytest.mark.parametrize(
        "start, stop, tail",
        [(-1, 3, ()), (2**32 - 1, 2**32 + 1, ()), (0, 3, (2**32,)), (0, 3, (0, -1)), (5, 5, (2**32,))],
    )
    def test_words_outside_one_word_raise(self, start, stop, tail):
        with pytest.raises(GraphError):
            RngSeed(7).children(start, stop, tail)

    def test_prefix_words_outside_one_word_raise(self):
        # SeedSequence would split such a word in two, and the keys would be wrong
        for seed in (RngSeed(7, 2**32), RngSeed(7, 0, (1, 2**32))):
            with pytest.raises(GraphError):
                seed.children(0, 3)


class TestErdosRenyi:
    def test_single_vertex(self):
        g = erdos_renyi(1, 0.5, RngSeed(1))
        assert g.n == 1 and g.m == 0 and g.root == VertexRoot(0)

    def test_determinism(self):
        g1 = erdos_renyi(500, 2.0, RngSeed(5, 1))
        g2 = erdos_renyi(500, 2.0, RngSeed(5, 1))
        assert graph_to_text(g1) == graph_to_text(g2)

    def test_mean_degree_concentrates(self):
        n = 100_000
        g = erdos_renyi(n, 1.0, RngSeed(11))
        assert abs(2 * g.m / n - 1.0) < 0.02

    def test_simple(self):
        g = erdos_renyi(300, 3.0, RngSeed(2))
        assert all(u != v for (u, v) in g.weights)
        assert all(u < v for (u, v) in g.weights)

    def test_parameter_errors(self):
        with pytest.raises(GraphError):
            erdos_renyi(0, 1.0, RngSeed(0))
        with pytest.raises(GraphError):
            erdos_renyi(10, 20.0, RngSeed(0))


class TestConfigurationModel:
    def test_all_zero_degrees(self):
        g = configuration_model([0, 0, 0], RngSeed(3))
        assert g.n == 3 and g.m == 0

    def test_single_pair(self):
        g = configuration_model([1, 1], RngSeed(4))
        assert g.m == 1 and (0, 1) in g.weights

    def test_odd_sum_padded(self):
        g = configuration_model([1, 1, 1], RngSeed(5))
        # one half-edge added to the last vertex: 4 stubs -> 2 pairings at most
        assert g.m in (1, 2)

    def test_degree_histogram_close_to_poisson(self):
        rng = RngSeed(6).generator()
        n = 10_000
        degrees = rng.poisson(2.0, n)
        g = configuration_model(degrees, RngSeed(7))
        emp = {}
        for v in range(g.n):
            d = len(g.incident(v)[0])
            emp[d] = emp.get(d, 0) + 1
        law = OffspringLaw.poisson(2.0)
        ref = {k: float(p) * n for k, p in enumerate(law.pmf_values(30))}
        assert tv_distance(emp, ref) < 0.02

    def test_determinism(self):
        g1 = configuration_model([2, 3, 1, 2], RngSeed(9))
        g2 = configuration_model([2, 3, 1, 2], RngSeed(9))
        assert graph_to_text(g1) == graph_to_text(g2)

    def test_cli_gen(self, capsys):
        # the degrees and the pairing come from the seeds that run_size uses
        assert cli(["gen", "--model", "config", "--law", "binom:3:0.5", "--n", "200", "--seed", "3"]) == 0
        seed = RngSeed(3)
        g = configuration_model(parse_law("binom:3:0.5").sample(seed.generator(), 200), seed.child(0))
        assert capsys.readouterr().out == graph_to_text(assign_weights(g, WeightLaw.uniform(), seed.child(1)))


def tree_depths(g):
    """The depth of each vertex of a vertex-rooted ubgw_tree: its vertices are
    numbered breadth first, and edge c - 1 joins vertex c to its parent."""
    depth = [0] * g.n
    for c in range(1, g.n):
        depth[c] = depth[g.lo[c - 1]] + 1
    return depth


class TestUbgwTree:
    def test_depth_zero_vertex(self):
        g = ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 0, RngSeed(1))
        assert g.n == 1 and g.m == 0 and g.boundary == frozenset({0})

    def test_deterministic_binary_edge_rooted_counts(self):
        # excess law of delta_2 is the point mass at 1... use a law whose
        # excess law is delta_2: pmf proportional to delta_3 gives excess
        # (k+1)pi(k+1)/m = delta_2. Each endpoint then grows a binary tree:
        # 2 + 2*(2 + 4) = 14 vertices at depth 2.
        law = OffspringLaw.finite_support([0.0, 0.0, 0.0, 1.0])
        g = ubgw_tree(law, "edge", 2, RngSeed(2))
        assert g.n == 14
        assert isinstance(g.root, EdgeRoot)

    def test_is_tree_with_boundary_at_depth(self):
        g = ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 3, RngSeed(3))
        assert g.m == g.n - 1 and list(g.hi) == list(range(1, g.n))
        assert all(p < c for c, p in enumerate(g.lo, 1))  # numbered breadth first
        depth = tree_depths(g)
        assert g.boundary == frozenset(v for v, d in enumerate(depth) if d == 3)

    def test_root_degree_histogram(self):
        law = OffspringLaw.poisson(1.5)
        emp = {}
        for i in range(20_000):
            g = ubgw_tree(law, "vertex", 1, RngSeed(100, i))
            d = len(g.incident(g.root_vertex())[0]) if g.n > 0 else 0
            emp[d] = emp.get(d, 0) + 1
        ref = {k: float(p) * 20_000 for k, p in enumerate(law.pmf_values(30))}
        assert tv_distance(emp, ref) < 0.02

    def test_interior_excess_degree_histogram(self):
        law = OffspringLaw.poisson(1.2)
        emp = {}
        for i in range(8_000):
            g = ubgw_tree(law, "vertex", 2, RngSeed(200, i))
            depth = tree_depths(g)
            for v in range(g.n):
                if depth[v] == 1:  # interior non-root generation
                    k = len(g.incident(v)[0]) - 1
                    emp[k] = emp.get(k, 0) + 1
        excess = OffspringLaw.poisson(1.2).excess_pmf()
        total = sum(emp.values())
        ref = {k: float(p) * total for k, p in enumerate(excess)}
        assert tv_distance(emp, ref) < 0.02

    def test_mean_size_matches_branching_recursion(self):
        # oracle: 1 + sum_{h=1}^{depth} m * mu^(h-1) with mu the excess mean
        law = OffspringLaw.poisson(1.0)
        depth = 10
        sizes = [ubgw_tree(law, "vertex", depth, RngSeed(300, i)).n for i in range(10_000)]
        expected = 1.0 + sum(1.0 * 1.0 ** (h - 1) for h in range(1, depth + 1))
        assert np.mean(sizes) == pytest.approx(expected, rel=0.1)


def reference_ubgw_tree(law, rooting, depth, seed):
    """The queue-and-dict construction that ubgw_tree replaced, kept as its oracle."""
    if depth < 0:
        raise GraphError("depth must be >= 0")
    rng = seed.generator()
    edge_weights = {}
    boundary = []
    next_id = 0

    def new_vertex():
        nonlocal next_id
        v = next_id
        next_id += 1
        return v

    frontier = []
    if rooting == "vertex":
        root_obj = VertexRoot(new_vertex())
        if depth == 0:
            boundary.append(0)
        else:
            k0 = int(law.sample(rng))
            for _ in range(k0):
                child = new_vertex()
                edge_weights[(0, child)] = 0.0
                frontier.append((child, 1))
    elif rooting == "edge":
        a, b = new_vertex(), new_vertex()
        edge_weights[(a, b)] = 0.0
        root_obj = EdgeRoot(a, b)
        if depth == 0:
            boundary.extend([a, b])
        else:
            frontier.extend([(a, 0), (b, 0)])
            new_frontier = []
            for v, _ in frontier:
                k = int(law.sample_excess(rng))
                for _ in range(k):
                    child = new_vertex()
                    edge_weights[(min(v, child), max(v, child))] = 0.0
                    new_frontier.append((child, 1))
            frontier = new_frontier
    else:
        raise GraphError(f"rooting must be 'vertex' or 'edge', got {rooting!r}")

    head = 0
    while head < len(frontier):
        v, d = frontier[head]
        head += 1
        if d == depth:
            boundary.append(v)
            continue
        k = int(law.sample_excess(rng))
        for _ in range(k):
            child = new_vertex()
            edge_weights[(v, child)] = 0.0
            frontier.append((child, d + 1))

    return graph_from(max(next_id, 1), edge_weights, root_obj, boundary)


def reference_assign_weights(g, law, seed):
    """The per-draw float() and sorted-dict version of assign_weights."""
    rng = seed.generator()
    keys = sorted(g.weights.keys())
    draws = law.sample(rng, len(keys)) if keys else []
    return graph_from(g.n, {k: float(w) for k, w in zip(keys, draws)}, g.root, g.boundary)


def assert_same_graph(a, b):
    assert a.n == b.n
    assert a.adjacency == b.adjacency
    assert a.root == b.root
    assert a.boundary == b.boundary
    # edge order too, the one order a graph has: weights iterates in it
    assert (a.lo, a.hi, a.w) == (b.lo, b.hi, b.w)
    assert list(a.weights.items()) == list(b.weights.items())


class TestUbgwTreeDifferential:
    """ubgw_tree and assign_weights against their previous construction, draw for draw."""

    LAWS = [
        OffspringLaw.poisson(1.0),
        OffspringLaw.poisson(2.0),
        OffspringLaw.binomial(3, 0.5),
        OffspringLaw.binomial(1, 0.5),
        OffspringLaw.geometric(0.6),
        OffspringLaw.finite_support([0.2, 0.3, 0.5]),
    ]
    WEIGHT_LAWS = [WeightLaw.uniform(0, 1), WeightLaw.exponential(2.0), WeightLaw.constant(1.0)]

    @pytest.mark.parametrize("rooting", ["vertex", "edge"])
    def test_trees_and_weights_identical(self, rooting):
        trees = 0
        for law in self.LAWS:
            for depth in range(7):
                for i in range(4):
                    seed = RngSeed(41, 7 * depth + i)
                    g = ubgw_tree(law, rooting, depth, seed)
                    assert_same_graph(g, reference_ubgw_tree(law, rooting, depth, seed))
                    for j, wlaw in enumerate(self.WEIGHT_LAWS):
                        wseed = seed.child(j)
                        assert_same_graph(
                            assign_weights(g, wlaw, wseed), reference_assign_weights(g, wlaw, wseed)
                        )
                    trees += g.n > 2
        assert trees > 60  # most cases are non-trivial trees

    def test_bad_arguments_still_raise(self):
        with pytest.raises(GraphError, match="depth"):
            ubgw_tree(OffspringLaw.poisson(1.0), "vertex", -1, RngSeed(1))
        with pytest.raises(GraphError, match="rooting"):
            ubgw_tree(OffspringLaw.poisson(1.0), "half-edge", 2, RngSeed(1))

    @pytest.mark.parametrize(
        "spec, depth, seed, least",
        [
            ("poisson:2", 15, RngSeed(1166), 90_000),  # the benchmark's `large` tree
            ("geom:0.5", 10, RngSeed(41, 0), 1_000),
            ("binom:3:0.5", 12, RngSeed(41, 21), 100),
        ],
    )
    def test_deep_trees_identical(self, spec, depth, seed, least):
        # generations of thousands of vertices, each drawn as one block of counts
        law = parse_law(spec)
        g = ubgw_tree(law, "vertex", depth, seed)
        assert g.n >= least
        assert_same_graph(g, reference_ubgw_tree(law, "vertex", depth, seed))
        wlaw = WeightLaw.uniform(0, 1)
        assert_same_graph(assign_weights(g, wlaw, seed.child(1)), reference_assign_weights(g, wlaw, seed.child(1)))


class TestTreeSizeCap:
    """ubgw_tree refuses a tree past randgraph._MAX_VERTICES before building its generation."""

    def test_refused_before_the_generation_is_built(self, monkeypatch):
        monkeypatch.setattr(randgraph, "_MAX_VERTICES", 1_000)
        with pytest.raises(GraphError) as exc:
            ubgw_tree(OffspringLaw.poisson(30.0), "vertex", 12, RngSeed(1))
        assert str(exc.value) == "tree passes the cap of 1000 vertices at depth 3 of 12: 23704 vertices"
        assert ubgw_tree(OffspringLaw.poisson(30.0), "vertex", 2, RngSeed(1)).n == 790  # under the cap

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--model", "ubgw", "--law", "poisson:30", "--depth", "12"],
            ["mandatory", "--probe", "--law", "poisson:30"],
        ],
        ids=["gen", "mandatory-probe"],
    )
    def test_cli_one_line_error(self, argv, capsys):
        assert cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: tree passes the cap of 10000000 vertices at depth 5 of 12: \d+ vertices\n", captured.err)


class TestVertexCap:
    """Every graph is refused past randgraph._MAX_VERTICES before anything of size n is made."""

    def test_graph_from_text_header(self):
        with pytest.raises(GraphError, match=r"^n=4611686018427387904 passes the cap of 10000000 vertices$"):
            graph_from_text(f"lexmatch-graph v1 n={2**62} m=1 root=vertex:0\n0 1 0.5\n")

    def test_erdos_renyi(self, monkeypatch):
        with pytest.raises(GraphError, match=r"^n=1000000000000 passes the cap of 10000000 vertices$"):
            erdos_renyi(10**12, 1.0, RngSeed(1))
        monkeypatch.setattr(randgraph, "_MAX_VERTICES", 50)
        assert erdos_renyi(50, 1.0, RngSeed(1)).n == 50  # the cap itself is allowed
        with pytest.raises(GraphError, match=r"^n=51 passes the cap of 50 vertices$"):
            erdos_renyi(51, 1.0, RngSeed(1))

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--model", "er"],
            ["gen", "--model", "config", "--law", "poisson:3"],
            ["size", "--law", "poisson:1"],
            ["size", "--law", "binom:3:0.5"],
        ],
        ids=["gen-er", "gen-config", "size-er", "size-config"],
    )
    def test_cli_one_line_error(self, argv, capsys):
        assert cli(argv + ["--n", str(10**12)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=1000000000000 passes the cap of 10000000 vertices\n"

    def test_match_header(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text(f"lexmatch-graph v1 n={2**62} m=0 root=vertex:0\n")
        assert cli(["match", "--graph", str(path)]) == 1
        assert capsys.readouterr().err == "error: n=4611686018427387904 passes the cap of 10000000 vertices\n"

    @pytest.mark.parametrize("n", [0, -5])
    def test_header_without_vertices(self, n, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text(f"lexmatch-graph v1 n={n} m=0 root=vertex:0\n")
        with pytest.raises(GraphError, match=r"^n must be >= 1$"):
            graph_from_text(path.read_text())
        assert cli(["match", "--graph", str(path)]) == 1
        assert capsys.readouterr().err == "error: n must be >= 1\n"

    def test_configuration_model_without_vertices(self):
        with pytest.raises(GraphError, match=r"^n must be >= 1$"):
            configuration_model([], RngSeed(1))


class TestOneEdgeOrder:
    """Edge order is the only order a graph has: the order edges are given in is forgotten."""

    def test_reversed_edges_compare_equal(self):
        a = WeightedGraph(3, [1, 0], [2, 1], [0.75, 0.25], VertexRoot(0))
        b = WeightedGraph(3, [0, 1], [1, 2], [0.25, 0.75], VertexRoot(0))
        assert a == b
        assert list(a.weights.items()) == list(b.weights.items()) == [((0, 1), 0.25), ((1, 2), 0.75)]

    def test_any_order_and_orientation(self):
        g = assign_weights(erdos_renyi(300, 3.0, RngSeed(71)), WeightLaw.uniform(), RngSeed(72))
        rng = np.random.default_rng(73)
        for _ in range(5):
            perm, flip = rng.permutation(g.m), rng.random(g.m) < 0.5
            lo, hi, w = np.asarray(g.lo)[perm], np.asarray(g.hi)[perm], np.asarray(g.w)[perm]
            h = WeightedGraph(g.n, np.where(flip, hi, lo), np.where(flip, lo, hi), w, g.root)
            assert h == g
            assert list(h.weights.items()) == list(g.weights.items())
            assert graph_to_text(h) == graph_to_text(g)

    def test_differs_in_weight_root_or_boundary(self):
        g = WeightedGraph(3, [0, 1], [1, 2], [0.25, 0.75], VertexRoot(0))
        assert g != WeightedGraph(3, [1, 0], [2, 1], [0.25, 0.75], VertexRoot(0))
        assert g != WeightedGraph(3, [0, 1], [1, 2], [0.25, 0.75], VertexRoot(1))
        assert g != WeightedGraph(3, [0, 1], [1, 2], [0.25, 0.75], VertexRoot(0), frozenset({2}))


def adjacency_of(n, edges):
    """Sorted neighbour tuples built by list appends, independent of randgraph."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(nb)) for nb in nbrs)


def checked_graph(n, edge_weights, root):
    """graph_from, its adjacency view checked against the list-append one."""
    g = graph_from(n, edge_weights, root)
    assert g.adjacency == adjacency_of(n, edge_weights)
    return g


def reference_erdos_renyi(n, c, seed):
    """The scalar skip loop erdos_renyi replaced: one rng.random() call per edge."""
    rng = seed.generator()
    p = c / n if n > 1 else 0.0
    edges = []
    if p > 0.0:
        lq = math.log1p(-p)
        v, w, left = 1, -1, n * (n - 1) // 2
        while (skip := math.log1p(-rng.random()) / lq) < left:
            step = 1 + int(skip)
            left -= step
            w += step
            while w >= v:
                w -= v
                v += 1
            edges.append((w, v))
    root = VertexRoot(int(rng.integers(0, n)))
    return checked_graph(n, dict.fromkeys(edges, 0.0), root)


def reference_configuration_model(degrees, seed):
    """The pair-by-pair dict loop configuration_model replaced."""
    degs = [int(d) for d in degrees]
    n = len(degs)
    if sum(degs) % 2 == 1:
        degs[-1] += 1
    rng = seed.generator()
    stubs = np.repeat(np.arange(n), degs)
    stubs = stubs[rng.permutation(len(stubs))]
    edge_weights = {}
    for i in range(0, len(stubs) - 1, 2):
        u, v = int(stubs[i]), int(stubs[i + 1])
        if u != v:
            edge_weights[(min(u, v), max(u, v))] = 0.0
    root = VertexRoot(int(rng.integers(0, n)))
    return checked_graph(n, edge_weights, root)


def reference_graph_from_text(text):
    """The line-by-line dict parser graph_from_text replaced (header parsing omitted)."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    header = dict(tok.split("=", 1) for tok in lines[0].split()[2:])
    n, m = int(header["n"]), int(header["m"])
    edge_weights = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise GraphError(f"malformed edge line {ln!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise GraphError(f"malformed edge line {ln!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"vertex id out of range 0..{n - 1} in edge line {ln!r}")
        if not math.isfinite(w):
            raise GraphError(f"non-finite weight in edge line {ln!r}")
        edge_weights[(min(u, v), max(u, v))] = w
    if len(edge_weights) != m:
        raise GraphError(f"header claims m={m}, found {len(edge_weights)} edges")
    for u, v in edge_weights:
        if u == v:
            raise GraphError(f"self-loop on vertex {u}")
    return checked_graph(n, edge_weights, VertexRoot(0))


class TestGraphsFromArraysDifferential:
    """erdos_renyi and configuration_model against their scalar loops, draw for draw."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 2000, 20_000])
    def test_erdos_renyi_identical(self, n):
        cs = [1e-310, 0.5, 1.0, 3.0] + ([n - 1e-9] if n <= 50 else [])
        for c in cs:
            if n > 1 and c >= n:
                continue
            for s in range(3):
                seed = RngSeed(s, 17)
                assert_same_graph(erdos_renyi(n, c, seed), reference_erdos_renyi(n, c, seed))

    @pytest.mark.parametrize("n, c", [(3, 5e-324), (1_000_000, 1e-318)])
    def test_erdos_renyi_underflowing_p(self, n, c):
        # c / n rounds to 0.0: no edge, no warning and no uniform drawn before the root
        assert c / n == 0.0
        for s in range(3):
            seed = RngSeed(s, 17)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = erdos_renyi(n, c, seed)
            assert g.m == 0
            assert_same_graph(g, reference_erdos_renyi(n, c, seed))

    def test_erdos_renyi_scan_spans_blocks(self):
        # more edges than uniforms in one block: the scan continues across blocks
        seed = RngSeed(5, 17)
        g = erdos_renyi(20_000, 3.0, seed)
        assert g.m > 1.5 * randgraph._SKIP_BLOCK
        assert_same_graph(g, reference_erdos_renyi(20_000, 3.0, seed))

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_erdos_renyi_any_block_size(self, monkeypatch, block):
        # block ends fall on every kind of step, including the one that ends the scan
        monkeypatch.setattr(randgraph, "_SKIP_BLOCK", block)
        for n, c in [(2, 1.0), (3, 3 - 1e-9), (50, 1.0), (50, 50 - 1e-9), (300, 3.0)]:
            for s in range(3):
                seed = RngSeed(s, 17)
                assert_same_graph(erdos_renyi(n, c, seed), reference_erdos_renyi(n, c, seed))

    def test_configuration_model_identical(self):
        rng = np.random.default_rng(23)
        for s in range(30):
            # dense small cases repeat pairs and self-loops often
            n = int(rng.integers(1, 12)) if s % 2 else int(rng.integers(1, 400))
            degrees = rng.poisson(3.0 if s % 2 else 2.0, n).tolist()
            seed = RngSeed(s, 19)
            assert_same_graph(configuration_model(degrees, seed), reference_configuration_model(degrees, seed))


class TestAssignWeights:
    def test_empty_graph_unchanged(self):
        g = erdos_renyi(1, 0.5, RngSeed(1))
        g2 = assign_weights(g, WeightLaw.uniform(), RngSeed(2))
        assert g2.m == 0

    def test_constant(self):
        g = path_graph([0.0, 0.0])
        g2 = assign_weights(g, WeightLaw.constant(1.0), RngSeed(3))
        assert all(w == 1.0 for w in g2.weights.values())

    def test_uniform_mean(self):
        ew = {(i, i + 1): 0.0 for i in range(1_000_000)}
        g = graph_from(1_000_001, ew, VertexRoot(0))
        g2 = assign_weights(g, WeightLaw.uniform(0, 1), RngSeed(4))
        vals = np.fromiter(g2.weights.values(), dtype=float)
        assert abs(vals.mean() - 0.5) < 0.002

    def test_determinism(self):
        g = erdos_renyi(200, 2.0, RngSeed(5))
        t1 = graph_to_text(assign_weights(g, WeightLaw.exponential(1.0), RngSeed(6)))
        t2 = graph_to_text(assign_weights(g, WeightLaw.exponential(1.0), RngSeed(6)))
        assert t1 == t2


# tokens and separators of edge lines that int(), float() and str.split() take
# or refuse in their own ways
_TOKENS = ["0", "1", "7", "-1", "+3", "007", "1_0", "\u0661", "1e5", "1.", "0.5", "-0.0", "4.9e-324", "1e400",
           "nan", "inf", "infinity", "0x10", "1d5", "nan(1)"]
_SEPARATORS = [" ", "  ", "\t", "\x1f", "\xa0", "\u3000", "\x00", ""]


@st.composite
def _edge_line(draw):
    """Three of four lines are two ids and a weight split by one space, the shape
    numpy reads, with any separator or none before and after; the others are up
    to four tokens with any separators."""
    sep, token = st.sampled_from(_SEPARATORS), st.sampled_from(_TOKENS)
    if draw(st.integers(0, 3)):
        ident = st.sampled_from(_TOKENS[:6]) | token  # half of them the integers
        ends = st.just("") | sep
        return draw(ends) + " ".join((draw(ident), draw(ident), draw(token))) + draw(ends)
    toks = draw(st.lists(token, max_size=4))
    seps = draw(st.lists(sep, min_size=len(toks) + 1, max_size=len(toks) + 1))
    return "".join(map(str.__add__, seps, toks + [""]))


class TestSerialization:
    def test_round_trip_exact(self):
        g = assign_weights(erdos_renyi(80, 2.0, RngSeed(13)), WeightLaw.uniform(), RngSeed(14))
        h = graph_from_text(graph_to_text(g))
        assert h.weights == g.weights
        assert h.adjacency == g.adjacency
        assert h.root == g.root

    def test_edge_root_round_trip(self):
        g = ubgw_tree(OffspringLaw.poisson(2.0), "edge", 2, RngSeed(15))
        g = assign_weights(g, WeightLaw.exponential(2.0), RngSeed(16))
        h = graph_from_text(graph_to_text(g))
        assert h.root == g.root and h.weights == g.weights

    @given(st.lists(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_weight_round_trip_bit_exact(self, ws):
        g = path_graph(ws)
        h = graph_from_text(graph_to_text(g))
        for k, w in g.weights.items():
            assert h.weights[k] == w  # bitwise equality

    def test_rejects_garbage(self):
        with pytest.raises(GraphError):
            graph_from_text("not a graph\n")
        with pytest.raises(GraphError):
            graph_from_text("lexmatch-graph v1 n=2 m=2 root=vertex:0\n0 1 0.5\n")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0 1 0.5\n0 9 0.5\n0 x 0.5\n", "vertex id out of range 0..3 in edge line '0 9 0.5'"),
            ("0 1 0.5\n0 x 0.5\n0 9 0.5\n", "malformed edge line '0 x 0.5'"),
            ("1 2 inf\n0 9 0.5\n", "non-finite weight in edge line '1 2 inf'"),
            ("0 9 nan\n1 2 inf\n", "vertex id out of range 0..3 in edge line '0 9 nan'"),
            ("1 2 nan\n0 99999999999999999999 0.5\n", "non-finite weight in edge line '1 2 nan'"),
            ("0 99999999999999999999 0.5\n1 2 nan\n",
             "vertex id out of range 0..3 in edge line '0 99999999999999999999 0.5'"),
            ("-1 2 0.5\n0 1\n", "vertex id out of range 0..3 in edge line '-1 2 0.5'"),
            ("0 1 0.5 7\n-1 2 0.5\n", "malformed edge line '0 1 0.5 7'"),
        ],
        ids=["range-then-malformed", "malformed-then-range", "nonfinite-then-range", "range-before-nonfinite",
             "nonfinite-then-overflow", "overflow-then-nonfinite", "range-then-short", "long-then-range"],
    )
    def test_first_bad_line_wins(self, body, message):
        text = "lexmatch-graph v1 n=4 m=3 root=vertex:0\n" + body
        with pytest.raises(GraphError) as exc:
            graph_from_text(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("later", [False, True], ids=["alone", "then-range"])
    @pytest.mark.parametrize("where", ["block-2-first", "block-2-last", "block-3"])
    @pytest.mark.parametrize(
        "line",
        ["\u0661\u0662 70 0.5", "1_0 70 0.5", "3 70 1_0.5", "3 70 \u0661\u0662", "0x10 70 0.5", "3 70 1d5",
         "3 70 0x10", "1d5 70 0.5", "3 70 inf", "3 70 nan", "3 70 -inf", "3 70 0.5 1", "3 70", "3\t70 0.5",
         "3  70", " 3 70", "  3 70 0.5", ""],
        ids=["arabic-id", "underscore-id", "underscore-w", "arabic-w", "hex-id", "d-exponent-w", "hex-w",
             "d-exponent-id", "inf", "nan", "minus-inf", "four-fields", "two-fields", "tab",
             "two-fields-double-space", "two-fields-leading-space", "leading-spaces", "blank"],
    )
    def test_blocks_keep_the_first_fault(self, monkeypatch, line, where, later):
        # edge lines are converted a block at a time: whether a line sits first or
        # last in a block, or the block falls back to the line loop, the result is
        # the line-by-line parser's graph or its first error
        lines = [f"{i} {i + 1} 0.{i % 9 + 1}" for i in range(60)]
        monkeypatch.setattr(randgraph, "_TEXT_BLOCK", 1)  # blocks of 32 characters and more
        body = "".join(ln + "\n" for ln in lines)
        starts = np.cumsum([0] + [b.count("\n") for b in randgraph._blocks(body, 0, len(body))])
        assert len(starts) > 4 and min(np.diff(starts)) >= 2
        lines[{"block-2-first": starts[1], "block-2-last": starts[2] - 1, "block-3": starts[2] + 1}[where]] = line
        if later:
            lines[-1] = "0 99 0.5"
        text = "lexmatch-graph v1 n=80 m=60 root=vertex:0\n" + "\n".join(lines) + "\n"
        try:
            expected = reference_graph_from_text(text)
        except GraphError as exc:
            for block in (1, 1 << 11):
                monkeypatch.setattr(randgraph, "_TEXT_BLOCK", block)
                with pytest.raises(GraphError) as got:
                    graph_from_text(text)
                assert str(got.value) == str(exc)
            return
        for block in (1, 1 << 11):
            monkeypatch.setattr(randgraph, "_TEXT_BLOCK", block)
            assert_same_graph(graph_from_text(text), expected)

    def test_plain_blocks_skip_the_line_loop(self, monkeypatch):
        # a file as graph_to_text writes it is converted by numpy alone
        seed = RngSeed(1166)
        g = assign_weights(ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 12, seed), WeightLaw.uniform(), seed.child(1))
        text = graph_to_text(g)
        assert len(text) > 4 * 32 * randgraph._TEXT_BLOCK
        loops = []
        edge_lines = randgraph._edge_lines
        monkeypatch.setattr(randgraph, "_edge_lines", lambda lines, n: loops.append(lines) or edge_lines(lines, n))
        h = graph_from_text(text)
        assert h == replace(g, boundary=frozenset()) and h.tree and h.links is None
        assert loops == []

    @given(st.sampled_from([5, 20]), st.lists(_edge_line(), min_size=1, max_size=6))
    @settings(max_examples=1000, deadline=None)
    def test_numpy_takes_only_what_the_line_loop_takes(self, n, lines):
        # numpy's reader is a fast path: whatever it accepts, the line loop accepts
        # too, with bitwise-equal arrays; everything else goes to the loop
        got = randgraph._cast_block(lines, n)
        if got is not None:
            want = randgraph._edge_lines(lines, n)
            for a, b in zip(got, want, strict=True):
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())

    def test_edge_count_before_self_loop(self):
        body = "0 1 0.5\n2 2 0.25\n1 0 0.75\n"
        with pytest.raises(GraphError, match="^header claims m=3, found 2 edges$"):
            graph_from_text("lexmatch-graph v1 n=3 m=3 root=vertex:0\n" + body)
        with pytest.raises(GraphError, match="^self-loop on vertex 2$"):
            graph_from_text("lexmatch-graph v1 n=3 m=2 root=vertex:0\n" + body)

    def test_reversed_duplicate_keeps_last_weight(self):
        text = "lexmatch-graph v1 n=3 m=2 root=vertex:0\n1 2 0.5\n0 1 0.25\n2 1 0.75\n"
        g = graph_from_text(text)
        assert list(g.weights.items()) == [((0, 1), 0.25), ((1, 2), 0.75)]
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_matches_line_by_line_parser(self):
        # random files mixing good, duplicate, bad and out-of-range lines
        pieces = ["0 1 0.5", "1 0 0.125", "2 3 1e-300", "3 2 -2.5", "4 1 0.0", "2 2 0.5", "0 5 0.5",
                  "1 -1 0.5", "0 1 inf", "1 3 nan", "1 2", "1 2 3 4", "a 1 0.5", "0 1 0x1", "9" * 25 + " 0 1"]
        rng = np.random.default_rng(29)
        outcomes = set()
        for _ in range(600):
            body = [pieces[int(i)] for i in rng.integers(0, len(pieces), int(rng.integers(0, 6)))]
            text = f"lexmatch-graph v1 n=5 m={int(rng.integers(0, 5))} root=vertex:0\n" + "\n".join(body)
            try:
                expected = reference_graph_from_text(text)
            except GraphError as exc:
                with pytest.raises(GraphError) as got:
                    graph_from_text(text)
                assert str(got.value) == str(exc)
                outcomes.add(str(exc).split(" ")[0])
                continue
            assert_same_graph(graph_from_text(text), expected)
            outcomes.add("graph")
        assert outcomes == {"graph", "malformed", "vertex", "non-finite", "header", "self-loop"}

    def test_large_tree_round_trip(self):
        # a random recursive tree on 1e5 vertices, vertex i hanging from a uniform j < i
        n = 100_000
        parents = (RngSeed(31).generator().random(n - 1) * np.arange(1, n)).astype(np.int64)
        edges = {(int(p), i): 0.0 for i, p in enumerate(parents.tolist(), start=1)}
        g = assign_weights(graph_from(n, edges, VertexRoot(7)), WeightLaw.uniform(), RngSeed(32))
        h = graph_from_text(graph_to_text(g))
        assert h.n == n and h.root == g.root
        assert h.adjacency == adjacency_of(n, edges)
        assert list(h.weights.items()) == sorted(g.weights.items())


class TestWeightLaw:
    def test_parse(self):
        assert parse_weight_law("uniform:0:1") == WeightLaw.uniform(0, 1)
        assert parse_weight_law("exp:2.0") == WeightLaw.exponential(2.0)
        assert parse_weight_law("const:1") == WeightLaw.constant(1.0)
        with pytest.raises(GraphError):
            parse_weight_law("nope:1")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("uniform:1:0", "uniform law needs finite a < b, got 1, 0"),
            ("exp:-2", "exponential rate must be positive and finite, got -2"),
            ("uniform:a:1", "cannot parse weight spec 'uniform:a:1': could not convert string to float: 'a'"),
            ("exp:1:2", "unknown weight spec 'exp:1:2'"),
            ("nope:x", "unknown weight spec 'nope:x'"),
        ],
    )
    def test_range_errors_are_not_parse_errors(self, spec, message):
        with pytest.raises(GraphError) as exc:
            parse_weight_law(spec)
        assert str(exc.value) == message

    def test_cdf(self):
        law = WeightLaw.uniform(0, 2)
        assert law.cdf(-1) == 0.0 and law.cdf(1.0) == 0.5 and law.cdf(3) == 1.0
        exp = WeightLaw.exponential(2.0)
        assert exp.cdf(1.0) == pytest.approx(1 - math.exp(-2.0), abs=1e-12)

    def test_atomless_flag(self):
        assert WeightLaw.uniform().atomless
        assert not WeightLaw.constant(1.0).atomless
