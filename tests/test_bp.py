"""Lexicographic sweeps against the brute-force oracle and hand propagation."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lexmatch import bp, exact, randgraph, xharness
from lexmatch.bp import (
    ZERO,
    FieldInconsistencyError,
    classify_edges_from_levels,
    extract_matching,
    macroscopic_squeeze,
    scalar_sweep_eps,
    squeeze,
    sweep_bounded,
    sweep_tree,
    top_msg,
)
from lexmatch.cli import cli
from lexmatch.exact import BLOCKING, FREE, MANDATORY, CycleError, brute_force_opt
from lexmatch.genfn import OffspringLaw
from lexmatch.randgraph import (
    RngSeed,
    VertexRoot,
    WeightLaw,
    assign_weights,
    ball,
    erdos_renyi,
    ubgw_tree,
)


def graph_of(n, edge_weights, root=0, boundary=()):
    ew = dict(edge_weights)
    lo, hi = [u for u, _ in ew], [v for _, v in ew]
    return randgraph.WeightedGraph(n, lo, hi, list(ew.values()), VertexRoot(root), frozenset(boundary))


def path(weights, boundary=()):
    return graph_of(
        len(weights) + 1, {(i, i + 1): w for i, w in enumerate(weights)}, boundary=boundary
    )


def random_tree(i, depth=None, law_mean=2.0):
    d = depth if depth is not None else 1 + i % 4
    g = ubgw_tree(OffspringLaw.poisson(law_mean), "vertex", d, RngSeed(555, i))
    return assign_weights(g, WeightLaw.uniform(0, 1), RngSeed(556, i))


def recursion_residual(g, field):
    """Re-evaluate the recursion right-hand side on every directed edge."""
    k = field.k
    bad = 0
    for (u, v), val in field.messages.items():
        if v in field.boundary_spec:
            continue
        best = ZERO
        for w in g.adjacency[v]:
            if w == u:
                continue
            cand = (
                k - field.messages[(v, w)][0],
                g.weights[(min(v, w), max(v, w))] - field.messages[(v, w)][1],
            )
            if cand > best:
                best = cand
        if best != val:
            bad += 1
    return bad


def one_step_violations(g, msgs, pins, step, zero):
    """Messages that differ from their pin or from their one-step recursion.

    msgs maps (u, v) to the value summarising v's side; a message into a
    pinned vertex must equal the pin, any other must equal the maximum of
    `zero` and step(w(v, x), msgs[(v, x)]) over the other neighbours x of v.
    """
    bad = 0
    for (u, v), val in msgs.items():
        if v in pins:
            bad += val != pins[v]
            continue
        best = zero
        for x in g.adjacency[v]:
            if x != u:
                cand = step(g.weight(v, x), msgs[(v, x)])
                if cand > best:
                    best = cand
        bad += val != best
    return bad


class TestRecursionConsistency:
    """Every sweep's output is a fixed point of its own recursion, edge by edge."""

    @staticmethod
    def instances():
        for i in range(60):
            g = random_tree(i, depth=3, law_mean=1.5)
            yield g  # boundary-pinned ball
            yield replace(g, boundary=frozenset())  # the same tree, unpinned
        for i in range(30):
            g = assign_weights(erdos_renyi(40, 0.8, RngSeed(72, i)), WeightLaw.uniform(0, 1), RngSeed(73, i))
            try:
                exact._orient_forest(g)
            except CycleError:
                continue
            yield g  # unpinned forest of several components

    def test_pair_messages(self):
        rng = np.random.default_rng(9)
        checked = 0
        for g in self.instances():
            for k in (1, 2):
                sampled = {b: (int(rng.integers(0, k + 1)), float(rng.random())) for b in g.boundary}
                for spec in ("zero", "top", sampled):
                    f = sweep_bounded(g, k, spec)
                    step = lambda w, m: (k - m[0], w - m[1])
                    assert one_step_violations(g, f.messages, f.boundary_spec, step, ZERO) == 0
                    checked += len(f.messages)
        assert checked > 5000

    def test_levels(self):
        for g in self.instances():
            levels, _ = macroscopic_squeeze(g)
            pins = dict.fromkeys(g.boundary, 0)
            assert one_step_violations(g, levels, pins, lambda w, lvl: 1 - lvl, 0) == 0

    def test_scalar_eps_values(self):
        for g in self.instances():
            for eps in (0.5, 2.0**-7):
                field, _ = scalar_sweep_eps(g, eps)
                step = lambda w, z: 1.0 + eps * w - z
                assert one_step_violations(g, field, {}, step, 0.0) == 0


def reference_sweep(g, k, pinned, weights=None):
    """The child-list two-pass sweep that bp._sweep replaced, kept as its oracle."""
    parent, order, _ = exact._orient_forest(g, avoid=frozenset(pinned))
    if weights is None:
        weights = g.weights
    n = g.n
    children = [[] for _ in range(n)]
    pw = [0.0] * n
    up = [ZERO] * n
    top1 = [ZERO] * n
    top2 = [ZERO] * n
    arg = [-1] * n
    for v in reversed(order):
        if v in pinned:
            if children[v]:
                raise FieldInconsistencyError(f"pinned boundary vertex {v} has interior children")
            msg = up[v] = pinned[v]
        else:
            msg = up[v] = top1[v]
        p = parent[v]
        if p < 0:
            continue
        children[p].append(v)
        w = pw[v] = weights[(p, v) if p < v else (v, p)]
        cand = (k - msg[0], w - msg[1])
        if cand > top1[p]:
            top2[p] = top1[p]
            top1[p], arg[p] = cand, v
        elif cand > top2[p]:
            top2[p] = cand
    down = [ZERO] * n
    messages = {}
    for v in order:
        kids = children[v]
        p = parent[v]
        if p >= 0:
            msg = down[v]
            messages[(p, v)] = up[v]
            messages[(v, p)] = msg
            if not kids:
                continue
            from_parent = (k - msg[0], pw[v] - msg[1])
        else:
            from_parent = ZERO
        t1, t2, a = top1[v], top2[v], arg[v]
        if from_parent > t1:
            t1, t2, a = from_parent, t1, -1
        elif from_parent > t2:
            t2 = from_parent
        for w in kids:
            down[w] = t2 if w == a else t1
    return messages


class TestKernelDifferential:
    """bp._sweep and bp.squeeze against their previous child-list construction."""

    @staticmethod
    def instances():
        yield from TestRecursionConsistency.instances()
        for i in range(40):
            # edge-rooted balls: two pinned frontiers joined by the root edge
            g = ubgw_tree(OffspringLaw.poisson(1.2), "edge", 1 + i % 5, RngSeed(81, i))
            yield assign_weights(g, WeightLaw.exponential(1.0), RngSeed(82, i))
        for i in range(40):
            # deep critical vertex-rooted balls, as in the decay experiment
            g = ubgw_tree(OffspringLaw.poisson(1.0), "vertex", 2 + i % 11, RngSeed(83, i))
            yield assign_weights(g, WeightLaw.uniform(0, 1), RngSeed(84, i))

    @staticmethod
    def same(new, ref):
        assert list(new.items()) == list(ref.items())

    def test_messages_identical(self):
        rng = np.random.default_rng(17)
        pinned_balls = forests = 0
        for g in self.instances():
            pinned_balls += bool(g.boundary) and g.m > 0
            forests += exact._orient_forest(g)[0].count(-1) > 1  # unpinned, several components
            for k in (0, 1, 2):
                sampled = {b: (int(rng.integers(0, k + 1)), float(rng.random())) for b in g.boundary}
                for spec in ("zero", "top", sampled):
                    pinned = bp._resolve_boundary(g, k, spec)
                    self.same(bp._sweep(g, k, pinned), reference_sweep(g, k, pinned))
                    oriented = exact._orient_forest(g, avoid=frozenset(pinned))
                    self.same(bp._sweep(g, k, pinned, oriented), reference_sweep(g, k, pinned))
        assert pinned_balls > 60 and forests > 10

    def test_weight_override_identical(self):
        for g in self.instances():
            # bp._sweep takes the override by edge id, in the order of g.edges()
            zero = dict.fromkeys(g.weights, 0.0)
            for pins in (dict.fromkeys(g.boundary, ZERO), dict.fromkeys(g.boundary, top_msg(1))):
                by_id = [zero[e] for e in g.edges()]
                self.same(bp._sweep(g, 1, pins, weights=by_id), reference_sweep(g, 1, pins, zero))
            weps = {e: 1.0 + 0.25 * w for e, w in g.weights.items()}
            by_id = [weps[e] for e in g.edges()]
            self.same(bp._sweep(g, 0, {}, weights=by_id), reference_sweep(g, 0, {}, weps))

    @pytest.mark.parametrize(
        "g",
        [
            path([0.5, 0.7], boundary=(1,)),  # pinned vertex between two others
            graph_of(2, {(0, 1): 0.5}, boundary=(0, 1)),  # pinned component root
            graph_of(4, {(0, 1): 0.5, (1, 2): 0.3, (1, 3): 0.2}, boundary=(1, 2)),
        ],
        ids=["path-middle", "pinned-pair", "pinned-hub"],
    )
    def test_pinned_vertex_with_children_raises(self, g):
        for val in (ZERO, top_msg(1)):
            pins = dict.fromkeys(g.boundary, val)
            with pytest.raises(FieldInconsistencyError, match="interior children"):
                reference_sweep(g, 1, pins)
            with pytest.raises(FieldInconsistencyError, match="interior children"):
                bp._sweep(g, 1, pins)

    def test_squeeze_bounds_identical(self):
        for g in self.instances():
            for k in (1, 2):
                lo = reference_sweep(g, k, dict.fromkeys(g.boundary, ZERO))
                hi = reference_sweep(g, k, dict.fromkeys(g.boundary, top_msg(k)))
                sq = squeeze(g, k)
                assert sq.lower == {key: min(a, hi[key]) for key, a in lo.items()}
                assert sq.upper == {key: max(a, hi[key]) for key, a in lo.items()}
                assert sq.certified == {key: a == hi[key] for key, a in lo.items()}
                assert list(sq.certified) == list(lo)


class TestEdgeMap:
    """The per-vertex message lists behind every sweep, read as a mapping keyed (u, v)."""

    @staticmethod
    def fields():
        # an isolated root 0 beside two edges: three components
        g = graph_of(5, {(1, 2): 0.5, (3, 4): 0.2})
        yield g, sweep_tree(g, 1)
        for i in range(8):
            g = random_tree(i, depth=3)  # pinned frontier at depth 3
            yield g, sweep_bounded(g, 1, "top")
            yield g, sweep_bounded(g, 2, {b: (1, 0.25 * b) for b in g.boundary})
        for g in TestRecursionConsistency.instances():
            if not g.boundary:  # forests of several components, some with isolated vertices
                yield g, sweep_tree(g, 1)

    @staticmethod
    def off_forest_keys(g, parent):
        """Pairs that are no directed edge: out of range, non-adjacent, root to non-child."""
        n = g.n
        keys = [(-1, 0), (0, -1), (n, 0), (0, n), (-n, 0), (0, -n)]
        for r in (v for v in range(n) if parent[v] == -1):
            keys += [(-1, r), (r, -1)] + [(r, x) for x in range(n) if parent[x] != r]
        keys += [(u, v) for u in range(min(n, 12)) for v in range(n) if v not in g.adjacency[u]]
        return keys

    def test_keys_are_the_directed_edges_in_bfs_order(self):
        several = isolated = 0
        for g, f in self.fields():
            m = f.messages
            assert len(m) == 2 * g.m == len(list(m))
            assert set(m) == {key for u, v in g.edges() for key in ((u, v), (v, u))}
            parent = m.parent
            edges = [(parent[v], v) for v in m.order if parent[v] >= 0]
            assert list(m) == [key for p, v in edges for key in ((p, v), (v, p))]
            several += parent.count(-1) > 1
            isolated += any(not nb for nb in g.adjacency)
        assert several > 10 and isolated > 5

    def test_off_forest_keys_raise(self):
        checked = 0
        for g, f in self.fields():
            m = f.messages
            before = dict(m)
            for key in self.off_forest_keys(g, m.parent):
                assert key not in m and m.get(key) is None
                with pytest.raises(KeyError):
                    m[key]
                with pytest.raises(KeyError):
                    m[key] = ZERO
                checked += 1
            assert dict(m) == before and len(m) == 2 * g.m
        assert checked > 10_000

    def test_write_changes_only_its_direction(self):
        for g, f in self.fields():
            m = f.messages
            for key in list(m)[:6]:
                before = dict(m)
                m[key] = (7, -1.5)
                assert m[key] == (7, -1.5)
                assert {e: val for e, val in m.items() if e != key} == {
                    e: val for e, val in before.items() if e != key
                }
                m[key] = before[key]
                assert dict(m) == before

    def test_delete_raises_and_length_holds(self):
        for g, f in self.fields():
            m = f.messages
            for key in list(m)[:3]:
                with pytest.raises(TypeError):
                    del m[key]
                assert key in m and len(m) == 2 * g.m

    def test_views_equal_their_dict_copies(self):
        for g, f in self.fields():
            sq = squeeze(g, 1)
            views = [f.messages, sq.lower, sq.upper, sq.certified, *macroscopic_squeeze(g)]
            views.append(scalar_sweep_eps(g, 0.5)[0])
            for view in views:
                assert dict(view) == view and view == dict(view)
                assert len(view) == 2 * g.m
            for key in self.off_forest_keys(g, f.messages.parent)[:20]:
                assert key not in sq.certified and sq.lower.get(key) is None
            if g.m:
                with pytest.raises(TypeError):
                    sq.lower[next(iter(sq.lower))] = ZERO


def traced_peak(run) -> tuple:
    """(run(), the bytes its allocations peaked at above the start)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_sweep_and_squeeze_allocate_per_vertex():
    # a 12 135-vertex ball; a dict entry per directed edge peaked at 366
    # (sweep_tree) and 909 (squeeze) bytes per vertex on CPython 3.11
    seed = RngSeed(1166)
    g = ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 12, seed)
    g = assign_weights(g, WeightLaw.uniform(0, 1), seed.child(1))
    assert g.n == 12_135
    peaks = {}
    for name, run in (("sweep_tree", lambda: sweep_tree(g, 1)), ("squeeze", lambda: squeeze(g, 1))):
        result, peak = traced_peak(run)
        peaks[name] = peak / g.n
        del result
    assert peaks["sweep_tree"] < 200 and peaks["squeeze"] < 400, peaks


def test_generators_and_text_allocate_per_vertex():
    # neighbour tuples and a dict keyed by pairs peaked at 478 (tree and
    # weights), 450 (graph_from_text) and 290 (erdos_renyi) bytes per vertex
    # on CPython 3.11; the arrays must stay under half of that
    seed = RngSeed(1166)
    tree = lambda: assign_weights(ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 12, seed), WeightLaw.uniform(0, 1), seed.child(1))
    g, tree_peak = traced_peak(tree)
    assert g.n == 12_135
    text = randgraph.graph_to_text(g)
    parsed, text_peak = traced_peak(lambda: randgraph.graph_from_text(text))
    er, er_peak = traced_peak(lambda: erdos_renyi(10**5, 2.0, RngSeed(3)))
    peaks = {"tree": tree_peak / g.n, "graph_from_text": text_peak / parsed.n, "erdos_renyi": er_peak / er.n}
    assert peaks["tree"] < 239 and peaks["graph_from_text"] < 225 and peaks["erdos_renyi"] < 145, peaks


def test_hot_paths_build_no_views(tmp_path, monkeypatch):
    # gen and match through the CLI and a small run_size read the arrays only
    def refuse(g):
        raise AssertionError("a hot path built the adjacency or weights view")

    monkeypatch.setattr(randgraph.WeightedGraph, "adjacency", property(refuse))
    monkeypatch.setattr(randgraph.WeightedGraph, "weights", property(refuse))
    tree, matched = str(tmp_path / "tree.txt"), str(tmp_path / "matching.txt")
    argv = ["gen", "--model", "ubgw", "--law", "poisson:2.0", "--depth", "10", "--weights", "uniform:0:1"]
    assert cli(argv + ["--seed", "3", "--out", tree]) == 0
    assert cli(["match", "--graph", tree, "--k", "1", "--out", matched]) == 0
    with open(matched) as fh:
        assert fh.readline().startswith("size=")
    records = xharness.run_size(xharness.ExperimentConfig(experiment="size", n=2000, replicas=3, seed=4))
    assert records[0].estimate > 0


class TestSweepTree:
    def test_single_edge_messages(self):
        g = path([0.7])
        f = sweep_tree(g, 1)
        assert f.messages[(0, 1)] == ZERO and f.messages[(1, 0)] == ZERO

    def test_three_vertex_path_hand_values(self):
        w_ab, w_bc = 0.4, 0.9
        g = path([w_ab, w_bc])
        f = sweep_tree(g, 1)
        assert f.messages[(0, 1)] == (1, w_bc)
        assert f.messages[(2, 1)] == (1, w_ab)
        assert f.messages[(1, 0)] == ZERO
        assert f.messages[(1, 2)] == ZERO

    def test_self_consistency_exact(self):
        for i in range(200):
            g = random_tree(i)
            f = sweep_tree(g, 1)
            assert recursion_residual(g, f) == 0

    def test_cycle_rejected(self):
        g = graph_of(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
        with pytest.raises(CycleError):
            sweep_tree(g, 1)


class TestExtractMatching:
    def test_single_edge_matched(self):
        g = path([0.7])
        m = extract_matching(g, sweep_tree(g, 1))
        assert m.edges == frozenset({(0, 1)})

    def test_path_picks_heavier(self):
        g1 = path([0.8, 0.3])
        assert extract_matching(g1, sweep_tree(g1, 1)).edges == frozenset({(0, 1)})
        g2 = path([0.3, 0.8])
        assert extract_matching(g2, sweep_tree(g2, 1)).edges == frozenset({(1, 2)})

    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_brute_force(self, k):
        checked = 0
        for i in range(400):
            g = random_tree(i)
            if g.m > 26 or g.m == 0:
                continue
            m = extract_matching(g, sweep_tree(g, k))
            bf = brute_force_opt(g)
            assert m.edges == bf.edges
            checked += 1
        assert checked > 100

    def test_inconsistent_field_detected(self):
        g = path([0.5, 0.9])
        f = sweep_tree(g, 1)
        f.messages[(0, 1)] = (0, 0.0)  # corrupt: claims b-side offers nothing
        with pytest.raises(FieldInconsistencyError):
            extract_matching(g, f)

    def test_vertex_rule_alone_catches_corruption(self):
        checked = 0
        for i in range(40):
            g = random_tree(i, depth=3)
            f = sweep_tree(g, 1)
            optimum = extract_matching(g, f)
            if not optimum.edges:
                continue
            # forbid one optimal edge from one side only: the edge rule then
            # drops just that edge, which still leaves a matching
            u, v = min(optimum.edges)
            f.messages[(u, v)] = top_msg(1)
            edge_rule = [
                (a, b)
                for a, b in g.edges()
                if (
                    f.messages[(a, b)][0] + f.messages[(b, a)][0],
                    f.messages[(a, b)][1] + f.messages[(b, a)][1],
                )
                < (1, g.weights[(a, b)])
            ]
            assert set(edge_rule) == optimum.edges - {(u, v)}
            with pytest.raises(FieldInconsistencyError, match="^vertex rule"):
                extract_matching(g, f)
            checked += 1
        assert checked > 20

    @pytest.mark.parametrize("spec", ["zero", "top", "sampled"])
    def test_pinned_boundary_skipped_by_vertex_rule(self, spec):
        rng = np.random.default_rng(31)
        unskipped_failures = 0
        for i in range(60):
            g = random_tree(i, depth=3)
            pins = spec
            if spec == "sampled":
                pins = {b: (int(rng.integers(0, 2)), float(rng.random())) for b in g.boundary}
            f = sweep_bounded(g, 1, pins)
            extract_matching(g, f)  # must not raise: pinned vertices are skipped
            try:
                extract_matching(g, replace(f, boundary_spec={}))
            except FieldInconsistencyError:
                unskipped_failures += 1
        if spec == "zero":
            # a zero pin offers nothing, so its vertex rule agrees anyway
            assert unskipped_failures == 0
        else:
            assert unskipped_failures > 0  # the skip is what keeps these consistent

    def test_equals_tree_dp_on_large_trees(self):
        checked = 0
        for i in range(40):
            g = ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 10 + i % 3, RngSeed(81, i))
            if not 1_000 <= g.n <= 10_000:
                continue
            g = assign_weights(g, WeightLaw.uniform(0, 1), RngSeed(82, i))
            m = extract_matching(g, sweep_tree(g, 1))
            dp, _ = exact.tree_opt_dp(g)
            assert m.edges == dp.edges
            assert m.weight == pytest.approx(dp.weight, rel=1e-12)
            checked += 1
            if checked == 4:
                break
        assert checked == 4


class TestSweepBounded:
    def test_star_all_zero_matches_heaviest(self):
        g = graph_of(4, {(0, 1): 0.2, (0, 2): 0.9, (0, 3): 0.5}, boundary=(1, 2, 3))
        f = sweep_bounded(g, 1, "zero")
        m = extract_matching(g, f)
        assert m.edges == frozenset({(0, 2)})

    def test_all_top_forbids_boundary_edges(self):
        g = graph_of(4, {(0, 1): 0.2, (0, 2): 0.9, (0, 3): 0.5}, boundary=(1, 2, 3))
        f = sweep_bounded(g, 1, "top")
        m = extract_matching(g, f)
        assert m.edges == frozenset()

    def test_mixed_spec(self):
        g = path([0.5, 0.6, 0.4], boundary=(0, 3))
        f = sweep_bounded(g, 1, {0: "top", 3: "zero"})
        m = extract_matching(g, f)
        # vertex 0 is matched outward, so 1 pairs with 2 and 3 waits
        assert m.edges == frozenset({(1, 2)})

    def test_ambient_reconstruction_on_er_balls(self):
        done = 0
        i = 0
        while done < 100 and i < 3000:
            i += 1
            g = erdos_renyi(200, 1.0, RngSeed(70, i))
            g = assign_weights(g, WeightLaw.uniform(0, 1), RngSeed(71, i))
            comp = ball(g, g.root_vertex(), g.n)  # root component, relabelled
            if comp.m > 24 or comp.m < 2:
                continue
            b = ball(comp, 0, 3)
            if b.m >= comp.m:
                continue  # need a proper exterior
            try:
                exact._orient_forest(b)
            except CycleError:
                continue
            ambient = brute_force_opt(comp)
            # boundary spec from the ambient optimum: matched outward -> top
            depth3, order = randgraph._bfs_depths(comp, 0, 3)
            relabel = {old: new for new, old in enumerate(order)}
            spec = {}
            outward = set()
            for old, new in relabel.items():
                if new not in b.boundary:
                    continue
                matched_out = any(
                    (min(old, x), max(old, x)) in ambient.edges
                    for x in comp.adjacency[old]
                    if x not in relabel
                )
                spec[new] = "top" if matched_out else "zero"
                if matched_out:
                    outward.add(new)
            recon = extract_matching(b, sweep_bounded(b, 1, spec))
            expected = set()
            for u, v in ambient.edges:
                if u in relabel and v in relabel:
                    ru, rv = relabel[u], relabel[v]
                    if ru not in outward and rv not in outward:
                        expected.add((min(ru, rv), max(ru, rv)))
            assert recon.edges == frozenset(expected)
            done += 1
        assert done == 100


class TestSqueeze:
    def test_radius_zero_certifies_nothing(self):
        g = ubgw_tree(OffspringLaw.poisson(1.0), "vertex", 0, RngSeed(1))
        sq = squeeze(g, 1)
        assert sq.lower == {} and sq.upper == {}

    def test_forced_leaf_certifies(self):
        # 0 - 1 - 2 with boundary {2}: the leaf-side message (1, 0) -> ... is
        # pinned by vertex 0 being a true leaf: msg(1,0) = (0,0) certified
        g = path([0.4, 0.6], boundary=(2,))
        sq = squeeze(g, 1)
        assert sq.certified[(1, 0)]
        assert sq.lower[(1, 0)] == ZERO
        # the boundary-facing message is pinned by the spec, never certified
        assert not sq.certified[(1, 2)]

    def test_bounds_contain_any_boundary_field(self):
        rng = np.random.default_rng(5)
        for i in range(60):
            g = random_tree(i, depth=3, law_mean=1.5)
            if not g.boundary:
                continue
            sq = squeeze(g, 1)
            spec = {}
            for b in g.boundary:
                r = rng.random()
                spec[b] = "zero" if r < 0.3 else "top" if r < 0.6 else (
                    int(rng.integers(0, 2)),
                    float(rng.random()),
                )
            f = sweep_bounded(g, 1, spec)
            for key, val in f.messages.items():
                if key[1] in spec and key in sq.lower:
                    continue
                assert sq.lower[key] <= val <= sq.upper[key]

    def test_antimonotone_one_step_reversal(self):
        # star with a single interior vertex: one application of the
        # recursion maps higher boundary messages to lower outputs
        g = graph_of(3, {(0, 1): 0.5, (0, 2): 0.8}, boundary=(1, 2))
        low = sweep_bounded(g, 1, "zero").messages
        high = sweep_bounded(g, 1, "top").messages
        assert low[(1, 0)] >= high[(1, 0)]
        assert low[(2, 0)] >= high[(2, 0)]

    def test_two_step_restores_order(self):
        g = path([0.5, 0.7, 0.4], boundary=(0, 3))
        low = sweep_bounded(g, 1, "zero").messages
        high = sweep_bounded(g, 1, "top").messages
        # one application from the boundary pins reverses the order...
        assert low[(2, 1)] >= high[(2, 1)]
        assert low[(1, 2)] >= high[(1, 2)]
        # ...and the second application restores it
        assert low[(3, 2)] <= high[(3, 2)]
        assert low[(0, 1)] <= high[(0, 1)]


class TestMacroscopic:
    def test_leaf_adjacent_edge_certain(self):
        g = path([0.5, 0.5, 0.5], boundary=(3,))
        levels, certified = macroscopic_squeeze(g)
        # vertex 0 is a true leaf: its outgoing message is level 0 certified
        assert levels[(1, 0)] == 0 and certified[(1, 0)]

    def test_two_step_path_certification_pattern(self):
        # 0 - 1 - 2 with boundary pin at 2: every message whose dependency
        # cone bottoms out in the true leaf 0 is certified; the root's
        # outgoing level still sees the pin directly and is not
        g = path([0.5, 0.5], boundary=(2,))
        levels, certified = macroscopic_squeeze(g)
        assert certified[(1, 0)] and levels[(1, 0)] == 0
        assert certified[(2, 1)] and levels[(2, 1)] == 1
        assert not certified[(0, 1)]

    def test_matches_full_sweep_levels_on_finite_trees(self):
        for i in range(100):
            g = random_tree(i)
            f = sweep_tree(g, 1)
            levels, _ = macroscopic_squeeze(g)  # boundary pinned to level 0
            assert len(levels) == len(f.messages)
            for key, (lvl, _) in f.messages.items():
                assert levels[key] == lvl

    def test_root_level_law_converges(self):
        gamma = 0.5671432904097838
        hits = 0
        total = 0
        for i in range(3000):
            g = ubgw_tree(OffspringLaw.poisson(1.0), "vertex", 8, RngSeed(900, i))
            levels, certified = macroscopic_squeeze(g)
            for v in g.adjacency[0]:
                if certified[(0, v)]:
                    total += 1
                    hits += levels[(0, v)] == 0
        assert total > 1500
        assert abs(hits / total - gamma) < 0.03


class TestClassification:
    def test_sibling_leaves_force_free(self):
        # vertex 1 has two leaf children 2, 3 and parent 0
        g = graph_of(4, {(0, 1): 0.5, (1, 2): 0.5, (1, 3): 0.5})
        levels, certified = macroscopic_squeeze(g)
        cls = classify_edges_from_levels(g, levels, certified)
        assert cls[(1, 2)] == FREE and cls[(1, 3)] == FREE

    def test_pendant_path_mandatory(self):
        cls_path = classify_edges_from_levels(
            path([0.5, 0.5, 0.5]), *macroscopic_squeeze(path([0.5, 0.5, 0.5]))
        )
        assert cls_path[(0, 1)] == MANDATORY
        assert cls_path[(1, 2)] == BLOCKING
        assert cls_path[(2, 3)] == MANDATORY

    def test_uncertified_reported_unknown(self):
        g = path([0.5], boundary=(1,))
        levels, certified = macroscopic_squeeze(g)
        cls = classify_edges_from_levels(g, levels, certified)
        assert cls[(0, 1)] == bp.UNKNOWN

    def test_agrees_with_enumeration_on_forests(self):
        from dataclasses import replace

        checked = 0
        for i in range(300):
            g = random_tree(i)
            if g.m > 22 or g.m == 0:
                continue
            whole = replace(g, boundary=frozenset())  # the tree is the full graph
            levels, certified = macroscopic_squeeze(whole)
            cls = classify_edges_from_levels(whole, levels, certified)
            oracle = exact.mandatory_blocking(whole)
            for e, label in cls.items():
                assert label != bp.UNKNOWN  # no boundary: everything certified
                assert label == oracle[e]
            checked += 1
        assert checked > 100


class TestScalarSweepEps:
    def test_single_edge_all_eps(self):
        g = path([0.7])
        for eps in [0.5, 2.0**-6, 2.0**-12]:
            _, m = scalar_sweep_eps(g, eps)
            assert m.edges == frozenset({(0, 1)})

    def test_light_middle_edge_agrees_for_all_eps(self):
        # outer pair total weight exceeds the middle at every eps
        g = path([0.5, 0.9, 0.5])
        opt = brute_force_opt(g).edges
        for eps in [2.0**-j for j in range(0, 13)]:
            _, m = scalar_sweep_eps(g, eps)
            assert m.edges == opt

    def test_heavy_middle_edge_threshold(self):
        # weights (0.2, 0.9, 0.3): the middle edge alone wins once
        # 1 + 0.9 eps > 2 + 0.5 eps, i.e. eps > 2.5
        g = path([0.2, 0.9, 0.3])
        opt = brute_force_opt(g).edges
        assert opt == frozenset({(0, 1), (2, 3)})
        _, m_small = scalar_sweep_eps(g, 2.0)
        assert m_small.edges == opt
        _, m_large = scalar_sweep_eps(g, 3.0)
        assert m_large.edges == frozenset({(1, 2)})

    def test_matches_lex_optimum_below_gap(self):
        for i in range(120):
            g = random_tree(i, depth=3)
            if g.m == 0 or g.m > 20:
                continue
            opt = extract_matching(g, sweep_tree(g, 1))
            # any eps below 1/max-total-weight is safely below the gap
            eps = 0.9 / max(1.0, sum(g.weights.values()))
            _, m = scalar_sweep_eps(g, eps)
            assert m.edges == opt.edges
