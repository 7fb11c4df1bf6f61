"""Lexicographic sweeps against the brute-force oracle and hand propagation."""

import tracemalloc
from array import array
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
    EdgeRoot,
    RngSeed,
    VertexRoot,
    WeightLaw,
    assign_weights,
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


def ball(g, center, H):
    """The subgraph induced on the vertices within distance H of center, and their old names.

    Its vertices are numbered in BFS order from center, which becomes 0, and
    those at distance exactly H are its boundary; order[new] is the old name.
    """
    depth, order = {center: 0}, [center]
    for v in order:  # breadth first: order grows as it is read
        if depth[v] < H:
            for x in g.incident(v)[0]:
                if x not in depth:
                    depth[x] = depth[v] + 1
                    order.append(x)
    new = {old: i for i, old in enumerate(order)}
    kept = [(new[u], new[v], w) for u, v, w in zip(g.lo, g.hi, g.w) if u in new and v in new]
    lo, hi, w = zip(*kept) if kept else ((), (), ())
    boundary = frozenset(new[v] for v in order if depth[v] == H)
    return randgraph.WeightedGraph(len(order), lo, hi, w, VertexRoot(0), boundary), order


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
                cand = step(g.w[g.edge_id(v, x)], msgs[(v, x)])
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
                    oriented = bp._orient(g, frozenset(pinned))
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


# _ARRAY_MIN values that send every forest to the loops, or to the array forms
LOOPS, ARRAYS = 10**9, 1


def in_form(monkeypatch, cut, run):
    """run() with bp._ARRAY_MIN set to cut: its result, or the text of the error it raised."""
    monkeypatch.setattr(bp, "_ARRAY_MIN", cut)
    try:
        return run()
    except FieldInconsistencyError as exc:
        return f"FieldInconsistencyError: {exc}"


def relabelled(g, seed):
    """g with its vertices renamed at random: no longer numbered breadth first, so
    _orient_forest walks its csr."""
    perm = np.random.default_rng(seed).permutation(g.n)
    root = g.root
    if isinstance(root, VertexRoot):
        root = VertexRoot(int(perm[root.vertex]))
    else:
        root = EdgeRoot(int(perm[root.u]), int(perm[root.v]))
    lo, hi = perm[np.asarray(g.lo, dtype=np.int64)], perm[np.asarray(g.hi, dtype=np.int64)]
    return randgraph.WeightedGraph(g.n, lo, hi, np.asarray(g.w), root, frozenset(perm[list(g.boundary)].tolist()))


class TestArrayForms:
    """The array sweep and extraction against the loops, on the same oriented forests."""

    @staticmethod
    def forests():
        for i, g in enumerate(TestKernelDifferential.instances()):
            yield g
            if i % 3 == 0 and g.n > 2:
                yield relabelled(g, i)
        # a forest of many components, most of them isolated vertices
        g = erdos_renyi(3000, 0.5, RngSeed(91))
        yield assign_weights(g, WeightLaw.uniform(0, 1), RngSeed(92))

    def test_messages_equal(self, monkeypatch):
        rng = np.random.default_rng(23)
        kinds = set()
        for g in self.forests():
            kinds.add("edge-root" if isinstance(g.root, EdgeRoot) else "pinned" if g.boundary else "free")
            kinds.add("csr" if not g.tree else "tree")
            runs = []
            for k in (0, 1, 2):
                sampled = {b: (int(rng.integers(0, k + 1)), float(rng.random())) for b in g.boundary}
                runs += [(k, spec, None) for spec in ("zero", "top", sampled)]
            runs += [(1, "zero", [0.0] * g.m), (1, "top", [0.0] * g.m), (0, {}, [1.0 + 0.25 * w for w in g.w])]
            for k, spec, weights in runs:
                pinned = bp._resolve_boundary(g, k, spec)
                sweep = lambda: bp._sweep(g, k, pinned, bp._orient(g, frozenset(pinned)), weights)
                loop, arrays = in_form(monkeypatch, LOOPS, sweep), in_form(monkeypatch, ARRAYS, sweep)
                assert type(loop.level) is list and type(arrays.level) is array
                assert list(arrays.level) == loop.level and list(arrays.z) == loop.z
        assert kinds == {"edge-root", "pinned", "free", "csr", "tree"}

    def test_reads_give_int_and_float(self, monkeypatch):
        g = random_tree(3, depth=4)
        for cut in (LOOPS, ARRAYS):
            field = in_form(monkeypatch, cut, lambda: sweep_bounded(g, 1, "top"))
            assert {(type(lv), type(z)) for lv, z in field.messages.values()} == {(int, float)}

    @pytest.mark.parametrize("seed", range(6))
    def test_pinned_vertex_with_children_names_the_same_vertex(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        g = random_tree(seed, depth=4)
        g = relabelled(g, seed) if seed % 2 else g
        pins = {int(b): ZERO for b in rng.choice(g.n, size=max(1, g.n // 4), replace=False)}
        sweep = lambda: bp._sweep(g, 1, pins, bp._orient(g, frozenset(pins)))
        loop, arrays = in_form(monkeypatch, LOOPS, sweep), in_form(monkeypatch, ARRAYS, sweep)
        assert isinstance(loop, str) and "has interior children" in loop
        assert arrays == loop

    def test_extraction_equal(self, monkeypatch):
        # each form sweeps and decodes: the decode follows the sweep's form
        rng = np.random.default_rng(29)
        outcomes = set()
        for g in self.forests():
            sweeps = [lambda: sweep_tree(g, 1), lambda: sweep_tree(g, 2)]
            sweeps += [lambda spec=spec: sweep_bounded(g, 1, spec) for spec in ("zero", "top") if g.boundary]
            sampled = {b: (int(rng.integers(0, 2)), float(rng.random())) for b in g.boundary}
            sweeps.append(lambda: sweep_bounded(g, 1, sampled))
            sweeps.append(lambda: replace(sweep_bounded(g, 1, "top"), boundary_spec={}))
            for sweep in sweeps:
                extract = lambda: extract_matching(g, sweep())
                loop, arrays = in_form(monkeypatch, LOOPS, extract), in_form(monkeypatch, ARRAYS, extract)
                if isinstance(loop, str):
                    assert arrays == loop
                    outcomes.add(loop.split(" (")[0])
                else:
                    assert (arrays.edges, arrays.weight) == (loop.edges, loop.weight)
                    outcomes.add("matching")
        assert outcomes == {"matching", "FieldInconsistencyError: levels do not certify a maximum matching"}

    def test_constant_weight_tie_gives_the_same_optimum(self, monkeypatch):
        # lexmatch gen --model ubgw --law poisson:2.0 --depth 4 --weights const:1.0 --seed 1, then match
        seed = RngSeed(1)
        g = ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 4, seed)
        g = assign_weights(g, WeightLaw.constant(1.0), seed.child(1))
        extract = lambda: extract_matching(g, sweep_tree(g, 1))
        loop, arrays = in_form(monkeypatch, LOOPS, extract), in_form(monkeypatch, ARRAYS, extract)
        dp, _ = exact.tree_opt_dp(g)
        assert loop.ends == arrays.ends
        assert (loop.size, loop.weight) == (dp.size, dp.weight) == (13, 13.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_tied_weights_give_the_optimum(self, monkeypatch, k):
        # constant weights, and weights on the three atoms 0, 1/2 and 1: both forms read
        # the (size, weight) optimum, against enumeration on small trees and the tree DP on
        # large ones (halves add exactly, so the weights compare exactly)
        def tied(g):
            yield assign_weights(g, WeightLaw.constant(1.0), RngSeed(557))
            halves = np.floor(3 * np.asarray(g.w)) / 2
            yield randgraph.WeightedGraph(g.n, g.lo, g.hi, halves, g.root, g.boundary)

        small = [g for g in map(random_tree, range(300)) if 0 < g.m <= 26]
        large = (ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 10 + i % 3, RngSeed(83, i)) for i in range(40))
        large = [assign_weights(g, WeightLaw.uniform(0, 1), RngSeed(84)) for g in large if 1_000 <= g.n <= 10_000]
        assert len(small) > 100 and len(large) >= 4
        for oracle, trees in ((brute_force_opt, small), (lambda g: exact.tree_opt_dp(g)[0], large[:4])):
            for g in (t for g in trees for t in tied(g)):
                best = oracle(g)
                for cut in (LOOPS, ARRAYS):
                    m = in_form(monkeypatch, cut, lambda: extract_matching(g, sweep_tree(g, k)))
                    assert (m.size, m.weight) == (best.size, best.weight)

    def test_deep_forests_stay_in_the_loop(self, monkeypatch):
        # a path has one vertex per depth: _orient orders it by no depth, with the same messages
        g = path(list(np.random.default_rng(5).random(3 * bp._ARRAY_MIN)))
        assert g.n >= bp._ARRAY_MIN and bp._orient(g, frozenset())[3] is None
        loop = in_form(monkeypatch, LOOPS, lambda: sweep_tree(g, 1))
        monkeypatch.undo()
        assert list(sweep_tree(g, 1).messages.items()) == list(loop.messages.items())


def test_extremal_sweeps_order_depths_once(monkeypatch):
    # squeeze and macroscopic_squeeze sweep one orientation twice, and sweep_tree with
    # extract_matching, like scalar_sweep_eps, sweeps and decodes one: in arrays at
    # this size _levels runs once for each, and the results read as the loops' do
    g = random_tree(0, depth=10)
    assert g.n >= bp._ARRAY_MIN and g.boundary

    def squeezed():
        sq = squeeze(g, 1)
        return [dict(sq.lower), dict(sq.upper), dict(sq.certified)]

    def macroscopic():
        return [dict(view) for view in macroscopic_squeeze(g)]

    def extracted():
        return extract_matching(g, sweep_tree(g, 1)).ends

    def scalar():
        z, m = scalar_sweep_eps(g, 0.5)
        return [dict(z), m.ends]

    runs = (squeezed, macroscopic, extracted, scalar)
    loops = [in_form(monkeypatch, LOOPS, run) for run in runs]
    monkeypatch.undo()
    levels, calls = bp._levels, []
    monkeypatch.setattr(bp, "_levels", lambda *args: calls.append(args) or levels(*args))
    for run, loop in zip(runs, loops):
        calls.clear()
        assert run() == loop and len(calls) == 1


def reference_levels(parent, order):
    """The first-child frontier walk that bp._levels' pointer jumping replaced, kept as its oracle."""
    parent, order = bp._ints(parent), bp._ints(order)
    n = len(order)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    isroot = parent[order] < 0
    ppos = pos[parent[order]]  # the parent's BFS position, -1 at roots
    ppos[isroot] = -1
    roots, kids = np.flatnonzero(isroot), np.flatnonzero(~isroot)
    # BFS lists children by their parents' positions, so first[i], the first child of
    # a vertex at position i or later, starts the depth after the one that holds i
    first = np.append(kids, n)[np.searchsorted(ppos[kids], np.arange(n + 1))]
    # each component's depths, all components at once: the next depth starts at
    # the first child of this one, and is empty when that lies past the component
    start, end = roots, np.append(roots[1:], n)
    depth = np.zeros(n, dtype=np.int64)
    for _ in range(max(1, 8 * n // bp._ARRAY_MIN)):
        start = np.minimum(first[start], end)
        live = start < end
        start, end = start[live], end[live]
        if not start.size:
            break
        depth[start] = 1
    else:
        return None
    np.cumsum(depth, out=depth)
    depth -= depth[roots][np.cumsum(isroot) - 1]
    by_depth = np.argsort(depth, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(depth))))
    rank = np.empty(n, dtype=np.int64)
    rank[by_depth] = np.arange(n)
    up = rank[ppos[by_depth]]
    up[isroot[by_depth]] = -1
    return order[by_depth], up, bounds


def test_levels_equal_the_frontier_oracle(monkeypatch):
    # pointer jumping against the frontier walk on pinned, relabelled and many-component
    # forests, with the depth guard at several _ARRAY_MIN: the same arrays, or None on both
    outcomes = {"levels": 0, "too deep": 0}
    for g in TestArrayForms.forests():
        for avoid in {frozenset(), g.boundary}:
            parent, order, _ = exact._orient_forest(g, avoid=avoid)
            for cut in (1, 16, 128, 1024):
                monkeypatch.setattr(bp, "_ARRAY_MIN", cut)
                got, want = bp._levels(parent, order), reference_levels(parent, order)
                if want is None:
                    assert got is None
                    outcomes["too deep"] += 1
                else:
                    assert all(a.tolist() == b.tolist() for a, b in zip(got, want))
                    outcomes["levels"] += 1
    assert min(outcomes.values()) > 200, outcomes


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
            for key in self.off_forest_keys(g, m.parent):
                assert key not in m and m.get(key) is None
                with pytest.raises(KeyError):
                    m[key]
                checked += 1
        assert checked > 10_000

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
                for view in (f.messages, sq.lower):
                    with pytest.raises(TypeError):
                        view[next(iter(view))] = ZERO


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


@pytest.mark.parametrize("cut", [LOOPS, None], ids=["loops", "arrays"])
def test_each_form_allocates_per_vertex(cut, monkeypatch):
    # the 12 135-vertex ball above, over _ARRAY_MIN: each form is held to the bounds of
    # test_sweep_and_squeeze_allocate_per_vertex, and extraction to sweep_tree's
    if cut is not None:
        monkeypatch.setattr(bp, "_ARRAY_MIN", cut)
    seed = RngSeed(1166)
    g = assign_weights(ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 12, seed), WeightLaw.uniform(0, 1), seed.child(1))
    assert g.n == 12_135
    field, sweep_peak = traced_peak(lambda: sweep_tree(g, 1))
    assert (type(field.messages.level) is list) == (cut is not None)  # the form asked for ran
    _, squeeze_peak = traced_peak(lambda: squeeze(g, 1))
    _, extract_peak = traced_peak(lambda: extract_matching(g, field))
    peaks = {"sweep_tree": sweep_peak / g.n, "squeeze": squeeze_peak / g.n, "extract_matching": extract_peak / g.n}
    assert peaks["sweep_tree"] < 200 and peaks["squeeze"] < 400 and peaks["extract_matching"] < 200, peaks


def test_parsed_tree_builds_no_csr(tmp_path, monkeypatch):
    # match reads a breadth-first tree through its edge arrays; the csr would
    # only cost memory, and its reads must agree with the tree's
    parsed = []
    parse = randgraph.graph_from_text
    monkeypatch.setattr(randgraph, "graph_from_text", lambda text: parsed.append(parse(text)) or parsed[-1])
    for depth in (5, 11):  # below and above _ARRAY_MIN
        tree = str(tmp_path / f"tree{depth}.txt")
        argv = ["gen", "--model", "ubgw", "--law", "poisson:2.0", "--depth", str(depth), "--weights", "uniform:0:1"]
        assert cli(argv + ["--seed", "4", "--out", tree]) == 0
        assert cli(["match", "--graph", tree, "--out", str(tmp_path / "matching.txt")]) == 0
        g = parsed[-1]
        assert g.tree and g.links is None
        assert (g.n >= bp._ARRAY_MIN) == (depth == 11)
        h = replace(g)
        assert h.csr is not None and g.links is None
        for v in range(g.n):
            (nbrs, ids), (csr_nbrs, csr_ids) = g.incident(v), h.incident(v)
            assert list(nbrs) == list(csr_nbrs) and list(ids) == list(csr_ids)
            for u in [*nbrs, v, (v + 7) % g.n]:
                assert g.edge_id(u, v) == h.edge_id(u, v)


def comb(spine, seed):
    """A spine 0..spine - 1 with a pendant leaf on every third vertex, uniform weights."""
    edges = [(i, i + 1) for i in range(spine - 1)] + [(i, spine + j) for j, i in enumerate(range(0, spine, 3))]
    g = randgraph.WeightedGraph(spine + len(range(0, spine, 3)), *zip(*edges), [0.0] * len(edges), VertexRoot(0))
    return assign_weights(g, WeightLaw.uniform(0, 1), RngSeed(seed))


def test_hot_paths_build_no_views(tmp_path, monkeypatch):
    # gen and match through the CLI, a small run_size, leaf removal through its
    # 2-core phase and the forest DP read the arrays only, and look no edge up by its ends
    def refuse(g, *ends):
        raise AssertionError("a hot path built the adjacency or weights view or called edge_id")

    monkeypatch.setattr(randgraph.WeightedGraph, "adjacency", property(refuse))
    monkeypatch.setattr(randgraph.WeightedGraph, "weights", property(refuse))
    monkeypatch.setattr(randgraph.WeightedGraph, "edge_id", refuse)
    tree, matched = str(tmp_path / "tree.txt"), str(tmp_path / "matching.txt")
    argv = ["gen", "--model", "ubgw", "--law", "poisson:2.0", "--depth", "10", "--weights", "uniform:0:1"]
    assert cli(argv + ["--seed", "3", "--out", tree]) == 0
    assert cli(["match", "--graph", tree, "--k", "1", "--out", matched]) == 0
    with open(matched) as fh:
        assert fh.readline().startswith("size=")
    records = xharness.run_size(xharness.ExperimentConfig(experiment="size", n=2000, replicas=3, seed=4))
    assert records[0].estimate > 0
    _, _, core = exact.leaf_removal(erdos_renyi(2000, 3.0, RngSeed(5)), RngSeed(6))
    assert core > 0
    forests = [random_tree(7, depth=8), comb(3000, 8)]
    assert [g.tree for g in forests] == [True, False]  # both ways of _orient_forest
    for g in forests:
        assert exact.tree_opt_dp(g)[0].size > 0


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


@pytest.mark.parametrize(
    "run, takes_k",
    [
        (lambda g, k: sweep_tree(g, k), True),
        (lambda g, k: sweep_bounded(g, k, "top"), True),
        (lambda g, k: squeeze(g, k), True),
        (lambda g, k: macroscopic_squeeze(g), False),
    ],
    ids=["sweep_tree", "sweep_bounded", "squeeze", "macroscopic_squeeze"],
)
def test_every_sweep_refuses_negative_k(run, takes_k, monkeypatch):
    # the one k check is in bp._sweep, which every sweep runs: a k < 0 given is
    # refused, and so is a k that reaches _sweep shifted below 0
    # (macroscopic_squeeze takes no k: it sweeps at k = 1)
    g, _ = ball(random_tree(3, depth=6), 0, 3)
    assert g.boundary
    run(g, 0)
    if takes_k:
        for k in (-1, -2):
            with pytest.raises(ValueError, match="k must be >= 0"):
                run(g, k)
    sweep = bp._sweep
    monkeypatch.setattr(bp, "_sweep", lambda g, k, *rest, **kw: sweep(g, k - 2, *rest, **kw))
    with pytest.raises(ValueError, match="k must be >= 0"):
        run(g, 1)


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
        m = f.messages
        i = m._locate((0, 1))
        m.level[i], m.z[i] = 0, 0.0  # corrupt: claims b-side offers nothing
        with pytest.raises(FieldInconsistencyError):
            extract_matching(g, f)

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
            extract_matching(g, f)  # must not raise: a pinned field is decoded unchecked
            try:
                extract_matching(g, replace(f, boundary_spec={}))
            except FieldInconsistencyError:
                unskipped_failures += 1
        if spec == "zero":
            # a zero pin is a leaf's message, so the levels certify anyway
            assert unskipped_failures == 0
        else:
            assert unskipped_failures > 0  # a pin's level is no leaf's: the check would fail

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


class TestExtractMatchingInArrays(TestExtractMatching):
    """TestExtractMatching with every forest swept and read by the array forms."""

    @pytest.fixture(autouse=True)
    def arrays(self, monkeypatch):
        monkeypatch.setattr(bp, "_ARRAY_MIN", ARRAYS)


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
            comp, _ = ball(g, g.root_vertex(), g.n)  # root component, relabelled
            if comp.m > 24 or comp.m < 2:
                continue
            b, order = ball(comp, 0, 3)
            if b.m >= comp.m:
                continue  # need a proper exterior
            try:
                exact._orient_forest(b)
            except CycleError:
                continue
            ambient = brute_force_opt(comp)
            # boundary spec from the ambient optimum: matched outward -> top
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
