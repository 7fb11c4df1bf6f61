"""Ground-truth oracles for optimal matchings on small graphs and forests.

"Optimal" always means maximal in the lexicographic order (cardinality,
total weight).  Enumeration-based oracles are capped at desk scale
(26 edges for optima, 22 for maximum-matching structure); the forest
dynamic program and certified leaf removal (cost in `leaf_removal`)
scale further.  Graphs carry one order, their sorted edges: leaf removal
visits neighbours ascending and numbers live edges in edge order.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from operator import sub

from .randgraph import RngSeed, WeightedGraph

__all__ = [
    "EnumerationLimitError", "NotAMatchingError", "CycleError", "Matching", "Perf", "MANDATORY",
    "BLOCKING", "FREE", "brute_force_opt", "tree_opt_dp", "leaf_removal", "mandatory_blocking",
    "uniform_max_matching", "perf_of", "matching_to_text",
]

_OPT_EDGE_CAP = 26
_ENUM_EDGE_CAP = 22

MANDATORY = "mandatory"
BLOCKING = "blocking"
FREE = "free"


class EnumerationLimitError(ValueError):
    """Instance exceeds the enumeration edge cap."""


class NotAMatchingError(ValueError):
    """Edge set has a pair that is not an edge, or two edges sharing a vertex."""


class CycleError(ValueError):
    """Graph expected to be a forest contains a cycle."""


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint edge set with cached size and total weight."""

    edges: frozenset
    weight: float

    @property
    def size(self) -> int:
        return len(self.edges)

    @staticmethod
    def from_edges(g: WeightedGraph, edges) -> "Matching":
        """The matching of the given pairs of g, its weight summed in the frozenset's order."""
        es = frozenset((u, v) if u <= v else (v, u) for u, v in edges)
        ids = [g.edge_id(u, v) for u, v in es]
        if -1 in ids:
            raise NotAMatchingError(f"edge {next(e for e, i in zip(es, ids) if i < 0)} not in graph")
        ends = [x for e in es for x in e]
        if len(set(ends)) < len(ends):
            raise NotAMatchingError(f"vertex reused in {sorted(es)}")
        return Matching(es, sum(map(g.w.__getitem__, ids)))

    def covers(self, v: int) -> bool:
        return any(v in e for e in self.edges)


@dataclass(frozen=True)
class Perf:
    """Performance pair, compared lexicographically.

    Vertex-rooted: (matched vertices / n, 2 * matched weight / n).
    Edge-rooted:   (|M| / |E|, matched weight / |E|).
    """

    match_prob: float
    expected_weight: float

    def as_tuple(self):
        return (self.match_prob, self.expected_weight)


def _check_cap(g: WeightedGraph, cap: int) -> None:
    if g.m > cap:
        raise EnumerationLimitError(f"{g.m} edges exceeds enumeration cap {cap}")


def _matchings(g: WeightedGraph):
    """Yield (sel, weight) for every matching of g, depth first.

    sel lists the chosen indices into g.edges() in increasing order and
    weight is their total, summed in that order.  Each matching comes
    before its extensions, and extensions by a smaller edge index come
    first.  sel is the live search stack: copy it to keep it.
    """
    edges = g.edges()
    weights = g.w.tolist()  # in the order of g.edges()
    m = len(edges)
    # conflicts[i]: the edges after edge i that share a vertex with it;
    # blocked[i]: the number of selected edges that share a vertex with edge i
    conflicts = [
        [j for j in range(i + 1, m) if u in edges[j] or v in edges[j]] for i, (u, v) in enumerate(edges)
    ]
    blocked = [0] * m
    sel: list[int] = []
    totals = [0.0]
    yield sel, 0.0
    i = 0
    while True:
        while i < m and blocked[i]:
            i += 1
        if i < m:
            for j in conflicts[i]:
                blocked[j] += 1
            sel.append(i)
            weight = totals[-1] + weights[i]
            totals.append(weight)
            yield sel, weight
        elif sel:
            i = sel.pop()
            totals.pop()
            for j in conflicts[i]:
                blocked[j] -= 1
        else:
            return
        i += 1


def brute_force_opt(g: WeightedGraph) -> Matching:
    """Lexicographic (size, weight) optimum by exhaustive matching enumeration.

    Work is proportional to the number of matchings.  Ties (possible only
    under atomic weights) are broken toward the lexicographically smallest
    sorted edge-index sequence, which the enumeration order delivers for
    free: earlier-index selections are explored first and strict
    improvement is required to replace the incumbent.
    """
    _check_cap(g, _OPT_EDGE_CAP)
    best_size, best_weight, best_sel = 0, 0.0, ()
    for sel, weight in _matchings(g):
        size = len(sel)
        if size > best_size or (size == best_size and weight > best_weight):
            best_size, best_weight, best_sel = size, weight, tuple(sel)
    edges = g.edges()
    return Matching.from_edges(g, [edges[i] for i in best_sel])


def _orient_forest(g: WeightedGraph, avoid=frozenset()):
    """(parent, bfs_order, parent_edge) as int64 arrays or ranges; CycleError on cycles.

    parent is -1 at component roots and parent_edge[v] is the id of the
    edge (parent(v), v), -1 at roots.  Components are rooted at a vertex
    outside `avoid` whenever one exists, so that pinned boundary vertices
    are BFS leaves.
    """
    n = g.n
    root_pref = g.root_vertex() if n else 0
    if g.tree and root_pref == 0 and 0 not in avoid:
        # BFS from 0 visits a breadth-first tree as 0, 1, 2, ...; edge v - 1 joins v to its parent
        return array("q", [-1]) + g.lo, range(n), range(-1, n - 1)
    indptr, nbr, eid = g.csr
    parent = array("q", [-2]) * n
    pe = array("q", [-1]) * n
    order = array("q")
    seen_edges = 0
    # start at the root; only when its component leaves vertices unseen,
    # every vertex outside `avoid`, then every vertex in it, in turn
    starts = [] if root_pref in avoid else [root_pref]
    for _ in range(2):
        for s in starts:
            if parent[s] != -2:
                continue
            parent[s] = -1
            head = len(order)
            order.append(s)
            while head < len(order):
                v = order[head]
                head += 1
                p = parent[v]
                a, b = indptr[v], indptr[v + 1]
                for w, e in zip(nbr[a:b], eid[a:b]):
                    if w == p:
                        continue
                    if parent[w] != -2:
                        raise CycleError("graph contains a cycle")
                    parent[w] = v
                    pe[w] = e
                    seen_edges += 1
                    order.append(w)
        if len(order) == n:
            break
        starts = [v for v in range(n) if v not in avoid] + [v for v in range(n) if v in avoid]
    if seen_edges != g.m:
        raise CycleError("graph contains a cycle")
    return parent, order, pe


def tree_opt_dp(g: WeightedGraph):
    """Exact optimum on forests via the with/without-root dynamic program.

    Values are (size, weight) pairs, added componentwise and compared
    lexicographically.

    Returns (matching, gains) where gains[(u, v)] is the marginal value of
    allowing v to be matched inside the component of v seen from u, i.e.
    OPT(subtree at v away from u) - OPT(same subtree with v deleted).
    """
    parent, order, _ = _orient_forest(g)
    zero = (0, 0.0)

    # upward pass: for v with parent p, opt_in[v] = OPT of subtree(v),
    # opt_out[v] = OPT of subtree(v) with v unmatchable
    opt_in = [zero] * g.n
    opt_out = [zero] * g.n
    choice = [None] * g.n  # child matched to v in opt_in, or None
    for v in reversed(order):
        kids = [w for w in g.neighbors(v) if parent[w] == v]
        base = zero
        for w in kids:
            base = _vadd(base, opt_in[w])
        opt_out[v] = base
        best = base
        best_child = None
        for w in kids:
            cand = _vadd(
                _vadd(base, _vneg(opt_in[w])),
                _vadd(opt_out[w], (1, g.weight(v, w))),
            )
            if cand > best:
                best, best_child = cand, w
        opt_in[v] = best
        choice[v] = best_child

    # extract the matching top-down: a vertex matched to its parent
    # contributes opt_out (all its children revert to their opt_in)
    matched_edges = []
    mode = ["in"] * g.n
    for v in order:
        if mode[v] == "used":
            continue
        w = choice[v]
        if w is not None:
            matched_edges.append((v, w))
            mode[w] = "used"

    # marginal gains on all directed edges: gains[(u,v)] refers to the
    # subtree at v away from u; needs a rerooting (second) pass
    gains = {}
    down = [zero] * g.n  # gain of the complement component seen from v
    for v in order:
        kids = [w for w in g.neighbors(v) if parent[w] == v]
        for w in kids:
            gains[(v, w)] = _vsub(opt_in[w], opt_out[w])
    for v in order:
        p = parent[v]
        candidates = []
        for w in g.neighbors(v):
            if parent[w] == v:
                candidates.append((w, _vsub((1, g.weight(v, w)), gains[(v, w)])))
            elif w == p:
                candidates.append((w, _vsub((1, g.weight(v, w)), down[v])))
        # down[w] for children w: gain of matching w upward into v's side
        for w in g.neighbors(v):
            if parent[w] != v:
                continue
            best = zero
            for x, cand in candidates:
                if x != w and cand > best:
                    best = cand
            down[w] = best
            gains[(w, v)] = best
    matching = Matching.from_edges(g, matched_edges)
    _assert_no_easy_improvement(g, matching)
    return matching, gains


def _vadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _vneg(a):
    return (-a[0], -a[1])


def _vsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _assert_no_easy_improvement(g: WeightedGraph, matching: Matching) -> None:
    covered = {v for e in matching.edges for v in e}
    for u, v in g.edges():
        if u not in covered and v not in covered and (u, v) not in matching.edges:
            raise AssertionError("tree DP left an augmentable edge exposed")


def leaf_removal(g: WeightedGraph, seed: RngSeed):
    """Karp-Sipser leaf removal: match a leaf to its neighbour and delete both.

    When no leaves remain and edges are left, a uniformly random remaining
    edge is matched and leaf removal resumes.  The run stays certified
    exact only if the core left at the first random step has no vertex of
    degree above 2: it is then disjoint cycles, and on a cycle of length L
    a random edge plus leaf removal matches the optimal floor(L/2) edges.
    Returns (matching, exact, removed_core_size) where removed_core_size
    counts vertices deleted during random-edge steps.

    Pick order: a random step takes the k-th live edge in edge order, k =
    rng.integers(0, live edges), and neighbours are visited ascending.

    Cost: O(n + m) while leaves last.  The first random step builds, in
    O(n + m), per-vertex counts of live edges (u, v) with v > u and their
    sums over blocks of about sqrt(n) vertices; each later deletion keeps
    them current in O(1) and each random step walks them in
    O(sqrt(n) + deg u).  A run with s random steps thus costs
    O(n + m + s * sqrt(n)).
    """
    rng = seed.generator()
    n = g.n
    indptr, nbr, _ = g.csr
    deg = list(map(sub, indptr[1:], indptr[:-1]))
    alive = [True] * n
    matched = []
    leaves = [v for v in range(n) if deg[v] == 1]
    exact = True
    removed_core = 0
    edges_left = g.m
    # live-edge index of the 2-core phase: up[u] counts the live edges
    # (u, v) with v > u and block[b] sums up[] over the b-th run of
    # `size` vertices; both stay empty until the first random step
    up: list[int] = []
    block: list[int] = []
    size = max(1, math.isqrt(n))

    def remove_vertex(v: int) -> None:
        alive[v] = False
        for w in nbr[indptr[v] : indptr[v + 1]]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    leaves.append(w)
                if up:
                    x = v if v < w else w
                    up[x] -= 1
                    block[x // size] -= 1
        deg[v] = 0

    while edges_left > 0:
        while leaves:
            v = leaves.pop()
            if not alive[v] or deg[v] != 1:
                continue
            for u in nbr[indptr[v] : indptr[v + 1]]:
                if alive[u]:
                    break
            matched.append((v, u))
            # deleting u and v removes deg(u) + deg(v) - 1 edges
            edges_left -= deg[u] + deg[v] - 1
            remove_vertex(v)
            remove_vertex(u)
        if edges_left <= 0:
            break
        # 2-core phase: uniform random remaining edge
        if not up:
            exact = max(deg) <= 2  # a core of disjoint cycles
            up = [
                sum(map(alive.__getitem__, nbr[bisect_right(nbr, u, a, b) : b])) if alive[u] else 0
                for u, a, b in zip(range(n), indptr, indptr[1:])
            ]
            block = [sum(up[i : i + size]) for i in range(0, n, size)]
        # walk to the live edge at index k: its block, its u, then its v
        k = int(rng.integers(0, edges_left))
        b = 0
        while k >= block[b]:
            k -= block[b]
            b += 1
        u = b * size
        while k >= up[u]:
            k -= up[u]
            u += 1
        a, b = indptr[u], indptr[u + 1]
        for v in nbr[bisect_right(nbr, u, a, b) : b]:
            if alive[v]:
                if k == 0:
                    break
                k -= 1
        matched.append((u, v))
        edges_left -= deg[u] + deg[v] - 1
        remove_vertex(u)
        remove_vertex(v)
        removed_core += 2
    return Matching.from_edges(g, matched), exact, removed_core


def _enumerate_max_matchings(g: WeightedGraph):
    """Statistics of all maximum-cardinality matchings.

    Returns (max_size, count, intersection, union, samples) where samples
    is the list of all maximum matchings as frozensets of edges, in
    enumeration order.
    """
    _check_cap(g, _ENUM_EDGE_CAP)
    best, sels = 0, []
    for sel, _ in _matchings(g):
        if len(sel) > best:
            best, sels = len(sel), [tuple(sel)]
        elif len(sel) == best:
            sels.append(tuple(sel))
    edges = g.edges()
    sets = [frozenset(edges[i] for i in sel) for sel in sels]
    return best, len(sets), frozenset.intersection(*sets), frozenset.union(*sets), sets


def mandatory_blocking(g: WeightedGraph) -> dict:
    """Classify each edge against the set of maximum-cardinality matchings.

    mandatory: in all of them; blocking: in none; free: otherwise.
    """
    _, _, inter, union, _ = _enumerate_max_matchings(g)
    out = {}
    for e in g.edges():
        if e in inter:
            out[e] = MANDATORY
        elif e not in union:
            out[e] = BLOCKING
        else:
            out[e] = FREE
    return out


def uniform_max_matching(g: WeightedGraph, seed: RngSeed) -> Matching:
    """Exact uniform sample from the maximum-cardinality matchings."""
    _, count, _, _, sets = _enumerate_max_matchings(g)
    rng = seed.generator()
    pick = sets[int(rng.integers(0, count))]
    return Matching.from_edges(g, pick)


def perf_of(g: WeightedGraph, matching: Matching) -> tuple[Perf, Perf]:
    """(vertex-rooted, edge-rooted) performance of a matching.

    The identity perf_V = (2|E|/n) * perf_E holds exactly on finite graphs.
    """
    Matching.from_edges(g, matching.edges)  # raises unless a matching of g
    n = max(g.n, 1)
    perf_v = Perf(2.0 * matching.size / n, 2.0 * matching.weight / n)
    if g.m == 0:
        return perf_v, Perf(0.0, 0.0)
    perf_e = Perf(matching.size / g.m, matching.weight / g.m)
    return perf_v, perf_e


def matching_to_text(matching: Matching) -> str:
    lines = [f"size={matching.size} weight={matching.weight:.17g}"]
    for u, v in sorted(matching.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
