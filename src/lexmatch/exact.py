"""Ground-truth oracles for optimal matchings on small graphs and forests.

"Optimal" always means maximal in the lexicographic order (cardinality,
total weight).  Enumeration-based oracles are capped at desk scale
(26 edges for optima, 22 for maximum-matching structure); the forest
dynamic program and certified leaf removal (cost in `leaf_removal`)
scale further.  The enumerators walk every matching: by a backtracking
search (`_matchings`) below _ARRAY_EDGES edges, and from _ARRAY_EDGES up
as a numpy table of bitmasks (`_matching_table`) built edge by edge,
with the same weights bit for bit and the same choices.  Graphs carry
one order, their sorted edges: leaf removal visits neighbours ascending
and numbers live edges in edge order.  A `Matching` is made from edge
ids of one graph and checked once: it keeps their ends in ascending id
order, which is sorted pair order, and sums the weight in that order.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from operator import sub

import numpy as np

from .randgraph import RngSeed, WeightedGraph

__all__ = [
    "EnumerationLimitError", "NotAMatchingError", "CycleError", "Matching", "Perf", "MANDATORY",
    "BLOCKING", "FREE", "brute_force_opt", "tree_opt_dp", "leaf_removal", "mandatory_blocking",
    "uniform_max_matching", "eps_threshold", "perf_of", "matching_to_text",
]

_OPT_EDGE_CAP = 26
_ENUM_EDGE_CAP = 22
# graphs of this many edges or more are enumerated as a bitmask table: per call on
# depth 1..4 Poisson(2) trees, each enumerator's search and table cross between 12
# and 13 edges (timings in CHANGES.md)
_ARRAY_EDGES = 13

MANDATORY = "mandatory"
BLOCKING = "blocking"
FREE = "free"


class EnumerationLimitError(ValueError):
    """Instance exceeds the enumeration edge cap."""


class NotAMatchingError(ValueError):
    """Edge set has a pair that is not an edge, or two edges sharing a vertex."""


class CycleError(ValueError):
    """Graph expected to be a forest contains a cycle."""


@dataclass(frozen=True, init=False)
class Matching:
    """Vertex-disjoint edge set of a graph, checked when it is made.

    Matching(g, ids) takes edge ids of g: NotAMatchingError unless they lie
    in range(g.m) and no two share a vertex.  ends holds their lo ends in
    ascending id order, then their hi ends (g's edges are sorted: pair
    order too), and edges builds the set of (lo, hi) pairs when read.
    weight sums g.w over the ids in ascending order; n and m are g's vertex
    and edge counts.
    """

    ends: tuple
    weight: float
    n: int
    m: int

    def __init__(self, g: WeightedGraph, ids):
        ids = sorted(ids)
        if ids and (ids[0] < 0 or ids[-1] >= g.m):
            raise NotAMatchingError(f"edge id {ids[0] if ids[0] < 0 else ids[-1]} not in range({g.m})")
        ends = (*[g.lo[i] for i in ids], *[g.hi[i] for i in ids])
        if len(set(ends)) < len(ends):
            v = next(x for x, c in Counter(ends).items() if c > 1)
            raise NotAMatchingError(f"two matched edges share vertex {v}")
        weight = sum(map(g.w.__getitem__, ids), 0.0)
        vars(self).update(ends=ends, weight=weight, n=g.n, m=g.m)  # frozen: set once, here

    @property
    def edges(self) -> frozenset:
        return frozenset(zip(self.ends[: self.size], self.ends[self.size :]))

    @property
    def size(self) -> int:
        return len(self.ends) // 2

    def covers(self, v: int) -> bool:
        return v in self.ends


@dataclass(frozen=True)
class Perf:
    """Performance pair, compared lexicographically.

    Vertex-rooted: (matched vertices / n, 2 * matched weight / n).
    Edge-rooted:   (|M| / |E|, matched weight / |E|).
    """

    match_prob: float
    expected_weight: float


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


def _matching_table(g: WeightedGraph):
    """(masks, sizes, weights): every matching of g, one entry per matching.

    masks holds each matching's edge ids as int32 bits, edge i at bit
    m - 1 - i, so among matchings of one size a larger mask is a
    lexicographically smaller id tuple, and among the maximum-size ones
    descending masks are _matchings' order.  sizes (int8) counts the bits
    and weights (float64) sums the edges' weights in ascending id order,
    as _matchings does.  The table is built edge by edge, in ascending id
    order: the matchings with no edge that meets edge i are extended by it.
    """
    m = g.m
    masks, weights = np.zeros(1, np.int32), np.zeros(1)
    at: dict[int, int] = {}  # vertex -> bits of the edges so far that meet it
    for i, (u, v, w) in enumerate(zip(g.lo, g.hi, g.w.tolist())):
        bit = 1 << (m - 1 - i)
        free = (masks & (at.get(u, 0) | at.get(v, 0))) == 0
        at[u], at[v] = at.get(u, 0) | bit, at.get(v, 0) | bit
        grown, heavier = masks[free], weights[free]
        grown |= bit
        heavier += w
        masks = np.concatenate((masks, grown))
        weights = np.concatenate((weights, heavier))
    return masks, np.bitwise_count(masks).view(np.int8), weights


def _ids(m: int, mask: int) -> list[int]:
    """The edge ids of a _matching_table mask, ascending."""
    return [i for i in range(m) if mask >> (m - 1 - i) & 1]


def brute_force_opt(g: WeightedGraph) -> Matching:
    """Lexicographic (size, weight) optimum by exhaustive matching enumeration.

    Work is proportional to the number of matchings.  Ties (possible only
    under atomic weights) are broken toward the lexicographically smallest
    sorted edge-index sequence: the search explores earlier-index
    selections first and requires strict improvement to replace the
    incumbent, and the table takes the largest mask among the ties.
    """
    _check_cap(g, _OPT_EDGE_CAP)
    if g.m >= _ARRAY_EDGES:
        masks, sizes, weights = _matching_table(g)
        top = sizes == sizes.max()
        top &= weights == weights[top].max()
        return Matching(g, _ids(g.m, int(masks[top].max())))
    best_size, best_weight, best_sel = 0, 0.0, ()
    for sel, weight in _matchings(g):
        size = len(sel)
        if size > best_size or (size == best_size and weight > best_weight):
            best_size, best_weight, best_sel = size, weight, tuple(sel)
    return Matching(g, best_sel)


def _orient_forest(g: WeightedGraph, avoid=frozenset()):
    """(parent, bfs_order, parent_edge) as int64 arrays or ranges; CycleError on cycles.

    parent is -1 at component roots and parent_edge[v] is the id of the
    edge (parent(v), v), -1 at roots.  Each vertex's children are
    consecutive in bfs_order, ascending.  Components are rooted at a vertex
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

    The forest is read through _orient_forest: children are taken from
    one pass over the BFS order, where each vertex's children are
    consecutive and ascending, and edge (parent(v), v) weighs w[pe[v]].
    """
    parent, order, pe = _orient_forest(g)
    n, wt = g.n, g.w
    kids = [[] for _ in range(n)]
    for v in order:
        if parent[v] >= 0:
            kids[parent[v]].append(v)

    # upward pass: opt_in[v] = OPT of subtree(v), opt_out[v] = OPT of
    # subtree(v) with v unmatchable; choice[v] is the child matched to v
    # in opt_in, or -1
    opt_in, opt_out, choice = [(0, 0.0)] * n, [(0, 0.0)] * n, [-1] * n
    for v in reversed(order):
        bs, bw = 0, 0.0
        for c in kids[v]:
            s, x = opt_in[c]
            bs, bw = bs + s, bw + x
        opt_out[v] = best = (bs, bw)
        for c in kids[v]:
            (s, x), (t, y) = opt_in[c], opt_out[c]
            cand = (bs - s + (t + 1), bw - x + (y + wt[pe[c]]))
            if cand > best:
                best, choice[v] = cand, c
        opt_in[v] = best

    # extract the matching top-down: a vertex matched to its parent
    # contributes opt_out (all its children revert to their opt_in)
    matched = []
    taken = [False] * n  # matched to its parent
    for v in order:
        c = choice[v]
        if c >= 0 and not taken[v]:
            matched.append(pe[c])
            taken[c] = True

    # marginal gains on all directed edges: gains[(v, c)] towards a child
    # from the upward pass, then gains[(c, v)] by rerooting, in BFS order:
    # the best of zero and the candidates (1, w(v, u)) - gains[(v, u)] over
    # the neighbours u != c of v, read off the two best candidates
    gains = {}
    for v in order:
        for c in kids[v]:
            (s, x), (t, y) = opt_in[c], opt_out[c]
            gains[(v, c)] = (s - t, x - y)
    for v in order:
        p = parent[v]
        top1 = top2 = (0, 0.0)
        arg = -1
        for u, e in ([(p, pe[v])] if p >= 0 else []) + [(c, pe[c]) for c in kids[v]]:
            s, x = gains[(v, u)]
            cand = (1 - s, wt[e] - x)
            if cand > top1:
                top1, top2, arg = cand, top1, u
            elif cand > top2:
                top2 = cand
        for c in kids[v]:
            gains[(c, v)] = top2 if c == arg else top1
    matching = Matching(g, matched)
    covered = set(matching.ends)
    if any(u not in covered and v not in covered for u, v in zip(g.lo, g.hi)):
        raise AssertionError("tree DP left an augmentable edge exposed")
    return matching, gains


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
    indptr, nbr, eid = g.csr
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
            j = indptr[v]
            while not alive[nbr[j]]:
                j += 1
            u = nbr[j]
            matched.append(eid[j])
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
        for j in range(bisect_right(nbr, u, a, b), b):
            if alive[nbr[j]]:
                if k == 0:
                    break
                k -= 1
        v = nbr[j]
        matched.append(eid[j])
        edges_left -= deg[u] + deg[v] - 1
        remove_vertex(u)
        remove_vertex(v)
        removed_core += 2
    return Matching(g, matched), exact, removed_core


def _max_matchings(g: WeightedGraph) -> list:
    """Every maximum-cardinality matching of g as a tuple of edge ids, in enumeration order."""
    best, sels = 0, []
    for sel, _ in _matchings(g):
        if len(sel) > best:
            best, sels = len(sel), [tuple(sel)]
        elif len(sel) == best:
            sels.append(tuple(sel))
    return sels


def _max_masks(g: WeightedGraph):
    """The _matching_table masks of every maximum-cardinality matching of g, in table order."""
    masks, sizes, _ = _matching_table(g)
    return masks[sizes == sizes.max()]


def mandatory_blocking(g: WeightedGraph) -> dict:
    """Classify each edge against the set of maximum-cardinality matchings.

    mandatory: in all of them; blocking: in none; free: otherwise.
    """
    _check_cap(g, _ENUM_EDGE_CAP)
    if g.m >= _ARRAY_EDGES:
        masks = _max_masks(g)
        count = len(masks)
        hits = [np.count_nonzero(masks & (1 << (g.m - 1 - i))) for i in range(g.m)]
    else:
        sels = _max_matchings(g)
        count = len(sels)
        hits = [0] * g.m
        for sel in sels:
            for i in sel:
                hits[i] += 1
    return {e: MANDATORY if h == count else BLOCKING if h == 0 else FREE for e, h in zip(g.edges(), hits)}


def uniform_max_matching(g: WeightedGraph, seed: RngSeed) -> Matching:
    """Exact uniform sample from the maximum-cardinality matchings.

    The k-th maximum matching in enumeration order is taken, for k =
    rng.integers(0, their number).
    """
    _check_cap(g, _ENUM_EDGE_CAP)
    rng = seed.generator()
    if g.m >= _ARRAY_EDGES:
        masks = np.sort(_max_masks(g))[::-1]
        return Matching(g, _ids(g.m, int(masks[rng.integers(0, len(masks))])))
    sels = _max_matchings(g)
    return Matching(g, sels[int(rng.integers(0, len(sels)))])


def eps_threshold(g: WeightedGraph, opt: Matching) -> float:
    """Largest eps below which the 1+eps*w optimum equals the lex optimum opt of g.

    A smaller-but-heavier matching M beats the lex optimum M* once
    eps > (|M*| - |M|) / (w(M) - w(M*)); enumerate all matchings and take
    the minimum such ratio (inf if none competes).
    """
    _check_cap(g, _OPT_EDGE_CAP)
    size0, w0 = opt.size, opt.weight
    if g.m >= _ARRAY_EDGES:
        _, sizes, weights = _matching_table(g)
        beats = (sizes < size0) & (weights > w0)
        return float(np.min((size0 - sizes[beats]) / (weights[beats] - w0), initial=math.inf))
    best = math.inf
    for sel, weight in _matchings(g):
        if len(sel) < size0 and weight > w0:
            best = min(best, (size0 - len(sel)) / (weight - w0))
    return best


def perf_of(matching: Matching) -> tuple[Perf, Perf]:
    """(vertex-rooted, edge-rooted) performance of a matching, on its graph's n and m.

    The identity perf_V = (2|E|/n) * perf_E holds exactly on finite graphs.
    """
    n, m = max(matching.n, 1), matching.m
    perf_v = Perf(2.0 * matching.size / n, 2.0 * matching.weight / n)
    if m == 0:
        return perf_v, Perf(0.0, 0.0)
    return perf_v, Perf(matching.size / m, matching.weight / m)


def matching_to_text(matching: Matching) -> str:
    k, ends = matching.size, matching.ends
    lines = [f"size={k} weight={matching.weight:.17g}"]
    lines += map("{} {}".format, ends[:k], ends[k:])  # ascending ids: sorted pairs
    return "\n".join(lines) + "\n"
