"""Two-level lexicographic message passing on trees and truncated balls.

A message on the directed edge (u, v) summarises the component of v away
from u.  Messages are pairs (level, z) compared lexicographically and
satisfy, on every interior directed edge,

    msg(u, v) = maxlex( (0,0), maxlex_{u' ~ v, u' != u} (k, w(v,u')) - msg(v, u') )

where pair arithmetic is componentwise and the maximum of an empty list
is the bottom element (-1, -inf).  An edge {u, v} belongs to the matching
iff msg(u, v) + msg(v, u) < (k, w(u, v)) lexicographically; equivalently
(vertex rule) u is matched to the argmax over v ~ u of
(k, w(u,v)) - msg(u, v) whenever that maximum exceeds (0, 0).

On truncated balls the unknown exterior enters only through the messages
(parent(b), b) at boundary vertices b; pinning those to (0,0) ["the
exterior never matches b"], (k,+inf) ["b is matched outward"], or to
i.i.d. draws from the stationary message law reproduces respectively the
leaf-like, forbidden and typical environments.  The recursion reverses
the pointwise lexicographic order of boundary conditions at every
application, so the two constant extreme conditions bound every other
condition edge by edge; where the two extremal sweeps agree the message
is certified independent of everything outside the ball.

A forest's directed edge is fixed by its child endpoint v and its
direction, so a sweep keeps each message as an int level and a float z
in two sequences indexed by vertex, no tuple per message; every
directed-edge mapping returned here is a view keyed (u, v) over them.
Forests of fewer than _ARRAY_MIN vertices are swept and read one vertex
at a time, in lists; larger ones a BFS depth at a time, in numpy arrays
whose results land in typed arrays.  The array sweep takes its upward
maxima with _lex_reduce, the segment reduction of rde's population
dynamics.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .exact import BLOCKING, FREE, MANDATORY, Matching, _orient_forest
from .randgraph import WeightedGraph

__all__ = [
    "ZERO", "top_msg", "FieldInconsistencyError", "EdgeMap", "MessageField", "SqueezeResult",
    "sweep_tree", "extract_matching", "sweep_bounded", "squeeze", "macroscopic_squeeze",
    "classify_edge", "classify_edges_from_levels", "scalar_sweep_eps", "UNKNOWN",
]

ZERO = (0, 0.0)
UNKNOWN = "unknown"
# forests of this many vertices or more are swept and extracted in arrays, unless
# they have more than one BFS depth per _ARRAY_MIN // 8 vertices: on Poisson(2)
# trees the two forms cross near 1 300 vertices for the sweep and 650 for sweep and
# extraction, and on caterpillars near 120 vertices per depth (timings in CHANGES.md)
_ARRAY_MIN = 1000


def top_msg(k: int):
    """Boundary value forcing the edge out of the matching."""
    return (k, float("inf"))


class FieldInconsistencyError(AssertionError):
    """Edge rule and vertex rule disagreed on a supposedly valid field."""


class EdgeMap(Mapping):
    """Messages on the directed edges of an oriented forest, keyed (u, v), read-only.

    With n = len(parent), msg(parent(v), v) is (level[v], z[v]) and
    msg(v, parent(v)) is (level[n + v], z[n + v]); parent, order and pe
    (the edge to the parent) come from _orient_forest.  Keys run in BFS
    order, (p, v) then (v, p) for each non-root v.  level and z are lists
    or typed arrays ('q', 'd'), so reads give int and float either way.
    """

    __slots__ = ("parent", "order", "pe", "level", "z")

    def __init__(self, parent, order, pe, level, z):
        self.parent, self.order, self.pe, self.level, self.z = parent, order, pe, level, z

    def _locate(self, key) -> int:
        u, v = key
        parent = self.parent
        n = len(parent)
        # range first: a negative index would read from the end
        if 0 <= u < n and 0 <= v < n:
            if parent[v] == u:
                return v
            if parent[u] == v:
                return n + u
        raise KeyError(key)

    def __getitem__(self, key):
        i = self._locate(key)
        return (self.level[i], self.z[i])

    def __iter__(self):
        parent = self.parent
        for v in self.order:
            p = parent[v]
            if p >= 0:
                yield (p, v)
                yield (v, p)

    def __len__(self) -> int:
        return 2 * (len(self.order) - self.parent.count(-1))


class _PairView(Mapping):
    """Read-only mapping key -> op(lo[key], hi[key]) over two sweeps of one forest."""

    __slots__ = ("lo", "hi", "op")

    def __init__(self, lo: EdgeMap, hi: EdgeMap, op):
        self.lo, self.hi, self.op = lo, hi, op

    def __getitem__(self, key):
        lo, hi = self.lo, self.hi
        i = lo._locate(key)  # the two sweeps share one orientation
        return self.op((lo.level[i], lo.z[i]), (hi.level[i], hi.z[i]))

    def __iter__(self):
        return iter(self.lo)

    def __len__(self) -> int:
        return len(self.lo)


@dataclass
class MessageField:
    """Messages of a forest (a read-only EdgeMap) plus boundary bookkeeping."""

    k: int
    messages: EdgeMap
    boundary_spec: dict


def _resolve_boundary(g: WeightedGraph, k: int, spec):
    """Normalise a boundary spec to {vertex: message}."""
    if isinstance(spec, str):
        spec = {b: spec for b in g.boundary}
    out = {}
    for b, val in spec.items():
        if val == "zero":
            out[b] = ZERO
        elif val == "top":
            out[b] = top_msg(k)
        else:
            level, z = val
            out[b] = (int(level), float(z))
    return out


def _lex_reduce(k, N, in_lvl, in_z, w):
    """maxlex((0,0), max over each group of (k, w) - (lvl, z)).

    The flat inputs come in consecutive groups of N[i] entries, one group
    per output; an empty group gives (0, 0).  numpy orders complex numbers
    lexicographically, real part first, so with each candidate encoded as
    level + i z one segment maximum over the non-empty groups is the
    lexicographic maximum, exactly.  Returns (levels as int64, z).
    """
    full = N > 0
    counts = N[full]
    cand = np.empty(len(w), dtype=complex)
    cand.real = k - in_lvl
    cand.imag = w - in_z
    out = np.zeros(len(N), dtype=complex)
    out[full] = np.maximum(np.maximum.reduceat(cand, np.cumsum(counts) - counts), 0.0)
    return out.real.astype(np.int64), out.imag


def _ints(seq) -> np.ndarray:
    """An int64 view of a typed array, or the values of a range."""
    return np.arange(seq.start, seq.stop) if isinstance(seq, range) else np.frombuffer(seq, dtype=np.int64)


def _levels(parent, order):
    """An oriented forest's vertices by depth, or None past one depth per _ARRAY_MIN // 8 vertices.

    Returns (vert, up, bounds): vert lists the vertices by depth, each
    depth in BFS order, so each vertex's children stay consecutive and
    every depth lists its children in the order of their parents; up[r]
    is the rank in vert of vert[r]'s parent, -1 at roots; depth d holds
    the ranks bounds[d]:bounds[d + 1].
    """
    parent, order = _ints(parent), _ints(order)
    n = len(order)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    isroot = parent[order] < 0
    ppos = pos[parent[order]]  # the parent's BFS position, -1 at roots
    ppos[isroot] = -1
    del pos
    roots, kids = np.flatnonzero(isroot), np.flatnonzero(~isroot)
    # BFS lists children by their parents' positions, so first[i], the first child of
    # a vertex at position i or later, starts the depth after the one that holds i
    first = np.append(kids, n)[np.searchsorted(ppos[kids], np.arange(n + 1))]
    del kids
    # each component's depths, all components at once: the next depth starts at
    # the first child of this one, and is empty when that lies past the component
    start, end = roots, np.append(roots[1:], n)
    depth = np.zeros(n, dtype=np.int64)
    for _ in range(max(1, 8 * n // _ARRAY_MIN)):
        start = np.minimum(first[start], end)
        live = start < end
        start, end = start[live], end[live]
        if not start.size:
            break
        depth[start] = 1
    else:
        return None
    del first
    np.cumsum(depth, out=depth)
    depth -= depth[roots][np.cumsum(isroot) - 1]
    by_depth = np.argsort(depth, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(depth))))
    del depth
    rank = np.empty(n, dtype=np.int64)
    rank[by_depth] = np.arange(n)
    up = rank[ppos[by_depth]]
    up[isroot[by_depth]] = -1
    return order[by_depth], up, bounds


def _sweep(g: WeightedGraph, k: int, pinned: dict, oriented=None, weights=None) -> EdgeMap:
    """Two-pass computation of all directed-edge messages, as an EdgeMap.

    pinned maps a boundary vertex b to the exogenous message (parent(b), b);
    pinned vertices must not have children inside g (true for radius
    boundaries of tree balls).  `oriented` is a precomputed
    _orient_forest(g, avoid=pinned), with the orientation's _levels as a
    fourth entry where two sweeps share them, and `weights`, indexed by
    edge id, replaces g.w.  Messages (level, z) are compared
    lexicographically.
    Every sweep of this module runs here, so k >= 0 is checked here once.
    A forest of _ARRAY_MIN vertices or more is swept in arrays unless it
    is too deep for them; both forms give the same messages.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    oriented = oriented or _orient_forest(g, avoid=frozenset(pinned))
    parent, order, pe = oriented[:3]  # the whole tuple, not a copy, when it has three entries
    if weights is None:
        weights = g.w
    if g.n >= _ARRAY_MIN:
        swept = _array_sweep(parent, order, pe, k, pinned, weights, *oriented[3:])
        if swept is not None:
            return EdgeMap(parent, order, pe, *swept)
    n = g.n
    # upward pass: the running maxima top1 >= top2 of the candidates at
    # each vertex (arg = the child giving top1) start at (0, 0); once v's
    # children are in, top1[v] is msg(parent(v), v), or v's pin, and its
    # candidate (k, w(v, parent(v))) - top1[v] is pushed into the parent's maxima
    l1, z1, l2, z2, arg = [0] * n, [0.0] * n, [0] * n, [0.0] * n, [-1] * n
    for v in reversed(order):
        p = parent[v]
        if v in pinned:
            l1[v], z1[v] = pinned[v]
        lv, zv = l1[v], z1[v]
        if p < 0:
            continue
        if p in pinned:
            raise FieldInconsistencyError(f"pinned boundary vertex {p} has interior children")
        lc, zc = k - lv, weights[pe[v]] - zv
        if lc > l1[p] or lc == l1[p] and zc > z1[p]:
            l2[p], z2[p] = l1[p], z1[p]
            l1[p], z1[p], arg[p] = lc, zc, v
        elif lc > l2[p] or lc == l2[p] and zc > z2[p]:
            l2[p], z2[p] = lc, zc
    # msg(parent(v), v) at v, pins included; msg(v, parent(v)) overwrites n + v
    level, z = l1 * 2, z1 * 2

    # downward pass in BFS order: when v is reached, its parent's maxima
    # already hold every candidate at the parent, the grandparent's
    # included, so msg(v, parent(v)) is the parent's top2 if v gives its
    # top1 and its top1 otherwise; v's candidate from its parent is then
    # merged into v's maxima (arg -1) for v's children
    for v in order:
        p = parent[v]
        if p < 0:
            continue
        lv, zv = level[n + v], z[n + v] = (l2[p], z2[p]) if arg[p] == v else (l1[p], z1[p])
        lc, zc = k - lv, weights[pe[v]] - zv
        if lc > l1[v] or lc == l1[v] and zc > z1[v]:
            l2[v], z2[v] = l1[v], z1[v]
            l1[v], z1[v], arg[v] = lc, zc, -1
        elif lc > l2[v] or lc == l2[v] and zc > z2[v]:
            l2[v], z2[v] = lc, zc
    return EdgeMap(parent, order, pe, level, z)


def _array_sweep(parent, order, pe, k: int, pinned: dict, weights, *levels):
    """_sweep's messages (level, z) as typed arrays ('q', 'd'), a BFS depth at a time.

    None when the forest has more than one depth per _ARRAY_MIN // 8
    vertices, where the loop is faster.  `levels`, when given, holds the
    forest's _levels.  The arrays are indexed by rank in _levels' order.
    Going up, each depth's candidates (k, w) - msg are reduced per parent
    by _lex_reduce into top1, which is msg(parent(v), v) at v, and again
    with the candidates equal to top1 masked out (level k + 1 makes them
    negative) into top2, or top1 where two of them tie: the second
    largest with two (0, 0) added.  Going down, each vertex
    merges the candidate from its parent into those two, and each child v
    reads msg(v, parent(v)) from its parent's pair by one gather: top2 if
    v's candidate equals top1, else top1.  Ties give equal values either
    way, so the messages are the loop's.
    """
    levels = levels[0] if levels else _levels(parent, order)
    parent, order = _ints(parent), _ints(order)
    n = len(parent)
    pins = {b: pin for b, pin in pinned.items() if 0 <= b < n}
    if pins:
        held = np.zeros(n, dtype=bool)
        held[list(pins)] = True
        # the loop meets the last such child in BFS order first
        bad = np.flatnonzero(held[parent[order]] & (parent[order] >= 0))
        if bad.size:
            p = int(parent[order[bad[-1]]])
            raise FieldInconsistencyError(f"pinned boundary vertex {p} has interior children")
    if levels is None:
        return None
    vert, up, bounds = levels
    kid = up >= 0
    we = np.zeros(n)  # the weight of each vertex's edge to its parent
    we[kid] = np.asarray(weights, dtype=float)[_ints(pe)[vert[kid]]]
    kids = np.bincount(up[kid], minlength=n)  # children per rank
    del kid
    l1, z1 = np.zeros(n, dtype=np.int64), np.zeros(n)
    if pins:
        rank = np.empty(n, dtype=np.int64)
        rank[vert] = np.arange(n)
        at = rank[list(pins)]
        l1[at], z1[at] = zip(*pins.values())
        del rank, at
    l2, z2 = np.zeros(n, dtype=np.int64), np.zeros(n)
    depths = len(bounds) - 1
    for d in range(depths - 1, 0, -1):
        s, q = slice(bounds[d], bounds[d + 1]), slice(bounds[d - 1], bounds[d])
        N, ls, zs, ws = kids[q], l1[s], z1[s], we[s]
        t1l, t1z = _lex_reduce(k, N, ls, zs, ws)
        top = (k - ls == np.repeat(t1l, N)) & (ws - zs == np.repeat(t1z, N))
        t2l, t2z = _lex_reduce(k, N, np.where(top, k + 1, ls), zs, ws)
        tied = np.bincount(up[s][top] - bounds[d - 1], minlength=len(N)) > 1
        has = N > 0  # leaves keep (0, 0) and pins their pin
        np.copyto(l1[q], t1l, where=has)
        np.copyto(z1[q], t1z, where=has)
        np.copyto(l2[q], np.where(tied, t1l, t2l), where=has)
        np.copyto(z2[q], np.where(tied, t1z, t2z), where=has)
    del kids
    # msg(v, parent(v)) by rank; at roots it stays top1, as in the loop's lists
    ld, zd = l1.copy(), z1.copy()
    for d in range(1, depths):
        s, q = slice(bounds[d], bounds[d + 1]), slice(bounds[d - 1], bounds[d])
        a1l, a1z, a2l, a2z = l1[q], z1[q], l2[q], z2[q]
        if d > 1:  # merge each parent's candidate from its own parent
            cl, cz = k - ld[q], we[q] - zd[q]
            gt1 = (cl > a1l) | (cl == a1l) & (cz > a1z)
            gt2 = (cl > a2l) | (cl == a2l) & (cz > a2z)
            a2l, a2z = np.where(gt1, a1l, np.where(gt2, cl, a2l)), np.where(gt1, a1z, np.where(gt2, cz, a2z))
            a1l, a1z = np.where(gt1, cl, a1l), np.where(gt1, cz, a1z)
        j = up[s] - bounds[d - 1]
        t1l, t1z = a1l[j], a1z[j]
        mine = (k - l1[s] == t1l) & (we[s] - z1[s] == t1z)
        ld[s], zd[s] = np.where(mine, a2l[j], t1l), np.where(mine, a2z[j], t1z)
    del l2, z2, we, up
    level, z = array("q", [0]) * (2 * n), array("d", [0.0]) * (2 * n)
    for out, by_rank, dtype in ((level, (l1, ld), np.int64), (z, (z1, zd), np.float64)):
        view = np.frombuffer(out, dtype=dtype)
        view[vert], view[n + vert] = by_rank
    return level, z


def sweep_tree(g: WeightedGraph, k: int) -> MessageField:
    """Exact messages on a finite forest (no boundary conditions).

    On finite forests the message (u, v) coincides with the componentwise
    marginal gain (delta size, delta weight) of letting v be matched
    inside its subtree, so extraction reproduces the lexicographic
    optimum for any k >= 1.
    """
    return MessageField(k=k, messages=_sweep(g, k, {}), boundary_spec={})


def sweep_bounded(g: WeightedGraph, k: int, boundary_spec) -> MessageField:
    """Messages on a truncated tree with pinned boundary conditions.

    boundary_spec is "zero", "top", or a dict {boundary vertex: "zero" |
    "top" | (level, z)}; a sampled condition is such a dict of drawn pairs,
    made by the caller.
    """
    pinned = _resolve_boundary(g, k, boundary_spec)
    return MessageField(k=k, messages=_sweep(g, k, pinned), boundary_spec=pinned)


def extract_matching(g: WeightedGraph, field: MessageField) -> Matching:
    """Edges where msg(u,v) + msg(v,u) < (k, w) lexicographically.

    Validates structural disjointness and cross-checks the equivalent
    vertex rule; a disagreement means the field is not a valid fixed
    point of the recursion and raises FieldInconsistencyError.  Exact
    weight ties (possible only under atomic weight laws) can break the
    strict decision rule and are reported the same way: extraction
    assumes atomless weights.  The matching is made from the ids of the
    chosen edges, each the parent edge of its child endpoint.  A forest
    of _ARRAY_MIN vertices or more is read in arrays, with the same
    result and the same error text.
    """
    if g.n >= _ARRAY_MIN:
        return _array_extract(g, field)
    k = field.k
    msgs = field.messages
    parent, level, z = msgs.parent, msgs.level, msgs.z
    n = g.n
    weights = g.w
    chosen = []
    matched_of = [None] * n
    # edge rule, one edge per child vertex v with parent p:
    # (level, z) of msg(p,v) + msg(v,p) < (k, w)
    for v, p, e in zip(range(n), parent, msgs.pe):
        if p < 0:
            continue
        lv = level[v] + level[n + v]
        if lv < k or (lv == k and z[v] + z[n + v] < weights[e]):
            if matched_of[p] is not None or matched_of[v] is not None:
                raise FieldInconsistencyError("edge rule selected incident edges")
            chosen.append(e)
            matched_of[p], matched_of[v] = v, p

    # vertex rule: u matched to the argmax over its neighbours x of
    # (k, w(u,x)) - msg(u, x) when that exceeds (0,0), the smallest such x
    # on ties.  The edge to a child v gives its parent p the candidate
    # toward v and v the candidate toward p.  Pinned boundary vertices are
    # skipped: their exterior candidates are invisible here, and the edge
    # rule already accounts for them through the pinned message.
    best_level, best_z, arg = [0] * n, [0.0] * n, [None] * n
    for v, p, e in zip(range(n), parent, msgs.pe):
        if p < 0:
            continue
        for u, x, i in ((p, v, v), (v, p, n + v)):  # msg(u, x) is at i
            lv, zv = k - level[i], weights[e] - z[i]
            if lv > best_level[u] or lv == best_level[u] and (
                zv > best_z[u] or zv == best_z[u] and arg[u] is not None and x < arg[u]
            ):
                best_level[u], best_z[u], arg[u] = lv, zv, x
    pinned = field.boundary_spec
    for u, (rule, edge_rule) in enumerate(zip(arg, matched_of)):
        if rule != edge_rule and u not in pinned:
            _disagree(u, rule, edge_rule)
    return Matching(g, chosen)


def _disagree(u: int, rule, edge_rule):
    raise FieldInconsistencyError(f"vertex rule ({u} -> {rule}) disagrees with edge rule ({u} -> {edge_rule})")


def _array_extract(g: WeightedGraph, field: MessageField) -> Matching:
    """extract_matching's two rules on arrays, for the same matching or error."""
    k, msgs, n = field.k, field.messages, g.n
    parent, order, pe = _ints(msgs.parent), _ints(msgs.order), _ints(msgs.pe)
    level, z = np.asarray(msgs.level), np.asarray(msgs.z, dtype=float)
    w = np.asarray(g.w, dtype=float)
    # edge rule, on the parent edge of each child vertex, in vertex order as the loop
    kid = np.flatnonzero(parent >= 0)
    ls = level[kid] + level[n + kid]
    with np.errstate(invalid="ignore"):  # inf + -inf under exotic pins: nan, never < w
        chosen = kid[(ls < k) | (ls == k) & (z[kid] + z[n + kid] < w[pe[kid]])]
    del kid, ls
    ends = np.concatenate((parent[chosen], chosen))
    if np.bincount(ends, minlength=n).max(initial=0) > 1:
        raise FieldInconsistencyError("edge rule selected incident edges")
    matched = np.full(n, -1)
    matched[ends] = np.concatenate((chosen, parent[chosen]))
    ids = pe[chosen].tolist()
    del ends, chosen
    arg = _vertex_rule(k, parent, order, pe, level, z, w)
    held = [b for b in field.boundary_spec if 0 <= b < n]
    arg[held] = matched[held]  # pinned vertices are skipped, as in the loop
    wrong = np.flatnonzero(arg != matched)
    if wrong.size:
        u = int(wrong[0])
        _disagree(u, None if arg[u] < 0 else int(arg[u]), None if matched[u] < 0 else int(matched[u]))
    del arg, matched
    return Matching(g, ids)


def _vertex_rule(k: int, parent, order, pe, level, z, w) -> np.ndarray:
    """The neighbour each vertex is matched to by the vertex rule, -1 for none.

    The candidates toward the children are reduced per parent in BFS
    order, where each vertex's children are consecutive and ascending, so
    the first maximum is the smallest neighbour id, as in the loop; the
    candidate toward the parent wins when larger, or when equal and the
    parent's id is smaller.
    """
    n = len(parent)
    best = np.full(n, complex(-np.inf, 0.0))
    arg = parent.copy()
    v = order[parent[order] >= 0]
    if v.size:
        pv, wv = parent[v], w[pe[v]]
        cand = np.empty(len(v), dtype=complex)
        cand.real, cand.imag = k - level[n + v], wv - z[n + v]
        best[v] = cand
        cand.real, cand.imag = k - level[v], wv - z[v]  # toward v, at its parent
        del wv
        first = np.flatnonzero(np.concatenate(([True], pv[1:] != pv[:-1])))
        owner = pv[first]
        del pv
        top = np.maximum.reduceat(cand, first)
        hits = np.flatnonzero(cand == np.repeat(top, np.diff(first, append=len(v))))
        child = v[hits[np.searchsorted(hits, first)]]  # the first maximum of each group
        del cand, hits, v, first
        mine = best[owner]
        take = (top > mine) | (top == mine) & (child < arg[owner])
        best[owner[take]], arg[owner[take]] = top[take], child[take]
    arg[~(best > 0)] = -1
    return arg


@dataclass
class SqueezeResult:
    """Per-directed-edge bounds valid for every boundary condition (views over two sweeps)."""

    k: int
    lower: Mapping
    upper: Mapping
    certified: Mapping


def _extremal_sweeps(g: WeightedGraph, k: int, weights=None) -> tuple[EdgeMap, EdgeMap]:
    """Messages under the all-zero and the all-top boundary, oriented and ordered by depth once.

    Without boundary vertices the two sweeps are the same sweep, run once.
    """
    oriented = _orient_forest(g, avoid=g.boundary)
    if g.n >= _ARRAY_MIN:
        oriented += (_levels(*oriented[:2]),)
    lo = _sweep(g, k, dict.fromkeys(g.boundary, ZERO), oriented, weights)
    if not g.boundary:
        return lo, lo
    hi = _sweep(g, k, dict.fromkeys(g.boundary, top_msg(k)), oriented, weights)
    return lo, hi


def squeeze(g: WeightedGraph, k: int) -> SqueezeResult:
    """Extremal all-zero / all-top sweeps and per-edge certification.

    One application of the recursion reverses the boundary order, so for
    each directed edge the two extremal sweeps bracket the message under
    *every* boundary condition; equality certifies independence from the
    exterior.
    """
    lo, hi = _extremal_sweeps(g, k)
    return SqueezeResult(
        k=k,
        lower=_PairView(lo, hi, min),
        upper=_PairView(lo, hi, max),
        certified=_PairView(lo, hi, lambda a, b: a == b),
    )


def macroscopic_squeeze(g: WeightedGraph) -> tuple[Mapping, Mapping]:
    """(levels, certified) from the two extremal level sweeps.

    The levels are the level parts of the k = 1 extremal sweeps with every
    weight set to zero, i.e. the weightless recursion
    level(u, v) = max(0, max_{u' ~ v, u' != u} (1 - level(v, u'))) with
    constant boundary level 0 or 1.  Both are read-only mappings keyed
    (u, v): the all-zero level, and whether the two extremal levels agree.
    """
    lo, hi = _extremal_sweeps(g, 1, [0.0] * g.m)
    return _PairView(lo, hi, lambda a, b: a[0]), _PairView(lo, hi, lambda a, b: a[0] == b[0])


def classify_edge(levels: Mapping, certified: Mapping, u: int, v: int) -> str:
    """Class of edge uv from its certified directed levels (single-jump regime).

    The edge is mandatory iff the two directed levels sum below 1, blocking
    iff above 1, free iff exactly 1; an edge with an uncertified direction
    is "unknown", never guessed.
    """
    a, b = levels.get((u, v)), levels.get((v, u))
    if not (certified.get((u, v)) and certified.get((v, u))) or a is None or b is None:
        return UNKNOWN
    s = a + b
    return MANDATORY if s < 1 else BLOCKING if s > 1 else FREE


def classify_edges_from_levels(g: WeightedGraph, levels: Mapping, certified: Mapping) -> dict:
    """classify_edge for every edge of g."""
    return {(u, v): classify_edge(levels, certified, u, v) for u, v in g.edges()}


def scalar_sweep_eps(g: WeightedGraph, eps: float):
    """One-dimensional sweep for weights 1 + eps*w and its matching.

    Z(u, v) = max(0, max_{u' ~ v} (1 + eps*w(v,u') - Z(v, u'))) with the
    inclusion rule 1 + eps*w(u,v) > Z(u,v) + Z(v,u); Z is the z part of
    the k = 0 message sweep on the weights 1 + eps*w.  Returns (Z, matching)
    with Z a read-only mapping keyed (u, v).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    weps = [1.0 + eps * w for w in g.w]
    msgs = _sweep(g, 0, {}, weights=weps)
    n, z = g.n, msgs.z
    chosen = [e for v, p, e in zip(range(n), msgs.parent, msgs.pe) if p >= 0 and z[v] + z[n + v] < weps[e]]
    return _PairView(msgs, msgs, lambda a, b: a[1]), Matching(g, chosen)
