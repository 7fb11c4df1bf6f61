"""Two-level lexicographic message passing on trees and truncated balls.

A message on the directed edge (u, v) summarises the component of v away
from u.  Messages are pairs (level, z) compared lexicographically and
satisfy, on every interior directed edge,

    msg(u, v) = maxlex( (0,0), maxlex_{u' ~ v, u' != u} (k, w(v,u')) - msg(v, u') )

where pair arithmetic is componentwise and the maximum of an empty list
is the bottom element (-1, -inf).  A matching is decoded top-down: each
vertex's best child c maximises (k, w(v, c)) - msg(v, c), the first on
ties, and in BFS order a vertex its parent did not take takes its best
child when that candidate exceeds (0, 0).  The upward messages are the LP
dual of the with/without-root program (Bayati, Shah and Sharma 2008), so
this is optimal under any ties, and their levels certify its size.

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
_orient alone picks the form: it orients a forest once and, from
_ARRAY_MIN vertices up, orders it by depth once; every sweep of that
orientation and every decode of its messages read that order.  Forests
without it are swept and decoded one vertex at a time, in lists; the
others a BFS depth at a time, in numpy arrays whose results land in typed
arrays.  The array sweep takes its upward maxima with _lex_reduce, the
segment reduction of rde's population dynamics.
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
# _orient orders forests of this many vertices or more by depth, for the array forms,
# unless they have more than one BFS depth per _ARRAY_MIN // 8 vertices: on Poisson(2)
# trees the two forms cross near 1 000 vertices for the sweep and 800 for sweep and
# decode, and on caterpillars near 105 and 70 vertices per depth (timings in CHANGES.md)
_ARRAY_MIN = 1000


def top_msg(k: int):
    """Boundary value forcing the edge out of the matching."""
    return (k, float("inf"))


class FieldInconsistencyError(AssertionError):
    """A pinned vertex with children, or levels that do not certify the decoded size."""


class EdgeMap(Mapping):
    """Messages on the directed edges of an oriented forest, keyed (u, v), read-only.

    With n = len(parent), msg(parent(v), v) is (level[v], z[v]) and
    msg(v, parent(v)) is (level[n + v], z[n + v]); parent, order, pe (the
    edge to the parent) and levels come from _orient.  Keys run in BFS
    order, (p, v) then (v, p) for each non-root v.  level and z are lists,
    where levels is None, or typed arrays ('q', 'd') of the array sweep,
    so reads give int and float either way.
    """

    __slots__ = ("parent", "order", "pe", "levels", "level", "z")

    def __init__(self, parent, order, pe, levels, level, z):
        self.parent, self.order, self.pe, self.levels = parent, order, pe, levels
        self.level, self.z = level, z

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
    the ranks bounds[d]:bounds[d + 1].  Depths come by pointer jumping
    (Wyllie 1979): depth[v] is v's distance to anc[v], and each round adds
    anc[v]'s own and jumps anc[v] to anc[anc[v]], all vertices at once, so
    ceil(log2(depth + 1)) rounds reach every root.
    """
    parent, order = _ints(parent), _ints(order)
    n = len(order)
    anc = np.append(parent, -1)  # a root's parent -1 reads the last entry: its own, at depth 0
    depth = (anc >= 0).astype(np.int64)
    while anc.max() >= 0:
        depth += depth[anc]
        anc = anc[anc]
    depth = depth[order]
    if depth.max(initial=0) + 1 > max(1, 8 * n // _ARRAY_MIN):
        return None
    vert = order[np.argsort(depth, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(depth))))
    rank = np.full(n + 1, -1)  # a root's parent -1 reads the last entry, -1
    rank[vert] = np.arange(n)
    return vert, rank[parent[vert]], bounds


def _orient(g: WeightedGraph, avoid) -> tuple:
    """_orient_forest(g, avoid) and the forest's _levels, or None for the loops.

    Forests of _ARRAY_MIN vertices or more are ordered by depth, unless
    _levels declines them as too deep; the others are swept and decoded
    in lists, where the order would cost more than it saves.
    """
    parent, order, pe = _orient_forest(g, avoid=avoid)
    return parent, order, pe, _levels(parent, order) if g.n >= _ARRAY_MIN else None


def _sweep(g: WeightedGraph, k: int, pinned: dict, oriented=None, weights=None) -> EdgeMap:
    """Two-pass computation of all directed-edge messages, as an EdgeMap.

    pinned maps a boundary vertex b to the exogenous message (parent(b), b);
    pinned vertices must not have children inside g (true for radius
    boundaries of tree balls).  `oriented` is a precomputed
    _orient(g, pinned), where two sweeps share one, and `weights`, indexed
    by edge id, replaces g.w.  Messages (level, z) are compared
    lexicographically.
    Every sweep of this module runs here, so k >= 0 is checked here once.
    The forest is swept in arrays exactly when the orientation has
    levels; both forms give the same messages.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    parent, order, pe, levels = oriented or _orient(g, frozenset(pinned))
    if weights is None:
        weights = g.w
    if levels is not None:
        return EdgeMap(parent, order, pe, levels, *_array_sweep(parent, order, pe, levels, k, pinned, weights))
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
    return EdgeMap(parent, order, pe, None, level, z)


def _array_sweep(parent, order, pe, levels, k: int, pinned: dict, weights):
    """_sweep's messages (level, z) as typed arrays ('q', 'd'), a BFS depth at a time.

    levels is the forest's _levels, and the working arrays are indexed by
    rank in its order.  Going up, each depth's candidates (k, w) - msg are
    reduced per parent by _lex_reduce into top1, which is msg(parent(v), v)
    at v, and again with the candidates equal to top1 masked out (level
    k + 1 makes them negative) into top2, or top1 where two of them tie:
    the second largest with two (0, 0) added.  Going down, each vertex
    merges the candidate from its parent into those two, and each child v
    reads msg(v, parent(v)) from its parent's pair by one gather: top2 if
    v's candidate equals top1, else top1.  Ties give equal values either
    way, so the messages are the loop's.
    """
    parent, order = _ints(parent), _ints(order)
    vert, up, bounds = levels
    n = len(parent)
    l1, z1, l2, z2 = np.zeros(n, dtype=np.int64), np.zeros(n), np.zeros(n, dtype=np.int64), np.zeros(n)
    pins = {b: pin for b, pin in pinned.items() if 0 <= b < n}
    if pins:
        held = np.zeros(n, dtype=bool)
        held[list(pins)] = True
        # the loop meets the last such child in BFS order first
        bad = np.flatnonzero(held[parent[order]] & (parent[order] >= 0))
        if bad.size:
            p = int(parent[order[bad[-1]]])
            raise FieldInconsistencyError(f"pinned boundary vertex {p} has interior children")
        at = np.flatnonzero(held[vert])  # the pins' ranks
        l1[at], z1[at] = zip(*map(pins.get, vert[at].tolist()))
    kid = up >= 0
    we = np.zeros(n)  # the weight of each vertex's edge to its parent
    we[kid] = np.asarray(weights, dtype=float)[_ints(pe)[vert[kid]]]
    kids = np.bincount(up[kid], minlength=n)  # children per rank
    del kid
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
    """The matching M decoded top-down from the field's messages.

    Without pins its levels certify |M| with no tolerance: y_v is level[v]
    at a non-root and its best candidate's level at a root; y_u + y_v >= k
    on every edge bounds every matching by sum(y) / k, so sum(y) = k |M|
    proves M of maximum size; otherwise FieldInconsistencyError.  Forests
    that _sweep swept in arrays are decoded in arrays, to the same M.
    """
    return Matching(g, _decode(field.messages, field.k, g.w, not field.boundary_spec))


def _decode(msgs: EdgeMap, k: int, weights, certify: bool) -> list:
    """The ids of the edges decoded from msgs, certified by their levels when certify is set."""
    if msgs.levels is not None:
        return _array_decode(msgs, k, weights, certify)
    parent, order, pe, level, z = msgs.parent, msgs.order, msgs.pe, msgs.level, msgs.z
    n = len(parent)
    # (bl, bz) is the best candidate at each vertex above (0, 0), best the child giving it
    bl, bz, best = [0] * n, [0.0] * n, [-1] * n
    for v in order:
        p = parent[v]
        if p >= 0:
            lc, zc = k - level[v], weights[pe[v]] - z[v]
            if lc > bl[p] or lc == bl[p] and zc > bz[p]:
                bl[p], bz[p], best[p] = lc, zc, v
    ids, taken = [], [False] * n  # taken: matched to its parent
    for v in order:
        c = best[v]
        if c >= 0 and not taken[v]:
            ids.append(pe[c])
            taken[c] = True
    if certify:
        y = [level[v] if p >= 0 else bl[v] for v, p in enumerate(parent)]
        for v, p in enumerate(parent):
            if p >= 0 and y[p] + y[v] < k:
                _uncertified(f"y[{p}] + y[{v}] = {y[p] + y[v]} < k = {k}")
        if sum(y) != k * len(ids):
            _uncertified(f"sum(y) = {sum(y)}, not k |M| = {k * len(ids)}")
    return ids


def _uncertified(detail: str):
    raise FieldInconsistencyError(f"levels do not certify a maximum matching ({detail})")


def _array_decode(msgs: EdgeMap, k: int, weights, certify: bool) -> list:
    """_decode in arrays: best children by one reduceat over the BFS order, where each
    vertex's children are consecutive and ascending, then taken a depth of vert at a time."""
    parent, order, pe = _ints(msgs.parent), _ints(msgs.order), _ints(msgs.pe)
    level, z = np.asarray(msgs.level), np.asarray(msgs.z, dtype=float)
    n = len(parent)
    kids = order[parent[order] >= 0]
    cand = np.empty(len(kids), dtype=complex)
    cand.real, cand.imag = k - level[kids], np.asarray(weights, dtype=float)[pe[kids]] - z[kids]
    first = np.flatnonzero(np.diff(parent[kids], prepend=-1))
    top = np.maximum.reduceat(cand, first)
    hits = np.flatnonzero(cand == np.repeat(top, np.diff(first, append=len(kids))))
    good = top > 0
    owner = parent[kids[first[good]]]
    bl, best = np.zeros(n, dtype=np.int64), np.full(n, -1)
    best[owner] = kids[hits[np.searchsorted(hits, first[good])]]  # the first maximum
    bl[owner] = top.real[good]
    taken, chosen = np.zeros(n, dtype=bool), []
    vert, _, bounds = msgs.levels
    for d in range(len(bounds) - 1):
        v = vert[bounds[d] : bounds[d + 1]]
        c = best[v]
        c = c[(c >= 0) & ~taken[v]]
        taken[c] = True
        chosen.append(c)
    ids = pe[np.concatenate(chosen)].tolist()
    if certify:
        y = np.where(parent >= 0, level[:n], bl)
        kid = np.flatnonzero(parent >= 0)
        bad = np.flatnonzero(y[parent[kid]] + y[kid] < k)
        if bad.size:
            v, p = int(kid[bad[0]]), int(parent[kid[bad[0]]])
            _uncertified(f"y[{p}] + y[{v}] = {y[p] + y[v]} < k = {k}")
        if y.sum() != k * len(ids):
            _uncertified(f"sum(y) = {y.sum()}, not k |M| = {k * len(ids)}")
    return ids


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
    oriented = _orient(g, g.boundary)
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

    Z(u, v) = max(0, max_{u' ~ v} (1 + eps*w(v,u') - Z(v, u'))) is the z
    part of the k = 0 message sweep on the weights 1 + eps*w, and the
    matching is decoded from it as extract_matching decodes, unchecked:
    at k = 0 every level is 0 and certifies nothing.  Returns (Z, matching)
    with Z a read-only mapping keyed (u, v).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    weps = [1.0 + eps * w for w in g.w]
    msgs = _sweep(g, 0, {}, weights=weps)
    return _PairView(msgs, msgs, lambda a, b: a[1]), Matching(g, _decode(msgs, 0, weps, False))
