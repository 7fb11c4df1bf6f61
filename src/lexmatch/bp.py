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
in two lists indexed by vertex, no tuple per message; every
directed-edge mapping returned here is a view keyed (u, v) over them.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass

from .exact import BLOCKING, FREE, MANDATORY, Matching, _orient_forest
from .randgraph import WeightedGraph

__all__ = [
    "ZERO", "top_msg", "FieldInconsistencyError", "EdgeMap", "MessageField", "SqueezeResult",
    "sweep_tree", "extract_matching", "sweep_bounded", "squeeze", "macroscopic_squeeze",
    "classify_edge", "classify_edges_from_levels", "scalar_sweep_eps", "UNKNOWN",
]

ZERO = (0, 0.0)
UNKNOWN = "unknown"


def top_msg(k: int):
    """Boundary value forcing the edge out of the matching."""
    return (k, float("inf"))


class FieldInconsistencyError(AssertionError):
    """Edge rule and vertex rule disagreed on a supposedly valid field."""


class EdgeMap(MutableMapping):
    """Messages on the directed edges of an oriented forest, keyed (u, v).

    With n = len(parent), msg(parent(v), v) is (level[v], z[v]) and
    msg(v, parent(v)) is (level[n + v], z[n + v]); parent, order and pe
    (the edge to the parent) come from _orient_forest.  Keys run in BFS
    order, (p, v) then (v, p) for each non-root v.  A write is allowed
    only on an existing edge key and lands in the lists.
    """

    __slots__ = ("parent", "order", "pe", "level", "z")

    def __init__(self, parent, order, pe, level: list, z: list):
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

    def __setitem__(self, key, value):
        i = self._locate(key)
        self.level[i], self.z[i] = value

    def __delitem__(self, key):
        raise TypeError("directed-edge messages cannot be deleted")

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
    """Messages of a forest (an EdgeMap, writable on edge keys) plus boundary bookkeeping."""

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


def _sweep(g: WeightedGraph, k: int, pinned: dict, oriented=None, weights=None) -> EdgeMap:
    """Two-pass computation of all directed-edge messages, as an EdgeMap.

    pinned maps a boundary vertex b to the exogenous message (parent(b), b);
    pinned vertices must not have children inside g (true for radius
    boundaries of tree balls).  `oriented` is a precomputed
    _orient_forest(g, avoid=pinned) and `weights`, indexed by edge id,
    replaces g.w.  Messages (level, z) are compared lexicographically.
    Every sweep of this module runs here, so k >= 0 is checked here once.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    parent, order, pe = oriented or _orient_forest(g, avoid=frozenset(pinned))
    if weights is None:
        weights = g.w
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
    "top" | (level, z)}; sampled conditions come from a pluggable source
    (e.g. rde.ZetaSampler draws).
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
    chosen edges, each the parent edge of its child endpoint.
    """
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

    # vertex rule: u matched to argmax of (k, w(u,v)) - msg(u, v) when > (0,0).
    # Pinned boundary vertices are skipped: their exterior candidates are
    # invisible here, and the edge rule already accounts for them through
    # the pinned message.
    pinned = field.boundary_spec
    for u in range(n):
        if u in pinned:
            continue
        p = parent[u]
        best_level, best_z, arg = 0, 0.0, None
        for v, e in zip(*g.incident(u)):
            i = n + u if v == p else v  # msg(u, v)
            lv = k - level[i]
            if lv < best_level:
                continue
            zv = weights[e] - z[i]
            if lv > best_level or zv > best_z:
                best_level, best_z, arg = lv, zv, v
        if matched_of[u] != arg:
            raise FieldInconsistencyError(
                f"vertex rule ({u} -> {arg}) disagrees with edge rule "
                f"({u} -> {matched_of[u]})"
            )
    return Matching(g, chosen)


@dataclass
class SqueezeResult:
    """Per-directed-edge bounds valid for every boundary condition (views over two sweeps)."""

    k: int
    lower: Mapping
    upper: Mapping
    certified: Mapping


def _extremal_sweeps(g: WeightedGraph, k: int, weights=None) -> tuple[EdgeMap, EdgeMap]:
    """Messages under the all-zero and the all-top boundary, oriented once.

    Without boundary vertices the two sweeps are the same sweep, run once.
    """
    oriented = _orient_forest(g, avoid=g.boundary)
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
