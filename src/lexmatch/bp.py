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

A forest's directed edge is fixed by its child endpoint v, so a sweep
stores its messages in two lists indexed by vertex; every directed-edge
mapping returned here is a view keyed (u, v) over such lists, not a dict.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass

from .exact import BLOCKING, FREE, MANDATORY, Matching, _orient_forest
from .randgraph import WeightedGraph

__all__ = [
    "ZERO",
    "top_msg",
    "FieldInconsistencyError",
    "EdgeMap",
    "MessageField",
    "SqueezeResult",
    "sweep_tree",
    "extract_matching",
    "sweep_bounded",
    "squeeze",
    "macroscopic_squeeze",
    "classify_edge",
    "classify_edges_from_levels",
    "scalar_sweep_eps",
    "UNKNOWN",
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

    up[v] is msg(parent(v), v) and down[v] is msg(v, parent(v)).  Keys run
    in BFS order, (p, v) then (v, p) for each non-root v.  A write is
    allowed only on an existing edge key and lands in the lists.
    """

    __slots__ = ("parent", "order", "up", "down")

    def __init__(self, parent: list, order: list, up: list, down: list):
        self.parent, self.order, self.up, self.down = parent, order, up, down

    def _locate(self, key) -> tuple[list, int]:
        u, v = key
        parent = self.parent
        # range first: a negative index would read a list from its end
        if 0 <= u < len(parent) and 0 <= v < len(parent):
            if parent[v] == u:
                return self.up, v
            if parent[u] == v:
                return self.down, u
        raise KeyError(key)

    def __getitem__(self, key):
        msgs, i = self._locate(key)
        return msgs[i]

    def __setitem__(self, key, value):
        msgs, i = self._locate(key)
        msgs[i] = value

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
        msgs, i = lo._locate(key)  # the two sweeps share one orientation
        return self.op(msgs[i], (hi.up if msgs is lo.up else hi.down)[i])

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
    _orient_forest(g, avoid=pinned) and `weights` replaces g.weights.
    """
    parent, order = oriented or _orient_forest(g, avoid=frozenset(pinned))
    if weights is None:
        weights = g.weights
    adjacency = g.adjacency
    n = g.n
    pw = [0.0] * n  # weight of the edge (v, parent(v))
    # upward pass: the running maxima top1 >= top2 of the candidates at
    # each vertex (arg = the child giving top1) start at (0, 0); once v's
    # children are in, top1[v] is msg(parent(v), v), or v's pin, and its
    # candidate (k, pw[v]) - top1[v] is pushed into the parent's maxima
    top1 = [ZERO] * n
    top2 = [ZERO] * n
    arg = [-1] * n
    for v in reversed(order):
        p = parent[v]
        if v in pinned:
            # in a forest, v has children iff it has a neighbour besides p
            if len(adjacency[v]) > (p >= 0):
                raise FieldInconsistencyError(f"pinned boundary vertex {v} has interior children")
            msg = top1[v] = pinned[v]
        else:
            msg = top1[v]
        if p < 0:
            continue
        w = pw[v] = weights[(p, v) if p < v else (v, p)]
        cand = (k - msg[0], w - msg[1])
        if cand > top1[p]:
            top2[p] = top1[p]
            top1[p], arg[p] = cand, v
        elif cand > top2[p]:
            top2[p] = cand
    up = top1.copy()  # msg(parent(v), v), pins included

    # downward pass in BFS order: when v is reached, its parent's maxima
    # already hold every candidate at the parent, the grandparent's
    # included, so msg(v, parent(v)) is the parent's top2 if v gives its
    # top1 and its top1 otherwise; unless v is a leaf, v's candidate from
    # its parent is then merged into v's maxima (arg -1) for v's children
    # (a pinned vertex is a leaf, so its top1 keeps the pin)
    down = [ZERO] * n
    for v in order:
        p = parent[v]
        if p < 0:
            continue
        msg = down[v] = top2[p] if arg[p] == v else top1[p]
        if len(adjacency[v]) == 1:
            continue
        cand = (k - msg[0], pw[v] - msg[1])
        if cand > top1[v]:
            top2[v] = top1[v]
            top1[v], arg[v] = cand, -1
        elif cand > top2[v]:
            top2[v] = cand
    return EdgeMap(parent, order, up, down)


def sweep_tree(g: WeightedGraph, k: int) -> MessageField:
    """Exact messages on a finite forest (no boundary conditions).

    On finite forests the message (u, v) coincides with the componentwise
    marginal gain (delta size, delta weight) of letting v be matched
    inside its subtree, so extraction reproduces the lexicographic
    optimum for any k >= 1.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
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
    assumes atomless weights.
    """
    k = field.k
    messages = field.messages
    parent, up, down = messages.parent, messages.up, messages.down
    weights = g.weights
    chosen = []
    matched_of = [None] * g.n
    # edge rule, one edge per child vertex v with parent p:
    # (level, z) of msg(p,v) + msg(v,p) < (k, w)
    for v, p in enumerate(parent):
        if p < 0:
            continue
        a, b = up[v], down[v]
        e = (p, v) if p < v else (v, p)
        level = a[0] + b[0]
        if level < k or (level == k and a[1] + b[1] < weights[e]):
            if matched_of[p] is not None or matched_of[v] is not None:
                raise FieldInconsistencyError("edge rule selected incident edges")
            chosen.append(e)
            matched_of[p] = v
            matched_of[v] = p
    chosen.sort()  # ascending, so the matching's weight sums in edge order

    # vertex rule: u matched to argmax of (k, w(u,v)) - msg(u, v) when > (0,0).
    # Pinned boundary vertices are skipped: their exterior candidates are
    # invisible here, and the edge rule already accounts for them through
    # the pinned message.
    pinned = field.boundary_spec
    for u, nb in enumerate(g.adjacency):
        if u in pinned:
            continue
        p = parent[u]
        best_level, best_z, arg = 0, 0.0, None
        for v in nb:
            level, z = down[u] if v == p else up[v]  # msg(u, v)
            level = k - level
            if level < best_level:
                continue
            z = weights[(u, v) if u < v else (v, u)] - z
            if level > best_level or z > best_z:
                best_level, best_z, arg = level, z, v
        if matched_of[u] != arg:
            raise FieldInconsistencyError(
                f"vertex rule ({u} -> {arg}) disagrees with edge rule "
                f"({u} -> {matched_of[u]})"
            )
    return Matching.from_edges(g, chosen)


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
    lo, hi = _extremal_sweeps(g, 1, dict.fromkeys(g.weights, 0.0))
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
    weps = {e: 1.0 + eps * w for e, w in g.weights.items()}
    msgs = _sweep(g, 0, {}, weights=weps)
    up, down = msgs.up, msgs.down
    edges = (((p, v) if p < v else (v, p), v) for v, p in enumerate(msgs.parent) if p >= 0)
    chosen = sorted(e for e, v in edges if up[v][1] + down[v][1] < weps[e])
    return _PairView(msgs, msgs, lambda a, b: a[1]), Matching.from_edges(g, chosen)
