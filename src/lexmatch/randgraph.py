"""Random graph and tree generation, weights, balls and serialization.

Graphs are finite, simple and undirected, stored as sorted adjacency
lists plus a symmetric edge-weight map, with either a vertex root or a
directed-edge root.  Truncated objects (depth-limited branching trees,
radius-H balls) carry their boundary vertex set so that downstream
message passing can apply boundary conditions there.

All generators are pure functions of (parameters, seed): the counter
based Philox generator keyed by (seed, stream) makes parallel replicas
reproducible without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .genfn import OffspringLaw

__all__ = [
    "GraphError",
    "RngSeed",
    "VertexRoot",
    "EdgeRoot",
    "WeightedGraph",
    "WeightLaw",
    "parse_weight_law",
    "erdos_renyi",
    "configuration_model",
    "ubgw_tree",
    "assign_weights",
    "ball",
    "graph_to_text",
    "graph_from_text",
]


class GraphError(ValueError):
    """Invalid graph construction or malformed serialized input."""


@dataclass(frozen=True)
class RngSeed:
    """Reproducible generator key: identical (seed, stream) gives identical draws."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "RngSeed":
        """Derived stream for replica `index`; never collides with self."""
        return RngSeed(self.seed, self.stream * 1_000_003 + index + 1)


@dataclass(frozen=True)
class VertexRoot:
    vertex: int


@dataclass(frozen=True)
class EdgeRoot:
    u: int
    v: int


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class WeightedGraph:
    """Simple rooted graph with symmetric real edge weights.

    adjacency[i] is the sorted tuple of neighbours of i; weights maps the
    sorted pair (u, v) to its weight.  `boundary` holds the truncation
    frontier of depth-limited constructions (empty for whole graphs).
    Instances are immutable; derive modified copies via dataclasses.replace.
    """

    n: int
    adjacency: tuple
    weights: dict
    root: object
    boundary: frozenset = frozenset()

    def __post_init__(self):
        if isinstance(self.root, VertexRoot):
            if not (0 <= self.root.vertex < max(self.n, 1)):
                raise GraphError(f"root vertex {self.root.vertex} not in graph")
        elif isinstance(self.root, EdgeRoot):
            key = _edge_key(self.root.u, self.root.v)
            if key not in self.weights:
                raise GraphError(f"root edge {key} not in graph")
        else:
            raise GraphError(f"unsupported root {self.root!r}")

    @property
    def m(self) -> int:
        return len(self.weights)

    def edges(self):
        return sorted(self.weights.keys())

    def weight(self, u: int, v: int) -> float:
        return self.weights[_edge_key(u, v)]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def root_vertex(self) -> int:
        return self.root.vertex if isinstance(self.root, VertexRoot) else self.root.u


def _build(n, edge_weights, root, boundary=frozenset()) -> WeightedGraph:
    adj = [[] for _ in range(n)]
    weights = {}
    for (u, v), w in edge_weights.items():
        if u == v:
            raise GraphError(f"self-loop on vertex {u}")
        key = _edge_key(u, v)
        if key in weights:
            raise GraphError(f"duplicate edge {key}")
        weights[key] = float(w)
        adj[u].append(v)
        adj[v].append(u)
    return WeightedGraph(
        n=n,
        adjacency=tuple(tuple(sorted(nb)) for nb in adj),
        weights=weights,
        root=root,
        boundary=frozenset(boundary),
    )


# ----------------------------------------------------------------------
# weight laws
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WeightLaw:
    """Edge-weight distribution: Uniform(a, b), Exponential(rate) or Constant(v).

    Uniform and Exponential are atomless; Constant exists for oracle tests
    that exercise deterministic tie-breaking.
    """

    family: str
    params: tuple

    @staticmethod
    def uniform(a: float = 0.0, b: float = 1.0) -> "WeightLaw":
        if not b > a:
            raise GraphError("uniform law needs b > a")
        return WeightLaw("uniform", (float(a), float(b)))

    @staticmethod
    def exponential(rate: float = 1.0) -> "WeightLaw":
        if not rate > 0:
            raise GraphError("exponential rate must be positive")
        return WeightLaw("exponential", (float(rate),))

    @staticmethod
    def constant(v: float) -> "WeightLaw":
        return WeightLaw("constant", (float(v),))

    @property
    def atomless(self) -> bool:
        return self.family != "constant"

    @property
    def mean(self) -> float:
        if self.family == "uniform":
            a, b = self.params
            return 0.5 * (a + b)
        if self.family == "exponential":
            return 1.0 / self.params[0]
        return self.params[0]

    def support(self) -> tuple[float, float]:
        if self.family == "uniform":
            return self.params
        if self.family == "exponential":
            return (0.0, math.inf)
        v = self.params[0]
        return (v, v)

    def cdf(self, t):
        ta = np.asarray(t, dtype=float)
        if self.family == "uniform":
            a, b = self.params
            out = np.clip((ta - a) / (b - a), 0.0, 1.0)
        elif self.family == "exponential":
            out = np.where(ta > 0, 1.0 - np.exp(-self.params[0] * np.maximum(ta, 0.0)), 0.0)
        else:
            out = np.where(ta >= self.params[0], 1.0, 0.0)
        return out if np.ndim(t) else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        if self.family == "uniform":
            a, b = self.params
            return rng.uniform(a, b, size)
        if self.family == "exponential":
            return rng.exponential(1.0 / self.params[0], size)
        v = self.params[0]
        return np.full(size, v) if size is not None else v

    def spec_string(self) -> str:
        if self.family == "uniform":
            return f"uniform:{self.params[0]:g}:{self.params[1]:g}"
        if self.family == "exponential":
            return f"exp:{self.params[0]:g}"
        return f"const:{self.params[0]:g}"


def parse_weight_law(text: str) -> WeightLaw:
    """Parse a weight spec: uniform:0:1, exp:1.0, const:1.0."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind in ("uniform", "unif") and len(parts) == 3:
            return WeightLaw.uniform(float(parts[1]), float(parts[2]))
        if kind in ("uniform", "unif") and len(parts) == 1:
            return WeightLaw.uniform()
        if kind in ("exp", "exponential") and len(parts) == 2:
            return WeightLaw.exponential(float(parts[1]))
        if kind in ("const", "constant") and len(parts) == 2:
            return WeightLaw.constant(float(parts[1]))
    except (TypeError, ValueError) as exc:
        raise GraphError(f"cannot parse weight spec {text!r}: {exc}") from exc
    raise GraphError(f"unknown weight spec {text!r}")


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def erdos_renyi(n: int, c: float, seed: RngSeed) -> WeightedGraph:
    """G(n, c/n) with a uniform random vertex root and zero-initialised weights.

    Uses geometric edge skipping, so the cost is O(n + m) rather than O(n^2).
    """
    if n < 1:
        raise GraphError("n must be >= 1")
    if not (0 < c < n) and n > 1:
        raise GraphError(f"need 0 < c < n, got c={c}, n={n}")
    rng = seed.generator()
    p = c / n if n > 1 else 0.0
    edge_weights = {}
    if p > 0.0:
        # geometric skipping over the lower triangle: O(n + m)
        lq = math.log1p(-p)
        v, w = 1, -1
        while v < n:
            r = rng.random()
            w = w + 1 + int(math.log1p(-r) / lq)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                edge_weights[(w, v)] = 0.0
    root = VertexRoot(int(rng.integers(0, n)))
    return _build(n, edge_weights, root)


def configuration_model(degrees, seed: RngSeed) -> WeightedGraph:
    """Uniform half-edge pairing with multi-edges and self-loops erased.

    An odd degree sum is padded by adding one half-edge to the last vertex.
    """
    degs = [int(d) for d in degrees]
    if any(d < 0 for d in degs):
        raise GraphError("degrees must be non-negative")
    n = len(degs)
    if n == 0:
        raise GraphError("need at least one vertex")
    if sum(degs) % 2 == 1:
        degs[-1] += 1
    rng = seed.generator()
    stubs = np.repeat(np.arange(n), degs)
    perm = rng.permutation(len(stubs))
    stubs = stubs[perm]
    edge_weights = {}
    for i in range(0, len(stubs) - 1, 2):
        u, v = int(stubs[i]), int(stubs[i + 1])
        if u != v:
            edge_weights[_edge_key(u, v)] = 0.0
    root = VertexRoot(int(rng.integers(0, n)))
    return _build(n, edge_weights, root)


def ubgw_tree(law: OffspringLaw, rooting: str, depth: int, seed: RngSeed) -> WeightedGraph:
    """Unimodular branching tree truncated at graph distance `depth`.

    rooting="vertex": the root draws its child count from pi and every
    deeper vertex from the excess law.  rooting="edge": two independent
    excess-law trees joined by the root edge (vertices 0 and 1), each
    truncated at distance `depth` from its endpoint.  The vertices at
    distance exactly `depth` form the recorded boundary.

    Vertices are numbered in BFS order, the children of each vertex
    consecutively, and every non-boundary vertex draws its child count
    when it leaves the queue.  Each neighbour list is therefore sorted by
    construction (the parent first, then the children in ascending
    order), and the edges (parent, child) enter `weights` in sorted order,
    all with weight 0.0.
    """
    if depth < 0:
        raise GraphError("depth must be >= 0")
    rng = seed.generator()
    if rooting == "vertex":
        root_obj = VertexRoot(0)
        nbrs = [[]]
        weights = {}
        level = range(1)
    elif rooting == "edge":
        # the endpoints behave like non-root vertices: excess-law children
        root_obj = EdgeRoot(0, 1)
        nbrs = [[1], [0]]
        weights = {(0, 1): 0.0}
        level = range(2)
    else:
        raise GraphError(f"rooting must be 'vertex' or 'edge', got {rooting!r}")

    for d in range(depth):
        draw = law.sample if d == 0 and rooting == "vertex" else law.sample_excess
        start = end = len(nbrs)
        for v in level:
            k = int(draw(rng))
            if k:
                kids = range(end, end + k)
                end += k
                nbrs[v].extend(kids)
                for c in kids:
                    nbrs.append([v])
                    weights[(v, c)] = 0.0
        level = range(start, end)
        if not level:
            break

    return WeightedGraph(
        n=len(nbrs),
        adjacency=tuple(map(tuple, nbrs)),
        weights=weights,
        root=root_obj,
        boundary=frozenset(level),
    )


def assign_weights(g: WeightedGraph, law: WeightLaw, seed: RngSeed) -> WeightedGraph:
    """Replace all edge weights by i.i.d. draws from `law`.

    Draws are assigned in sorted edge order, so the result is a pure
    function of (graph, law, seed).  Ties under atomic laws are broken
    downstream by canonical edge order.
    """
    rng = seed.generator()
    keys = sorted(g.weights)
    draws = law.sample(rng, len(keys)).tolist() if keys else []
    return WeightedGraph(
        n=g.n,
        adjacency=g.adjacency,
        weights=dict(zip(keys, draws)),
        root=g.root,
        boundary=g.boundary,
    )


# ----------------------------------------------------------------------
# balls
# ----------------------------------------------------------------------


def _bfs_depths(g: WeightedGraph, center: int, H: int):
    depth = {center: 0}
    order = [center]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        if depth[v] == H:
            continue
        for w in g.adjacency[v]:
            if w not in depth:
                depth[w] = depth[v] + 1
                order.append(w)
    return depth, order


def ball(g: WeightedGraph, center: int, H: int) -> WeightedGraph:
    """Induced subgraph on vertices within distance H, rerooted at `center`.

    Vertices are relabelled in BFS discovery order (center becomes 0), so
    taking the ball twice is the identity.  The vertices at distance
    exactly H are recorded as the boundary.
    """
    if not (0 <= center < g.n):
        raise GraphError(f"center {center} not in graph")
    if H < 0:
        raise GraphError("H must be >= 0")
    depth, order = _bfs_depths(g, center, H)
    relabel = {old: new for new, old in enumerate(order)}
    edge_weights = {}
    for (u, v), w in g.weights.items():
        if u in relabel and v in relabel:
            edge_weights[_edge_key(relabel[u], relabel[v])] = w
    boundary = [relabel[v] for v in order if depth[v] == H]
    return _build(len(order), edge_weights, VertexRoot(0), boundary)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def graph_to_text(g: WeightedGraph) -> str:
    """Edge-list text format; weights at 17 significant digits round-trip bit-exactly."""
    if isinstance(g.root, VertexRoot):
        root_txt = f"vertex:{g.root.vertex}"
    else:
        root_txt = f"edge:{g.root.u},{g.root.v}"
    lines = [f"lexmatch-graph v1 n={g.n} m={g.m} root={root_txt}"]
    for u, v in g.edges():
        lines.append(f"{u} {v} {g.weights[(u, v)]:.17g}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> WeightedGraph:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("lexmatch-graph v1 "):
        raise GraphError("missing lexmatch-graph v1 header")
    try:
        header = dict(tok.split("=", 1) for tok in lines[0].split()[2:])
        n = int(header["n"])
        m = int(header["m"])
        kind, ids = header["root"].split(":", 1)
        root = {"vertex": VertexRoot, "edge": EdgeRoot}[kind](*map(int, ids.split(",")))
    except (KeyError, ValueError, TypeError) as exc:
        raise GraphError(f"malformed header: {lines[0]!r}") from exc
    if n < 1:
        raise GraphError(f"header claims n={n}; need at least one vertex")
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
        edge_weights[_edge_key(u, v)] = w
    if len(edge_weights) != m:
        raise GraphError(f"header claims m={m}, found {len(edge_weights)} edges")
    return _build(n, edge_weights, root)
