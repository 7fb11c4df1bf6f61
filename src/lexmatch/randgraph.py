"""Random graph and tree generation, weights, balls and serialization.

Graphs are finite, simple and undirected, stored as sorted adjacency
lists plus a symmetric edge-weight map, with either a vertex root or a
directed-edge root.  Truncated objects (depth-limited branching trees,
radius-H balls) carry their boundary vertex set so that downstream
message passing can apply boundary conditions there.

All generators are pure functions of (parameters, seed).  A seed is
(seed, stream, path): Philox keyed by SeedSequence(seed, spawn key
(stream, *path)), so distinct paths give distinct streams without shared state.
`RngSeed.children` keys a block of children in one vectorised pass of that hash.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from itertools import islice, repeat

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


# SeedSequence's hash constants (numpy.random.bit_generator, pool size 4)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _hashmix(value, init: int, mult: int, calls: int):
    """SeedSequence's hash steps calls + 1..calls + 4 from init, step calls + d + 1 on uint64 lane d."""
    c = np.array([[init * pow(mult, calls + d, 2**32) & _MASK] for d in range(5)], dtype=np.uint64)
    value = (value ^ c[:4]) * c[1:] & _MASK
    return value ^ value >> 16


@functools.cache
def _fixed_key() -> type:
    """The ISeedSequence of one given Philox key, defined on first use: numpy.random loads lazily."""
    @dataclass(frozen=True)
    class FixedKey(np.random.bit_generator.ISeedSequence):
        key: np.ndarray

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return FixedKey


@dataclass(frozen=True)
class RngSeed:
    """Reproducible generator key (seed, stream, path); identical keys draw identically.

    `child(i)` appends i to the path.  Distinct keys give distinct streams:
    the spawn key is (stream, *path), one 32-bit word per path entry.
    `children` keys a block of them in one vectorised hash pass; `key` is never compared.
    """

    seed: int
    stream: int = 0
    path: tuple = ()
    key: np.ndarray | None = field(default=None, compare=False, repr=False)

    def generator(self) -> np.random.Generator:
        if self.key is not None:
            return np.random.Generator(np.random.Philox(_fixed_key()(self.key)))
        # one uint32 array holds the words of (stream, *path); numpy converts it at once
        key = np.array((self.stream, *self.path), dtype=np.uint32)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "RngSeed":
        """The stream at path + (index,); distinct from self and from every other child."""
        if not 0 <= index < 2**32:
            raise GraphError(f"child index must be in [0, 2**32), got {index}")
        return RngSeed(self.seed, self.stream, self.path + (index,))

    def children(self, start: int, stop: int, tail: tuple = ()) -> list["RngSeed"]:
        """The seeds at path + (i, *tail) for i in [start, stop), each carrying its Philox key.

        The prefix (stream, *path) is hashed once; i, *tail are mixed in for all i at once."""
        words = (self.stream, *self.path, *tail)
        if not all(0 <= w < 2**32 for w in words) or start < stop and not 0 <= start < stop <= 2**32:
            raise GraphError(f"spawn-key words must be in [0, 2**32), got {words}, [{start}, {stop})")
        pool = np.random.SeedSequence(self.seed, spawn_key=((self.stream, *self.path),)).pool
        # the prefix's E words took 4 * E hash steps: 4 filled the pool, 12 mixed it, 4 per word past it
        calls = 4 * (max(4, -(-int(self.seed).bit_length() // 32)) + 1 + len(self.path))
        pool = pool.astype(np.uint64)[:, None]
        for word in (np.arange(start, stop, dtype=np.uint64), *tail):
            mixed = pool * _MIX_L - _hashmix(word, _INIT_A, _MULT_A, calls) * _MIX_R & _MASK
            pool, calls = mixed ^ mixed >> 16, calls + 4
        # generate_state(2, np.uint64) hashes the 4 pool words and pairs them little-endian
        state = _hashmix(pool, _INIT_B, _MULT_B, 0)
        keys = (state[0::2] | state[1::2] << 32).T
        paths = (self.path + (i, *tail) for i in range(start, stop))
        return [RngSeed(self.seed, self.stream, path, key) for path, key in zip(paths, keys)]


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


def _adjacency(n: int, lo, hi, heads: list) -> tuple:
    """Sorted neighbour tuples of the graph on range(n) whose i-th edge is lo[i] -- hi[i].

    lo and hi are int64 arrays of m ids; heads is hi then lo as a list
    of Python ints, the head of each directed edge, and the tuples hold
    those objects, so a graph shares one int per edge end with its weight
    keys.  Sorting the int64 keys tail * n + head orders the directed
    edges by tail, then head (n**2 < 2**63 for any n whose tuples fit in
    memory).
    """
    tails = np.concatenate((lo, hi))
    order = np.argsort(tails * n + np.concatenate((hi, lo)))
    nbrs = iter(np.array(heads, dtype=object)[order].tolist())
    return tuple([tuple(islice(nbrs, d)) for d in np.bincount(tails, minlength=n).tolist()])


def _from_arrays(n, lo, hi, weights, root) -> WeightedGraph:
    """The graph whose i-th edge is (lo[i], hi[i]), lo < hi, with the i-th of `weights`."""
    los, his = lo.tolist(), hi.tolist()
    return WeightedGraph(
        n=n,
        adjacency=_adjacency(n, lo, hi, his + los),
        weights=dict(zip(zip(los, his), weights)),
        root=root,
    )


def _first_last(lo, hi):
    """First and last index of each distinct pair (lo[i], hi[i]), in order of first occurrence."""
    order = np.lexsort((hi, lo))  # stable: equal pairs keep their input order
    a, b = lo[order], hi[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    is_last = np.ones(len(order), dtype=bool)
    is_last[:-1] = new[1:]
    first, last = order[new], order[is_last]
    by_first = np.argsort(first)
    return first[by_first], last[by_first]


def _build(n, edge_weights, root, boundary=frozenset()) -> WeightedGraph:
    weights = {}
    for (u, v), w in edge_weights.items():
        if u == v:
            raise GraphError(f"self-loop on vertex {u}")
        key = _edge_key(u, v)
        if key in weights:
            raise GraphError(f"duplicate edge {key}")
        weights[key] = float(w)
    los, his = [u for u, _ in weights], [v for _, v in weights]
    lo, hi = np.array(los, dtype=np.int64), np.array(his, dtype=np.int64)
    return WeightedGraph(
        n=n,
        adjacency=_adjacency(n, lo, hi, his + los),
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
        if not (math.isfinite(a) and math.isfinite(b) and b > a):
            raise GraphError(f"uniform law needs finite a < b, got {a:g}, {b:g}")
        return WeightLaw("uniform", (float(a), float(b)))

    @staticmethod
    def exponential(rate: float = 1.0) -> "WeightLaw":
        if not 0 < rate < math.inf:
            raise GraphError(f"exponential rate must be positive and finite, got {rate:g}")
        return WeightLaw("exponential", (float(rate),))

    @staticmethod
    def constant(v: float) -> "WeightLaw":
        if not math.isfinite(v):
            raise GraphError(f"constant weight must be finite, got {v:g}")
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
    kind, arity = parts[0].lower(), len(parts) - 1
    if kind in ("uniform", "unif") and arity in (0, 2):
        make = WeightLaw.uniform
    elif kind in ("exp", "exponential") and arity == 1:
        make = WeightLaw.exponential
    elif kind in ("const", "constant") and arity == 1:
        make = WeightLaw.constant
    else:
        raise GraphError(f"unknown weight spec {text!r}")
    try:
        params = [float(x) for x in parts[1:]]
    except ValueError as exc:
        raise GraphError(f"cannot parse weight spec {text!r}: {exc}") from exc
    return make(*params)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


# uniforms per block of the Erdos-Renyi skip scan: bounds its working memory
_SKIP_BLOCK = 1 << 14


def _skip_scan(rng: np.random.Generator, p: float, cells: int) -> np.ndarray:
    """Ascending indices of the cells in range(cells) that a geometric skip scan keeps.

    Each cell is kept independently with probability p > 0.  The scan
    moves 1 + floor(log1p(-r) / log1p(-p)) cells per uniform r and ends at
    the first skip that reaches past the cells left, so it uses one
    uniform per kept cell plus that last one.  Blocks of at most
    _SKIP_BLOCK uniforms are drawn with rng.random(size), the same stream
    as scalar calls; rng is then rewound and advanced by exactly the
    uniforms used, so the draws that follow do not depend on the blocking.
    The skips use math.log1p: np.log1p differs from it in the last bit on
    some inputs, which could move a kept cell.  Exact while cells < 2**53.
    """
    lq = math.log1p(-p)
    state = rng.bit_generator.state
    kept, used, last = [], 0, -1
    while True:
        left = cells - 1 - last
        mean = p * left
        # steps are at most left + 1, so the cumulative sum stays inside int64
        size = max(1, min(_SKIP_BLOCK, int(mean + 4 * math.sqrt(mean)) + 16, 2**62 // (left + 1)))
        r = rng.random(size)
        logs = np.fromiter(map(math.log1p, (-r).tolist()), dtype=float, count=size)
        with np.errstate(over="ignore"):  # a subnormal p overflows the skip to inf
            skips = logs / lq
        # skip < left_i exactly when the cell it reaches is below `cells`
        pos = last + np.cumsum(np.floor(np.minimum(skips, left)).astype(np.int64) + 1)
        end = int(np.searchsorted(pos, cells))
        kept.append(pos[:end])
        used += end
        if end < size:
            break
        last = int(pos[-1])
    rng.bit_generator.state = state
    rng.random(used + 1)
    return np.concatenate(kept)


def erdos_renyi(n: int, c: float, seed: RngSeed) -> WeightedGraph:
    """G(n, c/n) with a uniform random vertex root and zero-initialised weights.

    The cells (w, v), w < v, are scanned row by row (v = 1, 2, ..., and
    w < v within a row) by geometric edge skipping (Batagelj and Brandes
    2005), so the cost is O(n + m) rather than O(n^2), in O(m) memory:
    one vectorised scan (`_skip_scan`), an integer-corrected square root
    that maps each kept cell back to (w, v), and one sort for the
    adjacency.  The generator draws exactly m + 1 uniforms for the scan,
    one per edge and one whose skip ends it (none when c/n rounds to 0),
    then one integer for the root; the edges enter `weights` in scan order.  Each skip is computed
    with math.log1p, because np.log1p differs from it in the last bit on
    some inputs and could move an edge.  So the graph is the one a scalar
    loop over rng.random() gives.
    """
    if n < 1:
        raise GraphError("n must be >= 1")
    if not (0 < c < n) and n > 1:
        raise GraphError(f"need 0 < c < n, got c={c}, n={n}")
    rng = seed.generator()
    p = c / n if n > 1 else 0.0
    # a c/n that underflows to 0 keeps no cell and draws no uniform
    cell = _skip_scan(rng, p, n * (n - 1) // 2) if p > 0.0 else np.empty(0, dtype=np.int64)
    # cell k is (w, v) with v (v - 1) / 2 <= k < v (v + 1) / 2; the float root is off by at most one
    v = ((1.0 + np.sqrt(8.0 * cell + 1.0)) / 2.0).astype(np.int64)
    v -= v * (v - 1) // 2 > cell
    v += v * (v + 1) // 2 <= cell
    w = cell - v * (v - 1) // 2
    root = VertexRoot(int(rng.integers(0, n)))
    return _from_arrays(n, w, v, repeat(0.0), root)


def configuration_model(degrees, seed: RngSeed) -> WeightedGraph:
    """Uniform half-edge pairing with multi-edges and self-loops erased.

    An odd degree sum is padded by adding one half-edge to the last vertex.
    Stubs 2i and 2i + 1 of the permuted stub list form a pair; the kept
    edges enter `weights` in the order of their first pairing.
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
    stubs = stubs[rng.permutation(len(stubs))]
    u, v = stubs[0::2], stubs[1::2]
    keep = u != v
    lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    first, _ = _first_last(lo, hi)
    root = VertexRoot(int(rng.integers(0, n)))
    return _from_arrays(n, lo[first], hi[first], repeat(0.0), root)


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
    """Parse the format `graph_to_text` writes.

    Edge lines are checked as they are parsed into typed buffers, and
    repeated edges are merged by one sort, so the cost is O(m log m).  A
    bad input raises GraphError for the first fault in this order: the
    first bad edge line in file order
    (not three fields, an unparsable number, a vertex id outside
    0..n-1, then a non-finite weight), then an `m=` count that differs
    from the number of distinct edges (an edge listed as `u v` and as
    `v u` is one edge with the weight of its last line), then a
    self-loop.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines:  # the ends of the file stripped as by text.strip(), without copying the text
        lines[0] = lines[0].lstrip()
        lines[-1] = lines[-1].rstrip()
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

    us, vs, ws = array("q"), array("q"), array("d")
    for ln in islice(lines, 1, None):
        try:
            a, b, x = ln.split()
            u, v, w = int(a), int(b), float(x)
        except ValueError as exc:
            raise GraphError(f"malformed edge line {ln!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"vertex id out of range 0..{n - 1} in edge line {ln!r}")
        if not math.isfinite(w):
            raise GraphError(f"non-finite weight in edge line {ln!r}")
        us.append(u)
        vs.append(v)
        ws.append(w)
    u, v, w = np.asarray(us), np.asarray(vs), np.asarray(ws)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    first, last = _first_last(lo, hi)
    lo, hi, w = lo[first], hi[first], w[last]
    if len(lo) != m:
        raise GraphError(f"header claims m={m}, found {len(lo)} edges")
    loops = np.flatnonzero(u == v)
    if loops.size:
        raise GraphError(f"self-loop on vertex {int(u[loops[0]])}")
    return _from_arrays(n, lo, hi, w.tolist(), root)
