"""Random graph and tree generation, weights, balls and serialization.

Graphs are finite, simple and undirected, stored in typed arrays: the
sorted edges with one weight each, and a CSR index of the directed edges
(a breadth-first tree needs none), with either a vertex root or a
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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, repeat
from types import MappingProxyType

import numpy as np

from .genfn import OffspringLaw

__all__ = [
    "GraphError", "RngSeed", "VertexRoot", "EdgeRoot", "WeightedGraph", "WeightLaw",
    "parse_weight_law", "check_vertices", "erdos_renyi", "configuration_model", "ubgw_tree",
    "assign_weights", "ball", "graph_to_text", "graph_from_text",
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


def _typed(code: str, values) -> array:
    """values as a typed array, 'q' int64 or 'd' float64, written in place without a bytes copy."""
    out = array(code, [0]) * len(values)
    np.frombuffer(out, dtype=np.int64 if code == "q" else np.float64)[:] = values
    return out


def _index(n: int, lo, hi, w) -> tuple:
    """The checked, sorted (lo, hi, w) of edges lo[i] -- hi[i] given in any order, their
    csr and tree (see WeightedGraph); each array is typed once final."""
    a, b = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    lo, hi = (a, b) if np.all(a < b) else (np.minimum(a, b), np.maximum(a, b))  # no copy if oriented
    if len(lo) and (lo.min() < 0 or hi.max() >= n):
        i = np.flatnonzero((lo < 0) | (hi >= n))[0]
        raise GraphError(f"edge {(int(a[i]), int(b[i]))} has a vertex outside 0..{n - 1}")
    loops = np.flatnonzero(lo == hi)
    if loops.size:
        raise GraphError(f"self-loop on vertex {int(lo[loops[0]])}")
    key = lo * n + hi  # n**2 < 2**63 for any n whose arrays fit in memory
    perm = np.argsort(key, kind="stable")
    key = key[perm]
    dup = np.flatnonzero(key[1:] == key[:-1])
    if dup.size:
        raise GraphError(f"duplicate edge {divmod(int(key[dup[0]]), n)}")
    del key
    m = len(perm)
    lo, hi, w = _typed("q", lo[perm]), _typed("q", hi[perm]), _typed("d", np.asarray(w, dtype=float)[perm])
    del a, b, perm
    lows, highs = np.frombuffer(lo, dtype=np.int64), np.frombuffer(hi, dtype=np.int64)
    # with the edges sorted, a stable sort by tail of (hi, lo) then (lo, hi)
    # lists each vertex's smaller neighbours, then its larger ones, ascending
    tails = np.concatenate((highs, lows))
    j = np.argsort(tails, kind="stable")
    indptr = _typed("q", np.zeros(n + 1, dtype=np.int64))
    np.cumsum(np.bincount(tails, minlength=n), out=np.frombuffer(indptr, dtype=np.int64)[1:])
    del tails
    nbr = _typed("q", np.concatenate((lows, highs))[j])
    j[j >= m] -= m
    tree = m == n - 1 and bool(np.all(highs == np.arange(1, n)))
    return lo, hi, w, (indptr, nbr, _typed("q", j)), tree


@dataclass
class WeightedGraph:
    """Simple rooted graph with real edge weights, stored in typed arrays.

    Edge i joins lo[i] < hi[i], weighs w[i], and the edges are sorted.
    csr = (indptr, nbr, eid): v's neighbours nbr[indptr[v]:indptr[v + 1]],
    ascending, joined to v by the edges eid[...].  The edge order is the only
    order a graph has: graphs with the same edges, weights, root and boundary
    are equal.  `tree`: edge c - 1 is (lo[c - 1], c), a tree numbered
    breadth first from 0 with consecutive children; from ubgw_tree it has
    no csr until one is read.  Other graphs are checked (no self-loop,
    repeat or id outside range(n)), sorted and indexed when made.
    `adjacency` (sorted neighbour tuples) and `weights` (sorted pair ->
    weight, in edge order) are read-only views built on first use, which
    this package's algorithms never read.  `boundary`
    is the truncation frontier of depth-limited constructions.  No code
    changes a graph once made (not frozen: that costs a setattr call per
    field per tree); dataclasses.replace makes copies that share the csr.
    """

    n: int
    lo: array
    hi: array
    w: array
    root: object
    boundary: frozenset = frozenset()
    tree: bool = field(default=False, repr=False, compare=False)
    links: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.links is None and not self.tree:
            made = _index(self.n, self.lo, self.hi, self.w)
            self.lo, self.hi, self.w, self.links, self.tree = made
        root = self.root
        if not isinstance(root, (VertexRoot, EdgeRoot)):
            raise GraphError(f"unsupported root {root!r}")
        if isinstance(root, VertexRoot) and not 0 <= root.vertex < max(self.n, 1):
            raise GraphError(f"root vertex {root.vertex} not in graph")
        if isinstance(root, EdgeRoot) and self.edge_id(root.u, root.v) < 0:
            raise GraphError(f"root edge {tuple(sorted((root.u, root.v)))} not in graph")

    @property
    def csr(self) -> tuple:
        if self.links is None:
            self.links = _index(self.n, self.lo, self.hi, self.w)[3]
        return self.links

    @property
    def m(self) -> int:
        return len(self.lo)

    def edges(self) -> list:
        return list(zip(self.lo, self.hi))

    def edge_id(self, u: int, v: int) -> int:
        """Index of the edge {u, v} in lo, hi and w, or -1 when there is none."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return -1
        if self.links is None:  # a tree: edge c - 1 is (lo[c - 1], c)
            u, v = min(u, v), max(u, v)
            return v - 1 if u < v and self.lo[v - 1] == u else -1
        indptr, nbr, eid = self.links
        end = indptr[u + 1]
        j = bisect_left(nbr, v, indptr[u], end)
        return eid[j] if j < end and nbr[j] == v else -1

    def weight(self, u: int, v: int) -> float:
        i = self.edge_id(u, v)
        if i < 0:
            raise KeyError((u, v))
        return self.w[i]

    def incident(self, v: int) -> tuple:
        """(the neighbours of v, ascending; the ids of the edges to them)."""
        if self.links is None:  # a tree: the parent, then the children a + 1..b on edges a..b - 1
            lo = self.lo
            a, b = bisect_left(lo, v), bisect_right(lo, v)
            if not v:
                return range(a + 1, b + 1), range(a, b)
            return [lo[v - 1], *range(a + 1, b + 1)], [v - 1, *range(a, b)]
        indptr, nbr, eid = self.links
        a, b = indptr[v], indptr[v + 1]
        return nbr[a:b], eid[a:b]

    def neighbors(self, v: int):
        return self.incident(v)[0]

    def degree(self, v: int) -> int:
        return len(self.incident(v)[0])

    def root_vertex(self) -> int:
        return self.root.vertex if isinstance(self.root, VertexRoot) else self.root.u

    @cached_property
    def adjacency(self) -> tuple:
        nbrs = [[] for _ in range(self.n)]  # sorted edges fill each list in ascending order
        for u, v in zip(self.lo, self.hi):
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    @cached_property
    def weights(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(zip(self.lo, self.hi), self.w)))


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
# the most vertices of any graph; ubgw_tree refuses a tree with more before it builds the
# generation that passes it, and lo * n + hi stays exact in int64 below it
_MAX_VERTICES = 10**7
# edge lines graph_to_text joins at once; graph_from_text splits 32 times as many characters
_TEXT_BLOCK = 1 << 11


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


def check_vertices(n: int) -> None:
    """Refuse a vertex count below 1 or above _MAX_VERTICES, before anything of size n is made."""
    if n < 1:
        raise GraphError("n must be >= 1")
    if n > _MAX_VERTICES:
        raise GraphError(f"n={n} passes the cap of {_MAX_VERTICES} vertices")


def erdos_renyi(n: int, c: float, seed: RngSeed) -> WeightedGraph:
    """G(n, c/n) with a uniform random vertex root and zero-initialised weights.

    The cells (w, v), w < v, are scanned row by row (v = 1, 2, ..., and
    w < v within a row) by geometric edge skipping (Batagelj and Brandes
    2005), so the cost is O(n + m) rather than O(n^2), in O(m) memory:
    one vectorised scan (`_skip_scan`), an integer-corrected square root
    that maps each kept cell back to (w, v), and the constructor's sort.
    The generator draws exactly m + 1 uniforms for the scan, one per edge
    and one whose skip ends it (none when c/n rounds to 0), then one
    integer for the root.  Each skip is computed with math.log1p, because
    np.log1p differs from it in the last bit on some inputs and could move
    an edge.  So the graph is the one a scalar loop over rng.random() gives.
    """
    check_vertices(n)
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
    del cell
    root = VertexRoot(int(rng.integers(0, n)))
    return WeightedGraph(n, w, v, np.zeros(len(w)), root)


def configuration_model(degrees, seed: RngSeed) -> WeightedGraph:
    """Uniform half-edge pairing with multi-edges and self-loops erased.

    An odd degree sum is padded by adding one half-edge to the last vertex.
    Stubs 2i and 2i + 1 of the permuted stub list form a pair.
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
    lo, hi = np.divmod(np.unique(np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep]), n)
    root = VertexRoot(int(rng.integers(0, n)))
    return WeightedGraph(n, lo, hi, np.zeros(len(lo)), root)


def ubgw_tree(law: OffspringLaw, rooting: str, depth: int, seed: RngSeed) -> WeightedGraph:
    """Unimodular branching tree truncated at graph distance `depth`.

    rooting="vertex": the root draws its child count from pi and every
    deeper vertex from the excess law.  rooting="edge": two independent
    excess-law trees joined by the root edge (vertices 0 and 1), each
    truncated at distance `depth` from its endpoint.  The vertices at
    distance exactly `depth` form the recorded boundary.

    Vertices are numbered in BFS order, the children of each vertex
    consecutively: the result is a `tree` graph, edges (parent, child) of
    weight 0.0.  A generation draws its child counts one per vertex, in
    vertex order, and is refused with a GraphError before it is built
    when the tree would pass _MAX_VERTICES vertices.
    """
    if depth < 0:
        raise GraphError("depth must be >= 0")
    rng = seed.generator()
    if rooting not in ("vertex", "edge"):
        raise GraphError(f"rooting must be 'vertex' or 'edge', got {rooting!r}")
    # the endpoints of a root edge behave like non-root vertices: excess-law children
    n = width = 1 if rooting == "vertex" else 2
    kids = []
    for d in range(depth):
        draw = law.sample if d == 0 and rooting == "vertex" else law.sample_excess
        counts = list(map(draw, repeat(rng, width)))
        width = sum(counts)
        if n + width > _MAX_VERTICES:
            raise GraphError(
                f"tree passes the cap of {_MAX_VERTICES} vertices at depth {d + 1} "
                f"of {depth}: {n + width} vertices"
            )
        kids += counts
        n += width
        if not width:
            break
    # the parent of c = 1..n-1 is the vertex whose block of children c falls in
    parents = chain.from_iterable(map(repeat, range(len(kids)), kids))
    root = VertexRoot(0) if rooting == "vertex" else EdgeRoot(0, 1)  # 1: the first child of 0
    lo, hi = array("q", parents if rooting == "vertex" else chain((0,), parents)), array("q", range(1, n))
    w, boundary = array("d", [0.0]) * (n - 1), frozenset(range(n - width, n))
    return WeightedGraph(n, lo, hi, w, root, boundary, tree=True)


def assign_weights(g: WeightedGraph, law: WeightLaw, seed: RngSeed) -> WeightedGraph:
    """Replace all edge weights by i.i.d. draws from `law`.

    Draws are assigned in edge order, so the result is a pure function of
    (graph, law, seed).  Ties under atomic laws are broken downstream by
    edge order.
    """
    rng = seed.generator()
    w = array("d", law.sample(rng, g.m).tobytes() if g.m else b"")
    return WeightedGraph(g.n, g.lo, g.hi, w, g.root, g.boundary, g.tree, g.links)


# ----------------------------------------------------------------------
# balls
# ----------------------------------------------------------------------


def _bfs_depths(g: WeightedGraph, center: int, H: int):
    depth, order = {center: 0}, [center]
    for v in order:  # breadth first: order grows as it is read
        if depth[v] < H:
            for w in g.neighbors(v):
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
    kept = [(relabel[u], relabel[v], w) for u, v, w in zip(g.lo, g.hi, g.w) if u in relabel and v in relabel]
    lo, hi, w = zip(*kept) if kept else ((), (), ())
    boundary = frozenset(relabel[v] for v in order if depth[v] == H)
    return WeightedGraph(len(order), lo, hi, w, VertexRoot(0), boundary)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def graph_to_text(g: WeightedGraph) -> str:
    """Edge-list text format; weights at 17 significant digits round-trip bit-exactly."""
    root = g.root
    root_txt = f"vertex:{root.vertex}" if isinstance(root, VertexRoot) else f"edge:{root.u},{root.v}"
    lines = map("{} {} {:.17g}\n".format, g.lo, g.hi, g.w)
    # joined a block at a time, so that no list holds every line
    blocks = ["".join(islice(lines, _TEXT_BLOCK)) for _ in range(0, g.m, _TEXT_BLOCK)]
    return f"lexmatch-graph v1 n={g.n} m={g.m} root={root_txt}\n" + "".join(blocks)


def _lines(text: str, end: int):
    """text[:end].splitlines(), split a block at a time without copying the text: each
    block ends just after a newline, where splitlines splits anyway."""
    start = 0
    while start < end:
        stop = text.find("\n", start + 32 * _TEXT_BLOCK, end) + 1 or end
        yield from text[start:stop].splitlines()
        start = stop


def graph_from_text(text: str) -> WeightedGraph:
    """Parse the format `graph_to_text` writes.

    Edge lines are checked as they are parsed into typed buffers, and
    repeated edges are merged by one sort, so the cost is O(m log m).  The
    header's n must be in 1.._MAX_VERTICES.  A bad input raises GraphError
    for the first fault in this order: the first bad edge line in file
    order (not three fields, an unparsable number, a vertex id outside
    0..n-1, then a non-finite weight), then an `m=` count that differs from
    the number of distinct edges (an edge listed as `u v` and as `v u` is
    one edge with the weight of its last line), then a self-loop.
    """
    end = len(text)  # the lines of text.strip(): the last one ends before trailing whitespace
    while end and text[end - 1].isspace():
        end -= 1
    lines = (ln for ln in _lines(text, end) if ln.strip())
    head = next(lines, "").lstrip()
    if not head.startswith("lexmatch-graph v1 "):
        raise GraphError("missing lexmatch-graph v1 header")
    try:
        header = dict(tok.split("=", 1) for tok in head.split()[2:])
        n = int(header["n"])
        m = int(header["m"])
        kind, ids = header["root"].split(":", 1)
        root = {"vertex": VertexRoot, "edge": EdgeRoot}[kind](*map(int, ids.split(",")))
    except (KeyError, ValueError, TypeError) as exc:
        raise GraphError(f"malformed header: {head!r}") from exc
    if n < 1:
        raise GraphError(f"header claims n={n}; need at least one vertex")
    check_vertices(n)

    us, vs, ws = array("q"), array("q"), array("d")
    for ln in lines:
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
    u, v = np.asarray(us), np.asarray(vs)
    # each distinct pair, sorted, with the weight of its last line: the first in reversed order
    key, last = np.unique((np.minimum(u, v) * n + np.maximum(u, v))[::-1], return_index=True)
    if len(key) != m:
        raise GraphError(f"header claims m={m}, found {len(key)} edges")
    loops = np.flatnonzero(u == v)
    if loops.size:
        raise GraphError(f"self-loop on vertex {int(u[loops[0]])}")
    return WeightedGraph(n, *np.divmod(key, n), np.asarray(ws)[::-1][last], root)
