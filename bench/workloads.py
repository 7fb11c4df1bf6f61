"""The four benchmark workloads and their correctness checks.

Each workload is built from the benchmark seed (its set-up), then runs
rounds of the same operations on the same inputs.  ``operations`` lists
the calls of one round; ``check`` verifies every round's outputs against
closed forms, oracles independent of the code under test and properties
the method must have.  Checks run outside the timed rounds.

All calls into lexmatch go through module attributes (``bp.squeeze``,
never a name imported from ``bp``), so the traced round sees them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os

import numpy as np

from lexmatch import bp, cli, exact, randgraph, rde, xharness
from lexmatch.genfn import OffspringLaw
from lexmatch.randgraph import RngSeed, WeightLaw

ExperimentConfig = xharness.ExperimentConfig


def lambert_w1() -> float:
    """gamma = W(1), the root of exp(-gamma) = gamma, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(-mid) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


GAMMA = lambert_w1()
# Karp-Sipser matched-vertex fraction of G(n, 1/n): 2 - (2 gamma + gamma^2)
KS_DENSITY_C1 = 2.0 - 2.0 * GAMMA - GAMMA**2


def binom_band(p: float, n: int, floor: float = 0.0) -> float:
    """Acceptance band of a binomial estimate: five standard errors."""
    return max(floor, 5.0 * math.sqrt(p * (1.0 - p) / n))


def doubled_map_residual(c: float, level: float) -> float:
    """|l - hphi(1 - hphi(1 - l))| for hphi(x) = exp(c (x - 1))."""

    def hphi(x):
        return math.exp(c * (x - 1.0))

    return abs(level - hphi(1.0 - hphi(1.0 - level)))


def matching_problems(adjacency, edges, label: str) -> list[str]:
    """Edges exist, are vertex-disjoint and leave no edge with both ends free."""
    covered = set()
    for u, v in edges:
        if v not in adjacency[u]:
            return [f"{label}: matched pair ({u}, {v}) is not an edge"]
        if u in covered or v in covered:
            return [f"{label}: vertex reused by ({u}, {v})"]
        covered.update((u, v))
    for u, nbrs in enumerate(adjacency):
        if u not in covered and any(w not in covered for w in nbrs):
            return [f"{label}: edge at vertex {u} could be added (not maximal)"]
    return []


class KarpSipserCore:
    """The random 2-core phase of `exact.leaf_removal`, re-done to price its inputs.

    Before every random step leaf_removal rebuilds its list of live edges,
    visiting each vertex and each live adjacency entry.  The number of
    steps moves by about 20 % from graph to graph and seed to seed, so the
    `large` set-up uses this copy to pick leaf-removal inputs of equal
    rebuild work.  It makes the program's own choices: neighbours in the
    order of a fresh set(nb), live edges by ascending u, then that order,
    then v > u, and the index rng.integers(0, number of live edges).  The
    core left by leaf removal does not depend on the order leaves go in.
    Only input selection relies on this copy; a program that picks its
    random edge differently is still measured on the same inputs.
    """

    def __init__(self, adjacency):
        n = len(adjacency)
        self.n = n
        self.order = [list(set(nb)) for nb in adjacency]
        self.alive = [True] * n
        self.deg = [len(nb) for nb in adjacency]
        # up[u]: live edges (u, v) with v > u, the ones the rebuild lists under u
        self.up = np.array([sum(v > u for v in nb) for u, nb in enumerate(adjacency)])
        self.strip(self.alive, self.deg, self.up, [v for v in range(n) if self.deg[v] == 1])

    def remove(self, x, alive, deg, up, leaves) -> None:
        alive[x] = False
        for w in self.order[x]:
            if alive[w]:
                deg[w] -= 1
                up[min(x, w)] -= 1
                if deg[w] == 1:
                    leaves.append(w)
        deg[x] = 0

    def strip(self, alive, deg, up, leaves) -> None:
        """Match leaves to their neighbours until none is left."""
        while leaves:
            v = leaves.pop()
            if alive[v] and deg[v] == 1:
                u = next(w for w in self.order[v] if alive[w])
                self.remove(v, alive, deg, up, leaves)
                self.remove(u, alive, deg, up, leaves)

    def rebuild_work(self, seed: RngSeed) -> int:
        """Vertices plus live adjacency entries visited by all edge-list rebuilds."""
        alive, deg, up = self.alive[:], self.deg[:], self.up.copy()
        rng = seed.generator()
        work = 0
        while True:
            ends = np.cumsum(up)
            live = int(ends[-1])
            if live == 0:
                return work
            work += self.n + 2 * live
            k = int(rng.integers(0, live))
            u = int(np.searchsorted(ends, k, side="right"))
            v = [w for w in self.order[u] if w > u and alive[w]][k - int(ends[u] - up[u])]
            leaves: list = []
            self.remove(u, alive, deg, up, leaves)
            self.remove(v, alive, deg, up, leaves)
            self.strip(alive, deg, up, leaves)


def tree_matchings(g) -> int:
    """Number of matchings of a forest (the empty one included), by tree DP."""
    total = 1
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        order, stack = [], [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        free, done = {}, set()  # free[v]: matchings of v's subtree that leave v unmatched
        both = {}  # both[v]: all matchings of v's subtree
        for v in reversed(order):
            kids = [w for w in g.adjacency[v] if w in done]
            prod = 1
            for w in kids:
                prod *= both[w]
            free[v] = prod
            both[v] = prod + sum(prod // both[w] * free[w] for w in kids)
            done.add(v)
        total *= both[root]
    return total


def same_across_rounds(rounds, key, label: str) -> list[str]:
    values = [key(r) for r in rounds]
    if any(v != values[0] for v in values[1:]):
        return [f"{label}: rounds on the same inputs gave different outputs"]
    return []


class Workload:
    """Interface: set-up in __init__, then rounds of `operations`."""

    name = ""

    def operations(self) -> list:
        raise NotImplementedError

    def after_round(self, results: dict) -> None:
        """Collect outputs a round left outside its return values (untimed)."""

    def expected_calls(self) -> dict:
        """Span name -> calls one round makes, for the traced round."""
        raise NotImplementedError

    def check(self, rounds: list) -> list:
        raise NotImplementedError


class Decay(Workload):
    """Criterion-04 correlation decay: Poisson(1), Uniform(0, 1), H = 2..12."""

    name = "decay"

    def __init__(self, seed: int, workdir: str):
        self.cfg = ExperimentConfig(
            experiment="decay",
            law="poisson:1.0",
            weights="uniform:0:1",
            samples=10_000,
            h_min=2,
            h_max=12,
            h_step=2,
            seed=seed,
        )
        self.radii = list(range(self.cfg.h_min, self.cfg.h_max + 1, self.cfg.h_step))

    def operations(self):
        return [("decay", lambda: xharness.run_decay(self.cfg))]

    def expected_calls(self) -> dict:
        trees = len(self.radii) * self.cfg.samples
        return {
            "xharness.run_decay": 1,
            "randgraph.ubgw_tree": trees,
            "randgraph.assign_weights": trees,
            "randgraph.rngseed_generator": 2 * trees,
            "bp.squeeze": trees,
        }

    def check(self, rounds) -> list[str]:
        done = [r for r in rounds if r["decay"] is not None]
        problems = same_across_rounds(done, lambda r: r["decay"][0].curve, "decay")
        for r in done[:1]:
            rec = r["decay"][0]
            # rho(Poisson(1)) = 1/e, so the reference slope is log(rho) = -1
            if abs(rec.reference - (-1.0)) > 1e-6:
                problems.append(f"decay: log rho {rec.reference} is not log(1/e) = -1")
            if [pt["H"] for pt in rec.curve] != self.radii or any(
                pt["n"] != self.cfg.samples for pt in rec.curve
            ):
                problems.append("decay: curve does not cover every radius with every sample")
            fracs = [pt["uncertified_fraction"] for pt in rec.curve]
            if any(b > a for a, b in zip(fracs, fracs[1:])):
                problems.append(f"decay: uncertified fractions not non-increasing {fracs}")
            pos = [(pt["rounds"], f) for pt, f in zip(rec.curve, fracs) if f > 0]
            if len(pos) < 2:
                problems.append("decay: fewer than two positive fractions to fit")
                continue
            # least-squares slope of log f against H/2; var(log f) ~ (1 - f) / (n f)
            mx = sum(x for x, _ in pos) / len(pos)
            my = sum(math.log(f) for _, f in pos) / len(pos)
            sxx = sum((x - mx) ** 2 for x, _ in pos)
            slope = sum((x - mx) * (math.log(f) - my) for x, f in pos) / sxx
            n = self.cfg.samples
            var = sum((x - mx) ** 2 * (1.0 - f) / (n * f) for x, f in pos)
            # the criterion-04 tolerance 0.1 plus four standard errors of the slope
            band = 0.1 + 4.0 * math.sqrt(var) / sxx
            if abs(slope - (-1.0)) > band:
                problems.append(f"decay: log-fraction slope {slope:.3f} not within {band:.3f} of -1")
            if rec.estimate is None or abs(slope - rec.estimate) > 1e-9:
                problems.append(f"decay: reported slope {rec.estimate} differs from fit {slope}")
        return problems


class Oracles(Workload):
    """Small forests checked against exhaustive enumeration (criteria 01, 05, 08, 09, 10)."""

    name = "oracles"
    FORESTS = 1000
    BLOCKS, BLOCK_CANDIDATES = 4, 3
    # about the median of the matchings 1000 criterion-01 forests have in all
    MATCHINGS = 1_500_000

    def __init__(self, seed: int, workdir: str):
        self.law01 = OffspringLaw.poisson(2.0)
        self.blocks01 = self.pick_forest_streams(seed)
        self.mandatory = ExperimentConfig(
            experiment="mandatory",
            law="poisson:1.0",
            depth=12,
            samples=10_000,
            cross_forests=1000,
            seed=seed,
            stream=2,
        )
        self.eps = ExperimentConfig(
            experiment="eps-sweep", trees=500, eps_min_exp=1, eps_max_exp=12, seed=seed, stream=3
        )
        self.separation = ExperimentConfig(
            experiment="separation",
            p=1,
            samples=6000,
            weights="uniform:0:1",
            weights_b="exp:1.0",
            seed=seed,
            stream=4,
        )
        self.structural = ExperimentConfig(experiment="check", seed=seed, stream=5)

    def forests(self, base: RngSeed, count: int, weighted: bool = True):
        """The criterion-01 forests: depth 1..4 Poisson(2) trees with 1..26 edges."""
        wlaw = WeightLaw.uniform(0, 1)
        i = kept = 0
        while kept < count:
            g = randgraph.ubgw_tree(self.law01, "vertex", 1 + i % 4, base.child(2 * i))
            if weighted:
                g = randgraph.assign_weights(g, wlaw, base.child(2 * i + 1))
            i += 1
            if 0 < g.m <= 26:
                kept += 1
                yield g

    def pick_forest_streams(self, seed: int) -> list:
        """One stream per block of forests, so brute force does the same work for every seed.

        exact.brute_force_opt visits every matching of a forest once.  The
        matchings of 1000 forests vary by about 25 % (q3 - q1 over the
        median) from seed to seed.  Each of 4 blocks of 250 forests gets 3
        candidate streams on seed N, stream 1; the streams whose forests
        have, in all, the number of matchings closest to MATCHINGS are kept.
        """
        per_block = self.FORESTS // self.BLOCKS
        cands = [
            [RngSeed(seed, 1).child(self.BLOCK_CANDIDATES * b + c) for c in range(self.BLOCK_CANDIDATES)]
            for b in range(self.BLOCKS)
        ]
        counts = [
            [sum(tree_matchings(g) for g in self.forests(s, per_block, weighted=False)) for s in block]
            for block in cands
        ]
        pick = min(
            itertools.product(range(self.BLOCK_CANDIDATES), repeat=self.BLOCKS),
            key=lambda p: abs(sum(counts[b][c] for b, c in enumerate(p)) - self.MATCHINGS),
        )
        return [cands[b][c] for b, c in enumerate(pick)]

    def criterion_01(self):
        """bp.sweep_tree + extract_matching next to exact.brute_force_opt."""
        pairs = []
        for base in self.blocks01:
            for g in self.forests(base, self.FORESTS // self.BLOCKS):
                swept = bp.extract_matching(g, bp.sweep_tree(g, 1))
                pairs.append((swept, exact.brute_force_opt(g)))
        return pairs

    def operations(self):
        return [
            ("criterion_01", self.criterion_01),
            ("mandatory", lambda: xharness.run_mandatory(self.mandatory)),
            ("eps_sweep", lambda: xharness.run_eps_sweep(self.eps)),
            ("separation", lambda: xharness.run_separation(self.separation)),
            ("check", lambda: xharness.run_check(self.structural)),
        ]

    def expected_calls(self) -> dict:
        sep = 2 * self.separation.samples  # two weight laws
        sweeps = self.FORESTS + sep + self.eps.trees + 100  # run_check sweeps 100 trees
        return {
            "exact.brute_force_opt": self.FORESTS,
            "bp.sweep_tree": sweeps,
            "bp.extract_matching": sweeps,
            "bp.macroscopic_squeeze": self.mandatory.samples + self.mandatory.cross_forests,
            "exact.mandatory_blocking": self.mandatory.cross_forests,
            "exact.uniform_max_matching": self.separation.samples,
            "bp.scalar_sweep_eps": self.eps.trees * (self.eps.eps_max_exp - self.eps.eps_min_exp + 1),
            "xharness.run_mandatory": 1,
            "xharness.run_eps_sweep": 1,
            "xharness.run_separation": 1,
            "xharness.run_check": 1,
        }

    def eps_oracle_problems(self) -> list[str]:
        """At the smallest eps the scalar matching is the brute-force lex optimum."""
        cfg = self.eps
        base = cfg.base_seed()
        eps = 2.0**-cfg.eps_max_exp
        law = OffspringLaw.poisson(2.0)
        wlaw = cfg.weight_law()
        seen = i = 0
        while seen < cfg.trees:
            g = randgraph.ubgw_tree(law, "vertex", 1 + i % 4, base.child(2 * i))
            g = randgraph.assign_weights(g, wlaw, base.child(2 * i + 1))
            i += 1
            if not 1 <= g.m <= 18:
                continue
            seen += 1
            _, m = bp.scalar_sweep_eps(g, eps)
            if m.edges != exact.brute_force_opt(g).edges:
                return [f"eps-sweep: eps={eps} matching is not the lex optimum on tree {i}"]
        return []

    def check(self, rounds) -> list[str]:
        problems = []
        for r in rounds:
            pairs = r["criterion_01"]
            if pairs is None:
                continue
            if len(pairs) != self.FORESTS:
                problems.append(f"criterion 01: {len(pairs)} forests, not {self.FORESTS}")
            for k, (swept, oracle) in enumerate(pairs):
                if swept.edges != oracle.edges or abs(swept.weight - oracle.weight) > 1e-9:
                    problems.append(f"criterion 01: forest {k} differs from brute force")
                    break
        for key in ("mandatory", "eps_sweep", "separation", "check"):
            done = [r for r in rounds if r[key] is not None]
            problems += same_across_rounds(
                done, lambda r: [(x.name, x.estimate, x.notes) for x in r[key]], key
            )

        first = {key: next((r[key] for r in rounds if r[key] is not None), None) for key in rounds[0]}
        if first["mandatory"] is not None:
            recs = {x.name: x for x in first["mandatory"]}
            n = self.mandatory.samples
            for name, ref in (
                ("mandatory_edge_density", GAMMA**2),
                ("blocking_edge_density", (1.0 - GAMMA) ** 2),
            ):
                rec = recs[name]
                if abs(rec.reference - ref) > 1e-9:
                    problems.append(f"mandatory: {name} reference {rec.reference} != {ref}")
                if abs(rec.estimate - ref) > binom_band(ref, n, 0.02):
                    problems.append(f"mandatory: {name} {rec.estimate:.4f} far from {ref:.4f}")
            cross = recs["classifier_vs_enumeration_mismatches"]
            if cross.estimate != 0.0 or cross.params["forests"] != self.mandatory.cross_forests:
                problems.append(f"mandatory: classifier mismatches {cross.estimate} {cross.params}")
        if first["eps_sweep"] is not None:
            rec = first["eps_sweep"][0]
            if rec.curve[-1]["disagreement_fraction"] != 0.0 or not rec.passed:
                problems.append(f"eps-sweep: final disagreement {rec.curve[-1]} ({rec.notes})")
            problems += self.eps_oracle_problems()
        if first["separation"] is not None:
            recs = {x.name: x for x in first["separation"]}
            n = self.separation.samples
            p = self.separation.p
            weighted = 1.0 - (1.0 - 1.0 / (p + 1)) ** (p + 1)  # 3/4 at p = 1
            uniform = 1.0 / (1.0 + p / (p + 1.0))  # 2/3 at p = 1
            for name, ref in (
                ("weighted_root_match_prob", weighted),
                ("uniform_root_match_prob", uniform),
            ):
                est = recs[name].estimate
                if abs(est - ref) > binom_band(ref, n):
                    problems.append(f"separation: {name} {est:.4f} far from {ref:.4f}")
            gap = recs["weight_law_invariance_gap"].estimate
            if gap > math.sqrt(2.0) * binom_band(weighted, n):
                problems.append(f"separation: weight-law gap {gap:.4f}")
        if first["check"] is not None:
            failed = [x.name for x in first["check"] if not x.passed]
            if failed or len(first["check"]) != 4:
                problems.append(f"check: structural invariants failed {failed}")
        return problems


class Large(Workload):
    """One ~1e5-vertex tree through the CLI, criterion-02 sizes, c = 3 leaf removal."""

    name = "large"
    DEPTH = 15
    TARGET_VERTICES = 100_000
    LEAF_REMOVALS = 3
    ER_N, ER_C = 20_000, 3.0
    GRAPH_CANDIDATES, REMOVAL_CANDIDATES = 4, 4
    # about the median rebuild work of three G(2e4, 3/2e4) leaf removals
    REBUILD_WORK = 14_200_000

    def __init__(self, seed: int, workdir: str):
        self.law = OffspringLaw.poisson(2.0)
        self.gen_seed = self.pick_tree_seed(seed)
        os.makedirs(workdir, exist_ok=True)
        self.tree_path = os.path.join(workdir, "tree.txt")
        self.match_path = os.path.join(workdir, "matching.txt")
        self.size = ExperimentConfig(
            experiment="size", law="poisson:1.0", n=20_000, replicas=20, seed=seed, stream=6
        )
        self.graph_seeds, self.removal_seeds = self.pick_leaf_removal_inputs(seed)

    def pick_tree_seed(self, seed: int) -> int:
        """The candidate seed whose depth-15 Poisson(2) tree is closest to 1e5 vertices.

        The tree builder draws children in breadth-first order, so a
        shallow tree on the same seed is a prefix of the deep one and its
        last generation predicts the final size.  192 candidates are
        screened at depth 6, the 16 best again at depth 9 and the 4 best of
        those at depth 12; the fixed number of screens keeps set-up time
        about the same for every seed.
        """

        def miss(cand: int, depth: int) -> float:
            g = randgraph.ubgw_tree(self.law, "vertex", depth, RngSeed(cand))
            return abs(len(g.boundary) * 2 ** (self.DEPTH - depth + 1) - self.TARGET_VERTICES)

        cands = [seed * 1000 + j for j in range(192)]
        best = sorted(cands, key=lambda c: miss(c, 6))[:16]
        best = sorted(best, key=lambda c: miss(c, 9))[:4]
        return min(best, key=lambda c: miss(c, 12))

    def pick_leaf_removal_inputs(self, seed: int) -> tuple[list, list]:
        """Graph and removal seeds of equal total rebuild work for every seed.

        Four candidate graphs on seed N, stream 7, each with four removal
        seeds on stream 8, are priced with KarpSipserCore; the three
        graphs and seeds whose summed work is closest to REBUILD_WORK are
        kept.
        """
        graph_seeds = [RngSeed(seed, 7).child(j) for j in range(self.GRAPH_CANDIDATES)]
        removal_seeds = [
            [RngSeed(seed, 8).child(self.REMOVAL_CANDIDATES * j + r) for r in range(self.REMOVAL_CANDIDATES)]
            for j in range(self.GRAPH_CANDIDATES)
        ]
        work = []
        for gs, rss in zip(graph_seeds, removal_seeds):
            core = KarpSipserCore(randgraph.erdos_renyi(self.ER_N, self.ER_C, gs).adjacency)
            work.append([core.rebuild_work(rs) for rs in rss])
        choices = itertools.product(
            itertools.combinations(range(self.GRAPH_CANDIDATES), self.LEAF_REMOVALS),
            itertools.product(range(self.REMOVAL_CANDIDATES), repeat=self.LEAF_REMOVALS),
        )
        graphs, removals = min(
            choices,
            key=lambda c: abs(sum(work[g][r] for g, r in zip(*c)) - self.REBUILD_WORK),
        )
        return (
            [graph_seeds[g] for g in graphs],
            [removal_seeds[g][r] for g, r in zip(graphs, removals)],
        )

    def gen(self):
        argv = ["gen", "--model", "ubgw", "--law", "poisson:2.0", "--depth", str(self.DEPTH)]
        argv += ["--weights", "uniform:0:1", "--seed", str(self.gen_seed), "--out", self.tree_path]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.cli(argv)

    def match(self):
        out = io.StringIO()
        argv = ["match", "--graph", self.tree_path, "--k", "1", "--out", self.match_path]
        with contextlib.redirect_stdout(out):
            code = cli.cli(argv)
        return code, out.getvalue()

    def leaf_removal(self, j: int):
        g = randgraph.erdos_renyi(self.ER_N, self.ER_C, self.graph_seeds[j])
        return g, exact.leaf_removal(g, self.removal_seeds[j])

    def operations(self):
        ops = [
            ("gen", self.gen),
            ("match", self.match),
            ("size", lambda: xharness.run_size(self.size)),
        ]
        for j in range(self.LEAF_REMOVALS):
            ops.append((f"leaf_removal_{j}", lambda j=j: self.leaf_removal(j)))
        return ops

    def after_round(self, results) -> None:
        """Keep the files this round wrote; the next round overwrites them."""
        for key, path in (("tree_text", self.tree_path), ("matching_text", self.match_path)):
            results[key] = None
            if os.path.exists(path):
                with open(path) as fh:
                    results[key] = fh.read()
                os.remove(path)

    def expected_calls(self) -> dict:
        graphs = self.size.replicas + self.LEAF_REMOVALS
        return {
            "cli.cli": 2,
            "randgraph.ubgw_tree": 1,
            "randgraph.graph_to_text": 1,
            "randgraph.graph_from_text": 1,
            "bp.sweep_tree": 1,
            "bp.extract_matching": 1,
            "xharness.run_size": 1,
            "randgraph.erdos_renyi": graphs,
            "exact.leaf_removal": graphs,
        }

    def reference_tree(self):
        """The tree `lexmatch gen` builds: ubgw_tree on seed, weights on child 1."""
        s = RngSeed(self.gen_seed)
        g = randgraph.ubgw_tree(self.law, "vertex", self.DEPTH, s)
        return randgraph.assign_weights(g, WeightLaw.uniform(0, 1), s.child(1))

    def cli_problems(self, r) -> list[str]:
        """The CLI round trip against the generator and the tree DP optimum."""
        if r["gen"] != 0 or r["match"][0] != 0:
            return [f"large: CLI exit codes gen={r['gen']} match={r['match'][0]}"]
        problems = []
        g = self.reference_tree()
        lines = r["tree_text"].splitlines()
        written = {}
        for ln in lines[1:]:
            u, v, w = ln.split()
            written[(int(u), int(v))] = float(w)
        if f"n={g.n} m={g.m}" not in lines[0] or written != g.weights:
            problems.append("large: graph file does not hold the generated tree")
        if abs(g.n - self.TARGET_VERTICES) > 0.15 * self.TARGET_VERTICES:
            problems.append(f"large: tree has {g.n} vertices, not about {self.TARGET_VERTICES}")

        head, *pairs = r["matching_text"].splitlines()
        edges = [tuple(int(x) for x in ln.split()) for ln in pairs]
        size = int(head.split()[0].split("=")[1])
        weight = float(head.split()[1].split("=")[1])
        optimum, _ = exact.tree_opt_dp(g)
        if size != optimum.size or set(edges) != set(optimum.edges):
            problems.append(f"large: CLI matching size {size} is not the DP optimum {optimum.size}")
        if abs(weight - optimum.weight) > 1e-9 * max(1.0, optimum.weight):
            problems.append(f"large: CLI matching weight {weight} != DP {optimum.weight}")
        if len(edges) != size:
            problems.append("large: matching file size line disagrees with its edges")
        problems += matching_problems(g.adjacency, edges, "large tree")
        perf = r["match"][1].split("perf_vertex=(")[1].split(",")[0]
        if abs(float(perf) - 2.0 * size / g.n) > 1e-9:
            problems.append(f"large: perf_vertex {perf} is not 2|M|/n = {2.0 * size / g.n}")
        return problems

    def check(self, rounds) -> list[str]:
        problems = []
        for key in ("tree_text", "matching_text", "size"):
            done = [r for r in rounds if r.get(key) is not None]
            problems += same_across_rounds(done, lambda r: repr(r[key]), key)
        r = rounds[0]
        if r["gen"] is not None and r["match"] is not None:
            problems += self.cli_problems(r)
        if r["size"] is not None:
            rec = r["size"][0]
            if abs(rec.reference - KS_DENSITY_C1) > 1e-6:
                problems.append(f"size: reference {rec.reference} is not Karp-Sipser {KS_DENSITY_C1}")
            if abs(rec.estimate - KS_DENSITY_C1) > 0.01:
                problems.append(f"size: matched fraction {rec.estimate:.4f} far from {KS_DENSITY_C1:.4f}")
        for j in range(self.LEAF_REMOVALS):
            for rr in rounds:
                if rr[f"leaf_removal_{j}"] is None:
                    continue
                lg, (matching, _, _) = rr[f"leaf_removal_{j}"]
                problems += matching_problems(lg.adjacency, matching.edges, f"leaf removal {j}")
        return problems


class Solve(Workload):
    """Grid solver (criteria 06 and 07, Poisson(3) k = 2) and population dynamics."""

    name = "solve"
    SAMPLES = 100_000

    def __init__(self, seed: int, workdir: str):
        self.wlaw = WeightLaw.uniform(0, 1)
        self.law1 = OffspringLaw.poisson(1.0)
        self.law3 = OffspringLaw.poisson(3.0)
        self.grid = rde.GridSpec(4096)
        self.step_seed = RngSeed(seed, 9)
        self.pool_seed = RngSeed(seed, 10)
        self.k1 = None

    def solve_k1(self):
        self.k1 = rde.solve_system(self.law1, self.wlaw, 1, self.grid)
        return self.k1

    def stationarity(self):
        sampler = rde.zeta_prime(self.k1)
        rng = self.step_seed.generator()
        lv_in, _ = sampler.sample(rng, self.SAMPLES)
        lv_out, _ = rde.rde_step(sampler, self.law1, self.wlaw, rng, self.SAMPLES)
        return lv_in, lv_out

    def operations(self):
        return [
            ("solve_k1", self.solve_k1),
            ("solve_k2", lambda: rde.solve_system(self.law3, self.wlaw, 2, self.grid)),
            ("stationarity", self.stationarity),
            (
                "population",
                lambda: rde.population_dynamics(
                    self.law1, self.wlaw, 1, pool_size=30_000, iters=60, seed=self.pool_seed
                ),
            ),
        ]

    def expected_calls(self) -> dict:
        return {
            "rde.solve_system": 2,
            "rde.zeta_prime": 1,
            "rde.rde_step": 1,
            "rde.population_dynamics": 1,
        }

    def system_problems(self, system, c: float, label: str) -> list[str]:
        problems = [
            f"{label}: plateau {level} is not a fixed point of the doubled map"
            for level in system.plateau
            if doubled_map_residual(c, level) > 1e-6
        ]
        cons = rde.conservation_check(system)["bords"]
        gap = abs(rde.size_from_system(system) - rde.size_from_functional(system))
        if cons >= 2e-3 or gap >= 2e-3:
            problems.append(f"{label}: conservation {cons:.2e} or formula gap {gap:.2e} >= 2e-3")
        return problems

    def check(self, rounds) -> list[str]:
        problems = []
        for key in ("solve_k1", "solve_k2"):
            done = [r for r in rounds if r[key] is not None]
            problems += same_across_rounds(done, lambda r: r[key].plateau, key)
        r = rounds[0]
        if r["solve_k1"] is not None:
            sys1 = r["solve_k1"]
            problems += self.system_problems(sys1, 1.0, "solve k=1")
            if abs(sys1.plateau[0] - GAMMA) > 1e-4:
                problems.append(f"solve k=1: l1 {sys1.plateau[0]} is not W(1) = {GAMMA}")
            if abs(rde.size_from_system(sys1) - KS_DENSITY_C1) > 2e-3:
                problems.append("solve k=1: size formula far from Karp-Sipser at c = 1")
            masses = sys1.level_masses()
            if r["stationarity"] is not None:
                lv_in, lv_out = r["stationarity"]
                tv = 0.5 * sum(abs((lv_out == j).mean() - (lv_in == j).mean()) for j in (0, 1))
                if tv >= 0.02:
                    problems.append(f"rde_step: one-step level TV {tv:.4f} >= 0.02")
            if r["population"] is not None:
                tv = 0.5 * float(np.abs(r["population"].level_probs - masses).sum())
                if tv >= 0.02:
                    problems.append(f"population dynamics: TV to the grid law {tv:.4f} >= 0.02")
        if r["solve_k2"] is not None:
            problems += self.system_problems(r["solve_k2"], 3.0, "solve k=2")
        return problems


WORKLOADS = {w.name: w for w in (Decay, Oracles, Large, Solve)}
