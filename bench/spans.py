"""Span tracer for the traced benchmark round.

The tracer wraps public functions of the lexmatch modules where their
callers look them up: the module attribute, every name other lexmatch
modules imported with ``from .module import name``, and methods on their
classes.  Each call records one span (name, start, end, parent) in
memory; ``write`` saves them at the end.  Nothing inside lexmatch changes
and the wrappers exist only between ``install`` and ``uninstall``.

Per-layer numbers are derived from the spans: a span's self time is its
duration minus the durations of its child spans.  A few wrappers also
count work from the arguments and results of the call (vertices
generated, directed-edge messages computed, leaf-removal core steps,
solver iterations, pool updates).

Functions called only from inside their own module (``bp.sweep_bounded``
from ``bp.squeeze``, ``bp.macroscopic_sweep`` from
``bp.macroscopic_squeeze``) are left unwrapped, so their time is part of
the caller's self time.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

# (module, attribute, span name); "Class.method" wraps a method on the class
TARGETS = [
    ("genfn", "OffspringLaw.sample", "genfn.sample"),
    ("genfn", "OffspringLaw.sample_excess", "genfn.sample_excess"),
    ("genfn", "OffspringLaw.pgf", "genfn.pgf"),
    ("genfn", "OffspringLaw.excess_pgf", "genfn.excess_pgf"),
    ("genfn", "OffspringLaw.excess_pmf", "genfn.excess_pmf"),
    ("genfn", "OffspringLaw.pmf_values", "genfn.pmf_values"),
    ("genfn", "parse_law", "genfn.parse_law"),
    ("genfn", "size_biased_pgf_inverse", "genfn.size_biased_pgf_inverse"),
    ("genfn", "double_fixed_points", "genfn.double_fixed_points"),
    ("genfn", "F_pi", "genfn.F_pi"),
    ("genfn", "matching_vertex_density", "genfn.matching_vertex_density"),
    ("genfn", "rho_subcritical", "genfn.rho_subcritical"),
    ("genfn", "macroscopic_law", "genfn.macroscopic_law"),
    ("randgraph", "RngSeed.generator", "randgraph.rngseed_generator"),
    ("randgraph", "parse_weight_law", "randgraph.parse_weight_law"),
    ("randgraph", "erdos_renyi", "randgraph.erdos_renyi"),
    ("randgraph", "configuration_model", "randgraph.configuration_model"),
    ("randgraph", "ubgw_tree", "randgraph.ubgw_tree"),
    ("randgraph", "assign_weights", "randgraph.assign_weights"),
    ("randgraph", "graph_to_text", "randgraph.graph_to_text"),
    ("randgraph", "graph_from_text", "randgraph.graph_from_text"),
    ("bp", "sweep_tree", "bp.sweep_tree"),
    ("bp", "extract_matching", "bp.extract_matching"),
    ("bp", "squeeze", "bp.squeeze"),
    ("bp", "macroscopic_squeeze", "bp.macroscopic_squeeze"),
    ("bp", "classify_edges_from_levels", "bp.classify_edges_from_levels"),
    ("bp", "scalar_sweep_eps", "bp.scalar_sweep_eps"),
    ("exact", "brute_force_opt", "exact.brute_force_opt"),
    ("exact", "leaf_removal", "exact.leaf_removal"),
    ("exact", "mandatory_blocking", "exact.mandatory_blocking"),
    ("exact", "uniform_max_matching", "exact.uniform_max_matching"),
    ("exact", "perf_of", "exact.perf_of"),
    ("exact", "matching_to_text", "exact.matching_to_text"),
    ("rde", "solve_system", "rde.solve_system"),
    ("rde", "zeta_prime", "rde.zeta_prime"),
    ("rde", "rde_step", "rde.rde_step"),
    ("rde", "population_dynamics", "rde.population_dynamics"),
    ("xharness", "run_size", "xharness.run_size"),
    ("xharness", "run_decay", "xharness.run_decay"),
    ("xharness", "run_mandatory", "xharness.run_mandatory"),
    ("xharness", "run_separation", "xharness.run_separation"),
    ("xharness", "run_eps_sweep", "xharness.run_eps_sweep"),
    ("xharness", "run_check", "xharness.run_check"),
    ("cli", "cli", "cli.cli"),
]

MODULES = ("genfn", "randgraph", "bp", "exact", "rde", "xharness", "cli")
GENERATORS = ("randgraph.ubgw_tree", "randgraph.erdos_renyi", "randgraph.configuration_model")
SWEEPS = ("bp.sweep_tree", "bp.squeeze", "bp.macroscopic_squeeze", "bp.scalar_sweep_eps")

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "randgraph.ubgw_tree.self_s": ("s", "lower"),
    "randgraph.assign_weights.self_s": ("s", "lower"),
    "randgraph.rngseed_generator.calls": ("count", "lower"),
    "randgraph.rngseed_generator.self_s": ("s", "lower"),
    "randgraph.vertices": ("count", "lower"),
    "randgraph.us_per_vertex": ("us", "lower"),
    "randgraph.erdos_renyi.self_s": ("s", "lower"),
    "randgraph.text_io.self_s": ("s", "lower"),
    "randgraph.self_s": ("s", "lower"),
    "genfn.sample_excess.calls": ("count", "lower"),
    "genfn.self_s": ("s", "lower"),
    "bp.squeeze.calls": ("count", "lower"),
    "bp.squeeze.self_s": ("s", "lower"),
    "bp.directed_edges": ("count", "lower"),
    "bp.us_per_directed_edge": ("us", "lower"),
    "bp.messages_read_ratio": ("ratio", "higher"),
    "bp.macroscopic_squeeze.self_s": ("s", "lower"),
    "bp.scalar_sweep_eps.self_s": ("s", "lower"),
    "bp.sweep_tree.self_s": ("s", "lower"),
    "bp.extract_matching.self_s": ("s", "lower"),
    "bp.self_s": ("s", "lower"),
    "exact.brute_force_opt.self_s": ("s", "lower"),
    "exact.mandatory_blocking.self_s": ("s", "lower"),
    "exact.uniform_max_matching.self_s": ("s", "lower"),
    "exact.leaf_removal.self_s": ("s", "lower"),
    "exact.leaf_removal.core_steps": ("count", "lower"),
    "exact.leaf_removal.us_per_edge": ("us", "lower"),
    "exact.perf_of.self_s": ("s", "lower"),
    "exact.self_s": ("s", "lower"),
    "rde.solve_system.self_s": ("s", "lower"),
    "rde.solve_system.iterations": ("count", "lower"),
    "rde.population_dynamics.self_s": ("s", "lower"),
    "rde.pool_updates": ("count", "lower"),
    "rde.ns_per_pool_update": ("ns", "lower"),
    "rde.rde_step.self_s": ("s", "lower"),
    "rde.self_s": ("s", "lower"),
    "xharness.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# metrics that count work; they must repeat exactly for a fixed seed
COUNTS = [name for name, (unit, _) in PER_LAYER.items() if unit == "count"]


class _ReadCountingDict(dict):
    """Dict that counts the entries its readers look up (iteration is not counted)."""

    __slots__ = ("tracer",)

    def __getitem__(self, key):
        self.tracer.counts["squeeze_reads"] += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.tracer.counts["squeeze_reads"] += 1
        return dict.get(self, key, default)


def _counting(tracer, mapping):
    out = _ReadCountingDict(mapping)
    out.tracer = tracer
    return out


# after-call hooks: hook(tracer, bound_arguments_or_None, result)
def _after_ubgw(tr, args, g):
    tr.counts["vertices"] += g.n
    # every non-boundary vertex draws its children from the excess law,
    # except a vertex root, which draws from pi
    if args["depth"] >= 1:
        vertex_root = 1 if args["rooting"] == "vertex" else 0
        tr.counts["ubgw_excess_draws"] += g.n - len(g.boundary) - vertex_root


def _after_graph(tr, args, g):
    tr.counts["vertices"] += g.n


def _after_sweep_tree(tr, args, field):
    tr.counts["directed_edges"] += len(field.messages)


def _after_squeeze(tr, args, sq):
    # two extremal sweeps, each computing one message per directed edge
    tr.counts["directed_edges"] += 2 * len(sq.certified)
    tr.counts["squeeze_edges"] += len(sq.certified)
    sq.certified = _counting(tr, sq.certified)
    sq.lower = _counting(tr, sq.lower)
    sq.upper = _counting(tr, sq.upper)


def _after_macroscopic_squeeze(tr, args, result):
    tr.counts["directed_edges"] += 2 * len(result[0])


def _after_scalar_sweep(tr, args, result):
    tr.counts["directed_edges"] += len(result[0])


def _after_leaf_removal(tr, args, result):
    tr.counts["leaf_removal_edges"] += args["g"].m
    # each random 2-core step deletes the two endpoints of one edge
    tr.counts["core_steps"] += result[2] // 2


def _after_solve_system(tr, args, system):
    tr.counts["solver_iterations"] += len(system.residuals)


def _after_population_dynamics(tr, args, sampler):
    tr.counts["pool_updates"] += args["iters"] * args["pool_size"]


# span name -> (hook, needs bound arguments)
HOOKS = {
    "randgraph.ubgw_tree": (_after_ubgw, True),
    "randgraph.erdos_renyi": (_after_graph, False),
    "randgraph.configuration_model": (_after_graph, False),
    "bp.sweep_tree": (_after_sweep_tree, False),
    "bp.squeeze": (_after_squeeze, False),
    "bp.macroscopic_squeeze": (_after_macroscopic_squeeze, False),
    "bp.scalar_sweep_eps": (_after_scalar_sweep, False),
    "exact.leaf_removal": (_after_leaf_removal, True),
    "rde.solve_system": (_after_solve_system, False),
    "rde.population_dynamics": (_after_population_dynamics, True),
}

COUNTERS = (
    "vertices",
    "ubgw_excess_draws",
    "directed_edges",
    "squeeze_edges",
    "squeeze_reads",
    "leaf_removal_edges",
    "core_steps",
    "solver_iterations",
    "pool_updates",
)


class Tracer:
    """Records spans of wrapped lexmatch calls; one instance per traced round."""

    def __init__(self, lexmatch_modules: dict):
        self.modules = lexmatch_modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, span: str, fn):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        hook, wants_args = HOOKS.get(span, (None, False))
        signature = inspect.signature(fn) if wants_args else None
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                bound = None
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    bound = bound.arguments
                hook(self, bound, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def install(self) -> None:
        for modname, attr, span in TARGETS:
            module = self.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(span, original))
                self._undo.append((owner, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original)
            for other in self.modules.values():
                for name, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, name, wrapper)
                        self._undo.append((other, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- analysis --------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return name, parent, start, end

    def summary(self) -> dict:
        """Per span name: calls, self seconds, inclusive seconds."""
        name, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_by = np.bincount(name, weights=self_time, minlength=k)
        incl_by = np.bincount(name, weights=dur, minlength=k)
        return {
            n: {"calls": int(calls[i]), "self_s": float(self_by[i]), "incl_s": float(incl_by[i])}
            for i, n in enumerate(self.names)
        }

    def calls_under(self, child: str, parent: str) -> int:
        """Number of `child` spans whose parent span is a `parent` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        name, par, _, _ = self._arrays()
        sel = (name == self._ids[child]) & (par >= 0)
        return int(np.count_nonzero(name[par[sel]] == self._ids[parent]))

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s."""
        spans = self.summary()
        zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}

        def span(n):
            return spans.get(n, zero)

        def module_self(mod):
            return sum(v["self_s"] for n, v in spans.items() if n.split(".")[0] == mod)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        c = self.counts
        gen_s = sum(span(n)["incl_s"] for n in GENERATORS) + span("randgraph.assign_weights")["incl_s"]
        sweep_s = sum(span(n)["incl_s"] for n in SWEEPS)
        out = {
            "randgraph.rngseed_generator.calls": span("randgraph.rngseed_generator")["calls"],
            "randgraph.vertices": c["vertices"],
            "randgraph.us_per_vertex": ratio(gen_s, c["vertices"], 1e6),
            "randgraph.text_io.self_s": span("randgraph.graph_to_text")["self_s"]
            + span("randgraph.graph_from_text")["self_s"],
            "genfn.sample_excess.calls": span("genfn.sample_excess")["calls"],
            "bp.squeeze.calls": span("bp.squeeze")["calls"],
            "bp.directed_edges": c["directed_edges"],
            "bp.us_per_directed_edge": ratio(sweep_s, c["directed_edges"], 1e6),
            "bp.messages_read_ratio": ratio(c["squeeze_reads"], c["squeeze_edges"]),
            "exact.leaf_removal.core_steps": c["core_steps"],
            "exact.leaf_removal.us_per_edge": ratio(
                span("exact.leaf_removal")["incl_s"], c["leaf_removal_edges"], 1e6
            ),
            "rde.solve_system.iterations": c["solver_iterations"],
            "rde.pool_updates": c["pool_updates"],
            "rde.ns_per_pool_update": ratio(
                span("rde.population_dynamics")["incl_s"], c["pool_updates"], 1e9
            ),
        }
        for metric in PER_LAYER:
            if metric in out or metric == "trace.overhead_s":
                continue
            stem = metric[: -len(".self_s")]
            out[metric] = module_self(stem) if stem in MODULES else span(stem)["self_s"]
        return out

    def check_counts(self, expected: dict) -> list[str]:
        """Compare span call counts with what the workload knows it called."""
        spans = self.summary()
        problems = []
        for span, want in expected.items():
            got = spans.get(span, {"calls": 0})["calls"]
            if got != want:
                problems.append(f"trace: {span} recorded {got} calls, workload made {want}")
        # generators the tree builder constructs, and its excess-law draws
        ubgw = spans.get("randgraph.ubgw_tree", {"calls": 0})["calls"]
        under = self.calls_under("randgraph.rngseed_generator", "randgraph.ubgw_tree")
        if under != ubgw:
            problems.append(f"trace: {under} generators under {ubgw} ubgw_tree calls")
        draws = self.calls_under("genfn.sample_excess", "randgraph.ubgw_tree")
        if draws != self.counts["ubgw_excess_draws"]:
            problems.append(
                f"trace: {draws} excess-law draws recorded inside ubgw_tree, "
                f"the returned trees need {self.counts['ubgw_excess_draws']}"
            )
        return problems

    def write(self, path: str) -> None:
        name, parent, start, end = self._arrays()
        t0 = float(start.min()) if len(start) else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=name.astype(np.int32),
            parent=parent.astype(np.int32),
            start=start - t0,
            end=end - t0,
        )
