"""The names the package exports and the functions the benchmark tracer wraps exist.

A deletion that leaves a stale `__all__` entry or a stale tracer target
fails here rather than inside a traced benchmark round.
"""

import ast
import dataclasses
import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import pytest

import lexmatch

MODULES = sorted(m.name for m in pkgutil.iter_modules(lexmatch.__path__) if m.name != "__main__")
SRC = pathlib.Path(lexmatch.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def _load(path: pathlib.Path):
    """Import a bench/ script by path, leaving no bytecode cache under bench/."""
    spec = importlib.util.spec_from_file_location(f"lexmatch_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"lexmatch.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def _reads(node) -> set:
    """What node reads: each name, and each attribute as ".attr"."""
    return {
        sub.id if isinstance(sub, ast.Name) else "." + sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }


def _units(name: str):
    """(qualified name, node) for each top-level statement of a lexmatch module; a
    class gives its bases and decorators, then each statement of its body."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield stmt.name, ast.Module(stmt.bases + stmt.decorator_list, [])
            for sub in stmt.body:
                yield f"{stmt.name}.{getattr(sub, 'name', '')}", sub
        else:
            yield getattr(stmt, "name", ""), stmt


def test_every_export_is_read_by_the_package_or_the_benchmark():
    # each name in a module's __all__, and each public method or property of an
    # exported class, is read somewhere in src/ outside its own def or class, or
    # in bench/ (the tracer's targets included); a name that only tests read
    # belongs in the tests
    reads = [(f"{name}.{qual}", _reads(node)) for name in MODULES for qual, node in _units(name)]
    bench = set().union(*(_reads(ast.parse(p.read_text(encoding="utf-8"))) for p in BENCH.glob("*.py")))
    bench.update("." + part for _, attr, _ in _load(SPANS).TARGETS for part in attr.split("."))
    unread = []
    for name in MODULES:
        exported = getattr(importlib.import_module(f"lexmatch.{name}"), "__all__", [])
        members = []
        for qual, node in _units(name):
            owner, _, member = qual.partition(".")
            if owner in exported and member[:1] not in ("", "_") and isinstance(node, ast.FunctionDef):
                members.append(qual)
        for qual in exported + members:
            own, last = f"{name}.{qual}", qual.rpartition(".")[2]
            # a member is read as an attribute, a module's name either way
            wanted = {"." + last} if "." in qual else {last, "." + last}
            elsewhere = (names for where, names in reads if where != own and not where.startswith(own + "."))
            if not wanted & bench and not any(wanted & names for names in elsewhere):
                unread.append(own)
    assert unread == [], "\n".join(unread)


def test_tracer_targets_resolve():
    spans = _load(SPANS)
    unresolved = []
    for module, attr, _ in spans.TARGETS:
        obj = importlib.import_module(f"lexmatch.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            unresolved.append(f"{module}.{attr}")
    assert spans.TARGETS and unresolved == []


def test_solve_workload_round_passes_its_checks(tmp_path):
    # one traced round of the benchmark's solve workload: its checks compare
    # plateaus across rounds with != and its tracer hooks read
    # CdfSystem.residuals and the pool_size and iters arguments
    spans, workloads = _load(SPANS), _load(BENCH / "workloads.py")
    modules = {name: importlib.import_module(f"lexmatch.{name}") for name in spans.MODULES}
    wl = workloads.WORKLOADS["solve"](1, str(tmp_path))
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        results = {label: op() for label, op in wl.operations()}
    finally:
        tracer.uninstall()
    assert tracer.check_counts(wl.expected_calls()) == []
    assert wl.check([results]) == []
    solved = [results["solve_k1"], results["solve_k2"]]
    assert tracer.counts["solver_iterations"] == sum(len(s.residuals) for s in solved)


def test_decay_workload_round_makes_its_traced_calls(tmp_path):
    # one traced round of the benchmark's decay workload at 200 trees a radius:
    # one generator per ubgw_tree and per assign_weights call, and one
    # sample_excess per drawn vertex, as the per-tree seed blocks must keep
    spans, workloads = _load(SPANS), _load(BENCH / "workloads.py")
    modules = {name: importlib.import_module(f"lexmatch.{name}") for name in spans.MODULES}
    wl = workloads.WORKLOADS["decay"](1, str(tmp_path))
    wl.cfg = dataclasses.replace(wl.cfg, samples=200)
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        for _, op in wl.operations():
            op()
    finally:
        tracer.uninstall()
    assert tracer.check_counts(wl.expected_calls()) == []
    assert tracer.summary()["randgraph.rngseed_generator"]["calls"] == 2 * 200 * len(wl.radii)


def test_tracer_counts_the_sweep_views():
    # the tracer's hooks take len() of the mappings the sweeps return and
    # replace SqueezeResult's views by read-counting dict copies
    from lexmatch import bp
    from lexmatch.genfn import OffspringLaw
    from lexmatch.randgraph import RngSeed, WeightLaw, assign_weights, ubgw_tree

    spans = _load(SPANS)
    modules = {name: importlib.import_module(f"lexmatch.{name}") for name in spans.MODULES}
    trees = [
        assign_weights(
            ubgw_tree(OffspringLaw.poisson(1.5), "vertex", 1 + i % 4, RngSeed(57, i)),
            WeightLaw.uniform(0, 1),
            RngSeed(58, i),
        )
        for i in range(20)
    ]

    def run(g):
        sq = bp.squeeze(g, 1)
        levels, certified = bp.macroscopic_squeeze(g)
        return bp.sweep_tree(g, 1).messages, sq, levels, certified, bp.scalar_sweep_eps(g, 0.5)[0]

    untraced = [run(g) for g in trees]
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        traced = [run(g) for g in trees]
        reads = [sq.certified[key] for _, sq, *_ in traced for key in list(sq.certified)[:1]]
    finally:
        tracer.uninstall()
    calls = ("bp.sweep_tree", "bp.squeeze", "bp.macroscopic_squeeze", "bp.scalar_sweep_eps")
    assert tracer.check_counts(dict.fromkeys(calls, len(trees))) == []
    lengths = sum(
        len(msgs) + len(sq.lower) + len(sq.upper) + len(levels) + len(certified) + len(z)
        for msgs, sq, levels, certified, z in untraced
    )
    assert lengths == 6 * sum(2 * g.m for g in trees) > 0
    assert tracer.counts["directed_edges"] == lengths
    assert tracer.counts["squeeze_edges"] == sum(len(sq.certified) for _, sq, *_ in untraced)
    assert tracer.counts["squeeze_reads"] == len(reads) > 0
    for (_, sq, *_), (_, before, *_) in zip(traced, untraced):
        assert isinstance(sq.certified, spans._ReadCountingDict)
        assert sq.lower == before.lower and sq.upper == before.upper
        assert sq.certified == before.certified and list(sq.certified) == list(before.certified)
