"""The names the package exports and the functions the benchmark tracer wraps exist.

A deletion that leaves a stale `__all__` entry or a stale tracer target
fails here rather than inside a traced benchmark round.
"""

import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import pytest

import lexmatch

MODULES = sorted(m.name for m in pkgutil.iter_modules(lexmatch.__path__) if m.name != "__main__")
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
