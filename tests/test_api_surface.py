"""The names the package exports and the functions the benchmark tracer wraps exist.

A deletion that leaves a stale `__all__` entry or a stale tracer target
fails here rather than inside a traced benchmark round.
"""

import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import lexmatch

MODULES = sorted(m.name for m in pkgutil.iter_modules(lexmatch.__path__) if m.name != "__main__")
SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"lexmatch.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("lexmatch_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = []
    for module, attr, _ in spans.TARGETS:
        obj = importlib.import_module(f"lexmatch.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            unresolved.append(f"{module}.{attr}")
    assert spans.TARGETS and unresolved == []
