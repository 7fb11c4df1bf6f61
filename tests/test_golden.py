"""Byte identity of command outputs against the files in tests/golden/.

Each case runs one or more `lexmatch` commands in process, with fixed
seeds, and compares every file they write, their stdout and stderr and
their exit codes with the committed copy, byte for byte.  A refactor must
leave all of it unchanged.

A change that alters the realized random draws on purpose (a new seed
derivation or a new tree sampler, say), or that replaces a formula on
purpose (a closed form for a quadrature, say), regenerates the cases it
moves with

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]

(every case when none is named) and says so in CHANGES.md, listing the
values that moved.
"""

import io
import itertools
import pathlib
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lexmatch import bp, exact
from lexmatch.cli import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# case name -> commands; "{out}" stands for the case's output directory
_GEN = ["gen", "--model", "ubgw", "--law", "poisson:2.0", "--depth", "6", "--seed", "3"]
CASES = {
    "check": [["check", "--out", "{out}"]],
    "decay": [["decay", "--samples", "300", "--h-max", "6", "--out", "{out}"]],
    # --stream selects its own sub-tree of seed paths
    "decay-stream": [["decay", "--samples", "300", "--h-max", "6", "--stream", "3", "--out", "{out}"]],
    "mandatory": [["mandatory", "--samples", "400", "--depth", "6", "--out", "{out}"]],
    "separation": [["separation", "--samples", "300", "--format", "json", "--out", "{out}"]],
    "eps-sweep": [["eps-sweep", "--trees", "40", "--out", "{out}"]],
    "size": [["size", "--n", "2000", "--replicas", "4", "--out", "{out}"]],
    "solve": [["solve", "--grid-points", "512", "--out", "{out}"]],
    "gen-match-vertex": [
        _GEN + ["--out", "{out}/tree.txt"],
        ["match", "--graph", "{out}/tree.txt"],
    ],
    "gen-match-edge": [
        _GEN + ["--rooting", "edge", "--out", "{out}/tree.txt"],
        ["match", "--graph", "{out}/tree.txt"],
    ],
    # the binomial and geometric families (pmf: laws are left out: their
    # excess pgf is a polynomial whose last bits depend on how it is evaluated)
    "solve-binom": [["solve", "--law", "binom:3:0.5", "--grid-points", "512", "--out", "{out}"]],
    # k = 2: the undamped attempt stalls and the half-damped one restarts
    "solve-k2": [["solve", "--law", "poisson:3.0", "--grid-points", "512", "--out", "{out}"]],
    # k = 0 on a leafless excess law: the pinned-limit variant and its recentring
    "solve-leafless": [["solve", "--law", "binom:3:1.0", "--grid-points", "512", "--out", "{out}"]],
    "solve-k3": [["solve", "--law", "poisson:1.0", "--k", "3", "--grid-points", "512", "--out", "{out}"]],
    "size-binom": [["size", "--law", "binom:3:0.5", "--n", "2000", "--replicas", "4", "--out", "{out}"]],
    "decay-binom": [
        ["decay", "--law", "binom:2:0.5", "--samples", "300", "--h-max", "6", "--out", "{out}"]
    ],
    "mandatory-binom": [
        ["mandatory", "--law", "binom:3:0.5", "--samples", "300", "--depth", "6",
         "--cross-forests", "50", "--out", "{out}"]
    ],
    "separation-geom": [["separation", "--law", "geom:0.5", "--samples", "300", "--out", "{out}"]],
    "gen-match-geom": [
        ["gen", "--model", "ubgw", "--law", "geom:0.5", "--depth", "5", "--seed", "3",
         "--out", "{out}/tree.txt"],
        ["match", "--graph", "{out}/tree.txt"],
    ],
    "gen-match-binom1-edge": [
        ["gen", "--model", "ubgw", "--law", "binom:1:0.7", "--rooting", "edge", "--seed", "3",
         "--out", "{out}/tree.txt"],
        ["match", "--graph", "{out}/tree.txt"],
    ],
    # atomic weights: every matching of a size ties, and match reads the optimum all the same
    "gen-match-const": [
        ["gen", "--model", "ubgw", "--law", "poisson:2.0", "--depth", "4", "--weights", "const:1.0",
         "--seed", "1", "--out", "{out}/tree.txt"],
        ["match", "--graph", "{out}/tree.txt"],
    ],
    # forests not numbered breadth first: match orients them by BFS over the csr
    "gen-match-er": [
        ["gen", "--model", "er", "--n", "300", "--c", "0.5", "--seed", "1", "--out", "{out}/g.txt"],
        ["match", "--graph", "{out}/g.txt"],
    ],
    "gen-match-config": [
        ["gen", "--model", "config", "--n", "300", "--law", "poisson:0.5", "--seed", "1",
         "--out", "{out}/g.txt"],
        ["match", "--graph", "{out}/g.txt"],
    ],
}


def run_case(commands, out: pathlib.Path) -> dict[str, bytes]:
    """Files written under `out`, plus a transcript of each command's exit code and output."""
    transcript = []
    for argv in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli([arg.replace("{out}", str(out)) for arg in argv])
        transcript += [
            f"$ lexmatch {shlex.join(argv)}",
            f"exit {code}",
            "--- stdout",
            stdout.getvalue(),
            "--- stderr",
            stderr.getvalue(),
        ]
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    files["transcript.txt"] = "\n".join(transcript).encode()
    return files


def first_line_difference(want: bytes, got: bytes) -> str:
    """The first line (numbered from 1) where got differs from want, expected against actual."""
    lines = itertools.zip_longest(want.splitlines(keepends=True), got.splitlines(keepends=True))
    for i, (a, b) in enumerate(lines, 1):
        if a != b:
            return f"line {i}: expected {a!r}, got {b!r}"
    return "no line differs"


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden(name, tmp_path):
    got = run_case(CASES[name], tmp_path)
    case_dir = GOLDEN / name
    want = {p.relative_to(case_dir).as_posix(): p.read_bytes() for p in case_dir.rglob("*") if p.is_file()}
    assert sorted(got) == sorted(want)
    for fname in want:
        assert got[fname] == want[fname], (
            f"{name}/{fname} differs from the golden copy at {first_line_difference(want[fname], got[fname])}"
        )


@pytest.mark.parametrize("name", CASES)
def test_array_forms_match_golden(name, tmp_path, monkeypatch):
    # every forest, however small, swept and extracted in arrays: the same bytes
    monkeypatch.setattr(bp, "_ARRAY_MIN", 1)
    test_outputs_match_golden(name, tmp_path)


@pytest.mark.parametrize("name", CASES)
def test_matching_tables_match_golden(name, tmp_path, monkeypatch):
    # every graph, however small, enumerated as a bitmask table: the same bytes
    monkeypatch.setattr(exact, "_ARRAY_EDGES", 0)
    test_outputs_match_golden(name, tmp_path)


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden case(s): {' '.join(unknown)}; known: {' '.join(CASES)}")
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(CASES[name], pathlib.Path(tmp))
        case_dir = GOLDEN / name
        case_dir.mkdir(parents=True, exist_ok=True)
        for stale in case_dir.iterdir():
            stale.unlink()
        for fname, data in files.items():
            (case_dir / fname).write_bytes(data)
        print(f"wrote {case_dir} ({len(files)} files)")
