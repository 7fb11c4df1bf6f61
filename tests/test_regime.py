"""The regime read off the structure of the doubled map D(t) = S(S(t)), S(t) = hphi(1-t).

S is decreasing, so D fixes gamma = S(gamma) and pairs every other fixed
point with its conjugate S(t).  F_pi'(x) = m hphi'(1-x) (D(x) - x), so the
maxima of F_pi are the fixed points where D(x) - x falls through zero.
"""

import json
import math

import numpy as np
import pytest

from lexmatch import genfn
from lexmatch.cli import cli
from lexmatch.genfn import OffspringLaw, parse_law

# law -> (k, unique_double_fp, number of doubled-map fixed points); a count of
# 0 marks the degenerate family (D the identity on [0, 1])
LAW_TABLE = [
    ("poisson:0.05", 1, True, 1),
    ("poisson:0.1", 1, True, 1),
    ("poisson:0.25", 1, True, 1),
    ("poisson:0.5", 1, True, 1),
    ("poisson:0.75", 1, True, 1),
    ("poisson:1", 1, True, 1),
    ("poisson:1.5", 1, True, 1),
    ("poisson:2", 1, True, 1),
    ("poisson:2.5", 1, True, 1),
    ("poisson:2.7", 1, True, 1),
    ("poisson:2.75", 2, False, 3),
    ("poisson:3", 2, False, 3),
    ("poisson:3.5", 2, False, 3),
    ("poisson:4", 2, False, 3),
    ("poisson:5", 2, False, 3),
    ("poisson:7", 2, False, 3),
    ("poisson:10", 2, False, 3),
    ("poisson:20", 2, False, 3),
    # the low fixed point is tiny (1.4e-11, 1.9e-22, 5.1e-131) but interior
    ("poisson:25", 2, False, 3),
    ("poisson:50", 2, False, 3),
    ("poisson:300", 2, False, 3),
    ("binom:1:0.5", 0, False, 1),
    ("binom:2:0.5", 1, True, 1),
    ("binom:3:0.5", 1, True, 1),
    ("binom:3:1.0", 0, True, 3),
    ("binom:4:0.9", 2, False, 3),
    ("binom:6:0.6", 2, False, 3),
    ("binom:10:0.5", 2, False, 3),
    ("binom:50:0.5", 2, False, 3),
    ("binom:1000:0.5", 2, False, 3),
    # pi on {0, 2}: the excess law is the point mass at 1
    ("binom:2:1.0", 0, False, 0),
    ("pmf:1", 0, False, 1),
    ("pmf:0,1", 0, False, 1),
    ("pmf:0.2,0.5,0.3", 1, True, 1),
    ("pmf:0.5,0,0.5", 0, False, 0),
    ("pmf:0,0,0.5,0.5", 0, True, 3),
    # leafless, and D'(0) = hphi'(0) hphi'(1) > 1: the fixed point 0 is a minimum of F_pi
    ("pmf:0,0,0.789473684210526,0,0,0.210526315789474", 1, True, 3),
    ("pmf:0.1,0,0,0,0,0.9", 0, True, 3),
    ("geom:0.5", 0, False, 0),
    ("geom:1e-6", 0, False, 0),
    ("geom:1e-8", 0, False, 0),
    ("pmf:0,0,0.5" + ",0" * 9 + ",0.5", 2, False, 5),
    ("pmf:0,0,0.3" + ",0" * 17 + ",0.7", 0, True, 3),
    ("pmf:0,0,0.8" + ",0" * 27 + ",0.2", 1, True, 3),
]


def lambert_w_over_c(c: float) -> float:
    """Independent oracle: the root of g e^(c g) = 1, by Newton from g = 1/(1 + c)."""
    g = 1.0 / (1.0 + c)
    for _ in range(100):
        step = (g - math.exp(-c * g)) / (1.0 + c * math.exp(-c * g))
        g -= step
        if abs(step) < 1e-17:
            break
    return g


@pytest.mark.parametrize("spec, k, unique, count", LAW_TABLE, ids=[row[0] for row in LAW_TABLE])
class TestLawSweep:
    def test_report_matches_table(self, spec, k, unique, count):
        report = genfn.macroscopic_law(parse_law(spec))
        assert (report.k, report.unique_double_fp, len(report.fixed_points)) == (k, unique, count)
        assert report.degenerate_family == (count == 0)
        assert len(report.atoms) == k + 1 and sum(report.atoms) == pytest.approx(1.0, abs=1e-12)

    def test_fixed_points_are_gamma_and_conjugate_pairs(self, spec, k, unique, count):
        law = parse_law(spec)
        fps = genfn.macroscopic_law(law).fixed_points
        if count == 0:
            return
        assert len(fps) % 2 == 1
        assert all(a < b for a, b in zip(fps, fps[1:]))
        gamma = fps[len(fps) // 2]
        assert gamma == genfn.single_fixed_point(law)
        assert abs(law.excess_pgf(1.0 - gamma) - gamma) <= 1e-12
        for t in fps:
            assert abs(genfn.double_map(law, t) - t) < 1e-9
            assert min(abs(law.excess_pgf(1.0 - t) - s) for s in fps) < 1e-9
        if law.family == "poisson":
            c = law.params[0]
            assert gamma == pytest.approx(lambert_w_over_c(c), abs=1e-12)
            # abs=0: the low can lie far below approx's default absolute tolerance
            assert fps[0] == pytest.approx(math.exp(-c * fps[-1]), rel=1e-12, abs=0)


@pytest.mark.parametrize("spec", ["poisson:0.5", "poisson:3", "binom:4:0.9", "pmf:0.2,0.5,0.3"])
def test_F_pi_derivative_identity(spec):
    law = parse_law(spec)
    xs = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    numeric = (genfn.F_pi(law, xs + h) - genfn.F_pi(law, xs - h)) / (2.0 * h)
    closed = law.mean * law.excess_pgf(1.0 - xs, 1) * (genfn.double_map(law, xs) - xs)
    assert np.allclose(numeric, closed, atol=1e-8)


DELTAS = [10.0**-j for j in range(2, 9)]


@pytest.mark.parametrize("delta", [0.0] + DELTAS)
def test_one_fixed_point_below_e(delta):
    report = genfn.macroscopic_law(OffspringLaw.poisson(math.e - delta))
    assert (report.k, len(report.fixed_points)) == (1, 1)


@pytest.mark.parametrize("delta", DELTAS)
def test_a_conjugate_pair_above_e(delta):
    law = OffspringLaw.poisson(math.e + delta)
    report = genfn.macroscopic_law(law)
    assert (report.k, len(report.fixed_points)) == (2, 3)
    gl, _, gh = report.fixed_points
    assert gh == pytest.approx(math.exp(-law.params[0] * gl), abs=1e-12)
    assert report.atoms == (gl, gh - gl, 1.0 - gh)


def test_degenerate_family_read_off_the_law(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the degenerate test evaluates no doubled map")

    monkeypatch.setattr(genfn, "double_map", no_scan)
    report = genfn.macroscopic_law(parse_law("geom:1e-8"))
    assert report.degenerate_family and report.fixed_points == ()


def test_solve_just_above_e_is_a_one_line_no_convergence(capsys):
    assert cli(["solve", "--law", "poisson:2.71829", "--grid-points", "512"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no convergence: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_decay_just_above_e_refused_as_k2(capsys):
    assert cli(["decay", "--law", "poisson:2.7183"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: decay experiment needs the k=1 regime, got k=2\n"


def test_decay_at_large_mean_refused_as_k2(capsys):
    assert cli(["decay", "--law", "poisson:25"]) == 1
    assert capsys.readouterr().err == "error: decay experiment needs the k=1 regime, got k=2\n"


def test_mandatory_at_large_mean_needs_a_unique_fixed_point(capsys):
    argv = ["mandatory", "--law", "poisson:30", "--depth", "2", "--samples", "10"]
    assert cli(argv + ["--cross-forests", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mandatory/blocking densities need a unique doubled fixed point")
    assert err.count("\n") == 1


def test_solve_refuses_geom_1e_6_as_degenerate(capsys):
    assert cli(["solve", "--law", "geom:1e-6", "--grid-points", "512"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solve experiment needs a law outside the degenerate family")
    assert err.count("\n") == 1


def test_solve_at_large_mean_runs_at_k2(tmp_path, capsys):
    assert cli(["solve", "--law", "poisson:25", "--grid-points", "512", "--out", str(tmp_path)]) == 0
    assert "[PASS] solve/edge_density_formula_gap" in capsys.readouterr().out
    records = json.loads((tmp_path / "solve.json").read_text())["records"]
    assert {rec["params"]["k"] for rec in records} == {2}
