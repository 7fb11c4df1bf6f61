"""Experiment drivers, config plumbing, CLI determinism and exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexmatch
from lexmatch import exact, genfn, rde, xharness
from lexmatch.cli import cli
from lexmatch.randgraph import GraphError, WeightedGraph, graph_from_text, graph_to_text
from lexmatch.xharness import (
    CertificationError,
    ExperimentConfig,
    RegimeMismatchError,
    config_from,
    load_config_file,
    run_check,
    run_decay,
    run_eps_sweep,
    run_mandatory,
    run_separation,
    run_size,
)


class TestRunSize:
    def test_poisson_small(self):
        recs = run_size(ExperimentConfig(experiment="size", n=4000, replicas=5, seed=3))
        rec = recs[0]
        assert rec.passed
        assert abs(rec.estimate - 0.544062) < 0.01

    def test_empty_law(self):
        recs = run_size(
            ExperimentConfig(experiment="size", law="pmf:1.0", n=500, replicas=3, seed=4)
        )
        assert recs[0].estimate == 0.0 and recs[0].reference == 0.0 and recs[0].passed

    def test_perfect_pairing(self):
        recs = run_size(
            ExperimentConfig(experiment="size", law="pmf:0,1", n=1000, replicas=3, seed=5)
        )
        assert recs[0].reference == pytest.approx(1.0, abs=1e-9)
        assert recs[0].estimate == pytest.approx(1.0, abs=0.01)
        assert recs[0].passed

    def test_certification_refusal(self):
        # dense supercritical graphs leave a large 2-core: no certification
        with pytest.raises(CertificationError):
            run_size(ExperimentConfig(experiment="size", law="poisson:8.0", n=400, replicas=4, seed=6))


class TestRunDecay:
    def test_small_run_shape(self):
        recs = run_decay(
            ExperimentConfig(experiment="decay", samples=400, h_min=2, h_max=8, seed=7)
        )
        rec = recs[0]
        assert [pt["H"] for pt in rec.curve] == [2, 4, 6, 8]
        assert rec.reference == pytest.approx(math.log(math.exp(-1.0)), abs=1e-6)

    def test_very_subcritical_forgets_fast(self):
        recs = run_decay(
            ExperimentConfig(
                experiment="decay", law="poisson:0.2", samples=2000, h_min=4, h_max=6, seed=8
            )
        )
        assert recs[0].curve[0]["uncertified_fraction"] < 0.01

    def test_regime_gate(self):
        with pytest.raises(RegimeMismatchError):
            run_decay(ExperimentConfig(experiment="decay", law="poisson:3.0", samples=10, seed=9))


class TestRunMandatory:
    def test_gate_and_probe(self):
        with pytest.raises(RegimeMismatchError):
            run_mandatory(ExperimentConfig(experiment="mandatory", law="poisson:3.0", samples=10))
        recs = run_mandatory(
            ExperimentConfig(
                experiment="mandatory",
                law="poisson:3.0",
                samples=150,
                depth=4,
                seed=10,
                conjecture_probe=True,
                cross_forests=60,
            )
        )
        density_recs = [r for r in recs if r.name.endswith("edge_density")]
        assert all(r.passed is None for r in density_recs)
        assert all("conjecture probe" in r.notes for r in density_recs)

    def test_partition_counts(self):
        recs = run_mandatory(
            ExperimentConfig(
                experiment="mandatory", samples=500, depth=10, seed=11, cross_forests=150
            )
        )
        m = next(r for r in recs if r.name == "mandatory_edge_density")
        b = next(r for r in recs if r.name == "blocking_edge_density")
        assert 0.0 <= m.estimate <= 1.0 and 0.0 <= b.estimate <= 1.0
        cross = next(r for r in recs if "mismatches" in r.name)
        assert cross.estimate == 0.0 and cross.passed


class TestRunSeparation:
    def test_p2_references(self):
        recs = run_separation(ExperimentConfig(experiment="separation", p=2, samples=900, seed=12))
        weighted = next(r for r in recs if r.name.startswith("weighted"))
        uniform = next(r for r in recs if r.name.startswith("uniform"))
        assert weighted.reference == pytest.approx(1 - (2.0 / 3.0) ** 3, abs=1e-12)
        assert uniform.reference == pytest.approx(0.6, abs=1e-12)
        assert weighted.passed and uniform.passed

    def test_invariance_record(self):
        recs = run_separation(ExperimentConfig(experiment="separation", p=1, samples=900, seed=13))
        gap = next(r for r in recs if "invariance" in r.name)
        assert gap.passed

    def test_p_over_enumeration_cap_rejected_before_sampling(self, monkeypatch):
        # the largest p whose (p + 1)^2 star-of-stars edges fit the cap runs
        assert (3 + 1) ** 2 <= xharness.exact._ENUM_EDGE_CAP < (4 + 1) ** 2
        run_separation(ExperimentConfig(experiment="separation", p=3, samples=2, seed=13))
        monkeypatch.setattr(xharness, "assign_weights", None)  # no sampling may start
        for p in (4, 5, 9):
            with pytest.raises(xharness.HarnessError, match="needs p <= 3"):
                run_separation(ExperimentConfig(experiment="separation", p=p, samples=5, seed=13))


class TestRunEpsSweep:
    def test_reaches_zero(self):
        recs = run_eps_sweep(ExperimentConfig(experiment="eps-sweep", trees=120, seed=14))
        rec = recs[0]
        assert rec.passed
        assert rec.curve[-1]["disagreement_fraction"] == 0.0
        assert "violations=0" in rec.notes


class TestRunCheck:
    def test_all_pass(self):
        recs = run_check(ExperimentConfig(experiment="check", seed=15))
        assert all(r.passed for r in recs)
        names = {r.name for r in recs}
        assert "recursion_self_consistency" in names
        assert "anti_monotone_squeeze_bounds" in names
        assert "perf_vertex_edge_proportionality" in names

    @pytest.mark.parametrize(
        "error", [xharness.bp.FieldInconsistencyError, xharness.exact.NotAMatchingError]
    )
    def test_extraction_failure_is_a_failed_record(self, monkeypatch, capsys, error):
        def broken(g, field):
            raise error("injected")

        monkeypatch.setattr(xharness.bp, "extract_matching", broken)
        assert cli(["check"]) == 2
        captured = capsys.readouterr()
        assert "[FAIL] check/matching_disjointness_and_rule_equivalence" in captured.out
        assert captured.out.count("[PASS]") == 3 and captured.err == ""


class TestConfigPlumbing:
    def test_load_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("law = poisson:2.0\nsamples = 77  # comment\n\n# full comment\n")
        mapping = load_config_file(str(path))
        cfg = config_from("decay", mapping)
        assert cfg.law == "poisson:2.0" and cfg.samples == 77

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(xharness.HarnessError):
            load_config_file(str(path))

    @pytest.mark.parametrize(
        "runner, fields",
        [(run_decay, {"h_step": 0}), (run_eps_sweep, {"eps_min_exp": 5, "eps_max_exp": 3})],
        ids=["decay-h-step", "eps-sweep-exponents"],
    )
    def test_empty_ranges_rejected(self, runner, fields):
        with pytest.raises(xharness.HarnessError):
            runner(ExperimentConfig(**fields))

    @pytest.mark.parametrize(
        "experiment, key, value",
        [("decay", "samples", "abc"), ("solve", "grid_t", "tight"), ("solve", "k", "two")],
        ids=["samples-abc", "grid-t-tight", "k-two"],
    )
    def test_malformed_value_names_key_and_value(self, experiment, key, value):
        with pytest.raises(xharness.HarnessError) as exc:
            config_from(experiment, {key: value})
        assert str(exc.value) == f"invalid value {value!r} for config key {key!r}"

    @pytest.mark.parametrize(
        "value, expected",
        [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)],
    )
    def test_boolean_spellings(self, value, expected):
        assert config_from("mandatory", {"conjecture_probe": value}).conjecture_probe is expected

    @pytest.mark.parametrize("value", ["ture", "", "2", "on"])
    def test_malformed_boolean_rejected(self, value):
        with pytest.raises(xharness.HarnessError) as exc:
            config_from("mandatory", {"conjecture_probe": value})
        assert str(exc.value) == f"invalid value {value!r} for config key 'conjecture_probe'"


class TestRangeTable:
    """ExperimentConfig checks each bounded field against xharness._LEAST when it is made."""

    def test_keys_are_fields_some_experiment_reads(self):
        read = set().union(*xharness.READS.values())
        assert set(xharness._LEAST) <= read & set(ExperimentConfig.__dataclass_fields__)

    @pytest.mark.parametrize("key, low", list(xharness._LEAST.items()))
    def test_default_in_range_and_one_below_rejected(self, key, low):
        default = ExperimentConfig.__dataclass_fields__[key].default
        assert default is None or default >= low
        with pytest.raises(xharness.HarnessError) as exc:
            ExperimentConfig(**{key: low - 1})
        assert str(exc.value) == f"check experiment needs {key} >= {low}, got {low - 1}"

    def test_record_judges_itself_unless_given_a_flag(self):
        def record(estimate, passed=None):
            return xharness.ResultRecord("x", "y", {}, estimate, 0.1, 1.0, "", 0.2, passed)

        # the band is max(tolerance, 3 * SE) = 0.3
        assert [record(1.29).passed, record(1.31).passed, record(None).passed] == [True, False, None]
        assert record(1.0, passed=False).passed is False


class _RecordingConfig(ExperimentConfig):
    """ExperimentConfig that records the names of the fields read from it."""

    def __getattribute__(self, name):
        if name in ExperimentConfig.__dataclass_fields__:
            object.__getattribute__(self, "fields_read").add(name)
        return object.__getattribute__(self, name)


class TestParameterTable:
    """READS names exactly the fields each runner reads; the CLI follows it."""

    @pytest.mark.parametrize(
        "experiment, fields",
        [
            ("size", dict(n=300, replicas=2)),
            ("decay", dict(samples=5, h_min=2, h_max=4)),
            # outside the unique-fixed-point regime, so that conjecture_probe is read
            ("mandatory", dict(law="poisson:3.0", conjecture_probe=True, depth=4, samples=20,
                               cross_forests=3)),
            ("separation", dict(samples=5)),
            ("eps-sweep", dict(trees=3, eps_min_exp=1, eps_max_exp=3)),
            ("check", dict()),
            ("solve", dict(grid_points=128)),
        ],
        ids=["size", "decay", "mandatory", "separation", "eps-sweep", "check", "solve"],
    )
    def test_table_matches_fields_runner_reads(self, experiment, fields):
        runner = xharness.run_solve if experiment == "solve" else xharness.RUNNERS[experiment]
        cfg = _RecordingConfig(experiment=experiment, **fields)
        object.__setattr__(cfg, "fields_read", set())
        runner(cfg)
        assert cfg.fields_read == set(xharness.READS[experiment])

    @staticmethod
    def listed_flags(experiment, capsys) -> set:
        with pytest.raises(SystemExit):
            cli([experiment, "--help"])
        return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))

    @pytest.mark.parametrize("experiment", list(xharness.READS))
    def test_help_lists_exactly_the_table(self, experiment, capsys):
        listed = self.listed_flags(experiment, capsys)
        spelled = {
            "--probe" if key == "conjecture_probe" else "--" + key.replace("_", "-")
            for key in xharness.READS[experiment]
        }
        assert listed == spelled | {"--help", "--config", "--out", "--format"}

    # the parameter flags every experiment command took before the table
    _FORMER_FLAGS = {
        "--law": "poisson:1.0", "--weights": "uniform:0:1", "--weights-b": "exp:1.0",
        "--n": "50", "--depth": "3", "--replicas": "2", "--samples": "5", "--trees": "3",
        "--p": "1", "--h-min": "2", "--h-max": "4", "--tolerance": "0.5", "--probe": None,
        "--seed": "3",
    }

    @pytest.mark.parametrize("experiment", list(xharness.READS))
    def test_flags_the_experiment_does_not_read_exit_1(self, experiment, capsys):
        # e.g. eps-sweep --law, check --samples, decay --tolerance, solve --seed
        listed = self.listed_flags(experiment, capsys)
        unread = [flag for flag in self._FORMER_FLAGS if flag not in listed]
        for flag in unread:
            value = self._FORMER_FLAGS[flag]
            for argv in ([flag], [flag, value] if value else [flag]):
                assert cli([experiment] + argv) == 1, argv
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.startswith("usage error: "), argv

    def test_format_both_usage_error(self, capsys):
        assert cli(["check", "--format", "both"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "experiment, text, message",
        [
            ("check", "samples = 50\n", "check experiment does not read config key 'samples'"),
            ("check", "experiment = decay\n", "check experiment does not read config key 'experiment'"),
            ("solve", "seed = 3\n", "solve experiment does not read config key 'seed'"),
            ("check", "fmt = both\n", "invalid value 'both' for config key 'fmt'"),
            (
                "mandatory",
                "conjecture_probe = ture\n",
                "invalid value 'ture' for config key 'conjecture_probe'",
            ),
            ("separation", "samples = 0\nsamples = 30\n", "config key 'samples' given twice"),
        ],
        ids=["check-samples", "check-experiment", "solve-seed", "fmt-both", "probe-ture", "repeated-key"],
    )
    def test_rejected_config_value_one_line_error(self, tmp_path, capsys, experiment, text, message):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        assert cli([experiment, "--config", str(cfgfile)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["decay", "--h-step", "0"], "decay experiment needs h_step >= 1, got 0"),
            (
                ["eps-sweep", "--eps-min-exp", "5", "--eps-max-exp", "3"],
                "eps-sweep experiment needs eps_min_exp <= eps_max_exp",
            ),
            (["check", "--stream", "-1"], "stream must be >= 0, got -1"),
        ],
        ids=["h-step", "eps-exponents", "stream"],
    )
    def test_formerly_config_only_fields_reach_the_runner(self, capsys, argv, message):
        assert cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_cross_forests_flag_sets_the_cross_check(self, tmp_path):
        out = tmp_path / "res"
        argv = ["mandatory", "--samples", "20", "--depth", "4", "--cross-forests", "2"]
        assert cli(argv + ["--format", "json", "--out", str(out)]) == 0
        records = json.loads((out / "mandatory.json").read_text())["records"]
        assert records[-1]["params"]["forests"] == 2


# Graph files built from header and edge-line pieces that are mostly
# well formed, so that the fuzzing reaches every check of the parser.
_TOKENS = st.one_of(
    st.integers(min_value=-2, max_value=7).map(str),
    st.sampled_from(["", "x", "1.5", "1e1", "-0", "nan", "inf", "0x1"]),
)
_ROOTS = st.one_of(
    _TOKENS.map("vertex:{}".format),
    st.builds("edge:{},{}".format, _TOKENS, _TOKENS),
    st.sampled_from(["edge:1", "edge:1,2,3", "tree:0", "vertex"]),
)
_HEADERS = st.one_of(
    st.builds("lexmatch-graph v1 n={} m={} root={}".format, _TOKENS, _TOKENS, _ROOTS),
    st.text(max_size=30).map("lexmatch-graph v1 {}".format),
    st.text(max_size=30),
)
_WEIGHTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0.5", "0.25", "1", "x", ""]),
)
_EDGE_LINES = st.one_of(
    st.builds("{} {} {}".format, _TOKENS, _TOKENS, _WEIGHTS),
    st.text(max_size=12),
)
_GRAPH_TEXTS = st.builds(
    lambda head, lines: "\n".join([head, *lines]) + "\n",
    _HEADERS,
    st.lists(_EDGE_LINES, max_size=8),
)


class TestGraphFileFuzz:
    @given(_GRAPH_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_parser_returns_graph_or_graph_error(self, text):
        try:
            g = graph_from_text(text)
        except GraphError:
            return
        assert isinstance(g, WeightedGraph)
        again = graph_from_text(graph_to_text(g))
        assert (again.n, again.adjacency, again.weights, again.root) == (
            g.n,
            g.adjacency,
            g.weights,
            g.root,
        )

    @given(_GRAPH_TEXTS)
    @settings(max_examples=60, deadline=None)
    def test_match_exits_0_or_1(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            gpath = os.path.join(tmp, "g.txt")
            with open(gpath, "w") as fh:
                fh.write(text)
            assert cli(["match", "--graph", gpath]) in (0, 1)


class TestCli:
    def test_unknown_flag_exit_1(self, capsys):
        assert cli(["size", "--bogus"]) == 1
        assert cli(["frobnicate"]) == 1

    def test_no_command_exit_1(self):
        assert cli([]) == 1

    def test_gen_match_pipeline(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        assert (
            cli(
                [
                    "gen",
                    "--model",
                    "ubgw",
                    "--law",
                    "poisson:2.0",
                    "--depth",
                    "3",
                    "--seed",
                    "5",
                    "--out",
                    str(gpath),
                ]
            )
            == 0
        )
        text = gpath.read_text()
        assert text.startswith("lexmatch-graph v1 ")
        mpath = tmp_path / "m.txt"
        assert cli(["match", "--graph", str(gpath), "--k", "1", "--out", str(mpath)]) == 0
        out = capsys.readouterr().out
        assert "perf_vertex=" in out and "perf_edge=" in out
        assert mpath.read_text().startswith("size=")

    def test_match_perf_of_a_weight_near_the_largest_double(self, tmp_path, capsys):
        # 2 * 1.5e308 overflows, 2 * (1.5e308 / 3) = 1e308 does not
        gpath = tmp_path / "g.txt"
        gpath.write_text("lexmatch-graph v1 n=3 m=2 root=vertex:0\n0 1 1.5e308\n0 2 1e300\n")
        assert cli(["match", "--graph", str(gpath), "--out", str(tmp_path / "m.txt")]) == 0
        assert capsys.readouterr().out == "perf_vertex=(0.666666666667,1e+308) perf_edge=(0.5,7.5e+307)\n"

    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        # the reader of stdout is gone before the first write: exit 1 and nothing
        # on stderr, neither an error line nor an ignored exception at shutdown
        gpath = str(tmp_path / "g.txt")
        assert cli(["gen", "--model", "ubgw", "--law", "poisson:2.0", "--depth", "6", "--out", gpath]) == 0
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lexmatch.__file__)))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lexmatch", "match", "--graph", gpath],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_match_rejects_cyclic(self, tmp_path):
        gpath = tmp_path / "cyc.txt"
        gpath.write_text(
            "lexmatch-graph v1 n=3 m=3 root=vertex:0\n0 1 0.5\n0 2 0.5\n1 2 0.5\n"
        )
        assert cli(["match", "--graph", str(gpath)]) == 1

    @pytest.mark.parametrize(
        "edge_line",
        ["1 -1 0.25", "1 3 0.25", "1 2 nan", "1 2 inf", "1 2 x"],
        ids=["negative-id", "id-not-below-n", "nan-weight", "inf-weight", "malformed-weight"],
    )
    def test_match_rejects_invalid_graph_file(self, tmp_path, capsys, edge_line):
        text = f"lexmatch-graph v1 n=3 m=2 root=vertex:0\n0 1 0.5\n{edge_line}\n"
        with pytest.raises(GraphError):
            graph_from_text(text)
        gpath = tmp_path / "bad.txt"
        gpath.write_text(text)
        assert cli(["match", "--graph", str(gpath)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_match_tied_weights_read_the_optimum(self, tmp_path, capsys):
        gpath = tmp_path / "tied.txt"
        gen = ["gen", "--model", "ubgw", "--law", "poisson:2.0", "--depth", "4"]
        assert cli(gen + ["--weights", "const:1.0", "--seed", "1", "--out", str(gpath)]) == 0
        assert cli(["match", "--graph", str(gpath)]) == 0
        captured = capsys.readouterr()
        dp, _ = exact.tree_opt_dp(graph_from_text(gpath.read_text()))
        assert captured.err == "" and captured.out.splitlines()[0] == "size=13 weight=13" and dp.size == 13

    def test_check_tied_weights_pass(self, capsys):
        # every matching of a size ties under const:1.0; the decode still reads the optimum
        assert cli(["check", "--weights", "const:1.0"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_mandatory_depth_zero_one_line_error(self, capsys):
        assert cli(["mandatory", "--depth", "0", "--samples", "50"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: mandatory experiment needs depth >= 1, got 0\n"

    def test_gen_er_subnormal_c_has_no_edges(self, capsys):
        assert cli(["gen", "--model", "er", "--n", "2", "--c", "1e-310"]) == 0
        header, *edges = capsys.readouterr().out.splitlines()
        assert " m=0 " in header and edges == []

    def test_stream_over_one_word_one_line_error(self, capsys):
        # a larger stream would take two words of the spawn key and alias a child path
        assert cli(["check", "--stream", str(2**32)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: stream must be < {2**32}, got {2**32}\n"

    def test_size_subnormal_c_answer_or_one_line_error(self, capsys):
        code = cli(["size", "--law", "poisson:1e-310", "--n", "50", "--replicas", "1"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert code in (0, 2) or (code == 1 and captured.err.count("\n") == 1)

    def test_size_cli_with_outputs(self, tmp_path):
        out = tmp_path / "res"
        code = cli(
            [
                "size",
                "--n",
                "2000",
                "--replicas",
                "4",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        csv_text = (out / "size.csv").read_text()
        assert csv_text.startswith("# lexmatch-results v1")
        payload = json.loads((out / "size.json").read_text())
        assert payload["schema"] == "lexmatch-results-v1"
        assert payload["records"][0]["passed"] is True

    def test_solve_cli(self, tmp_path, capsys):
        out = tmp_path / "solved"
        code = cli(
            [
                "solve",
                "--law",
                "poisson:1.0",
                "--weights",
                "uniform:0:1",
                "--grid-points",
                "1024",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "cdfsystem.csv").read_text().startswith("# lexmatch-cdfsystem v1")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("solver attempt 1: damping 1: converged after ")

    def test_solve_cli_reports_every_attempt(self, capsys):
        code = cli(["solve", "--law", "poisson:3.0", "--k", "2", "--grid-points", "1024"])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("solver attempt 1: damping 1: stalled after ")
        assert err[1].startswith("solver attempt 2: damping 0.5: converged after ")

    def test_check_cli_exit_zero(self):
        assert cli(["check", "--seed", "4"]) == 0

    @pytest.mark.parametrize("experiment", ["check", "separation"])
    def test_large_weights_pass(self, capsys, experiment):
        # the optimal matching does not depend on the weight scale, and the
        # vertex/edge proportionality holds up to rounding at any scale
        assert cli([experiment, "--weights", "uniform:0:1e12"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert (
                cli(
                    [
                        "separation",
                        "--p",
                        "1",
                        "--samples",
                        "300",
                        "--seed",
                        "21",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append((out / "separation.csv").read_bytes() + (out / "separation.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["decay", "--samples", "0"], "decay experiment needs samples >= 1, got 0"),
            (["decay", "--h-min", "6", "--h-max", "4"], "decay experiment needs h_min <= h_max"),
            (["separation", "--samples", "0"], "separation experiment needs samples >= 1, got 0"),
            (["separation", "--samples", "-3"], "separation experiment needs samples >= 1, got -3"),
            (["eps-sweep", "--trees", "0"], "eps-sweep experiment needs trees >= 1, got 0"),
            (["mandatory", "--samples", "0"], "mandatory experiment needs samples >= 1, got 0"),
            (["size", "--replicas", "0"], "size experiment needs replicas >= 1, got 0"),
        ],
        ids=["decay", "decay-radii", "separation", "separation-negative", "eps-sweep",
             "mandatory", "size"],
    )
    def test_nonpositive_count_one_line_error(self, capsys, argv, message):
        assert cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_malformed_config_value_one_line_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("samples = abc\n")
        assert cli(["separation", "--config", str(cfgfile)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid value 'abc' for config key 'samples'\n"

    def test_config_file_cli(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("samples = 300\nseed = 23\np = 1\n")
        assert cli(["separation", "--config", str(cfgfile)]) == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--grid-points", "10"], "solve experiment needs grid_points >= 64, got 10"),
            (["solve", "--k", "-1"], "solve experiment needs k >= 0, got -1"),
            (["gen", "--model", "er", "--n", "5", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["separation", "--samples", "10", "--seed", "-1"], "seed must be >= 0, got -1"),
            (
                ["separation", "--p", "4", "--samples", "5"],
                "separation experiment needs p <= 3: the star of stars has "
                "(p + 1)^2 = 25 edges, over the enumeration cap 22",
            ),
            (
                ["solve", "--grid-t", "0", "--grid-points", "128"],
                "solve experiment needs a positive finite grid_t, got 0.0",
            ),
            (["solve", "--grid-t", "-1"], "solve experiment needs a positive finite grid_t, got -1.0"),
            (["solve", "--grid-t", "nan"], "solve experiment needs a positive finite grid_t, got nan"),
            (["solve", "--weights", "const:1.0"], "solve experiment needs an atomless weight law, got const:1.0"),
            (
                ["separation", "--weights", "const:1.0"],
                "separation experiment needs an atomless weight law, got const:1.0",
            ),
            (
                ["separation", "--weights-b", "const:2.0"],
                "separation experiment needs an atomless weight law, got const:2.0",
            ),
            (["solve", "--law", "pmf:0.5,nan"], "pmf entries must be finite and non-negative"),
            (["solve", "--law", "pmf:inf,0"], "pmf entries must be finite and non-negative"),
            (
                ["gen", "--model", "ubgw", "--law", "poisson:3.0", "--depth", "2", "--seed", "1",
                 "--weights", "uniform:0:inf"],
                "uniform law needs finite a < b, got 0, inf",
            ),
            (
                ["solve", "--weights", "uniform:0:inf"],
                "uniform law needs finite a < b, got 0, inf",
            ),
            (
                ["gen", "--model", "ubgw", "--weights", "exp:inf"],
                "exponential rate must be positive and finite, got inf",
            ),
            (
                ["gen", "--model", "ubgw", "--weights", "const:nan"],
                "constant weight must be finite, got nan",
            ),
            (["gen", "--model", "ubgw", "--weights", "uniform:1:0"], "uniform law needs finite a < b, got 1, 0"),
            # draws that overflow: a width b - a past the largest double, a mean 1/rate of inf
            (
                ["gen", "--model", "ubgw", "--law", "poisson:2", "--depth", "2", "--weights", "uniform:-1e308:1e308"],
                "uniform law needs a finite width b - a, got -1e+308, 1e+308",
            ),
            (
                ["check", "--weights", "uniform:-1e308:1e308"],
                "uniform law needs a finite width b - a, got -1e+308, 1e+308",
            ),
            (
                ["gen", "--model", "ubgw", "--law", "poisson:2", "--depth", "2", "--weights", "exp:1e-320"],
                "exponential law needs a finite mean 1/rate, got rate 9.99989e-321",
            ),
            (
                ["separation", "--weights", "exp:1e-320"],
                "exponential law needs a finite mean 1/rate, got rate 9.99989e-321",
            ),
            (
                ["decay", "--weights", "exp:1e-320"],
                "exponential law needs a finite mean 1/rate, got rate 9.99989e-321",
            ),
            # the default grid half-width 8 * (mean + 1) must be positive and finite
            (
                ["solve", "--weights", "uniform:-10:-5"],
                "solve experiment needs a positive finite grid half-width 8 * (mean + 1), got "
                "-52 for uniform:-10:-5",
            ),
            (
                ["solve", "--weights", "uniform:-3:1"],
                "solve experiment needs a positive finite grid half-width 8 * (mean + 1), got "
                "0 for uniform:-3:1",
            ),
            (
                ["solve", "--weights", "uniform:0:1e308"],
                "solve experiment needs a positive finite grid half-width 8 * (mean + 1), got "
                "inf for uniform:0:1e308",
            ),
            (["match", "--graph", "tree.txt", "--k", "-1"], "match needs k >= 1, got -1"),
            # k = 0 is the maximum-weight recursion, not the (size, weight) optimum
            (["match", "--graph", "tree.txt", "--k", "0"], "match needs k >= 1, got 0"),
            # input files are UTF-8 whatever the locale; bad.* hold a 0xff byte
            (["match", "--graph", "bad.txt"], "'utf-8' codec can't decode byte 0xff in position 47: invalid start byte"),
            (
                ["separation", "--config", "bad.cfg"],
                "'utf-8' codec can't decode byte 0xff in position 12: invalid start byte",
            ),
            # the offset is in the file, not in a chunk of the decoder
            (
                ["separation", "--config", "late.cfg"],
                "'utf-8' codec can't decode byte 0xff in position 9015: invalid start byte",
            ),
            (["separation", "--config", "nokey.cfg"], "malformed config line 'samples 30'"),
            (["gen", "--model", "er", "--depth", "9"], "gen --model er does not read --depth"),
            (["gen", "--model", "ubgw", "--n", "5", "--c", "3.0"], "gen --model ubgw does not read --n"),
            (["gen", "--model", "config", "--rooting", "edge"], "gen --model config does not read --rooting"),
            (["gen", "--model", "config", "--n", "-3"], "n must be >= 1"),
            (["mandatory", "--cross-forests", "-1"], "mandatory experiment needs cross_forests >= 0, got -1"),
            (
                ["eps-sweep", "--eps-min-exp", "-2000", "--eps-max-exp", "1"],
                "eps-sweep experiment needs eps_min_exp >= 0, got -2000",
            ),
            (["eps-sweep", "--eps-max-exp", "1075"], "eps-sweep experiment needs eps_max_exp <= 30, got 1075"),
            # 1 + 2**-44 * w rounds in a double: violations that are rounding, not counterexamples
            (["eps-sweep", "--eps-max-exp", "44"], "eps-sweep experiment needs eps_max_exp <= 30, got 44"),
            (["decay", "--h-min", "0", "--h-max", "2"], "decay experiment needs h_min >= 2, got 0"),
            # radius 1 is pre-asymptotic: 1..11 read FAIL where 2..12 passes
            (["decay", "--h-min", "1", "--h-max", "11"], "decay experiment needs h_min >= 2, got 1"),
            (["solve", "--law", "pmf:1"], "solve experiment needs a law with mean >= 1e-09, got pmf:1"),
            # below mean 1e-9 both size formulas cancel in a double; at 1e-300 both read 0
            (
                ["solve", "--law", "poisson:1e-300"],
                "solve experiment needs a law with mean >= 1e-09, got poisson:1e-300",
            ),
            (
                ["solve", "--law", "poisson:1e-10"],
                "solve experiment needs a law with mean >= 1e-09, got poisson:1e-10",
            ),
            (
                ["solve", "--law", "geom:0.5"],
                "solve experiment needs a law outside the degenerate family "
                "(doubled map the identity on [0, 1]), got geom:0.5",
            ),
        ],
        ids=[
            "solve-grid",
            "solve-k",
            "gen-seed",
            "separation-seed",
            "separation-p",
            "solve-grid-t-zero",
            "solve-grid-t-negative",
            "solve-grid-t-nan",
            "solve-weights-const",
            "separation-weights-const",
            "separation-weights-b-const",
            "solve-pmf-nan",
            "solve-pmf-inf",
            "gen-uniform-inf",
            "solve-uniform-inf",
            "gen-exp-inf",
            "gen-const-nan",
            "gen-uniform-reversed",
            "gen-uniform-width-overflow",
            "check-uniform-width-overflow",
            "gen-exp-mean-overflow",
            "separation-exp-mean-overflow",
            "decay-exp-mean-overflow",
            "solve-half-width-negative",
            "solve-half-width-zero",
            "solve-half-width-inf",
            "match-k",
            "match-k-zero",
            "match-not-utf8",
            "config-not-utf8",
            "config-not-utf8-late",
            "config-malformed-line",
            "gen-er-depth",
            "gen-ubgw-n",
            "gen-config-rooting",
            "gen-config-n",
            "mandatory-cross-forests",
            "eps-sweep-min-exp",
            "eps-sweep-max-exp-underflow",
            "eps-sweep-max-exp-rounding",
            "decay-h-min",
            "decay-h-min-1",
            "solve-zero-mean",
            "solve-tiny-mean",
            "solve-mean-below-bound",
            "solve-degenerate",
        ],
    )
    def test_out_of_range_one_line_error(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.txt").write_bytes(b"lexmatch-graph v1 n=2 m=1 root=vertex:0\n0 1 0.5\xff\n")
        (tmp_path / "bad.cfg").write_bytes(b"samples = 30\xff\n")
        (tmp_path / "late.cfg").write_bytes(b"# " + b"x" * 9000 + b"\nsamples = 30\xff\n")
        (tmp_path / "nokey.cfg").write_bytes(b"seed = 3\nsamples 30\n")
        assert cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, prefix, rho",
        [
            # k = 1 but rho > 1: no exponential decay to measure
            (["decay", "--law", "pmf:0.123,0,0.857,0.004,0.016"], "decay experiment needs rho < 1, got ", None),
            # rho(Poisson(3)) = 3/e; no replica of G(500, 3/500) certifies
            (
                ["size", "--law", "poisson:3.0", "--n", "500", "--replicas", "4"],
                "certified replicas 0/4 (fraction 0.00, ",
                3.0 / math.e,
            ),
        ],
        ids=["decay", "size"],
    )
    def test_refusal_prints_rho_interval(self, capsys, argv, prefix, rho):
        assert cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: " + prefix)
        lo, hi = map(float, re.search(r"rho in \[([^,]+), ([^\]]+)\]", captured.err).groups())
        assert 1.0 < lo <= hi < lo + 1e-6
        if rho is not None:
            assert lo <= round(rho, 8) <= hi

    def test_enumeration_cap_one_line_error(self, capsys, monkeypatch):
        # any enumerator cap reached under the CLI ends in one error line
        def over_cap(g):
            raise xharness.exact.EnumerationLimitError(f"{g.m} edges exceeds enumeration cap 2")

        monkeypatch.setattr(xharness.exact, "mandatory_blocking", over_cap)
        assert cli(["mandatory", "--samples", "30"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "exceeds enumeration cap 2" in captured.err

    @pytest.mark.parametrize("key", ["seed", "stream"])
    def test_negative_config_seed_one_line_error(self, tmp_path, capsys, key):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"samples = 10\n{key} = -2\n")
        assert cli(["separation", "--config", str(cfgfile)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key} must be >= 0, got -2\n"


class TestSolveLimits:
    def test_harness_rejects_before_solving(self):
        with pytest.raises(xharness.HarnessError):
            xharness.run_solve(ExperimentConfig(experiment="solve", grid_points=63))
        with pytest.raises(xharness.HarnessError):
            xharness.run_solve(ExperimentConfig(experiment="solve", k=-1))
        for grid_t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(xharness.HarnessError, match="positive finite grid_t"):
                xharness.run_solve(ExperimentConfig(experiment="solve", grid_points=128, grid_t=grid_t))

    def test_small_mean_above_bound_answers(self, capsys):
        assert cli(["solve", "--law", "poisson:1e-8", "--grid-points", "128"]) == 0
        assert "[PASS] solve/edge_density_formula_gap" in capsys.readouterr().out


# Poisson c in (2.6, 2.8) is the critical window, where the grid solver
# needs more than its current plan; geom:0.5, the degenerate family, is
# refused in one line (TestCli::test_out_of_range_one_line_error)
_SWEEP_LAWS = [f"poisson:{c}" for c in (0.05, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0)] + [
    "binom:3:0.5", "binom:8:0.3", "binom:8:0.4", "pmf:0.2,0.5,0.3", "binom:3:1.0",
]


class TestSolveSweep:
    @pytest.mark.parametrize("spec", _SWEEP_LAWS)
    def test_size_matches_vertex_density(self, spec):
        # at the default grid, in vertex units
        _, system = xharness.run_solve(ExperimentConfig(experiment="solve", law=spec))
        law = system.law
        vertex_density = rde.size_from_system(system) * law.mean
        assert vertex_density == pytest.approx(genfn.matching_vertex_density(law), abs=1e-5)
