"""Command-line front end.

Exit codes: 0 on success, 2 when a tolerance/invariant check fails,
1 on usage or runtime errors.
"""

from __future__ import annotations

import argparse
import sys

from . import bp, exact, randgraph, rde, xharness
from .exact import CycleError
from .genfn import LawError, parse_law
from .randgraph import GraphError, RngSeed, parse_weight_law
from .xharness import ExperimentConfig, HarnessError, check_seed, config_from, load_config_file


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="lexmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", dest="fmt", choices=["csv", "json", "both"], default=None)

    p_gen = sub.add_parser("gen", help="generate a graph file")
    p_gen.add_argument("--model", choices=["er", "config", "ubgw"], required=True)
    p_gen.add_argument("--n", type=int, default=100)
    p_gen.add_argument("--c", type=float, default=1.0)
    p_gen.add_argument("--law", default="poisson:1.0")
    p_gen.add_argument("--depth", type=int, default=4)
    p_gen.add_argument("--rooting", choices=["vertex", "edge"], default="vertex")
    p_gen.add_argument("--weights", default="uniform:0:1")
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--out", default=None, help="output file (default stdout)")

    p_match = sub.add_parser("match", help="optimal matching of a forest file")
    p_match.add_argument("--graph", required=True)
    p_match.add_argument("--k", type=int, default=1)
    p_match.add_argument("--out", default=None, help="matching file (default stdout)")

    p_solve = sub.add_parser("solve", help="solve the message-law system")
    common(p_solve)
    p_solve.add_argument("--law", default=None)
    p_solve.add_argument("--weights", default=None)
    p_solve.add_argument("--k", type=int, default=None)
    p_solve.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    p_solve.add_argument("--grid-t", dest="grid_t", type=float, default=None)

    for name in ("size", "decay", "mandatory", "separation", "eps-sweep", "check"):
        p_exp = sub.add_parser(name, help=f"run the {name} experiment")
        common(p_exp)
        p_exp.add_argument("--law", default=None)
        p_exp.add_argument("--weights", default=None)
        p_exp.add_argument("--weights-b", dest="weights_b", default=None)
        p_exp.add_argument("--n", type=int, default=None)
        p_exp.add_argument("--depth", type=int, default=None)
        p_exp.add_argument("--replicas", type=int, default=None)
        p_exp.add_argument("--samples", type=int, default=None)
        p_exp.add_argument("--trees", type=int, default=None)
        p_exp.add_argument("--p", type=int, default=None)
        p_exp.add_argument("--h-min", dest="h_min", type=int, default=None)
        p_exp.add_argument("--h-max", dest="h_max", type=int, default=None)
        p_exp.add_argument("--tolerance", type=float, default=None)
        p_exp.add_argument("--probe", dest="conjecture_probe", action="store_true", default=None)
    return parser


def _experiment_config(args) -> ExperimentConfig:
    mapping = {}
    if getattr(args, "config", None):
        mapping.update(load_config_file(args.config))
    for key in ExperimentConfig.__dataclass_fields__:
        val = getattr(args, key, None)
        if val is not None:
            mapping[key] = val
    mapping["experiment"] = args.command
    return config_from(mapping)


def _cmd_gen(args) -> int:
    check_seed(args.seed)
    seed = RngSeed(args.seed)
    if args.model == "er":
        g = randgraph.erdos_renyi(args.n, args.c, seed)
    elif args.model == "config":
        law = parse_law(args.law)
        degrees = law.sample(seed.generator(), args.n)
        g = randgraph.configuration_model(degrees, seed.child(0))
    else:
        g = randgraph.ubgw_tree(parse_law(args.law), args.rooting, args.depth, seed)
    g = randgraph.assign_weights(g, parse_weight_law(args.weights), seed.child(1))
    text = randgraph.graph_to_text(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_match(args) -> int:
    with open(args.graph) as fh:
        g = randgraph.graph_from_text(fh.read())
    field = bp.sweep_tree(g, args.k)
    matching = bp.extract_matching(g, field)
    pv, pe = exact.perf_of(g, matching)
    text = exact.matching_to_text(matching)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    sys.stdout.write(
        f"perf_vertex=({pv.match_prob:.12g},{pv.expected_weight:.12g}) "
        f"perf_edge=({pe.match_prob:.12g},{pe.expected_weight:.12g})\n"
    )
    return 0


def _cmd_solve(args) -> int:
    cfg = _experiment_config(args)
    records, system = xharness.run_solve(cfg)
    xharness.emit(records, cfg, extra_files={"cdfsystem.csv": rde.system_to_csv(system)})
    for i, attempt in enumerate(system.attempts, 1):
        print(f"solver attempt {i}: {attempt.describe()}", file=sys.stderr)
    for rec in records:
        _print_record(rec)
    return 0 if all(r.passed is not False for r in records) else 2


def _print_record(rec) -> None:
    status = "PASS" if rec.passed else ("FAIL" if rec.passed is False else "info")
    est = "n/a" if rec.estimate is None else f"{rec.estimate:.6g}"
    ref = "" if rec.reference is None else f" ref={rec.reference:.6g}"
    se = "" if rec.se is None else f" se={rec.se:.3g}"
    print(f"[{status}] {rec.experiment}/{rec.name}: estimate={est}{se}{ref} {rec.notes}")


def _cmd_experiment(args) -> int:
    cfg = _experiment_config(args)
    runner = xharness.RUNNERS[cfg.experiment]
    records = runner(cfg)
    xharness.emit(records, cfg)
    for rec in records:
        _print_record(rec)
    return 0 if all(r.passed is not False for r in records) else 2


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage()
            return 1
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "match":
            return _cmd_match(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_experiment(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (HarnessError, LawError, GraphError, CycleError, bp.FieldInconsistencyError,
            exact.EnumerationLimitError, rde.ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
