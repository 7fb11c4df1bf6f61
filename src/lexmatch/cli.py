"""Command-line front end.

Exit codes: 0 on success, 2 when a tolerance/invariant check fails,
1 on usage or runtime errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bp, exact, randgraph, rde, xharness
from .exact import CycleError
from .genfn import LawError, parse_law
from .randgraph import GraphError, RngSeed, parse_weight_law
from .xharness import HarnessError, check_seed, config_from, load_config_file


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="lexmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_gen = sub.add_parser("gen", help="generate a graph file")
    p_gen.add_argument("--model", choices=["er", "config", "ubgw"], required=True)
    # the model flags default to None, so that _cmd_gen sees which were given
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--c", type=float)
    p_gen.add_argument("--law")
    p_gen.add_argument("--depth", type=int)
    p_gen.add_argument("--rooting", choices=["vertex", "edge"])
    p_gen.add_argument("--weights", default="uniform:0:1")
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--out", default=None, help="output file (default stdout)")

    p_match = sub.add_parser("match", help="optimal matching of a forest file")
    p_match.add_argument("--graph", required=True)
    p_match.add_argument("--k", type=int, default=1)
    p_match.add_argument("--out", default=None, help="matching file (default stdout)")

    for name, reads in xharness.READS.items():
        # exact flags only: a prefix such as mandatory's --p would resolve to --probe
        p_exp = sub.add_parser(name, help=f"run the {name} experiment", allow_abbrev=False)
        p_exp.add_argument("--config", help="flat key=value config file")
        p_exp.add_argument("--out", default=None, help="output directory")
        p_exp.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)
        for key in reads:
            if key == "conjecture_probe":
                p_exp.add_argument("--probe", dest=key, action="store_true", default=None)
            else:
                p_exp.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    return parser


def _write(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the model flags of gen with their defaults, and the ones each model reads;
# --weights, --seed and --out are read by every model
_GEN_DEFAULTS = {"n": 100, "c": 1.0, "law": "poisson:1.0", "depth": 4, "rooting": "vertex"}
_GEN_READS = {"er": ("n", "c"), "config": ("n", "law"), "ubgw": ("law", "depth", "rooting")}


def _cmd_gen(args) -> int:
    for key, default in _GEN_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, default)
        elif key not in _GEN_READS[args.model]:
            raise HarnessError(f"gen --model {args.model} does not read --{key}")
    check_seed(args.seed)
    seed = RngSeed(args.seed)
    if args.model == "er":
        g = randgraph.erdos_renyi(args.n, args.c, seed)
    elif args.model == "config":
        randgraph.check_vertices(args.n)
        law = parse_law(args.law)
        degrees = law.sample(seed.generator(), args.n)
        g = randgraph.configuration_model(degrees, seed.child(0))
    else:
        g = randgraph.ubgw_tree(parse_law(args.law), args.rooting, args.depth, seed)
    g = randgraph.assign_weights(g, parse_weight_law(args.weights), seed.child(1))
    _write(randgraph.graph_to_text(g), args.out)
    return 0


def _cmd_match(args) -> int:
    if args.k < 1:
        raise HarnessError(f"match needs k >= 1, got {args.k}")
    with open(args.graph, encoding="utf-8") as fh:
        g = randgraph.graph_from_text(fh.read())
    field = bp.sweep_tree(g, args.k)
    matching = bp.extract_matching(g, field)
    pv, pe = exact.perf_of(matching)
    _write(exact.matching_to_text(matching), args.out)
    sys.stdout.write(
        f"perf_vertex=({pv.match_prob:.12g},{pv.expected_weight:.12g}) "
        f"perf_edge=({pe.match_prob:.12g},{pe.expected_weight:.12g})\n"
    )
    return 0


def _print_record(rec) -> None:
    status = "PASS" if rec.passed else ("FAIL" if rec.passed is False else "info")
    est = "n/a" if rec.estimate is None else f"{rec.estimate:.6g}"
    ref = "" if rec.reference is None else f" ref={rec.reference:.6g}"
    se = "" if rec.se is None else f" se={rec.se:.3g}"
    print(f"[{status}] {rec.experiment}/{rec.name}: estimate={est}{se}{ref} {rec.notes}")


def _cmd_experiment(args) -> int:
    mapping = load_config_file(args.config) if args.config else {}
    for key, val in vars(args).items():
        if val is not None and key not in ("command", "config"):
            mapping[key] = val
    cfg = config_from(args.command, mapping)
    if cfg.experiment == "solve":
        records, system = xharness.run_solve(cfg)
        xharness.emit(records, cfg, extra_files={"cdfsystem.csv": rde.system_to_csv(system)})
        for i, attempt in enumerate(system.attempts, 1):
            print(f"solver attempt {i}: {attempt.describe()}", file=sys.stderr)
    else:
        records = xharness.RUNNERS[cfg.experiment](cfg)
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
        return _cmd_experiment(args)
    except BrokenPipeError:
        raise  # the reader of the output is gone: main ends quietly
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (HarnessError, LawError, GraphError, CycleError, bp.FieldInconsistencyError,
            exact.EnumerationLimitError, rde.ConvergenceError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = cli()
        sys.stdout.flush()  # output still buffered meets a closed reader here
    except BrokenPipeError:
        # point stdout at devnull, so that its flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
