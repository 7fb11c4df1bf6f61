"""Monte Carlo experiment drivers, statistics and result emission.

Every experiment is a pure function of its configuration, and results are
reduced in replica order, so reruns are byte-identical.  Seeds follow one
rule: an experiment's base seed is (seed, stream) with an empty path, each
independent sample takes its own child path (randgraph.RngSeed), and
random trees come from one source, `_trees`, where tree i is drawn from
seed.child(i) and its weights from seed.child(i).child(0).  Each reported
estimate carries its standard error, a reference value with a provenance
note naming the formula and module it came from, and a pass flag that
ResultRecord sets from |estimate - reference| < max(tolerance, 3 * SE).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import typing
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import bp, exact, genfn, randgraph, rde
from .genfn import OffspringLaw, parse_law
from .randgraph import RngSeed, WeightLaw, assign_weights, parse_weight_law, ubgw_tree

__all__ = [
    "HarnessError", "CertificationError", "RegimeMismatchError", "ExperimentConfig", "READS",
    "ResultRecord", "run_size", "run_decay", "run_mandatory", "run_separation", "run_eps_sweep",
    "run_check", "run_solve", "emit", "load_config_file", "check_seed",
]


class HarnessError(RuntimeError):
    """Experiment could not produce a valid estimate."""


class CertificationError(HarnessError):
    """Too few certified leaf-removal runs to report an exact size."""


class RegimeMismatchError(HarnessError):
    """Law is outside the regime the experiment requires."""


# The least value of each bounded ExperimentConfig field (None is not checked).
# At depth 0 both endpoints of mandatory's root edge would be pinned boundary
# vertices; at radius 0 decay's ball is the pinned root alone, and radius 1 is
# pre-asymptotic (on the default seed a fit over 1..11 fails at slope -0.90,
# one over 2..12 passes at -0.95).
_LEAST = {
    "replicas": 1, "depth": 1, "p": 1, "samples": 1, "h_step": 1, "h_min": 2, "trees": 1,
    "grid_points": rde.GridSpec.MIN_POINTS, "k": 0, "cross_forests": 0, "eps_min_exp": 0,
}
# The least offspring mean `solve` accepts.  Below it 1 - phi and 2 - F_pi
# cancel in a double: against the exact Poisson edge density, the two size
# formulas are off by 2.7e-8 and 1.4e-7 relative at mean 1e-9, by 2.2e-5
# and 1.3e-4 at 1e-12, and at 1e-300 both read 0 where the density is 1.
_SOLVE_MIN_MEAN = 1e-9
_BLOCK = 1024  # child seeds keyed per RngSeed.children call in `_seeds`


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration that checks its values when it is made.

    Each experiment reads only the fields that READS lists for it;
    `config_from` rejects any other key.  `__post_init__` checks every
    field, whatever the experiment: `fmt`, the seeds, the least values in
    _LEAST, h_min <= h_max, eps_min_exp <= eps_max_exp <= 30, p within the
    enumeration cap and grid_t.  A value out of range raises HarnessError,
    so the runners refuse only what needs the parsed law.
    """

    experiment: str = "check"
    law: str = "poisson:1.0"
    weights: str = "uniform:0:1"
    weights_b: str = "exp:1.0"
    n: int = 20_000
    depth: int = 12
    h_min: int = 2
    h_max: int = 12
    h_step: int = 2
    replicas: int = 20
    samples: int = 10_000
    p: int = 1
    eps_min_exp: int = 1
    eps_max_exp: int = 12
    trees: int = 500
    grid_points: int = 4096
    grid_t: float | None = None
    k: int | None = None
    cross_forests: int = 1000
    seed: int = 7
    stream: int = 0
    out: str | None = None
    fmt: str = "csv"
    conjecture_probe: bool = False

    def __post_init__(self):
        # read through vars(), so that the drift test of READS does not count these checks
        v = vars(self)
        exp = v["experiment"]
        if v["fmt"] not in ("csv", "json"):
            raise HarnessError(f"invalid value {v['fmt']!r} for config key 'fmt'")
        check_seed(v["seed"])
        check_seed(v["stream"], "stream", 2**32)
        for key, low in _LEAST.items():
            if v[key] is not None and v[key] < low:
                raise HarnessError(f"{exp} experiment needs {key} >= {low}, got {v[key]}")
        for lo, hi in (("h_min", "h_max"), ("eps_min_exp", "eps_max_exp")):
            if v[lo] > v[hi]:
                raise HarnessError(f"{exp} experiment needs {lo} <= {hi}")
        # at eps = 2**-j for large j, 1 + eps * w rounds in a double and eps-sweep counts
        # the rounding as below-threshold violations (uniform weights at j = 44, exp:1.0
        # weights at j = 40); 30 stays a factor 2**10 below the first seen
        if v["eps_max_exp"] > 30:
            raise HarnessError(f"{exp} experiment needs eps_max_exp <= 30, got {v['eps_max_exp']}")
        # the uniform ensemble of separation enumerates the (p + 1)^2 edges of the star of stars
        edges = (v["p"] + 1) ** 2
        if edges > exact._ENUM_EDGE_CAP:
            raise HarnessError(
                f"{exp} experiment needs p <= {math.isqrt(exact._ENUM_EDGE_CAP) - 1}: the star of "
                f"stars has (p + 1)^2 = {edges} edges, over the enumeration cap {exact._ENUM_EDGE_CAP}"
            )
        grid_t = v["grid_t"]
        if grid_t is not None and not (math.isfinite(grid_t) and grid_t > 0):
            raise HarnessError(f"{exp} experiment needs a positive finite grid_t, got {grid_t}")

    def base_seed(self) -> RngSeed:
        return RngSeed(self.seed, self.stream)

    def offspring(self) -> OffspringLaw:
        return parse_law(self.law)

    def weight_law(self) -> WeightLaw:
        return parse_weight_law(self.weights)


# boolean spellings, in any case; any other value is malformed
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _converter(f):
    """Value converter from the field's default, or from its type when the default is None."""
    if isinstance(f.default, bool):
        return lambda val: _BOOLS[str(val).lower()]
    if f.default is not None:
        return type(f.default)
    (typ,) = set(typing.get_args(_HINTS[f.name])) - {type(None)}
    return lambda val: None if val in ("", "none") else typ(val)


_HINTS = typing.get_type_hints(ExperimentConfig)
_CONVERT = {f.name: _converter(f) for f in fields(ExperimentConfig)}


def load_config_file(path: str) -> dict:
    """Flat key=value text; '#' starts a comment; each key at most once."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()  # whole, so that a decode error names its offset in the file
    out = {}
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise HarnessError(f"malformed config line {raw!r}")
        key, val = (tok.strip() for tok in line.split("=", 1))
        if key not in _CONVERT:
            raise HarnessError(f"unknown config key {key!r}")
        if key in out:
            raise HarnessError(f"config key {key!r} given twice")
        out[key] = val
    return out


def config_from(experiment: str, mapping: dict) -> ExperimentConfig:
    """Typed config for `experiment` from string or native values.

    A key the experiment does not read (see READS; `out` and `fmt` are read
    by `emit`), a malformed value or one that ExperimentConfig refuses
    raises HarnessError.
    """
    kwargs = {"experiment": experiment}
    for key, val in mapping.items():
        if key not in READS[experiment] + ("out", "fmt"):
            raise HarnessError(f"{experiment} experiment does not read config key {key!r}")
        if val is None:
            continue
        try:
            kwargs[key] = _CONVERT[key](val)
        except (ValueError, KeyError) as exc:
            raise HarnessError(f"invalid value {val!r} for config key {key!r}") from exc
    return ExperimentConfig(**kwargs)


def check_seed(seed: int, name: str = "seed", high: int | None = None) -> None:
    """Reject a seed < 0, which RngSeed cannot use, or >= high (a stream is one 32-bit word)."""
    if seed < 0:
        raise HarnessError(f"{name} must be >= 0, got {seed}")
    if high is not None and seed >= high:
        raise HarnessError(f"{name} must be < {high}, got {seed}")


@dataclass
class ResultRecord:
    """One experiment outcome with provenance-tagged reference.

    A record judges itself when it is made: a `passed` given to the
    constructor stands, and otherwise, when both the estimate and the
    reference exist, passed = |estimate - reference| < max(tolerance, 3 * SE).
    """

    experiment: str
    name: str
    params: dict
    estimate: float | None
    se: float | None = None
    reference: float | None = None
    provenance: str = ""
    tolerance: float | None = None
    passed: bool | None = None
    curve: list = field(default_factory=list)
    notes: str = ""

    def __post_init__(self):
        if self.passed is None and self.reference is not None and self.estimate is not None:
            band = max(self.tolerance or 0.0, 3.0 * (self.se or 0.0))
            self.passed = abs(self.estimate - self.reference) < band


def _fmt(x) -> str:
    return "" if x is None else f"{x:.12g}"


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return float(arr.mean()), se


def _binom_se(p_hat: float, n: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / max(n, 1))


def _assert_perf_identity(matching: exact.Matching) -> None:
    pv, pe = exact.perf_of(matching)
    ratio = 2.0 * matching.m / max(matching.n, 1)
    wv, we = pv.expected_weight, ratio * pe.expected_weight
    # the identity holds up to rounding, which grows with the weights' scale
    if abs(pv.match_prob - ratio * pe.match_prob) > 1e-9 or abs(wv - we) > 1e-9 * max(1.0, abs(wv)):
        raise HarnessError("vertex/edge performance proportionality violated")


def _seeds(seed: RngSeed, tail: tuple = ()):
    """The seeds at seed.path + (i, *tail), i = 0, 1, ... without end, keyed _BLOCK at a time."""
    for b in itertools.count(0, _BLOCK):
        yield from seed.children(b, b + _BLOCK, tail)


def _trees(seed: RngSeed, law: OffspringLaw, rooting: str, depth, wlaw: WeightLaw | None = None):
    """The i.i.d. tree sequence on `seed`: tree i from seed.child(i), weights from .child(0).

    `depth` is an int or a function of i; without `wlaw` the weights stay
    zero.  The sequence is endless: take a slice of it.
    """
    wseeds = itertools.repeat(None) if wlaw is None else _seeds(seed, (0,))
    for i, s, ws in zip(itertools.count(), _seeds(seed), wseeds):
        g = ubgw_tree(law, rooting, depth(i) if callable(depth) else depth, s)
        yield g if wlaw is None else assign_weights(g, wlaw, ws)


def _small_trees(seed: RngSeed, wlaw: WeightLaw | None = None):
    """Poisson(2) trees of depth 1, 2, 3, 4, 1, ...: the small forests the oracles enumerate."""
    return _trees(seed, OffspringLaw.poisson(2.0), "vertex", lambda i: 1 + i % 4, wlaw)


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------


def _rho_text(regime: genfn.RegimeReport) -> str:
    return f"rho in [{regime.rho:.9g}, {regime.rho_upper:.9g}]"


def run_size(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Matched-vertex fraction on sparse graphs vs the analytic density.

    Poisson laws map to G(n, c/n); other laws to the configuration model
    with i.i.d. degrees.  Only leaf-removal-certified replicas enter the
    estimate (their Karp-Sipser core was empty or disjoint cycles).  When
    fewer than 90% certify, the run is refused unless the law is
    subcritical (the upper end of its rho enclosure is below 1) and at
    least one replica certified.
    """
    randgraph.check_vertices(cfg.n)
    law = cfg.offspring()
    base = cfg.base_seed()
    fractions = []
    certified = 0
    for i in range(cfg.replicas):
        gseed, rseed = base.child(0).child(i), base.child(1).child(i)
        if law.family == "poisson":
            g = randgraph.erdos_renyi(cfg.n, law.params[0], gseed)
        else:
            degs = law.sample(gseed.generator(), cfg.n)
            g = randgraph.configuration_model(degs, gseed.child(0))
        matching, is_exact, _ = exact.leaf_removal(g, rseed)
        if is_exact:
            certified += 1
            fractions.append(2.0 * matching.size / g.n)
            _assert_perf_identity(matching)
    frac_certified = certified / cfg.replicas
    if frac_certified < 0.9:
        regime = genfn.macroscopic_law(law)
        if certified == 0 or not regime.subcritical:
            raise CertificationError(
                f"certified replicas {certified}/{cfg.replicas} "
                f"(fraction {frac_certified:.2f}, {_rho_text(regime)}); "
                "size estimate requires a subcritical law or >= 90% certification"
            )
    est, se = _mean_se(fractions)
    ref = genfn.matching_vertex_density(law)
    rec = ResultRecord(
        experiment="size",
        name="matched_vertex_fraction",
        params={"law": cfg.law, "n": cfg.n, "replicas": cfg.replicas, "seed": cfg.seed},
        estimate=est,
        se=se,
        reference=ref,
        provenance="2 - max F_pi (genfn.matching_vertex_density)",
        tolerance=0.01,
        notes=f"certified {certified}/{cfg.replicas}",
    )
    return [rec]


def run_decay(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Exponential forgetting of the boundary by root messages.

    For each even radius H the fraction of sampled trees whose root has an
    uncertified outgoing message is recorded; one contraction round of the
    doubled recursion advances the radius by two, so the log-fraction is
    fitted against r = H/2 and compared with log(rho), rho the lower end of
    its enclosure.  A law whose enclosure does not lie below 1 is refused.
    """
    law = cfg.offspring()
    wlaw = cfg.weight_law()
    regime = genfn.macroscopic_law(law)
    if regime.k != 1:
        raise RegimeMismatchError(f"decay experiment needs the k=1 regime, got k={regime.k}")
    if not regime.subcritical:
        raise RegimeMismatchError(f"decay experiment needs rho < 1, got {_rho_text(regime)}")
    rho = regime.rho
    base = cfg.base_seed()
    radii = list(range(cfg.h_min, cfg.h_max + 1, cfg.h_step))
    curve = []
    for hi, H in enumerate(radii):
        uncert = 0
        for g in itertools.islice(_trees(base.child(hi), law, "vertex", H, wlaw), cfg.samples):
            sq = bp.squeeze(g, 1)
            root = g.root_vertex()
            if any(not sq.certified[(root, v)] for v in g.incident(root)[0]):
                uncert += 1
        frac = uncert / cfg.samples
        curve.append({"H": H, "rounds": H / 2.0, "uncertified_fraction": frac, "n": cfg.samples})
    fracs = [pt["uncertified_fraction"] for pt in curve]
    monotone = all(a >= b for a, b in zip(fracs, fracs[1:]))
    pos = [
        (pt["rounds"], math.log(pt["uncertified_fraction"]))
        for pt in curve
        if pt["uncertified_fraction"] > 0
    ]
    extinguished = len(pos) < 2
    if extinguished:
        # boundary influence already below resolution at these radii
        slope = None
        passed = monotone and max(fracs) < 0.01
        notes = f"monotone={monotone}; curve extinguished"
    else:
        xs, ys = zip(*pos)
        slope = float(np.polyfit(xs, ys, 1)[0])
        passed = monotone and slope <= math.log(rho) + 0.1
        notes = f"monotone={monotone}"
    rec = ResultRecord(
        experiment="decay",
        name="uncertified_root_log_slope",
        params={
            "law": cfg.law,
            "weights": cfg.weights,
            "radii": radii,
            "samples": cfg.samples,
            "seed": cfg.seed,
        },
        estimate=slope,
        se=None,
        reference=math.log(rho),
        provenance="log contraction coefficient (genfn.rho_subcritical)",
        tolerance=0.1,
        passed=passed,
        curve=curve,
        notes=notes,
    )
    return [rec]


def run_mandatory(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Densities of always-matched and never-matched edges.

    Classifies the root edge of deep edge-rooted trees through certified
    levels and compares against gamma^2 and (1-gamma)^2 with gamma the
    fixed point of t -> hphi(1-t).  A small-forest cross-check against
    exhaustive enumeration guards the classifier itself.  Outside the
    unique-fixed-point regime the run is refused unless conjecture_probe
    is set, in which case estimates are emitted unjudged.
    """
    law = cfg.offspring()
    regime = genfn.macroscopic_law(law)
    probe = not regime.unique_double_fp
    if probe and not cfg.conjecture_probe:
        raise RegimeMismatchError(
            "mandatory/blocking densities need a unique doubled fixed point "
            "in (0,1); rerun with conjecture_probe for unjudged estimates"
        )
    gamma = genfn.single_fixed_point(law)
    base = cfg.base_seed()
    counts = {"mandatory": 0, "blocking": 0, "free": 0, "unknown": 0}
    for g in itertools.islice(_trees(base.child(0), law, "edge", cfg.depth), cfg.samples):
        levels, certified = bp.macroscopic_squeeze(g)
        counts[bp.classify_edge(levels, certified, g.root.u, g.root.v)] += 1
    total = cfg.samples - counts["unknown"]
    if total == 0:
        raise HarnessError("no certified root edges at this depth")

    # classifier cross-check on small whole forests, among 10 * cross_forests trees
    candidates = itertools.islice(_small_trees(base.child(1)), 10 * cfg.cross_forests)
    enumerable = (g for g in candidates if 0 < g.m <= exact._ENUM_EDGE_CAP)
    mismatches = checked_edges = forests = 0
    for g in itertools.islice(enumerable, cfg.cross_forests):
        whole = replace(g, boundary=frozenset())
        lv, cert = bp.macroscopic_squeeze(whole)
        cls = bp.classify_edges_from_levels(whole, lv, cert)
        oracle = exact.mandatory_blocking(whole)
        for e, label in cls.items():
            if label == bp.UNKNOWN:
                continue
            checked_edges += 1
            mismatches += label != oracle[e]
        forests += 1

    records = []
    for name, ref in (("mandatory", gamma**2), ("blocking", (1.0 - gamma) ** 2)):
        p_hat = counts[name] / total
        rec = ResultRecord(
            experiment="mandatory",
            name=f"{name}_edge_density",
            params={"law": cfg.law, "depth": cfg.depth, "samples": cfg.samples, "seed": cfg.seed},
            estimate=p_hat,
            se=_binom_se(p_hat, total),
            reference=None if probe else ref,
            provenance="square of the fixed point of t -> hphi(1-t) (genfn)",
            tolerance=0.02,
            notes=("conjecture probe; " if probe else "")
            + f"certified {total}/{cfg.samples}",
        )
        records.append(rec)
    cross = ResultRecord(
        experiment="mandatory",
        name="classifier_vs_enumeration_mismatches",
        params={"forests": forests, "edges": checked_edges},
        estimate=float(mismatches),
        reference=0.0,
        provenance="exhaustive maximum-matching enumeration (exact.mandatory_blocking)",
        tolerance=0.5,
    )
    records.append(cross)
    return records


def _star_of_stars(p: int) -> randgraph.WeightedGraph:
    """Root of degree p+1, each neighbour with p pendant leaves, numbered breadth first."""
    hubs = range(1, p + 2)
    lo = [0] * (p + 1) + [h for h in hubs for _ in range(p)]
    n = len(lo) + 1
    return randgraph.WeightedGraph(n, lo, range(1, n), [0.0] * (n - 1), randgraph.VertexRoot(0))


def run_separation(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Conditional root-matching probability on the star-of-stars event.

    The conditioning event pins the whole tree, so the conditional laws
    are sampled by direct construction (rejection would waste 1/P(A)
    draws).  The weighted probability is weight-law invariant; the
    uniform-maximum-matching probability differs from it, which separates
    the two matching ensembles.
    """
    p = cfg.p
    law = cfg.offspring()
    excess = law.excess_pmf()
    pa_note = ""
    if len(excess) > p and excess[p] > 0 and excess[0] > 0:
        pi_vals = law.pmf_values(p + 1)
        pa = pi_vals[p + 1] * excess[p] ** (p + 1) * excess[0] ** (p * (p + 1))
        pa_note = f"P(conditioning event)={pa:.3e}"
    g0 = _star_of_stars(p)
    base = cfg.base_seed()
    wlaw_a, wlaw_b = cfg.weight_law(), parse_weight_law(cfg.weights_b)
    # the reference 1 - (1 - 1/(p+1))^(p+1) is the chance that some hub's edge to the
    # root is the heaviest of its p + 1 edges, 1/(p+1) per hub only when no draws tie
    for spec, wlaw in ((cfg.weights, wlaw_a), (cfg.weights_b, wlaw_b)):
        if not wlaw.atomless:
            raise HarnessError(f"separation experiment needs an atomless weight law, got {spec}")

    def weighted_estimate(wlaw: WeightLaw, seed: RngSeed) -> tuple[float, float]:
        hits = 0
        for s in itertools.islice(_seeds(seed), cfg.samples):
            g = assign_weights(g0, wlaw, s)
            m = bp.extract_matching(g, bp.sweep_tree(g, 1))
            _assert_perf_identity(m)
            hits += m.covers(0)
        p_hat = hits / cfg.samples
        return p_hat, _binom_se(p_hat, cfg.samples)

    est_a, se_a = weighted_estimate(wlaw_a, base.child(0))
    est_b, se_b = weighted_estimate(wlaw_b, base.child(1))
    useeds = itertools.islice(_seeds(base.child(2)), cfg.samples)
    est_u = sum(exact.uniform_max_matching(g0, s).covers(0) for s in useeds) / cfg.samples

    ref_w = 1.0 - (1.0 - 1.0 / (p + 1)) ** (p + 1)
    ref_u = 1.0 / (1.0 + p / (p + 1.0))
    return [
        ResultRecord(
            "separation",
            "weighted_root_match_prob",
            {"p": p, "weights": cfg.weights, "samples": cfg.samples, "seed": cfg.seed},
            est_a,
            se_a,
            ref_w,
            "1 - (1 - 1/(p+1))^(p+1), direct conditioned construction",
            0.02,
            notes=pa_note,
        ),
        ResultRecord(
            "separation",
            "uniform_root_match_prob",
            {"p": p, "samples": cfg.samples, "seed": cfg.seed},
            est_u,
            _binom_se(est_u, cfg.samples),
            ref_u,
            "1 / (1 + p/(p+1)), uniform maximum-matching enumeration",
            0.02,
        ),
        ResultRecord(
            "separation",
            "weight_law_invariance_gap",
            {"p": p, "weights_a": cfg.weights, "weights_b": cfg.weights_b},
            abs(est_a - est_b),
            math.hypot(se_a, se_b),
            0.0,
            "weighted probability is weight-law independent",
            0.02,
        ),
    ]


def run_eps_sweep(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Agreement of 1+eps*w maximum-weight matchings with the lex optimum.

    On a fixed set of random trees the two coincide for every eps below
    the instance's enumerated gap threshold and the disagreement fraction
    reaches zero as eps decreases geometrically.
    """
    candidates = itertools.islice(_small_trees(cfg.base_seed(), cfg.weight_law()), 20 * cfg.trees)
    instances = list(itertools.islice((g for g in candidates if 1 <= g.m <= 18), cfg.trees))
    if len(instances) < cfg.trees:
        raise HarnessError("could not build the requested tree corpus")

    opts = [bp.extract_matching(g, bp.sweep_tree(g, 1)) for g in instances]
    thresholds = [exact.eps_threshold(g, m) for g, m in zip(instances, opts)]
    curve = []
    below_threshold_violations = 0
    for j in range(cfg.eps_min_exp, cfg.eps_max_exp + 1):
        eps = 2.0**-j
        disagree = 0
        for g, opt, thr in zip(instances, opts, thresholds):
            _, m = bp.scalar_sweep_eps(g, eps)
            if m.ends != opt.ends:
                disagree += 1
                if eps < thr * (1.0 - 1e-9):
                    below_threshold_violations += 1
        curve.append({"eps": eps, "disagreement_fraction": disagree / len(instances)})
    final = curve[-1]["disagreement_fraction"]
    rec = ResultRecord(
        experiment="eps-sweep",
        name="final_disagreement_fraction",
        params={
            "trees": len(instances),
            "eps_range": [2.0**-cfg.eps_min_exp, 2.0**-cfg.eps_max_exp],
            "seed": cfg.seed,
        },
        estimate=final,
        se=None,
        reference=0.0,
        provenance="matching enumeration gap threshold (exact)",
        tolerance=1e-12,
        passed=final == 0.0 and below_threshold_violations == 0,
        curve=curve,
        notes=f"below-threshold violations={below_threshold_violations}",
    )
    return [rec]


def run_check(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Structural property suite on randomized instances with fixed seeds."""
    base = cfg.base_seed()
    wlaw = cfg.weight_law()
    results = {}

    # recursion self-consistency, and the top-down decode with its level certificate:
    # extract_matching raises unless the levels prove the matching of maximum size
    # (the second record keeps the name that the outputs carry)
    residuals = 0
    violations = 0
    for g in itertools.islice(_small_trees(base.child(0), wlaw), 100):
        f = bp.sweep_tree(g, 1)
        msgs = f.messages
        for (u, v), val in msgs.items():
            best = bp.ZERO
            for w, e in zip(*g.incident(v)):
                if w != u:
                    level, z = msgs[(v, w)]
                    best = max(best, (f.k - level, g.w[e] - z))
            residuals += best != val
        try:
            bp.extract_matching(g, f)
        except (bp.FieldInconsistencyError, exact.NotAMatchingError):
            violations += 1
    results["recursion_self_consistency"] = residuals == 0
    results["matching_disjointness_and_rule_equivalence"] = violations == 0

    # anti-monotone squeeze ordering: one application of the recursion
    # reverses ordered boundary specs, and the extremal sweeps bracket
    # every sampled boundary field
    rng = base.child(2).generator()
    squeeze_ok = True
    for g in itertools.islice(_trees(base.child(1), OffspringLaw.poisson(1.5), "vertex", 3, wlaw), 40):
        if not g.boundary:
            continue
        sq = bp.squeeze(g, 1)
        spec_lo, spec_hi = {}, {}
        for b in g.boundary:
            z = float(rng.random())
            # (0, z/2) <= (lvl, z) pointwise in the lexicographic order
            spec_lo[b] = (0, 0.5 * z)
            spec_hi[b] = (int(rng.integers(0, 2)), z)
        for f in (bp.sweep_bounded(g, 1, spec_lo), bp.sweep_bounded(g, 1, spec_hi)):
            for key, val in f.messages.items():
                if key[1] in spec_lo:
                    continue
                if not (sq.lower[key] <= val <= sq.upper[key]):
                    squeeze_ok = False
    star = randgraph.WeightedGraph(3, [0, 0], [1, 2], [0.4, 0.7], randgraph.VertexRoot(0), frozenset((1, 2)))
    one_lo = bp.sweep_bounded(star, 1, "zero").messages
    one_hi = bp.sweep_bounded(star, 1, "top").messages
    for key in ((1, 0), (2, 0)):
        if not one_lo[key] >= one_hi[key]:
            squeeze_ok = False
    results["anti_monotone_squeeze_bounds"] = squeeze_ok

    # perf proportionality on harness-touched matchings
    perf_ok = True
    for i in range(20):
        er = base.child(3).child(i)
        g = assign_weights(randgraph.erdos_renyi(500, 1.0, er), wlaw, er.child(0))
        m, _, _ = exact.leaf_removal(g, er.child(1))
        try:
            _assert_perf_identity(m)
        except HarnessError:
            perf_ok = False
    results["perf_vertex_edge_proportionality"] = perf_ok

    return [
        ResultRecord(
            experiment="check",
            name=name,
            params={"seed": cfg.seed},
            estimate=1.0 if ok else 0.0,
            reference=1.0,
            provenance="structural invariant",
            tolerance=0.5,
        )
        for name, ok in results.items()
    ]


def run_solve(cfg: ExperimentConfig) -> tuple[list[ResultRecord], rde.CdfSystem]:
    """Solve the message-law system and report its internal identities.

    Returns the records and the solved system (its grid dump is
    rde.system_to_csv, its solver attempts `system.attempts`).
    """
    law = cfg.offspring()
    wlaw = cfg.weight_law()
    if not wlaw.atomless:
        raise HarnessError(f"solve experiment needs an atomless weight law, got {cfg.weights}")
    if not law.mean >= _SOLVE_MIN_MEAN:
        raise HarnessError(
            f"solve experiment needs a law with mean >= {_SOLVE_MIN_MEAN:g}, got {cfg.law}"
        )
    regime = genfn.macroscopic_law(law)
    if regime.degenerate_family:
        # a continuum of doubled-map fixed points: the grid solver cannot converge
        raise RegimeMismatchError(
            f"solve experiment needs a law outside the degenerate family (doubled map "
            f"the identity on [0, 1]), got {cfg.law}"
        )
    k = cfg.k if cfg.k is not None else regime.k
    grid = rde.GridSpec(cfg.grid_points, cfg.grid_t)
    system = rde.solve_system(law, wlaw, k, grid)
    plateau = system.plateau
    relation = abs(plateau[0] - float(law.excess_pgf(1.0 - plateau[-1]))) if k else 0.0
    size = rde.size_from_system(system)
    cross = rde.size_from_functional(system)
    records = [
        ResultRecord(
            "solve",
            "plateau_relation_residual",
            {"law": cfg.law, "weights": cfg.weights, "k": k, "grid": cfg.grid_points},
            relation,
            None,
            0.0,
            "plateau relation |l_1 - hphi(1 - l_k)| of the solved layers",
            2e-3,
        ),
        ResultRecord(
            "solve",
            "edge_density_formula_gap",
            {"law": cfg.law, "k": k},
            abs(size - cross),
            None,
            0.0,
            "atom formula vs matching functional (rde.size_from_system)",
            2e-3,
        ),
    ]
    return records, system


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------

_CSV_COLUMNS = {
    "experiment": str,
    "name": str,
    "estimate": _fmt,
    "se": _fmt,
    "reference": _fmt,
    "tolerance": _fmt,
    "passed": lambda passed: "" if passed is None else str(passed),
    "provenance": str,
    "params": lambda params: json.dumps(params, sort_keys=True),
    "notes": str,
}


def records_to_csv(records: list[ResultRecord]) -> str:
    lines = ["# lexmatch-results v1"]
    lines.append(",".join(_CSV_COLUMNS))
    for rec in records:
        cells = (cell(getattr(rec, col)) for col, cell in _CSV_COLUMNS.items())
        lines.append(",".join('"%s"' % c.replace('"', '""') for c in cells))
        for pt in rec.curve:
            lines.append(
                '"%s-curve","%s",%s'
                % (rec.experiment, rec.name, ",".join(f"{k}={_fmt_curve(v)}" for k, v in pt.items()))
            )
    return "\n".join(lines) + "\n"


def _fmt_curve(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def records_to_json(records: list[ResultRecord]) -> str:
    payload = {"schema": "lexmatch-results-v1", "records": [asdict(r) for r in records]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit(records: list[ResultRecord], cfg: ExperimentConfig, extra_files: dict | None = None) -> None:
    if cfg.out is None:
        return
    os.makedirs(cfg.out, exist_ok=True)
    stem = os.path.join(cfg.out, cfg.experiment)
    if cfg.fmt == "csv":
        with open(stem + ".csv", "w") as fh:
            fh.write(records_to_csv(records))
    with open(stem + ".json", "w") as fh:
        fh.write(records_to_json(records))
    for name, text in (extra_files or {}).items():
        with open(os.path.join(cfg.out, name), "w") as fh:
            fh.write(text)


RUNNERS = {
    "size": run_size,
    "decay": run_decay,
    "mandatory": run_mandatory,
    "separation": run_separation,
    "eps-sweep": run_eps_sweep,
    "check": run_check,
}


# The ExperimentConfig fields each experiment reads.  The CLI registers one
# flag per field and config_from rejects every other key.
READS = {
    "size": ("law", "n", "replicas", "seed", "stream"),
    "decay": ("law", "weights", "samples", "h_min", "h_max", "h_step", "seed", "stream"),
    "mandatory": ("law", "depth", "samples", "conjecture_probe", "cross_forests", "seed", "stream"),
    "separation": ("law", "weights", "weights_b", "p", "samples", "seed", "stream"),
    "eps-sweep": ("weights", "trees", "eps_min_exp", "eps_max_exp", "seed", "stream"),
    "check": ("weights", "seed", "stream"),
    "solve": ("law", "weights", "k", "grid_points", "grid_t"),
}
