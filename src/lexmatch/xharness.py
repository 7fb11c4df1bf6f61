"""Monte Carlo experiment drivers, statistics and result emission.

Every experiment is a pure function of its configuration: replica seeds
are derived by index from the base (seed, stream) pair and results are
reduced in replica order, so reruns are byte-identical.  Each reported
estimate carries its standard error, a reference value with a provenance
note naming the formula and module it came from, and a pass flag using
the criterion |estimate - reference| < max(tolerance, 3 * SE).
"""

from __future__ import annotations

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
    "HarnessError",
    "CertificationError",
    "RegimeMismatchError",
    "ExperimentConfig",
    "READS",
    "ResultRecord",
    "run_size",
    "run_decay",
    "run_mandatory",
    "run_separation",
    "run_eps_sweep",
    "run_check",
    "run_solve",
    "emit",
    "load_config_file",
    "check_seed",
]


class HarnessError(RuntimeError):
    """Experiment could not produce a valid estimate."""


class CertificationError(HarnessError):
    """Too few certified leaf-removal runs to report an exact size."""


class RegimeMismatchError(HarnessError):
    """Law is outside the regime the experiment requires."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration.

    Each experiment reads only the fields that READS lists for it;
    `config_from` rejects any other key.  `tolerance` is the absolute pass
    band against the reference value, None for the experiment's default
    (0.01 for size, 0.02 for mandatory and separation).
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
    tolerance: float | None = None
    seed: int = 7
    stream: int = 0
    out: str | None = None
    fmt: str = "csv"
    conjecture_probe: bool = False

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
    out = {}
    with open(path) as fh:
        for raw in fh:
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
    by `emit`) or a malformed value raises HarnessError.
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
    cfg = ExperimentConfig(**kwargs)
    if cfg.fmt not in ("csv", "json"):
        raise HarnessError(f"invalid value {cfg.fmt!r} for config key 'fmt'")
    check_seed(cfg.seed)
    check_seed(cfg.stream, "stream")
    return cfg


def check_seed(seed: int, name: str = "seed") -> None:
    """Reject a negative seed, which RngSeed cannot turn into a generator."""
    if seed < 0:
        raise HarnessError(f"{name} must be >= 0, got {seed}")


@dataclass
class ResultRecord:
    """One experiment outcome with provenance-tagged reference."""

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

    def judge(self) -> "ResultRecord":
        """Apply the statistical pass criterion when a reference exists."""
        if self.reference is None or self.estimate is None:
            return self
        band = max(self.tolerance or 0.0, 3.0 * (self.se or 0.0))
        self.passed = abs(self.estimate - self.reference) < band
        return self


def _fmt(x) -> str:
    return "" if x is None else f"{x:.12g}"


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if len(arr) == 0:
        raise HarnessError("no values to aggregate")
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return float(arr.mean()), se


def _binom_se(p_hat: float, n: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / max(n, 1))


def _need_at_least(experiment: str, low: int, **values) -> None:
    """Reject a value below `low`, such as a count an estimate divides by."""
    for name, value in values.items():
        if value < low:
            raise HarnessError(f"{experiment} experiment needs {name} >= {low}, got {value}")


def _assert_perf_identity(g, matching) -> None:
    pv, pe = exact.perf_of(g, matching)
    ratio = 2.0 * g.m / max(g.n, 1)
    if abs(pv.match_prob - ratio * pe.match_prob) > 1e-9 or abs(
        pv.expected_weight - ratio * pe.expected_weight
    ) > 1e-9:
        raise HarnessError("vertex/edge performance proportionality violated")


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------


def run_size(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Matched-vertex fraction on sparse graphs vs the analytic density.

    Poisson laws map to G(n, c/n); other laws to the configuration model
    with i.i.d. degrees.  Only leaf-removal-certified replicas enter the
    estimate; if the law is not subcritical and fewer than 90% of the
    replicas certify, the run is refused.
    """
    _need_at_least("size", 1, replicas=cfg.replicas)
    law = cfg.offspring()
    base = cfg.base_seed()
    fractions = []
    certified = 0
    for i in range(cfg.replicas):
        gseed = base.child(2 * i)
        rseed = base.child(2 * i + 1)
        if law.family == "poisson":
            g = randgraph.erdos_renyi(cfg.n, law.params[0], gseed)
        else:
            degs = law.sample(gseed.generator(), cfg.n)
            g = randgraph.configuration_model(degs, gseed.child(0))
        matching, is_exact, _ = exact.leaf_removal(g, rseed)
        if is_exact:
            certified += 1
            fractions.append(2.0 * matching.size / g.n)
            _assert_perf_identity(g, matching)
    frac_certified = certified / max(cfg.replicas, 1)
    rho = genfn.rho_subcritical(law)
    if certified == 0 or (frac_certified < 0.9 and rho >= 1.0):
        raise CertificationError(
            f"certified replicas {certified}/{cfg.replicas} "
            f"(fraction {frac_certified:.2f}, rho={rho:.3f}); "
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
        tolerance=0.01 if cfg.tolerance is None else cfg.tolerance,
        notes=f"certified {certified}/{cfg.replicas}",
    )
    return [rec.judge()]


def run_decay(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Exponential forgetting of the boundary by root messages.

    For each even radius H the fraction of sampled trees whose root has an
    uncertified outgoing message is recorded; one contraction round of the
    doubled recursion advances the radius by two, so the log-fraction is
    fitted against r = H/2 and compared with log(rho).
    """
    _need_at_least("decay", 1, samples=cfg.samples, h_step=cfg.h_step)
    if cfg.h_min > cfg.h_max:
        raise HarnessError("decay experiment needs h_min <= h_max")
    law = cfg.offspring()
    wlaw = cfg.weight_law()
    regime = genfn.macroscopic_law(law)
    if regime.k != 1:
        raise RegimeMismatchError(f"decay experiment needs the k=1 regime, got k={regime.k}")
    rho = regime.rho
    base = cfg.base_seed()
    radii = list(range(cfg.h_min, cfg.h_max + 1, cfg.h_step))
    curve = []
    for hi, H in enumerate(radii):
        uncert = 0
        for i in range(cfg.samples):
            tseed = base.child(1_000_000 * (hi + 1) + 2 * i)
            g = ubgw_tree(law, "vertex", H, tseed)
            g = assign_weights(g, wlaw, tseed.child(0))
            sq = bp.squeeze(g, 1)
            root = g.root_vertex()
            if any(not sq.certified[(root, v)] for v in g.adjacency[root]):
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
        curve=curve,
        notes=notes,
    )
    rec.passed = passed
    return [rec]


def _single_map_fixed_point(law: OffspringLaw) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(law.excess_pgf(1.0 - mid)) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def run_mandatory(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Densities of always-matched and never-matched edges.

    Classifies the root edge of deep edge-rooted trees through certified
    levels and compares against gamma^2 and (1-gamma)^2 with gamma the
    fixed point of t -> hphi(1-t).  A small-forest cross-check against
    exhaustive enumeration guards the classifier itself.  Outside the
    unique-fixed-point regime the run is refused unless conjecture_probe
    is set, in which case estimates are emitted unjudged.
    """
    if cfg.depth < 1:
        # both root endpoints would be pinned boundary vertices
        raise HarnessError("mandatory experiment needs depth >= 1")
    _need_at_least("mandatory", 1, samples=cfg.samples)
    law = cfg.offspring()
    regime = genfn.macroscopic_law(law)
    probe = not regime.unique_double_fp
    if probe and not cfg.conjecture_probe:
        raise RegimeMismatchError(
            "mandatory/blocking densities need a unique doubled fixed point "
            "in (0,1); rerun with conjecture_probe for unjudged estimates"
        )
    gamma = _single_map_fixed_point(law)
    tol = 0.02 if cfg.tolerance is None else cfg.tolerance
    base = cfg.base_seed()
    counts = {"mandatory": 0, "blocking": 0, "free": 0, "unknown": 0}
    for i in range(cfg.samples):
        g = ubgw_tree(law, "edge", cfg.depth, base.child(i))
        levels, certified = bp.macroscopic_squeeze(g)
        a, b = g.root.u, g.root.v
        if not (certified.get((a, b)) and certified.get((b, a))):
            counts["unknown"] += 1
            continue
        s = levels[(a, b)] + levels[(b, a)]
        counts["mandatory" if s < 1 else "blocking" if s > 1 else "free"] += 1
    total = cfg.samples - counts["unknown"]
    if total == 0:
        raise HarnessError("no certified root edges at this depth")

    # classifier cross-check on small whole forests
    mismatches = 0
    checked_edges = 0
    forests = 0
    i = 0
    while forests < cfg.cross_forests and i < 10 * cfg.cross_forests:
        g = ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 1 + i % 4, base.child(10**7 + i))
        i += 1
        if g.m == 0 or g.m > exact._ENUM_EDGE_CAP:
            continue
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
            tolerance=tol,
            notes=("conjecture probe; " if probe else "")
            + f"certified {total}/{cfg.samples}",
        )
        records.append(rec.judge())
    cross = ResultRecord(
        experiment="mandatory",
        name="classifier_vs_enumeration_mismatches",
        params={"forests": forests, "edges": checked_edges},
        estimate=float(mismatches),
        reference=0.0,
        provenance="exhaustive maximum-matching enumeration (exact.mandatory_blocking)",
        tolerance=0.5,
    )
    records.append(cross.judge())
    return records


def _star_of_stars(p: int) -> randgraph.WeightedGraph:
    """Root of degree p+1, each neighbour with p pendant leaves."""
    edges = {}
    nxt = 1
    for j in range(p + 1):
        hub = nxt
        nxt += 1
        edges[(0, hub)] = 0.0
        for _ in range(p):
            edges[(min(hub, nxt), max(hub, nxt))] = 0.0
            nxt += 1
    return randgraph._build(nxt, edges, randgraph.VertexRoot(0))


def run_separation(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Conditional root-matching probability on the star-of-stars event.

    The conditioning event pins the whole tree, so the conditional laws
    are sampled by direct construction (rejection would waste 1/P(A)
    draws).  The weighted probability is weight-law invariant; the
    uniform-maximum-matching probability differs from it, which separates
    the two matching ensembles.
    """
    _need_at_least("separation", 1, p=cfg.p, samples=cfg.samples)
    p = cfg.p
    # the uniform ensemble enumerates the (p + 1)^2 edges of the star of stars
    p_max = math.isqrt(exact._ENUM_EDGE_CAP) - 1
    if p > p_max:
        raise HarnessError(
            f"separation experiment needs p <= {p_max}: the star of stars has "
            f"(p + 1)^2 = {(p + 1) ** 2} edges, over the enumeration cap {exact._ENUM_EDGE_CAP}"
        )
    law = cfg.offspring()
    excess = law.excess_pmf()
    pa_note = ""
    if len(excess) > p and excess[p] > 0 and excess[0] > 0:
        pi_vals = law.pmf_values(p + 1)
        pa = pi_vals[p + 1] * excess[p] ** (p + 1) * excess[0] ** (p * (p + 1))
        pa_note = f"P(conditioning event)={pa:.3e}"
    g0 = _star_of_stars(p)
    base = cfg.base_seed()
    wlaw_a = cfg.weight_law()
    wlaw_b = parse_weight_law(cfg.weights_b)

    def weighted_estimate(wlaw: WeightLaw, offset: int) -> tuple[float, float]:
        hits = 0
        for i in range(cfg.samples):
            g = assign_weights(g0, wlaw, base.child(offset + i))
            m = bp.extract_matching(g, bp.sweep_tree(g, 1))
            _assert_perf_identity(g, m)
            hits += m.covers(0)
        p_hat = hits / cfg.samples
        return p_hat, _binom_se(p_hat, cfg.samples)

    est_a, se_a = weighted_estimate(wlaw_a, 0)
    est_b, se_b = weighted_estimate(wlaw_b, 10**6)
    hits = 0
    for i in range(cfg.samples):
        m = exact.uniform_max_matching(g0, base.child(2 * 10**6 + i))
        hits += m.covers(0)
    est_u = hits / cfg.samples

    ref_w = 1.0 - (1.0 - 1.0 / (p + 1)) ** (p + 1)
    ref_u = 1.0 / (1.0 + p / (p + 1.0))
    tol = 0.02 if cfg.tolerance is None else cfg.tolerance
    records = [
        ResultRecord(
            "separation",
            "weighted_root_match_prob",
            {"p": p, "weights": cfg.weights, "samples": cfg.samples, "seed": cfg.seed},
            est_a,
            se_a,
            ref_w,
            "1 - (1 - 1/(p+1))^(p+1), direct conditioned construction",
            tol,
            notes=pa_note,
        ).judge(),
        ResultRecord(
            "separation",
            "uniform_root_match_prob",
            {"p": p, "samples": cfg.samples, "seed": cfg.seed},
            est_u,
            _binom_se(est_u, cfg.samples),
            ref_u,
            "1 / (1 + p/(p+1)), uniform maximum-matching enumeration",
            tol,
        ).judge(),
        ResultRecord(
            "separation",
            "weight_law_invariance_gap",
            {"p": p, "weights_a": cfg.weights, "weights_b": cfg.weights_b},
            abs(est_a - est_b),
            math.hypot(se_a, se_b),
            0.0,
            "weighted probability is weight-law independent",
            tol,
        ).judge(),
    ]
    return records


def _eps_threshold(g: randgraph.WeightedGraph, opt: exact.Matching) -> float:
    """Largest eps below which the 1+eps*w optimum equals the lex optimum.

    A smaller-but-heavier matching M beats the lex optimum M* once
    eps > (|M*| - |M|) / (w(M) - w(M*)); enumerate all matchings and take
    the minimum such ratio (inf if none competes).
    """
    size0, w0 = opt.size, opt.weight
    best = math.inf
    for sel, weight in exact._matchings(g):
        if len(sel) < size0 and weight > w0:
            best = min(best, (size0 - len(sel)) / (weight - w0))
    return best


def run_eps_sweep(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Agreement of 1+eps*w maximum-weight matchings with the lex optimum.

    On a fixed set of random trees the two coincide for every eps below
    the instance's enumerated gap threshold and the disagreement fraction
    reaches zero as eps decreases geometrically.
    """
    _need_at_least("eps-sweep", 1, trees=cfg.trees)
    if cfg.eps_min_exp > cfg.eps_max_exp:
        raise HarnessError("eps-sweep experiment needs eps_min_exp <= eps_max_exp")
    base = cfg.base_seed()
    instances = []
    i = 0
    while len(instances) < cfg.trees and i < 20 * cfg.trees:
        g = ubgw_tree(OffspringLaw.poisson(2.0), "vertex", 1 + i % 4, base.child(2 * i))
        g = assign_weights(g, cfg.weight_law(), base.child(2 * i + 1))
        i += 1
        if 1 <= g.m <= 18:
            instances.append(g)
    if len(instances) < cfg.trees:
        raise HarnessError("could not build the requested tree corpus")

    opts = [bp.extract_matching(g, bp.sweep_tree(g, 1)) for g in instances]
    thresholds = [_eps_threshold(g, m) for g, m in zip(instances, opts)]
    curve = []
    below_threshold_violations = 0
    for j in range(cfg.eps_min_exp, cfg.eps_max_exp + 1):
        eps = 2.0**-j
        disagree = 0
        for g, opt, thr in zip(instances, opts, thresholds):
            _, m = bp.scalar_sweep_eps(g, eps)
            if m.edges != opt.edges:
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
        curve=curve,
        notes=f"below-threshold violations={below_threshold_violations}",
    )
    rec.passed = final == 0.0 and below_threshold_violations == 0
    return [rec]


def run_check(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Structural property suite on randomized instances with fixed seeds."""
    base = cfg.base_seed()
    law = OffspringLaw.poisson(2.0)
    wlaw = cfg.weight_law()
    results = {}

    # recursion self-consistency + disjointness + rule equivalence
    residuals = 0
    violations = 0
    for i in range(100):
        g = ubgw_tree(law, "vertex", 1 + i % 4, base.child(i))
        g = assign_weights(g, wlaw, base.child(10**5 + i))
        f = bp.sweep_tree(g, 1)
        k = f.k
        for (u, v), val in f.messages.items():
            best = bp.ZERO
            for w in g.adjacency[v]:
                if w == u:
                    continue
                cand = (
                    k - f.messages[(v, w)][0],
                    g.weights[(min(v, w), max(v, w))] - f.messages[(v, w)][1],
                )
                if cand > best:
                    best = cand
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
    rng = np.random.default_rng(cfg.seed)
    squeeze_ok = True
    for i in range(40):
        g = ubgw_tree(OffspringLaw.poisson(1.5), "vertex", 3, base.child(10**6 + i))
        g = assign_weights(g, wlaw, base.child(2 * 10**6 + i))
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
    star = randgraph._build(
        3, {(0, 1): 0.4, (0, 2): 0.7}, randgraph.VertexRoot(0), frozenset((1, 2))
    )
    one_lo = bp.sweep_bounded(star, 1, "zero").messages
    one_hi = bp.sweep_bounded(star, 1, "top").messages
    for key in ((1, 0), (2, 0)):
        if not one_lo[key] >= one_hi[key]:
            squeeze_ok = False
    results["anti_monotone_squeeze_bounds"] = squeeze_ok

    # perf proportionality on harness-touched matchings
    perf_ok = True
    for i in range(20):
        g = randgraph.erdos_renyi(500, 1.0, base.child(3 * 10**6 + i))
        g = assign_weights(g, wlaw, base.child(4 * 10**6 + i))
        m, _, _ = exact.leaf_removal(g, base.child(5 * 10**6 + i))
        try:
            _assert_perf_identity(g, m)
        except HarnessError:
            perf_ok = False
    results["perf_vertex_edge_proportionality"] = perf_ok

    records = []
    for name, ok in results.items():
        records.append(
            ResultRecord(
                experiment="check",
                name=name,
                params={"seed": cfg.seed},
                estimate=1.0 if ok else 0.0,
                reference=1.0,
                provenance="structural invariant",
                tolerance=0.5,
                passed=bool(ok),
            )
        )
    return records


def run_solve(cfg: ExperimentConfig) -> tuple[list[ResultRecord], rde.CdfSystem]:
    """Solve the message-law system and report its internal identities.

    Returns the records and the solved system (its grid dump is
    rde.system_to_csv, its solver attempts `system.attempts`).
    """
    _need_at_least("solve", rde.GridSpec.MIN_POINTS, grid_points=cfg.grid_points)
    if cfg.k is not None:
        _need_at_least("solve", 0, k=cfg.k)
    if cfg.grid_t is not None and not (math.isfinite(cfg.grid_t) and cfg.grid_t > 0):
        raise HarnessError(f"solve experiment needs a positive finite grid_t, got {cfg.grid_t}")
    law = cfg.offspring()
    wlaw = cfg.weight_law()
    if not wlaw.atomless:
        raise HarnessError(f"solve experiment needs an atomless weight law, got {cfg.weights}")
    k = cfg.k if cfg.k is not None else genfn.macroscopic_law(law).k
    grid = rde.GridSpec(cfg.grid_points, cfg.grid_t)
    system = rde.solve_system(law, wlaw, k, grid)
    cons = rde.conservation_check(system)
    size = rde.size_from_system(system)
    cross = rde.size_from_functional(system)
    records = [
        ResultRecord(
            "solve",
            "conservation_residual",
            {"law": cfg.law, "weights": cfg.weights, "k": k, "grid": cfg.grid_points},
            cons["bords"],
            None,
            0.0,
            "boundary-value conservation identity (rde.conservation_check)",
            2e-3,
        ).judge(),
        ResultRecord(
            "solve",
            "edge_density_formula_gap",
            {"law": cfg.law, "k": k},
            abs(size - cross),
            None,
            0.0,
            "atom formula vs matching functional (rde.size_from_system)",
            2e-3,
        ).judge(),
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
    "size": ("law", "n", "replicas", "tolerance", "seed", "stream"),
    "decay": ("law", "weights", "samples", "h_min", "h_max", "h_step", "seed", "stream"),
    "mandatory": (
        "law", "depth", "samples", "tolerance", "conjecture_probe", "cross_forests", "seed", "stream"
    ),
    "separation": ("law", "weights", "weights_b", "p", "samples", "tolerance", "seed", "stream"),
    "eps-sweep": ("weights", "trees", "eps_min_exp", "eps_max_exp", "seed", "stream"),
    "check": ("weights", "seed", "stream"),
    "solve": ("law", "weights", "k", "grid_points", "grid_t"),
}
