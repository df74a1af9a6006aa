"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The heavyweight artifacts (default benchmark run, strength sweep,
misspecification sweep) are built once per module and shared.
"""

import csv
import hashlib
import json
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from civex.baselines import (
    ALWAYS_ABSTAIN,
    CAUSAL_NO_EXPERIMENT,
    CIVEX,
    CIVEX_CERT_ONLY,
    CONTEXT_ONLY_NO_CAUSAL,
    FAMILY_MAJORITY_CLASSIFIER,
    ORACLE_SCM,
    POLICY_GATE,
    SCHEMA_GATE,
    SEMANTIC_ONTOLOGY_GATE,
)
from civex.config import dump
from civex.estimation import adjusted_effect, provenance_hash
from civex.evaluation import ScoreWeights, rule_of_three, utility_value, wilcoxon_exact
from civex.frames import Frame
from civex.graphs import (
    CausalGraph,
    IdentificationKind,
    d_separated,
    identify,
)
from civex.runner import (
    MISSPEC_FRACTIONS,
    STRENGTH_GRID,
    SWEEP_METHODS,
    RunConfig,
    run_benchmark,
    run_regenerating_sweep,
    run_weight_sweep,
    write_run_outputs,
)
from civex.scm import (
    ADVERSARIAL,
    MODERATE,
    BenchmarkSpec,
    ConfounderSpec,
    InstanceId,
    ScmSpec,
    build_benchmark,
    generate_frame,
    sample_instance,
)
from civex.verifier import (
    ActionFrame,
    Decision,
    VerifierConfig,
    certificate_from_json_dict,
    triage,
    verify_certificate,
)

from oracles import (
    brute_force_d_separated,
    brute_force_identify,
    normal_equations_ols,
    per_value_encode,
    random_graph,
    wilcoxon_enumeration_oracle,
)

ALPHA = 0.05
_timings: dict[str, float] = {}


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def digest(instances) -> str:
    """The SHA-256 of every instance's record and both its frames.

    The record is the instance file's, without the frames.  Each frame enters
    as its column names and shape, then its canonical bytes, whose shortest
    round-trip text of each value keeps every float bit.  Comparing digests
    fails at once, where comparing the instances makes pytest diff them.
    """
    h = hashlib.sha256()
    for inst in instances:
        record = {"id": asdict(inst.id), "frame": asdict(inst.frame),
                  "graph": dump(inst.graph),
                  "spec": {**asdict(inst.spec), "safe": inst.spec.safe},
                  "safe_experiment_available": inst.safe_experiment_available}
        pieces = [json.dumps(record, sort_keys=True).encode()]
        for frame in (inst.observational, inst.experimental):
            pieces += [json.dumps([frame.columns, frame.data.shape]).encode(),
                       frame.canonical_bytes()]
        for piece in pieces:
            h.update(hashlib.sha256(piece).digest())
    return h.hexdigest()


def ci_above(a, b) -> bool:
    """True when a's utility interval lies strictly above b's."""
    return a.utility_ci[0] > b.utility_ci[1]


def ci_overlap(a, b) -> bool:
    return not ci_above(a, b) and not ci_above(b, a)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance_run")


@pytest.fixture(scope="module")
def default_run(run_dir):
    config = RunConfig(output_dir=str(run_dir))
    t0 = time.monotonic()
    result = run_benchmark(config)
    _timings["default_run"] = time.monotonic() - t0
    write_run_outputs(result, run_dir)
    return result


@pytest.fixture(scope="module")
def strength_rows(default_run):
    t0 = time.monotonic()
    rows = run_regenerating_sweep("strength", replace(default_run.config,
                                                      methods=SWEEP_METHODS))
    _timings["strength_sweep"] = time.monotonic() - t0
    return rows


@pytest.fixture(scope="module")
def misspec_rows(default_run):
    t0 = time.monotonic()
    rows = run_regenerating_sweep("misspec", replace(default_run.config,
                                                     methods=SWEEP_METHODS))
    _timings["misspec_sweep"] = time.monotonic() - t0
    return rows


def summary(run, method, regime):
    return run.summaries[(method, regime)]


def test_criterion_01_benchmark_shape_and_determinism(default_run):
    t0 = time.monotonic()
    instances, _ = build_benchmark(BenchmarkSpec())
    gen_seconds = time.monotonic() - t0
    moderate = [i for i in instances if i.id.regime == MODERATE]
    adversarial = [i for i in instances if i.id.regime == ADVERSARIAL]
    assert len(instances) == 1890
    assert len(moderate) == 1050
    assert len(adversarial) == 840
    assert len({(i.id.seed, i.id.regime) for i in instances}) == 14
    spec = BenchmarkSpec()
    reverse = [sample_instance(i.id.family, i.id.regime, i.id.index,
                               seed=i.id.seed, bspec=spec)
               for i in reversed(instances)]
    # This build's digest is taken once.  Each digest reads every frame,
    # so the deferred ones are drawn on first read and compared too.
    built = digest(instances)
    assert digest(reversed(reverse)) == built
    assert digest(default_run.instances) == built
    assert gen_seconds < 60.0
    _report(1, f"1,890 instances (1,050 moderate + 840 adversarial), "
               f"byte-identical across reruns and reverse-order generation, "
               f"generated in {gen_seconds:.1f}s (< 60s)")


def test_criterion_02_zero_false_executions_everywhere(default_run, strength_rows,
                                                       misspec_rows):
    per_regime = {r: summary(default_run, CIVEX, r).false_exec_count
                  for r in (MODERATE, ADVERSARIAL)}
    assert per_regime == {MODERATE: 0, ADVERSARIAL: 0}
    strengths_checked = []
    for row in strength_rows:
        if row.summary.method == CIVEX:
            assert row.summary.false_exec_per_instance == 0.0, row.point
            strengths_checked.append(row.point["strength"])
    assert sorted(strengths_checked) == sorted(STRENGTH_GRID)
    fractions_checked = []
    for row in misspec_rows:
        if row.summary.method == CIVEX:
            assert row.summary.false_exec_per_instance == 0.0, row.point
            fractions_checked.append(row.point["fraction"])
    assert sorted(fractions_checked) == sorted(MISSPEC_FRACTIONS)
    grid_seconds = sum(_timings.values())
    assert grid_seconds < 600.0
    _report(2, f"0 false executions on all 1,890 default instances, all "
               f"{len(STRENGTH_GRID)} strengths, all {len(MISSPEC_FRACTIONS)} "
               f"misspecification fractions (grid in {grid_seconds:.0f}s < 600s)")


def test_criterion_03_cert_only_equals_causal_no_experiment(default_run):
    cert_only, cne = ([r for r in default_run.records if r.method == m]
                      for m in (CIVEX_CERT_ONLY, CAUSAL_NO_EXPERIMENT))
    assert len(cert_only) == len(default_run.instances)
    assert [r.instance_id for r in cert_only] == [r.instance_id for r in cne]
    mismatches = [a.instance_id for a, b in zip(cert_only, cne) if a.decision != b.decision]
    assert mismatches == []
    _report(3, "certificate-only ablation matches the no-experiment baseline "
               "verdict-for-verdict on all 1,890 instances")


def test_criterion_04_rule_of_three_and_exact_wilcoxon():
    assert rule_of_three(1890) == 3 / 1890
    assert round(rule_of_three(1890) * 100, 2) == 0.16
    assert rule_of_three(7) == 3 / 7
    assert round(rule_of_three(7) * 100, 1) == 42.9
    diffs = [0.11, 0.42, 0.07, 0.93, 0.25, 0.61, 0.30]
    p = wilcoxon_exact(diffs)
    assert p == 0.015625
    assert p == wilcoxon_enumeration_oracle(diffs)
    _report(4, "rule-of-three gives 0.16% (n=1890) and 42.9% (n=7); exact "
               "signed-rank p for 7 uniformly signed diffs is 0.015625")


def test_criterion_05_scoring_arithmetic():
    w = ScoreWeights()
    assert abs(utility_value(Decision.EXECUTE, 3.0, True, w) - 2.95) < 1e-12
    assert abs(utility_value(Decision.ABSTAIN, 1.0, True, w) - (-0.30)) < 1e-12
    assert abs(utility_value(Decision.REJECT, -2.0, False, w) - 2.00) < 1e-12
    _report(5, "scoring rule reproduces the three worked cases to 1e-12")


def test_criterion_06_moderate_ordering(default_run):
    oracle = summary(default_run, ORACLE_SCM, MODERATE)
    policy = summary(default_run, POLICY_GATE, MODERATE)
    civex = summary(default_run, CIVEX, MODERATE)
    cne = summary(default_run, CAUSAL_NO_EXPERIMENT, MODERATE)
    abstain = summary(default_run, ALWAYS_ABSTAIN, MODERATE)
    assert ci_overlap(oracle, policy)
    assert abs(oracle.mean_utility - policy.mean_utility) < 0.05
    assert ci_above(oracle, civex)
    assert ci_above(civex, cne)
    assert ci_above(cne, abstain)
    assert policy.accuracy >= 0.99
    _report(6, f"moderate ordering holds with non-overlapping intervals: "
               f"Oracle {oracle.mean_utility:+.2f} ~ PolicyGate "
               f"{policy.mean_utility:+.2f} > CIVeX {civex.mean_utility:+.2f} > "
               f"CausalNoExperiment {cne.mean_utility:+.2f} > AlwaysAbstain "
               f"{abstain.mean_utility:+.2f}; PolicyGate accuracy "
               f"{policy.accuracy:.1%} >= 99%")


def test_criterion_07_adversarial_ordering(default_run):
    oracle = summary(default_run, ORACLE_SCM, ADVERSARIAL)
    civex = summary(default_run, CIVEX, ADVERSARIAL)
    abstain = summary(default_run, ALWAYS_ABSTAIN, ADVERSARIAL)
    cne = summary(default_run, CAUSAL_NO_EXPERIMENT, ADVERSARIAL)
    context = summary(default_run, CONTEXT_ONLY_NO_CAUSAL, ADVERSARIAL)
    policy = summary(default_run, POLICY_GATE, ADVERSARIAL)
    gates = [summary(default_run, m, ADVERSARIAL)
             for m in (SCHEMA_GATE, SEMANTIC_ONTOLOGY_GATE, FAMILY_MAJORITY_CLASSIFIER)]
    assert ci_above(oracle, civex)
    assert ci_above(civex, abstain)
    assert ci_overlap(abstain, cne) and ci_overlap(abstain, context)
    for gate in gates:
        assert ci_above(abstain, gate)
    assert ci_above(abstain, policy)
    assert policy.mean_utility < abstain.mean_utility
    assert abstain.mean_utility > 0
    # The verifier must be the only non-oracle zero-false-execution method
    # whose utility clears the abstain floor.
    above_floor = [
        m for m in default_run.config.methods
        if m not in (ORACLE_SCM, ALWAYS_ABSTAIN)
        and summary(default_run, m, ADVERSARIAL).constrained_status == "qualified"
        and ci_above(summary(default_run, m, ADVERSARIAL), abstain)
    ]
    assert above_floor == [CIVEX]
    _report(7, f"adversarial ordering holds: Oracle {oracle.mean_utility:+.2f} > "
               f"CIVeX {civex.mean_utility:+.2f} > abstain floor "
               f"{abstain.mean_utility:+.2f} (= refuse-all baselines) > policy "
               f"gates; PolicyGate {policy.mean_utility:+.2f} below the floor; "
               f"CIVeX is the only qualified method above the floor")


def test_criterion_08_strength_sweep_shapes(strength_rows):
    policy_fe = [r.summary.false_exec_per_instance for r in strength_rows
                 if r.summary.method == POLICY_GATE]
    assert len(policy_fe) == len(STRENGTH_GRID)
    assert policy_fe[0] == 0.0
    assert all(a <= b + 1e-12 for a, b in zip(policy_fe, policy_fe[1:]))
    assert policy_fe[-1] >= 0.40
    civex_u = [r.summary.mean_utility for r in strength_rows if r.summary.method == CIVEX]
    spread = (max(civex_u) - min(civex_u)) / max(civex_u)
    assert spread < 0.05
    _report(8, f"PolicyGate false-execution is monotone over strengths "
               f"{policy_fe[0]:.1%} -> {policy_fe[-1]:.1%} (>= 40% at 4.0); "
               f"CIVeX utility varies {spread:.1%} (< 5%) across the grid")


def test_criterion_09_weight_sweep_dominance(default_run):
    rows = run_weight_sweep(default_run)
    grid = sorted({(r.point["w_miss"], r.point["c_exp"]) for r in rows})
    assert len(grid) == 20

    def util(method, regime, w, c):
        return next(r.summary.mean_utility for r in rows
                    if r.summary.method == method and r.summary.regime == regime
                    and r.point == {"w_miss": w, "c_exp": c})

    beats_abstain = sum(
        util(CIVEX, MODERATE, w, c) > util(ALWAYS_ABSTAIN, MODERATE, w, c)
        and util(CIVEX, ADVERSARIAL, w, c) > util(ALWAYS_ABSTAIN, ADVERSARIAL, w, c)
        for w, c in grid)
    beats_policy = sum(
        util(CIVEX, ADVERSARIAL, w, c) > util(POLICY_GATE, ADVERSARIAL, w, c)
        for w, c in grid)
    assert beats_abstain == 20
    assert beats_policy == 20
    _report(9, "CIVeX dominates AlwaysAbstain in 20/20 weight configurations "
               "(both regimes) and PolicyGate in 20/20 (adversarial)")


def test_criterion_10_counterbalance_and_trap(default_run):
    harmful = default_run.counterbalance.per_regime[ADVERSARIAL]
    assert abs(harmful - 0.45) <= 0.05
    flip = default_run.diagnostics[ADVERSARIAL].flip_fraction
    assert flip > 0.95
    for (regime, family), frac in default_run.counterbalance.per_family.items():
        assert 0.40 <= 1 - frac <= 0.60, (regime, family)
    _report(10, f"realized adversarial harmful fraction {harmful:.3f} within "
                f"0.45 +/- 0.05; sign-flip trap fraction {flip:.3f} > 0.95; "
                f"every family's aggregated safe share inside [0.40, 0.60]")


def _identified_stress_instance(rng, theta):
    k = int(rng.integers(2, 4))
    confs = tuple(
        ConfounderSpec(
            name=f"x{i}", mean=float(rng.uniform(-1, 1)),
            sd=float(rng.uniform(0.5, 2.0)),
            treat_coef=float(rng.choice([-1, 1]) * rng.uniform(0.3, 1.0)),
            outcome_coef=float(rng.choice([-1, 1]) * rng.uniform(0.3, 1.0)),
            hidden=False)
        for i in range(k))
    spec = ScmSpec(family="db_index_operation", theta=theta,
                   intercept=float(rng.uniform(-1, 1)),
                   confounders=confs, noise_sd=float(rng.uniform(0.5, 1.5)))
    names = [c.name for c in confs]
    graph = CausalGraph.create(
        ["T", "Y", *names],
        [("T", "Y")] + [(n, "T") for n in names] + [(n, "Y") for n in names])
    frame = generate_frame(spec, 400, False, rng)
    return spec, graph, frame


def test_criterion_11_per_execute_bound_monte_carlo():
    rng = np.random.default_rng(98114)
    cfg = VerifierConfig()
    action = ActionFrame(tool="probe", target_variable="T", target_value=1.0,
                         utility_variable="Y", cost=0.05, reversible=True)
    t0 = time.monotonic()
    n = 5000
    executes = 0
    false_executes = 0
    for _ in range(n):
        theta = float(rng.uniform(-0.3, 0.5))
        spec, graph, frame = _identified_stress_instance(rng, theta)
        verdict = triage(action, [graph], frame, cfg)
        if verdict.decision is Decision.EXECUTE:
            executes += 1
            false_executes += theta < 0
    elapsed = time.monotonic() - t0
    assert executes > 0
    ratio = false_executes / executes
    bound = ALPHA + 2 * np.sqrt(ALPHA * (1 - ALPHA) / executes)
    assert ratio <= bound
    assert elapsed < 300.0
    _report(11, f"per-execute false-execution {ratio:.4f} over {n} identified "
                f"instances ({executes} executes, {false_executes} false) <= "
                f"{bound:.4f} at alpha=0.05, in {elapsed:.0f}s (< 300s)")


def test_criterion_12_observational_gate_lower_bound(default_run):
    p_h = default_run.diagnostics[ADVERSARIAL].trap_fraction
    policy = summary(default_run, POLICY_GATE, ADVERSARIAL)
    n = policy.n_instances
    slack = 2 * np.sqrt(p_h * (1 - p_h) / n)
    assert policy.false_exec_per_instance >= p_h - slack
    _report(12, f"PolicyGate adversarial false-execution "
                f"{policy.false_exec_per_instance:.3f} >= recorded trap fraction "
                f"{p_h:.3f} - 2SE ({slack:.3f})")


def test_criterion_13_one_sided_coverage():
    rng = np.random.default_rng(55021)
    violations = 0
    reps = 2000
    for _ in range(reps):
        theta = float(rng.uniform(-1.0, 2.0))
        spec, _, frame = _identified_stress_instance(rng, theta)
        est = adjusted_effect(frame, [c.name for c in spec.observed])
        violations += theta < est.lcb
    rate = violations / reps
    bound = ALPHA + 2 * np.sqrt(ALPHA * (1 - ALPHA) / reps)
    assert rate <= bound
    _report(13, f"one-sided bound miscoverage {rate:.4f} over {reps} "
                f"replications <= {bound:.4f}")


def test_criterion_14_identification_oracle_equivalence():
    rng = np.random.default_rng(616)
    checked = 0
    for _ in range(1000):
        g = random_graph(rng, max_nodes=6)
        expected_kind, expected_nodes = brute_force_identify(g)
        got = identify(g)
        assert got.kind is expected_kind, g
        if expected_kind is IdentificationKind.BACKDOOR:
            assert got.adjustment_set == expected_nodes, g
        elif expected_kind is IdentificationKind.FRONTDOOR:
            assert got.mediator_set == expected_nodes, g
        nodes = sorted(g.nodes)
        x, y = rng.choice(nodes, size=2, replace=False).tolist()
        z = {n for n in nodes if n not in (x, y) and rng.random() < 0.4}
        assert d_separated(g, {x}, {y}, z) == brute_force_d_separated(g, {x}, {y}, z)
        checked += 1
    assert checked == 1000
    _report(14, "identification and d-separation agree with brute-force path "
                "enumeration on 1,000 random graphs of <= 6 nodes")


def test_criterion_15_numerical_oracles():
    rng = np.random.default_rng(777)
    for _ in range(100):
        n = int(rng.integers(20, 200))
        k = int(rng.integers(0, 5))
        t = (rng.random(n) < 0.5).astype(float)
        if t.sum() in (0, n):
            continue
        xs = rng.normal(size=(k, n))
        y = rng.normal(size=n) + 0.8 * t
        frame = Frame.from_columns(
            [("T", t), ("Y", y)] + [(f"x{i}", xs[i]) for i in range(k)])
        est = adjusted_effect(frame, [f"x{i}" for i in range(k)])
        design = np.column_stack([np.ones(n), t, *xs])
        beta, se = normal_equations_ols(design, y)
        assert abs(est.theta_hat - beta[1]) < 1e-8
        assert abs(est.std_err - se[1]) < 1e-8
    for _ in range(10):
        n = int(rng.integers(2, 20))
        frame = Frame.from_columns([("T", (rng.random(n) < 0.5).astype(float)),
                                    ("Y", rng.normal(size=n))])
        expected = hashlib.sha256(per_value_encode(frame)).hexdigest()
        assert provenance_hash(frame) == expected
    _report(15, "least squares matches the normal-equations oracle to 1e-8 on "
                "100 fixtures; provenance digests match an independent SHA-256 "
                "oracle on 10 fixtures")


def test_criterion_16_certificate_replay(default_run, run_dir):
    cert_paths = sorted((run_dir / "certificates").rglob("*.cert.json"))
    assert cert_paths, "the run stored no certificates"
    # The certificate files and the certified EXECUTEs match one to one ...
    files = {(p.parent.name, p.name.removesuffix(".cert.json")) for p in cert_paths}
    certified = {(r.method, str(r.instance_id)) for r in default_run.records
                 if r.decision is Decision.EXECUTE
                 and r.result.terminal.certificate is not None}
    assert files == certified
    # ... and each certifying method's EXECUTE rows in records.csv name its files.
    with open(run_dir / "records.csv", encoding="utf-8", newline="") as fh:
        executes = {(row["method"], str(InstanceId(int(row["seed"]), row["regime"],
                                                   row["family"], int(row["index"]))))
                    for row in csv.DictReader(fh) if row["decision"] == "EXECUTE"}
    certifying = {method for method, _ in files}
    assert {(m, stem) for m, stem in executes if m in certifying} == files
    assert {m: sum(method == m for method, _ in files) for m in certifying} == {
        CIVEX: 802, CIVEX_CERT_ONLY: 295, CAUSAL_NO_EXPERIMENT: 295}
    for path in cert_paths:
        cert = certificate_from_json_dict(
            json.loads(path.read_text(encoding="utf-8")))
        data_path = path.with_name(path.name.replace(".cert.json", ".data.txt"))
        assert verify_certificate(cert, data_path.read_bytes()) == [], path
    sample = cert_paths[len(cert_paths) // 2]
    cert = certificate_from_json_dict(json.loads(sample.read_text(encoding="utf-8")))
    blob = bytearray(sample.with_name(
        sample.name.replace(".cert.json", ".data.txt")).read_bytes())
    blob[len(blob) // 3] ^= 1
    assert verify_certificate(cert, bytes(blob)) == ["provenance"]
    _report(16, f"all {len(cert_paths)} stored execution certificates replay "
                f"exactly; a single-byte tamper is rejected")
