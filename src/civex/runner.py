"""Run orchestration: method evaluation over instance sets, sensitivity
sweeps, and the delimited/markdown output files.

Instances are evaluated one at a time in instance-id order; every verdict
is computed independently (keyed generator streams, stateless providers), so
identical configs produce byte-identical output.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import __version__
from .baselines import (
    ALL_METHODS,
    ALWAYS_ABSTAIN,
    CAUSAL_NO_EXPERIMENT,
    CIVEX,
    CIVEX_CERT_ONLY,
    ORACLE_SCM,
    POLICY_GATE,
    ProviderContext,
    ReplayError,
    build_context,
    is_replay,
    load_replay_shard,
    make_provider,
    replay_tag,
)
from .config import STR, STR_LISTS, STRS, check_fields, distinct, dump, load, setting
from .evaluation import (
    MethodSummary,
    RegimeDiagnostics,
    ScoreRecord,
    ScoreWeights,
    observational_diagnostics,
    render_markdown_table,
    score,
    summarize,
    utility_value,
    wilcoxon_exact,
)
from .graphs import graph_digest, relabel_latent
from .scm import (
    ADVERSARIAL,
    MODERATE,
    REGIMES,
    BenchmarkSpec,
    CounterbalanceReport,
    ScmInstance,
    build_benchmark,
    collection_deferred,
    instance_rng,
    instance_sort_key,
    write_instances_jsonl,
)
from .verifier import (
    Certificate,
    TwoStageResult,
    VerifierConfig,
    certificate_to_json_dict,
    run_two_stage,
)

__all__ = [
    "RunConfig",
    "RunResult",
    "SweepRow",
    "DEFAULT_METHODS",
    "SWEEP_METHODS",
    "SWEEP_SEEDS",
    "STRENGTH_GRID",
    "W_MISS_GRID",
    "C_EXP_GRID",
    "MISSPEC_FRACTIONS",
    "evaluate_instances",
    "run_benchmark",
    "run_strength_sweep",
    "run_weight_sweep",
    "run_misspec_sweep",
    "write_run_outputs",
    "write_generated_instances",
    "write_sweep_csv",
    "write_report",
    "summary_csv_rows",
]

DEFAULT_METHODS = ALL_METHODS
SWEEP_METHODS = (ORACLE_SCM, CIVEX, POLICY_GATE, CAUSAL_NO_EXPERIMENT, ALWAYS_ABSTAIN)
SWEEP_SEEDS = (42, 43, 44, 45, 46)
STRENGTH_GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
W_MISS_GRID = (0.0, 0.1, 0.3, 0.5, 1.0)
C_EXP_GRID = (0.0, 0.05, 0.25, 1.0)
MISSPEC_FRACTIONS = (0.0, 0.25, 0.5, 1.0)

OUTPUT_ROOT_ENV = "CIVEX_OUTPUT_ROOT"


def _method_ids(methods: tuple[str, ...]) -> bool:
    return distinct(methods) and all(m in ALL_METHODS or is_replay(m) for m in methods)


@dataclass(frozen=True)
class RunConfig:
    """A run's settings; ``config.table(RunConfig)`` lists its document's rows."""

    bench: BenchmarkSpec = field(default_factory=BenchmarkSpec)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    methods: tuple[str, ...] = setting(DEFAULT_METHODS, STRS,
                                       "a non-empty list of distinct method ids", _method_ids)
    output_dir: str = setting("runs/default", STR, "a path (a string)")
    replay: dict[str, tuple[str, ...]] = setting(
        {}, STR_LISTS, "an object mapping each tag to a list of shard paths (strings)")

    __post_init__ = check_fields

    def resolved_output_dir(self) -> Path:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        path = Path(self.output_dir)
        if root and not path.is_absolute():
            return Path(root) / path
        return path

    to_json_dict = dump
    from_json_dict = classmethod(load)


def _load_replay_tables(config: RunConfig) -> dict[str, Mapping]:
    """Each ``Replay(tag)`` method's verdicts, from the shards ``replay.<tag>`` names."""
    tables: dict[str, Mapping] = {}
    for method in filter(is_replay, config.methods):
        tag = replay_tag(method)
        if not config.replay.get(tag):
            raise ReplayError(f"replay names no shard for {method}")
        tables[tag] = {}
        for path in config.replay[tag]:
            load_replay_shard(path, tables[tag])
    return tables


def _refuse_replay(kind: str, methods: Sequence[str]) -> None:
    """A sweep that builds its own instances has no recorded verdicts for them."""
    method = next(filter(is_replay, methods), None)
    if method is not None:
        raise ReplayError(f"replay method {method} cannot run in the {kind} sweep: "
                          f"it regenerates its instances, and no shard recorded them")


def evaluate_instances(
    instances: Sequence[ScmInstance],
    methods: Sequence[str],
    vcfg: VerifierConfig,
    *,
    ctx: ProviderContext | None = None,
) -> dict[tuple[str, object], TwoStageResult]:
    """Two-stage verdicts for every (method, instance) pair, in stable order."""
    if ctx is None:
        ctx = build_context(instances)
    providers = {m: make_provider(m, ctx, vcfg) for m in methods}
    out: dict[tuple[str, object], TwoStageResult] = {}
    for inst in sorted(instances, key=lambda i: instance_sort_key(i.id)):
        for m in methods:
            out[(m, inst.id)] = run_two_stage(inst, providers[m], vcfg)
    return out


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    instances: list[ScmInstance]
    counterbalance: CounterbalanceReport
    diagnostics: dict[str, RegimeDiagnostics]
    decisions: dict[tuple[str, object], TwoStageResult]
    records: list[ScoreRecord]
    summaries: dict[tuple[str, str], MethodSummary]
    replay_coverage: dict[str, int] = field(default_factory=dict)

    def false_executions(self, method: str) -> int:
        return sum(
            s.false_exec_count for (m, _), s in self.summaries.items() if m == method
        )


def _score_all(
    instances: Sequence[ScmInstance],
    methods: Sequence[str],
    decisions: Mapping[tuple[str, object], TwoStageResult],
    weights: ScoreWeights,
) -> list[ScoreRecord]:
    ordered = sorted(instances, key=lambda i: instance_sort_key(i.id))
    records = []
    for method in methods:
        for inst in ordered:
            terminal = decisions[(method, inst.id)].terminal
            records.append(score(terminal.decision, inst, weights, method=method))
    return records


@collection_deferred()
def run_benchmark(config: RunConfig) -> RunResult:
    replay_tables = _load_replay_tables(config)
    instances, counterbalance = build_benchmark(config.bench)
    diagnostics = {
        regime: observational_diagnostics([i for i in instances if i.id.regime == regime])
        for regime in REGIMES
    }
    seeds = set(config.bench.seeds)
    replay_coverage = {
        tag: len({key[0] for key in table} & seeds)
        for tag, table in replay_tables.items()
    }
    ctx = build_context(instances, replay_shards=replay_tables)
    decisions = evaluate_instances(instances, config.methods, config.verifier, ctx=ctx)
    records = _score_all(instances, config.methods, decisions, config.weights)
    summaries: dict[tuple[str, str], MethodSummary] = {}
    for method in config.methods:
        for regime in REGIMES:
            subset = [r for r in records
                      if r.method == method and r.instance_id.regime == regime]
            if subset:
                summaries[(method, regime)] = summarize(
                    subset, method=method, regime=regime, diagnostics=diagnostics[regime]
                )
    return RunResult(
        config=config,
        instances=instances,
        counterbalance=counterbalance,
        diagnostics=diagnostics,
        decisions=decisions,
        records=records,
        summaries=summaries,
        replay_coverage=replay_coverage,
    )


# ---------------------------------------------------------------- sweeps


@dataclass(frozen=True)
class SweepRow:
    kind: str
    point: dict
    method: str
    regime: str
    n_instances: int
    false_exec_per_instance: float
    correct_exec_rate: float
    accuracy: float
    mean_utility: float


def _sweep_rows_from(
    kind: str,
    point: dict,
    instances: Sequence[ScmInstance],
    methods: Sequence[str],
    vcfg: VerifierConfig,
    weights: ScoreWeights,
    regime: str,
) -> list[SweepRow]:
    decisions = evaluate_instances(instances, methods, vcfg)
    records = _score_all(instances, methods, decisions, weights)
    rows = []
    for method in methods:
        subset = [r for r in records if r.method == method]
        summary = summarize(subset, method=method, regime=regime)
        rows.append(SweepRow(
            kind=kind,
            point=point,
            method=method,
            regime=regime,
            n_instances=summary.n_instances,
            false_exec_per_instance=summary.false_exec_per_instance,
            correct_exec_rate=summary.correct_exec_rate,
            accuracy=summary.accuracy,
            mean_utility=summary.mean_utility,
        ))
    return rows


def run_strength_sweep(
    config: RunConfig,
    strengths: Sequence[float] = STRENGTH_GRID,
    methods: Sequence[str] = SWEEP_METHODS,
    seeds: Sequence[int] = SWEEP_SEEDS,
) -> list[SweepRow]:
    """Re-generate the adversarial slice at each hidden-confounder strength."""
    _refuse_replay("strength", methods)
    rows = []
    for s in strengths:
        bspec = replace(config.bench, seeds=tuple(seeds), adversarial_strength=s)
        instances, _ = build_benchmark(bspec, regimes=(ADVERSARIAL,))
        rows.extend(_sweep_rows_from(
            "strength", {"strength": s}, instances, methods,
            config.verifier, config.weights, regime=ADVERSARIAL,
        ))
    return rows


def run_weight_sweep(
    run: RunResult,
    w_miss_grid: Sequence[float] = W_MISS_GRID,
    c_exp_grid: Sequence[float] = C_EXP_GRID,
) -> list[SweepRow]:
    """Re-score cached verdicts over the weight grid; decisions are reused
    untouched because no verdict depends on the scoring weights."""
    rows = []
    by_regime: dict[tuple[str, str], list[ScoreRecord]] = {}
    for r in run.records:
        by_regime.setdefault((r.method, r.instance_id.regime), []).append(r)
    for w_miss in w_miss_grid:
        for c_exp in c_exp_grid:
            w = ScoreWeights(w_miss=w_miss, c_exp=c_exp)
            for (method, regime), recs in sorted(by_regime.items()):
                utilities = [utility_value(r.decision, r.theta, r.safe, w) for r in recs]
                n = len(recs)
                rows.append(SweepRow(
                    kind="weights",
                    point={"w_miss": w_miss, "c_exp": c_exp},
                    method=method,
                    regime=regime,
                    n_instances=n,
                    false_exec_per_instance=sum(
                        r.outcome == "false_exec" for r in recs) / n,
                    correct_exec_rate=sum(
                        r.outcome == "correct_exec" for r in recs) / n,
                    accuracy=sum(r.outcome in ("correct_exec", "correct_refusal")
                                 for r in recs) / n,
                    mean_utility=float(sum(utilities) / n),
                ))
    return rows


def misspecify_instance(inst: ScmInstance, fraction: float) -> ScmInstance:
    """Relabel a fraction of the committed graph's observed confounders as
    latent; the data frames are untouched (the variables persist in the SCM)."""
    if fraction == 0.0:
        return inst
    observed = [c.name for c in inst.spec.observed]
    rng = instance_rng(inst.id.seed, f"relabel-{fraction}", inst.id.family, inst.id.index)
    graph = relabel_latent(inst.graph, observed, fraction, rng)
    return replace(inst, graph=graph)


def run_misspec_sweep(
    config: RunConfig,
    fractions: Sequence[float] = MISSPEC_FRACTIONS,
    methods: Sequence[str] = SWEEP_METHODS,
    seeds: Sequence[int] = SWEEP_SEEDS,
) -> list[SweepRow]:
    """Moderate-regime slice with the committed graphs progressively broken."""
    _refuse_replay("misspec", methods)
    bspec = replace(config.bench, seeds=tuple(seeds))
    base, _ = build_benchmark(bspec, regimes=(MODERATE,))
    rows = []
    for fraction in fractions:
        instances = [misspecify_instance(inst, fraction) for inst in base]
        rows.extend(_sweep_rows_from(
            "misspec", {"fraction": fraction}, instances, methods,
            config.verifier, config.weights, regime=MODERATE,
        ))
    return rows


# ---------------------------------------------------------------- outputs


def _fmt(x: float) -> str:
    return repr(float(x))


def summary_csv_rows(summaries: Iterable[MethodSummary],
                     replay_coverage: Mapping[str, int]) -> list[dict]:
    rows = []
    for s in summaries:
        seeds_covered = (replay_coverage[replay_tag(s.method)] if is_replay(s.method)
                         else len(s.per_seed_means))
        rows.append({
            "method": s.method,
            "regime": s.regime,
            "n_instances": s.n_instances,
            "n_executes": s.n_executes,
            "false_exec_count": s.false_exec_count,
            "false_exec_per_instance": _fmt(s.false_exec_per_instance),
            "false_exec_per_execute": ("n/a" if s.false_exec_per_execute is None
                                       else _fmt(s.false_exec_per_execute)),
            "correct_exec_rate": _fmt(s.correct_exec_rate),
            "correct_refusal_rate": _fmt(s.correct_refusal_rate),
            "accuracy": _fmt(s.accuracy),
            "mean_utility": _fmt(s.mean_utility),
            "utility_ci_lo": _fmt(s.utility_ci[0]),
            "utility_ci_hi": _fmt(s.utility_ci[1]),
            "per_seed_means": ";".join(
                f"{seed}:{_fmt(v)}" for seed, v in sorted(s.per_seed_means.items())
            ),
            "constrained_status": s.constrained_status,
            "seeds_covered": seeds_covered,
            "trap_fraction": "" if s.trap_fraction is None else _fmt(s.trap_fraction),
            "flip_fraction": "" if s.flip_fraction is None else _fmt(s.flip_fraction),
            "mean_observational_bias": ("" if s.mean_observational_bias is None
                                        else _fmt(s.mean_observational_bias)),
        })
    return rows


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` as they come; no rows, no header."""
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        path.write_text("", encoding="utf-8")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerow(first)
        writer.writerows(rows)


def _write_dict_csv(path: Path, rows: Sequence[dict]) -> None:
    """Write ``rows``, which share their keys; the first row's keys are the header."""
    _write_csv(path, list(rows[0]) if rows else [], map(dict.values, rows))


def write_generated_instances(out_dir: Path, instances: Sequence[ScmInstance],
                              counterbalance: CounterbalanceReport) -> list[Path]:
    """One JSON-lines file per (seed, regime), plus the counterbalance table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    groups: dict[tuple[int, str], list[ScmInstance]] = {}
    for inst in sorted(instances, key=lambda i: instance_sort_key(i.id)):
        groups.setdefault((inst.id.seed, inst.id.regime), []).append(inst)
    paths = []
    for (seed, regime), group in sorted(groups.items()):
        path = out_dir / f"instances_s{seed}_{regime}.jsonl"
        write_instances_jsonl(path, group)
        paths.append(path)
    _write_dict_csv(out_dir / "counterbalance.csv", _counterbalance_rows(counterbalance))
    return paths


def _counterbalance_rows(cb: CounterbalanceReport) -> list[dict]:
    rows = []
    for (regime, family), frac in sorted(cb.per_family.items()):
        rows.append({"regime": regime, "family": family, "seed": "all",
                     "harmful_fraction": _fmt(frac)})
    for (regime, family, seed), frac in sorted(cb.per_family_per_seed.items()):
        rows.append({"regime": regime, "family": family, "seed": str(seed),
                     "harmful_fraction": _fmt(frac)})
    for regime, frac in sorted(cb.per_regime.items()):
        rows.append({"regime": regime, "family": "all", "seed": "all",
                     "harmful_fraction": _fmt(frac)})
    return rows


_RECORD_HEADER = ("method", "seed", "regime", "family", "index", "stage1", "decision",
                  "outcome", "utility", "theta", "safe")


def _record_rows(run: RunResult) -> Iterator[tuple]:
    """One row per (method, instance), in ``_RECORD_HEADER``'s order."""
    for r in run.records:
        inst_id = r.instance_id
        yield (r.method, inst_id.seed, inst_id.regime, inst_id.family, inst_id.index,
               run.decisions[(r.method, inst_id)].stage1.decision.value, r.decision.value,
               r.outcome, _fmt(r.utility), _fmt(r.theta), str(r.safe))


def _write_certificates(out_dir: Path, run: RunResult) -> int:
    """Write each certificate with a copy of the data it certifies.

    Methods that certify the same (instance, stage) share one data frame, so
    each frame is serialized once and its bytes go to every method's copy;
    their certificates are often equal too, and each distinct one is encoded
    once.
    """
    by_id = {inst.id: inst for inst in run.instances}
    by_frame: dict[tuple[object, int], list[tuple[str, Certificate]]] = {}
    for (method, inst_id), result in run.decisions.items():
        cert = result.terminal.certificate
        if cert is not None:
            by_frame.setdefault((inst_id, len(result.trace)), []).append((method, cert))
    cert_root = out_dir / "certificates"
    for method in {method for certs in by_frame.values() for method, _ in certs}:
        (cert_root / method).mkdir(parents=True, exist_ok=True)
    for (inst_id, stage), certs in by_frame.items():
        inst = by_id[inst_id]
        data = (inst.experimental if stage == 2 else inst.observational).canonical_bytes()
        stem = str(inst_id)
        # Keyed by the graph's memoized digest and the ``repr`` of the other
        # fields, which tells -0.0 from 0.0 where ``==`` does not.
        encoded: dict[str, str] = {}
        for method, cert in certs:
            key = repr({**vars(cert), "graph": graph_digest(cert.graph)})
            text = encoded.get(key)
            if text is None:
                text = json.dumps(certificate_to_json_dict(cert), sort_keys=True, indent=1)
                encoded[key] = text
            (cert_root / method / f"{stem}.cert.json").write_text(text, encoding="utf-8")
            (cert_root / method / f"{stem}.data.txt").write_bytes(data)
    return sum(len(certs) for certs in by_frame.values())


def _pairwise_rows(run: RunResult) -> list[dict]:
    rows = []
    if not any(m == CIVEX for m, _ in run.summaries):
        return rows
    for regime in REGIMES:
        base = run.summaries.get((CIVEX, regime))
        if base is None:
            continue
        seeds = sorted(base.per_seed_means)
        for method in run.config.methods:
            if method == CIVEX or (method, regime) not in run.summaries:
                continue
            other = run.summaries[(method, regime)]
            diffs = [base.per_seed_means[s] - other.per_seed_means[s] for s in seeds]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                p = wilcoxon_exact(diffs)
            rows.append({
                "regime": regime,
                "baseline": method,
                "n_seeds": len(diffs),
                "mean_seed_diff": _fmt(float(sum(diffs) / len(diffs))),
                "two_sided_p": _fmt(p),
            })
    return rows


def write_run_outputs(run: RunResult, out_dir: Path | None = None) -> dict:
    """Write summary/record/counterbalance CSVs, certificates, and the manifest."""
    out = out_dir or run.config.resolved_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    for regime in REGIMES:
        regime_summaries = [run.summaries[(m, regime)] for m in run.config.methods
                            if (m, regime) in run.summaries]
        regime_summaries.sort(key=lambda s: -s.mean_utility)
        _write_dict_csv(out / f"summary_{regime}.csv",
                        summary_csv_rows(regime_summaries, run.replay_coverage))
    _write_csv(out / "records.csv", _RECORD_HEADER, _record_rows(run))
    _write_dict_csv(out / "counterbalance.csv", _counterbalance_rows(run.counterbalance))
    _write_dict_csv(out / "pairwise_wilcoxon.csv", _pairwise_rows(run))
    n_certs = _write_certificates(out, run)
    civex_false = run.false_executions(CIVEX) if CIVEX in run.config.methods else None
    manifest = {
        "package_version": __version__,
        "config": run.config.to_json_dict(),
        "n_instances": len(run.instances),
        "n_certificates": n_certs,
        "civex_false_executions": civex_false,
        "replay_coverage": dict(run.replay_coverage),
        "diagnostics": {
            regime: {
                "trap_fraction": diag.trap_fraction,
                "flip_fraction": diag.flip_fraction,
                "mean_observational_bias": diag.mean_observational_bias,
            }
            for regime, diag in run.diagnostics.items()
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1),
                                       encoding="utf-8")
    return manifest


def write_sweep_csv(out_dir: Path, kind: str, rows: Sequence[SweepRow]) -> Path:
    point_keys = sorted({k for row in rows for k in row.point})
    csv_rows = []
    for row in rows:
        d = {k: _fmt(row.point[k]) for k in point_keys}
        d.update({
            "method": row.method,
            "regime": row.regime,
            "n_instances": row.n_instances,
            "false_exec_per_instance": _fmt(row.false_exec_per_instance),
            "correct_exec_rate": _fmt(row.correct_exec_rate),
            "accuracy": _fmt(row.accuracy),
            "mean_utility": _fmt(row.mean_utility),
        })
        csv_rows.append(d)
    path = out_dir / f"sweep_{kind}.csv"
    _write_dict_csv(path, csv_rows)
    return path


# ---------------------------------------------------------------- report


def _read_csv(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _pct(x: str) -> str:
    return f"{float(x) * 100:.1f}%"


def _summary_table(rows: list[dict]) -> str:
    headers = ["Method", "False exec", "Correct exec", "Accuracy", "Utility (95% CI)"]
    body = []
    for r in rows:
        ci = f"{float(r['mean_utility']):+.2f} [{float(r['utility_ci_lo']):+.2f}, {float(r['utility_ci_hi']):+.2f}]"
        body.append([r["method"], _pct(r["false_exec_per_instance"]),
                     _pct(r["correct_exec_rate"]), _pct(r["accuracy"]), ci])
    return render_markdown_table(headers, body)


def _strength_table(rows: list[dict]) -> str:
    """False execution / utility at each strength, one column per method in
    the sweep's order."""
    methods = list(dict.fromkeys(r["method"] for r in rows))
    cells = {(float(r["strength"]), r["method"]):
             f"{_pct(r['false_exec_per_instance'])} / {float(r['mean_utility']):+.2f}"
             for r in rows}
    body = [[f"{s:.1f}", *(cells.get((s, m), "") for m in methods)]
            for s in sorted({s for s, _ in cells})]
    return render_markdown_table(["Strength", *methods], body)


def _ablation_table(moderate: list[dict], adversarial: list[dict]) -> str:
    order = [ALWAYS_ABSTAIN, CIVEX_CERT_ONLY, CIVEX, ORACLE_SCM]
    headers = ["Method", "Moderate utility", "Adversarial utility",
               "Moderate false-exec", "Adversarial false-exec"]
    mod = {r["method"]: r for r in moderate}
    adv = {r["method"]: r for r in adversarial}
    body = []
    for m in order:
        if m not in mod or m not in adv:
            continue
        body.append([
            m,
            f"{float(mod[m]['mean_utility']):+.2f}",
            f"{float(adv[m]['mean_utility']):+.2f}",
            _pct(mod[m]["false_exec_per_instance"]),
            _pct(adv[m]["false_exec_per_instance"]),
        ])
    return render_markdown_table(headers, body)


def write_report(run_dir: Path) -> Path:
    """Assemble report.md from the delimited outputs in a run directory."""
    moderate = _read_csv(run_dir / "summary_moderate.csv")
    adversarial = _read_csv(run_dir / "summary_adversarial.csv")
    strength = _read_csv(run_dir / "sweep_strength.csv")
    sections = ["# Benchmark report", ""]
    if moderate:
        sections += ["## Moderate confounding", "", _summary_table(moderate), ""]
    if adversarial:
        sections += ["## Adversarial confounding", "", _summary_table(adversarial), ""]
    if strength:
        sections += ["## Adversarial-strength sweep (false-exec / utility)", "",
                     _strength_table(strength), ""]
    if moderate and adversarial:
        sections += ["## Certificate-only ablation", "",
                     _ablation_table(moderate, adversarial), ""]
    manifest_path = run_dir / "manifest.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        sections += ["## Manifest", "", "```json",
                     json.dumps(manifest, sort_keys=True, indent=1), "```", ""]
    path = run_dir / "report.md"
    path.write_text("\n".join(sections), encoding="utf-8")
    return path
