"""Run orchestration: method evaluation over instance sets, sensitivity
sweeps, and the delimited/markdown output files.

Instances are evaluated one at a time in instance-id order; every verdict
is computed independently (keyed generator streams, stateless providers), so
identical configs produce byte-identical output.  Each verdict is kept once,
in the score record of its (method, instance), which every output reads.

Runs and sweeps summarize alike: score records are grouped by (method,
regime) in one pass and each group is summarized once.  A sweep row is a
grid point with its ``MethodSummary``, and its CSV cells are the summary
CSV's, formatted by the same function.
"""

from __future__ import annotations

import csv
import json
import queue
import threading
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .baselines import (
    ALL_METHODS,
    ALWAYS_ABSTAIN,
    CAUSAL_NO_EXPERIMENT,
    CIVEX,
    CIVEX_CERT_ONLY,
    ORACLE_SCM,
    POLICY_GATE,
    ReplayError,
    build_context,
    is_replay,
    load_replay_shard,
    make_provider,
    replay_tag,
    replayed_result,
)
from .config import STR, STR_LISTS, STRS, check_fields, distinct, dump, setting
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
from .graphs import relabel_latent
from .scm import (
    ADVERSARIAL,
    MODERATE,
    REGIME_KEYS,
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
    "REGENERATING_SWEEPS",
    "evaluate_instances",
    "run_benchmark",
    "run_regenerating_sweep",
    "run_weight_sweep",
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


def _method_ids(methods: tuple[str, ...]) -> bool:
    return distinct(methods) and all(m in ALL_METHODS or is_replay(m) for m in methods)


@dataclass(frozen=True, slots=True)
class RunConfig:
    """A run's settings; the keys of ``dump(RunConfig())`` are its
    document's keys, in document order."""

    bench: BenchmarkSpec = field(default_factory=BenchmarkSpec)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    methods: tuple[str, ...] = setting(DEFAULT_METHODS, STRS,
                                       "a non-empty list of distinct method ids", _method_ids)
    output_dir: str = setting("runs/default", STR, "a path (a string without a NUL)",
                              lambda path: "\0" not in path)
    replay: dict[str, tuple[str, ...]] = setting(
        {}, STR_LISTS, "an object mapping each tag to a list of shard paths (strings)")

    __post_init__ = check_fields


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


def evaluate_instances(
    instances: Sequence[ScmInstance],
    methods: Sequence[str],
    vcfg: VerifierConfig,
    weights: ScoreWeights,
    *,
    replay_tables: Mapping[str, Mapping] | None = None,
) -> list[ScoreRecord]:
    """Each method's scored results, method by method, in instance order.

    Every method decides an instance before any method sees the next, and
    scoring waits for the last verdict.  ``Replay(tag)`` methods replay the
    rows of ``replay_tables[tag]``; the others ask their providers.
    """
    ctx = build_context(instances)
    providers = {m: make_provider(m, ctx, vcfg) for m in methods if not is_replay(m)}
    replayed = {}
    for m in filter(is_replay, methods):
        tag = replay_tag(m)
        if tag not in (replay_tables or {}):
            raise ReplayError(f"replay has no recorded verdicts for tag '{tag}'")
        replayed[m] = replay_tables[tag]
    ordered = sorted(instances, key=lambda i: instance_sort_key(i.id))
    results: dict[str, list[TwoStageResult]] = {m: [] for m in methods}
    for inst in ordered:
        for m in methods:
            results[m].append(replayed_result(replayed[m], inst.id) if m in replayed
                              else run_two_stage(inst, providers[m], vcfg))
    return [score(result, inst, weights, m)
            for m in methods for inst, result in zip(ordered, results[m])]


@dataclass(frozen=True, slots=True)
class RunResult:
    config: RunConfig
    instances: list[ScmInstance]
    counterbalance: CounterbalanceReport
    diagnostics: dict[str, RegimeDiagnostics]
    records: list[ScoreRecord]
    summaries: dict[tuple[str, str], MethodSummary]
    # Per replay tag and regime: the run's seeds with an instance the shard recorded.
    replay_coverage: dict[str, dict[str, int]] = field(default_factory=dict)

    def false_executions(self, method: str) -> int:
        return sum(
            s.false_exec_count for (m, _), s in self.summaries.items() if m == method
        )


def _by_method_regime(records: Iterable[ScoreRecord]) -> dict[tuple[str, str],
                                                               list[ScoreRecord]]:
    """The records of each (method, regime), in record order."""
    groups: dict[tuple[str, str], list[ScoreRecord]] = {}
    for r in records:
        groups.setdefault((r.method, r.instance_id.regime), []).append(r)
    return groups


def _summaries(records: Iterable[ScoreRecord]) -> dict[tuple[str, str], MethodSummary]:
    """One summary per (method, regime) the records cover, in record order."""
    return {
        (method, regime): summarize(group, method=method, regime=regime)
        for (method, regime), group in _by_method_regime(records).items()
    }


def run_benchmark(config: RunConfig) -> RunResult:
    replay_tables = _load_replay_tables(config)
    with collection_deferred(config.bench.n_instances(REGIMES)):
        instances, counterbalance = build_benchmark(config.bench)
        diagnostics = {
            regime: observational_diagnostics([i for i in instances if i.id.regime == regime])
            for regime in REGIMES
        }
        replay_coverage = {
            tag: {regime: len({i.id.seed for i in instances
                               if i.id.regime == regime and i.id in table})
                  for regime in REGIMES}
            for tag, table in replay_tables.items()
        }
        records = evaluate_instances(instances, config.methods, config.verifier,
                                     config.weights, replay_tables=replay_tables)
        return RunResult(config=config, instances=instances, counterbalance=counterbalance,
                         diagnostics=diagnostics, records=records,
                         summaries=_summaries(records), replay_coverage=replay_coverage)


# ---------------------------------------------------------------- sweeps


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One method's summary for one regime at one grid point."""

    point: dict
    summary: MethodSummary


def run_weight_sweep(run: RunResult) -> list[SweepRow]:
    """Re-score cached verdicts over the weight grid.  No verdict depends on
    the scoring weights, so each row is the run's summary with only the mean
    utility recomputed, pooled over the instances."""
    groups = sorted(_by_method_regime(run.records).items())
    rows = []
    for w_miss in W_MISS_GRID:
        for c_exp in C_EXP_GRID:
            w = ScoreWeights(w_miss=w_miss, c_exp=c_exp)
            for key, recs in groups:
                utilities = [utility_value(r.decision, r.theta, r.safe, w) for r in recs]
                summary = replace(run.summaries[key],
                                  mean_utility=float(sum(utilities) / len(recs)))
                rows.append(SweepRow({"w_miss": w_miss, "c_exp": c_exp}, summary))
    return rows


def misspecify_instance(inst: ScmInstance, fraction: float) -> ScmInstance:
    """Relabel a fraction of the committed graph's observed confounders as
    latent; the data frames are untouched (the variables persist in the SCM).

    The relabelled graph may leave the effect unidentified where the
    committed one identified it, so the gate may run a trial that ``inst``
    deferred.  The copy holds ``inst``'s frame objects, so every relabelled
    copy shares one draw of that frame, with its digest and fits.
    """
    if fraction == 0.0:
        return inst
    observed = [c.name for c in inst.spec.observed]
    rng = instance_rng(inst.id.seed, f"relabel-{fraction}", inst.id.family, inst.id.index)
    graph = relabel_latent(inst.graph, observed, fraction, rng)
    return replace(inst, graph=graph)


@dataclass(frozen=True, slots=True)
class RegeneratingSweep:
    """A sweep that builds its own instances: the ``regime`` slice on ``SWEEP_SEEDS``
    with the ``BenchmarkSpec`` keys ``sets`` set to each ``grid`` value (the CSV's
    ``column``), then passed through ``perturb``."""

    regime: str
    column: str
    grid: tuple[float, ...]
    sets: tuple[str, ...]
    perturb: Callable[[ScmInstance, float], ScmInstance]

    @property
    def refused(self) -> tuple[str, ...]:
        """The config keys the sweep sets itself or never reads, in check order."""
        unread = (key for r in REGIMES if r != self.regime for key in REGIME_KEYS[r])
        return tuple(dict.fromkeys(("seeds", *self.sets, *unread)))

    def points(self, bench: BenchmarkSpec) -> Iterator[tuple[dict, list[ScmInstance]]]:
        """Each grid point, with the instances the sweep builds there from ``bench``."""
        bench, built = replace(bench, seeds=SWEEP_SEEDS), {}
        for value in self.grid:
            bspec = replace(bench, **dict.fromkeys(self.sets, value))
            if bspec not in built:  # a grid that sets no key builds its slice once
                built = {bspec: build_benchmark(bspec, regimes=(self.regime,))[0]}
            yield {self.column: value}, [self.perturb(inst, value) for inst in built[bspec]]


# Each kind of sweep that builds its own instances; ``civex sweep <kind>``
# runs it, and refuses a config document that sets a key its row refuses.
REGENERATING_SWEEPS = {
    "strength": RegeneratingSweep(ADVERSARIAL, "strength", STRENGTH_GRID,
                                  ("adversarial_strength",), lambda inst, _: inst),
    "misspec": RegeneratingSweep(MODERATE, "fraction", MISSPEC_FRACTIONS, (),
                                 misspecify_instance),
}


def run_regenerating_sweep(kind: str, config: RunConfig) -> list[SweepRow]:
    """Evaluate ``config.methods`` at each grid point of ``REGENERATING_SWEEPS[kind]``."""
    if (method := next(filter(is_replay, config.methods), None)) is not None:
        raise ReplayError(f"replay method {method} cannot run in the {kind} sweep: "
                          f"it regenerates its instances, and no shard recorded them")
    rows = []
    for point, instances in REGENERATING_SWEEPS[kind].points(config.bench):
        records = evaluate_instances(instances, config.methods, config.verifier,
                                     config.weights)
        rows += [SweepRow(point, summary) for summary in _summaries(records).values()]
    return rows


# ---------------------------------------------------------------- outputs


def _fmt(x: float) -> str:
    return repr(float(x))


def _summary_cells(s: MethodSummary) -> dict:
    """A summary's CSV cells, in column order."""
    return {
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
    }


def summary_csv_rows(run: RunResult, regime: str) -> list[dict]:
    """The rows of a regime's summary CSV, best mean utility first: each
    method's cells, its replay coverage, then the regime's diagnostics."""
    summaries = sorted((run.summaries[(m, regime)] for m in run.config.methods
                        if (m, regime) in run.summaries), key=lambda s: -s.mean_utility)
    diagnostics = {k: _fmt(v) for k, v in asdict(run.diagnostics[regime]).items()}
    return [{
        **_summary_cells(s),
        "seeds_covered": (run.replay_coverage[replay_tag(s.method)][regime]
                          if is_replay(s.method) else len(s.per_seed_means)),
        **diagnostics,
    } for s in summaries]


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
    """One JSON-lines file per (seed, regime), plus the counterbalance table.

    Every frame is written, so the deferred ones are drawn before the
    directory is made: a draw that fails its checks leaves no output.
    """
    for inst in instances:
        inst.observational.data, inst.experimental.data
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
               r.result.stage1.decision.value, r.decision.value,
               r.outcome, _fmt(r.utility), _fmt(r.theta), str(r.safe))


# Batches of files handed to the writer thread and not yet written.  Two keep
# the thread busy; a deeper queue only holds more encoded files in memory.
_WRITE_QUEUE_DEPTH = 2

_Files = Sequence[tuple[Path, bytes]]


def _write_file(path: Path, data: bytes) -> None:
    path.write_bytes(data)


@contextmanager
def _file_writer() -> Iterator[Callable[[_Files], None]]:
    """Yield ``put(files)``; one thread writes each (path, bytes) pair of
    ``files``, in the order they were put, while the caller encodes the next.

    Creating a file is mostly kernel time, which the thread spends outside
    the GIL.  The thread is joined before the block ends.  Its first error
    stops its writes and is raised on the caller's thread, by a later
    ``put`` or at the end of the block.
    """
    batches: queue.Queue = queue.Queue(_WRITE_QUEUE_DEPTH)
    failed: list[BaseException] = []

    def drain() -> None:
        # After an error, keep taking batches so that ``put`` never blocks.
        while (files := batches.get()) is not None:
            if not failed:
                try:
                    for path, data in files:
                        _write_file(path, data)
                except BaseException as exc:
                    failed.append(exc)

    def put(files: _Files) -> None:
        if failed:
            raise failed[0]
        batches.put(files)

    thread = threading.Thread(target=drain, name="civex-file-writer")
    thread.start()
    try:
        yield put
    finally:
        batches.put(None)
        thread.join()
    if failed:
        raise failed[0]


def _remove_stale_certificates(cert_root: Path, kept: set[tuple[str, str]]) -> None:
    """Delete each ``<method>/<stem>.cert.json`` and ``.data.txt`` under
    ``cert_root`` whose (method, stem) is not in ``kept``, then each directory
    that this leaves empty.  Files the writer does not make stay."""
    emptied = set()
    for suffix in (".cert.json", ".data.txt"):
        for path in cert_root.glob(f"*/*{suffix}"):
            if (path.parent.name, path.name[:-len(suffix)]) not in kept:
                path.unlink()
                emptied.add(path.parent)
    for directory in emptied:
        if not any(directory.iterdir()):
            directory.rmdir()


def _write_certificates(out_dir: Path, run: RunResult) -> int:
    """Write each certificate with a copy of the data it certifies, and
    delete the certificates and data copies of earlier runs that it does not
    rewrite.

    Methods that certify the same (instance, stage) share one data frame, so
    each frame is serialized once and its bytes go to every method's copy.
    Serializing and encoding stay on this thread; ``_file_writer`` creates
    the files on another, one batch per frame.
    """
    by_id = {inst.id: inst for inst in run.instances}
    by_frame: dict[tuple[object, int], list[tuple[str, Certificate]]] = {}
    for r in run.records:
        cert = r.result.terminal.certificate
        if cert is not None:
            by_frame.setdefault((r.instance_id, len(r.result.trace)), []).append((r.method, cert))
    cert_root = out_dir / "certificates"
    # A previous run's certificates must not pass for this run's.
    _remove_stale_certificates(cert_root, {(method, str(inst_id))
                                           for (inst_id, _), certs in by_frame.items()
                                           for method, _ in certs})
    method_dirs = {method: cert_root / method
                   for certs in by_frame.values() for method, _ in certs}
    for method_dir in method_dirs.values():
        method_dir.mkdir(parents=True, exist_ok=True)
    with _file_writer() as put:
        for (inst_id, stage), certs in by_frame.items():
            inst = by_id[inst_id]
            data = (inst.experimental if stage == 2 else inst.observational).canonical_bytes()
            stem = str(inst_id)
            files = []
            for method, cert in certs:
                text = json.dumps(certificate_to_json_dict(cert), sort_keys=True,
                                  indent=1).encode("utf-8")
                files += ((method_dirs[method] / f"{stem}.cert.json", text),
                          (method_dirs[method] / f"{stem}.data.txt", data))
            put(files)
    return sum(len(certs) for certs in by_frame.values())


def _pairwise_rows(run: RunResult) -> list[dict]:
    rows = []
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


def _numeric_stack() -> dict:
    """numpy's version, the BLAS it was built with and the CPU's SIMD
    extensions that numpy found, which pick the BLAS kernel (``None`` where
    the build does not list them).  Certificate bytes hold for one numpy
    build on one BLAS kernel (ROADMAP threat check 13), so a run that differs
    elsewhere names its likely cause here."""
    config = np.show_config(mode="dicts")
    return {"numpy": np.__version__, "blas": config["Build Dependencies"]["blas"],
            "simd": config.get("SIMD Extensions", {}).get("found")}


def write_run_outputs(run: RunResult, out_dir: Path | None = None) -> dict:
    """Write summary/record/counterbalance CSVs, certificates, and the manifest.

    Earlier runs' certificates and data copies are deleted unless this run
    rewrites them; any other file stays.  A previous manifest is deleted
    first and the new one is written last, once every other file is, so a
    manifest is there only when all of its run's files are.
    """
    out = out_dir or Path(run.config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    for regime in REGIMES:
        _write_dict_csv(out / f"summary_{regime}.csv", summary_csv_rows(run, regime))
    _write_csv(out / "records.csv", _RECORD_HEADER, _record_rows(run))
    _write_dict_csv(out / "counterbalance.csv", _counterbalance_rows(run.counterbalance))
    _write_dict_csv(out / "pairwise_wilcoxon.csv", _pairwise_rows(run))
    n_certs = _write_certificates(out, run)
    civex_false = run.false_executions(CIVEX) if CIVEX in run.config.methods else None
    manifest = {
        "package_version": __version__,
        "numeric_stack": _numeric_stack(),
        "config": dump(run.config),
        "n_instances": len(run.instances),
        "n_certificates": n_certs,
        "civex_false_executions": civex_false,
        "replay_coverage": run.replay_coverage,
        "diagnostics": {regime: asdict(diag) for regime, diag in run.diagnostics.items()},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1),
                                       encoding="utf-8")
    return manifest


_SWEEP_COLUMNS = ("method", "regime", "n_instances", "false_exec_per_instance",
                  "correct_exec_rate", "accuracy", "mean_utility")


def write_sweep_csv(out_dir: Path, kind: str, rows: Sequence[SweepRow]) -> Path:
    """The grid point's values, then ``_SWEEP_COLUMNS`` of each row's summary."""
    point_keys = sorted({k for row in rows for k in row.point})
    csv_rows = []
    for row in rows:
        cells = _summary_cells(row.summary)
        csv_rows.append({**{k: _fmt(row.point[k]) for k in point_keys},
                         **{k: cells[k] for k in _SWEEP_COLUMNS}})
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
