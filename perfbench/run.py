#!/usr/bin/env python3
"""civex benchmark: the batch run, the online gate and the certificate audit.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload gate_stream --seed 3 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1` the
per-layer ones.  Every run also checks the program's outputs; a result
record with the machine facts, digests and sample counts is written to
`.perfbench_out/`, and a traced run writes its spans there too.
`python3 perfbench/smoke.py` runs every workload at a tiny size.

Workloads (each runs in one process and one thread; inputs come only from
`--seed`):

- `full_run`: `civex run` on the default config -- 7 seeds derived from the
  workload seed (seed 0 is the default 42..48), 1,890 instances x 12
  methods, `run_benchmark` then `write_run_outputs` into a fresh temporary
  directory.  One op is one instance through all 12 methods.  It is the
  researcher's command; frames and graphs are shared across methods and
  the writer, so serialize-once, `identify` memoization and a process
  runner show here.  No warm-up: every `civex run` pays first-call costs.
- `gate_stream`: one agent in a closed loop, one caller, waiting for each
  CIVeX verdict (`run_two_stage`, stage 2 included) before proposing the
  next action.  Each generated instance is proposed once (3,780 calls at
  `--seconds 10`).  Each frame is certified at most once, so serialize-once
  should not help here; repeated graph shapes and OLS cost should.  It warms
  up on a seed outside its timed set, because a long-lived agent pays
  first-call costs once.
- `audit_replay`: the auditor's read path.  Set-up writes the run directory
  of a 3-seed default config restricted to CIVeX, CIVeXCertOnly and
  CausalNoExperiment (about 600 certificates); the timed phase reads a
  `.cert.json` and its `.data.txt`, parses the certificate and replays it
  with `verify_certificate`, taking the certificates in turn (2,250 replays
  at `--seconds 10`).  One op is one certificate; each replay of it is one
  run of the op.  Parsing, SHA-256 and
  estimation do the work; `identify` and serialization do none, so a change
  that makes reads costlier shows here.

End-to-end metrics (untraced): `wall_s` (timed phase), `ops_per_s`,
`op_p50_ms` and `op_p99_ms` (per-op latency; op and run counts printed
beside), `setup_s` (process start, imports, config, generation and
warm-up, timed from outside the process) and `peak_rss_mb`.  A run starts
three fresh worker processes; each one sets up, and the last one
(`gate_stream` and `audit_replay`: all three) also runs the timed phase.
The run reports the median set-up time and the median of each other metric
over the measuring workers, whose outputs must agree.  The op latency
percentiles are taken over ops, each op at the median of all its runs in
all measuring workers (`gate_stream`: three runs of each call;
`audit_replay`: about eleven replays of each certificate; `full_run`: one
run of each instance): on a shared machine a single run's tail is mostly
the other tenants, while the median run keeps what the op itself costs.
Every time is calibrated for machine speed (`calibrate.py`): the measured
time times a reference kernel time over the kernel time measured alongside
it; for an op's latency, over the kernel calls within a second of it, and
for set-up over kernel calls that a timer interleaves with it every 25 ms
(their own time is taken off).  The raw times are in the result record.
Failed ops are the result's `failed` out of `attempted`; `failed_frac` is
printed but not listed as a metric, because a metric must never read 0.

Output checks: `full_run` digests every output file except `manifest.json`
and checks the manifest's `n_certificates`, `n_instances` and
`civex_false_executions == 0`; `gate_stream` digests the ordered stream of
(instance id, stage-1 decision, terminal decision, certificate JSON) and
replays every certificate; `audit_replay` requires every replay to return
`[]` and digests the certificate files.  Digests are compared with
`perfbench/reference.json` where it holds the run's key; a mismatch, or any
other failed check, counts every op of the run as failed.

Per-layer metrics come from a traced run (`--trace 1`), which first runs the
workload untraced and then again, set-up after imports included, with the
`civex` functions wrapped from this directory (`tracing.py`).  The traced
outputs must equal the untraced ones byte for byte.  `_self_s` is self
time, other `_s` metrics are inclusive.  Which end-to-end metric each layer
should move:

| Layer metrics | Should move | Bypassed in |
|---|---|---|
| `scm.build_benchmark_s`, `scm.instances` | `full_run` `wall_s`; `setup_s` of the others | none |
| `graphs.identify_*`, `graphs.graph_digest_s` | `gate_stream` `op_p50_ms`; `full_run` `wall_s` | `audit_replay` timed phase |
| `frames.canonical_*` | `full_run` `wall_s`; `gate_stream` `op_p99_ms` | `audit_replay` timed phase |
| `frames.from_canonical_bytes_*` | `audit_replay` `op_p50_ms` | `full_run`, `gate_stream` |
| `estimation.*` | `op_p50_ms` of `gate_stream` and `audit_replay`; `full_run` `wall_s` | none |
| `verifier.triage_*`, `verifier.certificates`, `verifier.build_execution_certificate_s` | `gate_stream` `op_p50_ms`, `op_p99_ms` | `audit_replay` timed phase |
| `verifier.certificate_from_json_dict_s`, `verifier.verify_certificate_self_s` | `audit_replay` `op_p50_ms` | `full_run`, `gate_stream` |
| `verifier.stage2_frac`, `verifier.terminal_*` | none: a fingerprint of the verdicts | none |
| `baselines.build_context_s`, `baselines.<method>_s` | `full_run` `wall_s`, `ops_per_s` | `gate_stream` except CIVeX |
| `evaluation.*` | `full_run` `wall_s` (small) | `gate_stream`, `audit_replay` timed phase |
| `runner.*` | `full_run` `wall_s`; `audit_replay` `setup_s` | `gate_stream` |
| `trace.overhead_frac`, `trace.unattributed_frac` | none: the tracing's own cost and coverage | none |

For `audit_replay` the traced set-up writes the certificates, so its
triage, `identify` and serialization counts come from set-up alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
REFERENCE = BENCH_DIR / "reference.json"
# Every worker sets up, so set-up is sampled SETUP_REPEATS times a run; the
# last MEASURE_RUNS[workload] workers also run the timed phase, and the run
# reports the median of each metric.  A full run's timed phase is long
# enough to measure once within the run's time budget.
SETUP_REPEATS = 3
MEASURE_RUNS = {"full_run": 1, "gate_stream": 3, "audit_replay": 3}
RUN_DEADLINE_S = 170.0
# One process, one thread: keep BLAS from starting worker threads.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("full_run", "gate_stream", "audit_replay"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: one seed, 2 instances per family and regime")
    p.add_argument("--role", choices=("coordinator", "setup", "measure", "final"),
                   default="coordinator", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------------ worker


def _import_civex():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import civex

    if Path(civex.__file__).resolve().parent != (src / "civex").resolve():
        raise SystemExit(f"civex imported from {civex.__file__}, not from {src}")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile of values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_latency_metrics(op_ms: dict[str, list[float]]) -> dict:
    """`op_p50_ms` and `op_p99_ms` over ops, each op at the median of its runs.

    An op that ran several times (in turn within a worker, or once in each
    measuring worker) counts once, at its median, so that a run held up by
    another tenant of the machine does not become the tail.
    """
    per_op = [statistics.median(v) for v in op_ms.values()]
    runs = sum(len(v) for v in op_ms.values())
    note = f"{len(per_op)} ops, median of {runs / len(per_op):.3g} runs each"
    return {"op_p50_ms": [percentile(per_op, 50), "ms", note],
            "op_p99_ms": [percentile(per_op, 99), "ms", note]}


def _end_to_end(timed) -> tuple[dict, dict, dict]:
    """Calibrated metrics of one worker, the raw timings they come from and
    the calibrated milliseconds of every run of every op."""
    f = timed.calibration
    samples = [s for runs in timed.latencies.values() for _, s in runs]
    raw = {"wall_s": timed.wall_s, "op_p50_ms": percentile(samples, 50) * 1e3,
           "op_p99_ms": percentile(samples, 99) * 1e3, "calibration": f}
    raw.update({k: v for k, v in timed.extra.items() if k.endswith("_s")})
    factor_at = timed.calibrator.factor_at
    op_ms = {op: [s * factor_at(start) * 1e3 for start, s in runs]
             for op, runs in timed.latencies.items()}
    metrics = {
        "wall_s": [timed.wall_s * f, "s"],
        "ops_per_s": [timed.attempted / (timed.wall_s * f), "1/s"],
        **op_latency_metrics(op_ms),
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"],
    }
    return metrics, raw, op_ms


def _work(args: argparse.Namespace) -> int:
    from calibrate import SetupTicker

    # The coordinator times set-up until READY; the ticker's kernel calls
    # calibrate it, and their own time is taken off it.
    with SetupTicker() as ticker:
        _import_civex()
        import numpy
        import scipy
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload](args.seed, args.seconds, args.scale, TMP_DIR)
        wl.setup(warm_up=True)
    print("READY", flush=True)
    print(f"CAL {ticker.calibrator.factor()!r} {ticker.spent_s!r}", flush=True)
    if args.role == "setup":
        wl.teardown()
        return 0
    try:
        timed = wl.timed()
        failed, digest, problems = wl.check(timed, thorough=args.role == "final")
    finally:
        wl.teardown()
    record = {
        "attempted": timed.attempted,
        "digest": digest,
        "reference_key": wl.reference_key(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            wl.setup(warm_up=False)
            t0 = time.perf_counter()
            traced = wl.timed()
            t1 = time.perf_counter()
        finally:
            tracer.uninstall()
        try:
            traced_failed, traced_digest, traced_problems = wl.check(traced, thorough=False)
        finally:
            wl.teardown()
        failed = max(failed, traced_failed)
        problems += traced_problems
        if traced_digest != digest:
            problems.append(f"traced outputs differ: {traced_digest} != {digest}")
        metrics = {k: list(v) for k, v in tracer.layer_metrics().items()}
        plain_s = timed.wall_s * timed.calibration
        metrics["trace.overhead_frac"] = [
            (traced.wall_s * traced.calibration - plain_s) / plain_s, "ratio"]
        metrics["trace.unattributed_frac"] = [1.0 - tracer.covered_seconds(t0, t1) / (t1 - t0),
                                              "ratio"]
        spans = OUT_DIR / f"spans-{args.workload}-{args.scale}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        record["spans"] = str(spans.relative_to(ROOT))
        record["attempted"] = traced.attempted
    else:
        metrics, record["raw"], record["op_ms"] = _end_to_end(timed)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    expected = reference.get(wl.reference_key())
    record["reference"] = "none" if expected is None else (
        "match" if expected == digest else "mismatch")
    if record["reference"] == "mismatch":
        problems.append(f"outputs digest {digest} != reference {expected}")
    if problems:
        failed = record["attempted"]
    record.update(failed=failed, problems=problems[:20], metrics=metrics)
    print("RESULT " + json.dumps(record), flush=True)
    return 0


# ------------------------------------------------------------- coordinator


def _spawn(role: str, args: argparse.Namespace,
           deadline: float) -> tuple[float, float, dict | None]:
    """Start one worker; return its raw set-up time (less the calibration
    kernel's), the calibration factor taken during set-up and, for
    `measure`, its record."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    start = time.perf_counter()
    # Unbuffered, so that nothing after the READY line is read ahead.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT,
                            env={**os.environ, **THREAD_ENV})
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if line.strip() != b"READY":
            raise RuntimeError(f"{role} worker did not finish set-up")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        rest = out.decode("utf-8")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    lines = rest.splitlines()
    cal = [ln.split()[1:] for ln in lines if ln.startswith("CAL ")]
    results = [ln[len("RESULT "):] for ln in lines if ln.startswith("RESULT ")]
    if not cal or (role != "setup" and not results):
        raise RuntimeError(f"{role} worker printed no calibration or no result")
    factor, kernel_s = map(float, cal[0])
    return setup_s - kernel_s, factor, (json.loads(results[-1]) if results else None)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _merge(records: list[dict]) -> dict:
    """One record from the measuring workers: the median of each metric, and
    the op latencies over the runs of each op in every worker."""
    merged = dict(records[0])
    merged["metrics"] = {}
    for name, (_, unit, *note) in records[0]["metrics"].items():
        values = [r["metrics"][name][0] for r in records]
        merged["metrics"][name] = [statistics.median(values), unit, *note]
    if "op_ms" in merged:
        op_ms: dict[str, list[float]] = {}
        for r in records:
            for op, runs in r.pop("op_ms").items():
                op_ms.setdefault(op, []).extend(runs)
        merged.pop("op_ms")
        merged["metrics"].update(op_latency_metrics(op_ms))
    merged["runs"] = [{k: r.get(k) for k in ("metrics", "raw", "digest")} for r in records]
    merged["attempted"] = sum(r["attempted"] for r in records)
    merged["failed"] = sum(r["failed"] for r in records)
    merged["problems"] = [p for r in records for p in r["problems"]]
    if len({r["digest"] for r in records}) != 1:
        merged["problems"].append("workers produced different outputs")
        merged["failed"] = merged["attempted"]
    return merged


def _coordinate(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "civex" / "__init__.py").is_file():
        print(f"error: no civex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    machine = {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
               "loadavg_at_start": list(os.getloadavg())}
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        roles = ["final"]
    else:
        measures = MEASURE_RUNS[args.workload]
        roles = (["setup"] * (SETUP_REPEATS - measures)
                 + ["measure"] * (measures - 1) + ["final"])
    setup_samples = []
    setup_raw = []
    records = []
    try:
        for role in roles:
            setup_s, calibration, record = _spawn(role, args, deadline)
            setup_raw.append(setup_s)
            setup_samples.append(setup_s * calibration)
            if record is not None:
                records.append(record)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = _merge(records)
    machine.update(record.pop("versions"))
    metrics = record["metrics"]
    if not args.trace:
        metrics["setup_s"] = [statistics.median(setup_samples), "s",
                              f"median of {len(setup_samples)} processes"]
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  scale=args.scale, trace=args.trace, machine=machine,
                  setup_raw_s=setup_raw, setup_calibrated_s=setup_samples)
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / (f"result-{args.workload}-{args.scale}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} trace {args.trace}"
          f" ({len(records)} measuring worker(s), medians)")
    for name, (value, unit, *note) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f" ({note[0]})" if note else ""))
    print(f"attempted {record['attempted']} failed {record['failed']} "
          f"failed_frac {record['failed'] / record['attempted']:.6g}")
    print(f"outputs_digest: {record['digest']} (reference: {record['reference']})")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }))
    return 0


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.role == "coordinator":
        return _coordinate(args)
    return _work(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
