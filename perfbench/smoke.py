#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size (one seed, 2 instances per
family and regime).

For every workload it runs `run.py` untraced and traced and asserts that
each metric BENCHMARK.json names is printed with its unit, that the outputs
are correct, and that the traced outputs equal the untraced ones.  It is not
part of the pytest suite.  Run from the root of a checkout:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, trace: int) -> tuple[dict, str, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = re.search(r"^outputs_digest: (\w+)", proc.stdout, re.M)
    if digest is None:
        raise AssertionError(f"{workload} trace {trace} printed no outputs digest")
    return json.loads(lines[-1]), digest.group(1), proc.stdout


def _check_metrics(result: dict, stdout: str, expected: list[dict], label: str) -> None:
    got = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(got) != sorted(names):
        raise AssertionError(f"{label}: metrics {sorted(set(got) ^ set(names))} "
                             "differ from BENCHMARK.json")
    for m in expected:
        if got[m["name"]]["unit"] != m["unit"]:
            raise AssertionError(f"{label}: {m['name']} has unit {got[m['name']]['unit']}")
        if not re.search(rf"^  {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b",
                         stdout, re.M):
            raise AssertionError(f"{label}: {m['name']} is not printed with its unit")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in bench["workloads"]):
        plain, plain_digest, plain_out = _run(workload, 0)
        traced, traced_digest, traced_out = _run(workload, 1)
        for result, label in ((plain, "untraced"), (traced, "traced")):
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{workload} {label}: {result}")
        _check_metrics(plain, plain_out, bench["end_to_end"], f"{workload} untraced")
        _check_metrics(traced, traced_out, bench["per_layer"], f"{workload} traced")
        if plain_digest != traced_digest:
            raise AssertionError(f"{workload}: traced outputs {traced_digest} "
                                 f"!= untraced {plain_digest}")
        print(f"ok {workload}: {len(plain['metrics'])} end-to-end and "
              f"{len(traced['metrics'])} per-layer metrics, outputs {plain_digest[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
