"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces the public functions listed in `TARGETS` with
timing wrappers in every loaded `civex` module that holds them, and
`Tracer.uninstall` puts the originals back; nothing under `src/` changes.
Spans stay in memory as (name, start, end, parent, op) tuples and are
written out once, after the run.

Metric names ending in `_self_s` are self time (the span minus the time its
child spans cover); every other `_s` metric is the inclusive time of the
outermost span of that name.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

from civex.baselines import ALL_METHODS

# (module, attribute, span name).  A dotted attribute is a method on a class.
TARGETS = (
    ("scm", "build_benchmark", "scm.build_benchmark"),
    ("graphs", "identify", "graphs.identify"),
    ("graphs", "graph_digest", "graphs.graph_digest"),
    ("frames", "Frame.canonical_bytes", "frames.canonical_bytes"),
    ("frames", "Frame.from_canonical_bytes", "frames.from_canonical_bytes"),
    ("estimation", "adjusted_effect", "estimation.adjusted_effect"),
    ("estimation", "unadjusted_difference", "estimation.unadjusted_difference"),
    ("estimation", "frontdoor_effect", "estimation.frontdoor_effect"),
    ("estimation", "provenance_hash", "estimation.provenance_hash"),
    ("verifier", "triage", "verifier.triage"),
    ("verifier", "run_two_stage", "verifier.run_two_stage"),
    ("verifier", "build_execution_certificate", "verifier.build_execution_certificate"),
    ("verifier", "certificate_from_json_dict", "verifier.certificate_from_json_dict"),
    ("verifier", "verify_certificate", "verifier.verify_certificate"),
    ("baselines", "build_context", "baselines.build_context"),
    ("baselines", "make_provider", "baselines.make_provider"),
    ("evaluation", "observational_diagnostics", "evaluation.observational_diagnostics"),
    ("evaluation", "summarize", "evaluation.summarize"),
    ("evaluation", "wilcoxon_exact", "evaluation.wilcoxon_exact"),
    ("runner", "run_benchmark", "runner.run_benchmark"),
    ("runner", "evaluate_instances", "runner.evaluate_instances"),
    ("runner", "write_run_outputs", "runner.write_run_outputs"),
)

ESTIMATORS = ("estimation.adjusted_effect", "estimation.unadjusted_difference",
              "estimation.frontdoor_effect")
TERMINALS = ("EXECUTE", "REJECT", "ABSTAIN")


def _civex_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "civex" or name.startswith("civex."))]


class Tracer:
    """Records nested spans around the `civex` functions in `TARGETS`."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self.op: object = None
        self._restore: list[tuple[object, str, object]] = []
        # Counters taken at the same boundaries as the spans.
        self.outermost: list[bool] = []
        self.instances = 0
        self.canonical_bytes = 0
        self.frames_seen: dict[int, object] = {}
        self.graphs_seen: set = set()
        self.estimation_errors = 0
        self.two_stage_calls = 0
        self.stage2_calls = 0
        self.terminals: dict[str, int] = defaultdict(int)
        self.files_written = 0
        self.bytes_written = 0

    # ------------------------------------------------------------ spans

    def _span(self, name: str, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer.outermost.append(tracer._open[name] == 0)
            tracer._open[name] += 1
            tracer._stack.append(idx)
            saved_op = tracer.op
            if before is not None:
                before(args)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name in ESTIMATORS and tracer.outermost[idx]:
                    tracer.estimation_errors += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
                tracer.op = saved_op
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ----------------------------------------------------- hooks per target

    def _after_build(self, args, result) -> None:
        self.instances += len(result[0])

    def _after_identify(self, args, result) -> None:
        self.graphs_seen.add(args[0])

    def _after_canonical(self, args, result) -> None:
        # Frames are kept alive so that an id is never reused for another one.
        self.frames_seen.setdefault(id(args[0]), args[0])
        self.canonical_bytes += len(result)

    def _before_two_stage(self, args) -> None:
        self.op = str(args[0].id)

    def _after_two_stage(self, args, result) -> None:
        self.two_stage_calls += 1
        if len(result.trace) == 2 and args[0].safe_experiment_available:
            self.stage2_calls += 1
        self.terminals[result.terminal.decision.value] += 1

    def _after_write(self, args, result) -> None:
        out = Path(args[1])
        for dirpath, _, files in os.walk(out):
            for f in files:
                self.files_written += 1
                self.bytes_written += os.path.getsize(os.path.join(dirpath, f))

    def _wrap_make_provider(self, fn):
        tracer = self

        def make_provider(method, *args, **kwargs):
            return tracer._span(f"baselines.{method}", fn(method, *args, **kwargs))

        return make_provider

    def _wrapper_for(self, span: str, fn):
        hooks = {
            "scm.build_benchmark": (None, self._after_build),
            "graphs.identify": (None, self._after_identify),
            "frames.canonical_bytes": (None, self._after_canonical),
            "verifier.run_two_stage": (self._before_two_stage, self._after_two_stage),
            "runner.write_run_outputs": (None, self._after_write),
        }
        if span == "baselines.make_provider":
            return self._wrap_make_provider(fn)
        before, after = hooks.get(span, (None, None))
        return self._span(span, fn, before, after)

    # -------------------------------------------------------- (un)install

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for module, attr, span in TARGETS:
            mod = importlib.import_module(f"civex.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrapper_for(span, raw.__func__))
                else:
                    wrapped = self._wrapper_for(span, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrapper_for(span, original)
            for m in _civex_modules():
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, name, original))
                        setattr(m, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # ------------------------------------------------------------ metrics

    def _durations(self) -> tuple[dict, dict, dict]:
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += (end - start) - covered[i]
            if self.outermost[i]:
                inclusive[name] += end - start
        return calls, inclusive, self_time

    def covered_seconds(self, t0: float, t1: float) -> float:
        """Time in [t0, t1] that some top-level span covers."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent == -1:
                total += max(0.0, min(end, t1) - max(start, t0))
        return total

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        calls, inc, own = self._durations()

        def frac(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {
            "scm.build_benchmark_s": (inc["scm.build_benchmark"], "s"),
            "scm.instances": (self.instances, "count"),
            "graphs.identify_calls": (calls["graphs.identify"], "count"),
            "graphs.identify_s": (inc["graphs.identify"], "s"),
            "graphs.identify_distinct_frac": (
                frac(len(self.graphs_seen), calls["graphs.identify"]), "ratio"),
            "graphs.graph_digest_s": (inc["graphs.graph_digest"], "s"),
            "frames.canonical_bytes_calls": (calls["frames.canonical_bytes"], "count"),
            "frames.canonical_bytes_s": (inc["frames.canonical_bytes"], "s"),
            "frames.canonical_bytes_distinct_frac": (
                frac(len(self.frames_seen), calls["frames.canonical_bytes"]), "ratio"),
            "frames.canonical_mb": (self.canonical_bytes / 1e6, "MB"),
            "frames.from_canonical_bytes_calls": (
                calls["frames.from_canonical_bytes"], "count"),
            "frames.from_canonical_bytes_s": (inc["frames.from_canonical_bytes"], "s"),
        }
        for est in ESTIMATORS:
            m[f"{est}_calls"] = (calls[est], "count")
            m[f"{est}_s"] = (inc[est], "s")
        m["estimation.provenance_hash_s"] = (inc["estimation.provenance_hash"], "s")
        m["estimation.errors"] = (self.estimation_errors, "count")
        m.update({
            "verifier.triage_calls": (calls["verifier.triage"], "count"),
            "verifier.triage_self_s": (own["verifier.triage"], "s"),
            "verifier.stage2_frac": (frac(self.stage2_calls, self.two_stage_calls), "ratio"),
            "verifier.certificates": (calls["verifier.build_execution_certificate"], "count"),
            "verifier.build_execution_certificate_s": (
                inc["verifier.build_execution_certificate"], "s"),
            "verifier.certificate_from_json_dict_s": (
                inc["verifier.certificate_from_json_dict"], "s"),
            "verifier.verify_certificate_self_s": (own["verifier.verify_certificate"], "s"),
        })
        for decision in TERMINALS:
            m[f"verifier.terminal_{decision}"] = (self.terminals[decision], "count")
        m["baselines.build_context_s"] = (inc["baselines.build_context"], "s")
        for method in ALL_METHODS:
            m[f"baselines.{method}_s"] = (inc[f"baselines.{method}"], "s")
        m.update({
            "evaluation.observational_diagnostics_s": (
                inc["evaluation.observational_diagnostics"], "s"),
            "evaluation.summarize_s": (inc["evaluation.summarize"], "s"),
            "evaluation.wilcoxon_exact_s": (inc["evaluation.wilcoxon_exact"], "s"),
            "runner.run_benchmark_self_s": (own["runner.run_benchmark"], "s"),
            "runner.evaluate_instances_s": (inc["runner.evaluate_instances"], "s"),
            "runner.write_run_outputs_self_s": (own["runner.write_run_outputs"], "s"),
            "runner.files_written": (self.files_written, "count"),
            "runner.mb_written": (self.bytes_written / 1e6, "MB"),
        })
        return m

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]))
                fh.write("\n")
