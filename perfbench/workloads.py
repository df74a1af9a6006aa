"""The three workloads: set-up, timed phase and output check of each.

Every workload builds its inputs from the workload seed alone, hands the
program only the instances generated from it, and runs in one thread.
`setup` holds everything that is not timed; `timed` returns the latencies
of each op (an op may run more than once) and what the check needs;
`check` compares the outputs with what they must be and returns the number
of failed ops.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# Calls go through the module attributes, so that the tracer's wrappers and
# the full run's instance clock see them.
from civex import baselines, runner, scm, verifier
from civex.baselines import CAUSAL_NO_EXPERIMENT, CIVEX, CIVEX_CERT_ONLY
from civex.frames import Frame
from civex.runner import RunConfig
from civex.scm import BenchmarkSpec
from civex.verifier import VerifierConfig, certificate_to_json_dict

from calibrate import Calibrator

CERTIFYING_METHODS = (CIVEX, CIVEX_CERT_ONLY, CAUSAL_NO_EXPERIMENT)
# Seeds of the default `civex run` config, the workload seed's first block.
FIRST_SEED = 42
RUN_SEEDS = 7
# Sizing: the timed phase lasts about `--seconds` on a 2-core machine at the
# commit that defined the benchmark.  One gate block is one generated seed
# (270 calls, about 0.5 s); an audit replay takes about 2 ms, and the audit
# runs for about half of `--seconds`, which still replays each certificate
# about eleven times over a run's three measuring workers.  A full run is
# always one whole `civex run`.
GATE_BLOCKS_PER_SECOND = 1.4
AUDIT_OPS_PER_SECOND = 225
# The audit replays certificates in turn, so it needs fewer seeds than the
# default run to keep set-up (written three times a run) affordable.
AUDIT_SEEDS = 3
WARMUP_SEED_OFFSET = 1_000_000
# One calibration kernel call (about 0.25 ms) before every TICK_EVERY-th op.
TICK_EVERY = 8


@dataclass
class Timed:
    """Raw timings of one timed phase, and the calibration taken alongside."""

    wall_s: float
    # Op key -> (start, seconds taken) of each run of that op.
    latencies: dict[str, list[tuple[float, float]]]
    attempted: int
    calibration: float
    # The kernel calls taken among the ops, which calibrate each op.
    calibrator: Calibrator
    extra: dict = field(default_factory=dict)


def _seeds(workload_seed: int, count: int) -> tuple[int, ...]:
    first = FIRST_SEED + count * workload_seed
    return tuple(range(first, first + count))


def _bench_spec(seeds: tuple[int, ...], scale: str) -> BenchmarkSpec:
    if scale == "smoke":
        return BenchmarkSpec(seeds=seeds[:1], moderate_per_family=2, adversarial_per_family=2)
    return BenchmarkSpec(seeds=seeds)


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "big"))
        h.update(chunk)
    return h.hexdigest()


def _tree_digest(root: Path, skip: str) -> str:
    """Digest of every file's relative path and bytes, in sorted path order."""
    chunks = []
    for p in sorted(root.rglob("*")):
        rel = p.relative_to(root).as_posix()
        if p.is_file() and rel != skip:
            chunks += [rel.encode(), p.read_bytes()]
    return _sha(chunks)


class _InstanceClock:
    """Times one op of a full run: one instance through every method.

    Wraps the `run_two_stage` that `civex.runner` calls; an instance's op
    runs from its first method call to the end of its last one.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.spans: dict[object, list[float]] = {}
        self.calibrator = calibrator
        self.ticks_s = 0.0

    def __enter__(self):
        self._original = runner.run_two_stage
        original, spans, now = self._original, self.spans, time.perf_counter

        def clocked(inst, decide, cfg):
            if inst.id not in spans and len(spans) % TICK_EVERY == 0:
                self.ticks_s += self.calibrator.tick()
            start = now()
            result = original(inst, decide, cfg)
            span = spans.get(inst.id)
            if span is None:
                spans[inst.id] = [start, now()]
            else:
                span[1] = now()
            return result

        runner.run_two_stage = clocked
        return self

    def __exit__(self, *exc) -> None:
        runner.run_two_stage = self._original

    def latencies(self) -> dict[str, list[tuple[float, float]]]:
        return {str(key): [(start, end - start)] for key, (start, end) in self.spans.items()}


class _SerializeClock:
    """Ticks the calibrator while a full run writes its outputs.

    Writing serializes one frame per certificate, so every TICK_EVERY-th
    `Frame.canonical_bytes` call is preceded by one kernel call.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.ticks_s = 0.0
        self.calls = 0

    def __enter__(self):
        self._original = Frame.canonical_bytes
        original = self._original

        def canonical_bytes(frame):
            if self.calls % TICK_EVERY == 0:
                self.ticks_s += self.calibrator.tick()
            self.calls += 1
            return original(frame)

        Frame.canonical_bytes = canonical_bytes
        return self

    def __exit__(self, *exc) -> None:
        Frame.canonical_bytes = self._original


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: int, scale: str, tmp_root: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.tmp_root = tmp_root

    def reference_key(self) -> str:
        return f"{self.name} scale={self.scale} seed={self.seed} {self.size()}"

    def size(self) -> str:
        return ""

    def setup(self, warm_up: bool) -> None:
        pass

    def timed(self) -> Timed:
        raise NotImplementedError

    def check(self, timed: Timed, thorough: bool) -> tuple[int, str, list[str]]:
        """(failed ops, outputs digest, problems found).  Workers whose
        outputs are compared with a thorough worker's may skip costly checks."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def _tmpdir(self) -> Path:
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.tmp_root))


class FullRun(Workload):
    """`civex run` on the default config: generation, 12 methods, outputs."""

    name = "full_run"

    def size(self) -> str:
        return f"seeds={_seeds(self.seed, RUN_SEEDS)}"

    def setup(self, warm_up: bool) -> None:
        # No warm-up: every `civex run` pays its first-call costs.
        self.config = RunConfig(bench=_bench_spec(_seeds(self.seed, RUN_SEEDS), self.scale))
        self.out: Path | None = None

    def timed(self) -> Timed:
        out = self._tmpdir()
        self.out = out
        cal_run, cal_write = Calibrator(), Calibrator()
        cal_run.tick(100)
        with _InstanceClock(cal_run) as clock:
            start = time.perf_counter()
            run = runner.run_benchmark(self.config)
            run_s = time.perf_counter() - start - clock.ticks_s
        cal_write.tick(100)
        with _SerializeClock(cal_write) as ticks:
            start = time.perf_counter()
            runner.write_run_outputs(run, out)
            write_s = time.perf_counter() - start - ticks.ticks_s
        cal_write.tick(100)
        calibrated = run_s * cal_run.factor() + write_s * cal_write.factor()
        return Timed(run_s + write_s, clock.latencies(), len(run.instances),
                     calibrated / (run_s + write_s), cal_run,
                     extra={"run_benchmark_s": run_s, "write_run_outputs_s": write_s})

    def check(self, timed: Timed, thorough: bool) -> tuple[int, str, list[str]]:
        problems = []
        # manifest.json is left out because it may carry timings.
        digest = _tree_digest(self.out, skip="manifest.json")
        manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        n_certs = sum(1 for _ in self.out.glob("certificates/*/*.cert.json"))
        if manifest["n_certificates"] != n_certs:
            problems.append(f"manifest n_certificates {manifest['n_certificates']} "
                            f"!= {n_certs} certificate files")
        if manifest["civex_false_executions"] != 0:
            problems.append(f"civex_false_executions = {manifest['civex_false_executions']}")
        if manifest["n_instances"] != timed.attempted:
            problems.append(f"manifest n_instances {manifest['n_instances']} "
                            f"!= {timed.attempted}")
        return (timed.attempted if problems else 0), digest, problems

    def teardown(self) -> None:
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)
            self.out = None


class GateStream(Workload):
    """One agent in a closed loop: one CIVeX verdict per proposed action."""

    name = "gate_stream"

    def blocks(self) -> int:
        return 1 if self.scale == "smoke" else max(1, round(self.seconds * GATE_BLOCKS_PER_SECOND))

    def size(self) -> str:
        return f"seeds={_seeds(self.seed, self.blocks())}"

    def setup(self, warm_up: bool) -> None:
        self.vcfg = VerifierConfig()
        seeds = _seeds(self.seed, self.blocks())
        self.instances, _ = scm.build_benchmark(_bench_spec(seeds, self.scale))
        ctx = baselines.build_context(self.instances)
        self.provider = baselines.make_provider(CIVEX, ctx, self.vcfg)
        if warm_up:
            warm_seed = WARMUP_SEED_OFFSET + self.seed
            if warm_seed in seeds:
                raise ValueError(f"warm-up seed {warm_seed} is in the timed set")
            spec = BenchmarkSpec(seeds=(warm_seed,), moderate_per_family=2,
                                 adversarial_per_family=2)
            warm, _ = scm.build_benchmark(spec)
            for inst in warm:
                verifier.run_two_stage(inst, self.provider, self.vcfg)

    def timed(self) -> Timed:
        latencies = {}
        results = []
        cal = Calibrator()
        ticks_s = 0.0
        now = time.perf_counter
        start = now()
        for i, inst in enumerate(self.instances):
            if i % TICK_EVERY == 0:
                ticks_s += cal.tick()
            t0 = now()
            result = verifier.run_two_stage(inst, self.provider, self.vcfg)
            latencies[str(inst.id)] = [(t0, now() - t0)]
            results.append(result)
        wall = now() - start - ticks_s
        return Timed(wall, latencies, len(results), cal.factor(), cal,
                     extra={"results": results})

    def check(self, timed: Timed, thorough: bool) -> tuple[int, str, list[str]]:
        chunks = []
        failed = 0
        problems = []
        for inst, result in zip(self.instances, timed.extra["results"]):
            cert = result.terminal.certificate
            cert_json = b""
            if cert is not None:
                cert_json = json.dumps(certificate_to_json_dict(cert), sort_keys=True).encode()
            if cert is not None and thorough:
                data = inst.experimental if len(result.trace) == 2 else inst.observational
                mismatches = verifier.verify_certificate(cert, data.canonical_bytes())
                if mismatches or cert.lcb_alpha < self.vcfg.tau_u:
                    failed += 1
                    problems.append(f"{inst.id}: certificate replay {mismatches}")
            chunks += [str(inst.id).encode(), result.stage1.decision.value.encode(),
                       result.terminal.decision.value.encode(), cert_json]
        return failed, _sha(chunks), problems


class AuditReplay(Workload):
    """The auditor: parse and replay every stored certificate."""

    name = "audit_replay"

    def ops(self) -> int:
        if self.scale == "smoke":
            return len(self.pairs)
        return max(1, round(self.seconds * AUDIT_OPS_PER_SECOND))

    def size(self) -> str:
        return f"seeds={_seeds(self.seed, AUDIT_SEEDS)}"

    def setup(self, warm_up: bool) -> None:
        config = RunConfig(bench=_bench_spec(_seeds(self.seed, AUDIT_SEEDS), self.scale),
                           methods=CERTIFYING_METHODS)
        self.out = self._tmpdir()
        runner.write_run_outputs(runner.run_benchmark(config), self.out)
        certs = sorted(self.out.glob("certificates/*/*.cert.json"))
        self.pairs = [(c, c.with_name(c.name[: -len(".cert.json")] + ".data.txt"))
                      for c in certs]
        if not self.pairs:
            raise RuntimeError("the run wrote no certificates to replay")

    def timed(self) -> Timed:
        # An op is one certificate, keyed by its place in the sorted list.
        latencies: dict[str, list[tuple[float, float]]] = {}
        replays = []
        pairs = self.pairs
        cal = Calibrator()
        ticks_s = 0.0
        now = time.perf_counter
        start = now()
        for i in range(self.ops()):
            if i % TICK_EVERY == 0:
                ticks_s += cal.tick()
            k = i % len(pairs)
            cert_path, data_path = pairs[k]
            t0 = now()
            obj = json.loads(cert_path.read_bytes())
            data = data_path.read_bytes()
            mismatches = verifier.verify_certificate(
                verifier.certificate_from_json_dict(obj), data)
            latencies.setdefault(str(k), []).append((t0, now() - t0))
            replays.append(mismatches)
        wall = now() - start - ticks_s
        return Timed(wall, latencies, len(replays), cal.factor(), cal,
                     extra={"replays": replays})

    def check(self, timed: Timed, thorough: bool) -> tuple[int, str, list[str]]:
        replays = timed.extra["replays"]
        failed = sum(1 for r in replays if r != [])
        problems = [f"{self.pairs[i % len(self.pairs)][0].name}: {r}"
                    for i, r in enumerate(replays) if r != []][:10]
        chunks = []
        for cert_path, data_path in self.pairs:
            chunks += [cert_path.relative_to(self.out).as_posix().encode(),
                       cert_path.read_bytes(), data_path.read_bytes()]
        return failed, _sha(chunks), problems

    def teardown(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (FullRun, GateStream, AuditReplay)}
