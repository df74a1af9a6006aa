"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on share their cores with other tenants,
and the speed a process gets drifts by tens of percent over minutes: the
same gate stream on the same inputs, in one process, took from 4.4 s to
6.4 s from one pass to the next.  Medians inside a run cannot remove drift
that slow, so every timing is also divided by the speed of a fixed kernel
measured in the same process, interleaved with the work being timed.  The
kernel mixes what civex spends its time on (small NumPy calls, float
formatting and parsing, SHA-256, JSON and set operations) and calls
nothing in civex, so a change to civex moves the work's time but not the
kernel's.

A calibrated time is the measured time multiplied by
`KERNEL_REFERENCE_S / mean kernel time`: the time the work would take on a
machine where one kernel call takes `KERNEL_REFERENCE_S` (about the
uncontended speed of a 2-core Xeon sandbox).  A whole phase uses the mean
over all its kernel calls; a single op, whose latency feeds a percentile,
uses the mean over the calls taken within `LOCAL_WINDOW_S` of its start;
set-up, which has no ops to tick between, uses calls that a timer
interleaves with it (`SetupTicker`).  Raw times are kept in the result
record beside the calibrated ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np

KERNEL_REFERENCE_S = 0.25e-3
# A single op is calibrated by the kernel calls taken within this many
# seconds of its start, the machine's speed drifting over seconds.
LOCAL_WINDOW_S = 1.0
LOCAL_MIN_CALLS = 20
# Set-up is calibrated by one kernel call every SETUP_TICK_S of wall time,
# and by at least SETUP_MIN_CALLS calls.
SETUP_TICK_S = 0.025
SETUP_MIN_CALLS = 40

_RNG = np.random.default_rng(20260517)
_X = _RNG.normal(size=(400, 4))
_COLS = [_X[:, j].copy() for j in range(4)]
_FLOATS = _X[:40].ravel().tolist()
_BLOB = _X.tobytes()
_DOC = {"nodes": [f"v{i}" for i in range(12)],
        "directed": [[f"v{i}", f"v{i + 1}"] for i in range(11)],
        "theta_hat": 1.2345678901234567, "alpha": 0.05}
_EDGES = {i: frozenset({(i + 1) % 40, (i * 7) % 40}) for i in range(40)}


def _kernel() -> None:
    # Mostly interpreter work with small NumPy calls, as in civex: a kernel
    # dominated by vectorized arithmetic would slow down differently when
    # another tenant shares the core.
    design = np.column_stack([np.ones(400), *_COLS])
    (design.T @ design).diagonal().max()
    text = ",".join(repr(v) for v in _FLOATS)
    [float(v) for v in text.split(",")]
    hashlib.sha256(_BLOB).hexdigest()
    json.loads(json.dumps(_DOC, sort_keys=True))
    seen, frontier = {0}, [0]
    while frontier:
        for nxt in _EDGES[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    sorted((str(i), i) for i in range(60, 0, -1))


class Calibrator:
    """Kernel timings taken between pieces of timed work."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.starts: list[float] = []
        self._sums: list[float] = [0.0]

    def tick(self, calls: int = 1) -> float:
        """Time `calls` kernel calls; return the seconds they took."""
        spent = 0.0
        for _ in range(calls):
            start = time.perf_counter()
            _kernel()
            took = time.perf_counter() - start
            self.samples.append(took)
            self.starts.append(start)
            spent += took
        return spent

    def factor(self) -> float:
        """Multiply a time measured alongside the ticks by this to calibrate it."""
        return KERNEL_REFERENCE_S / statistics.fmean(self.samples)

    def factor_at(self, t: float) -> float:
        """The factor for work that started at `t`, from the kernel calls
        within LOCAL_WINDOW_S of it (all calls if too few are that near)."""
        if len(self._sums) != len(self.samples) + 1:
            self._sums = [0.0, *accumulate(self.samples)]
        lo = bisect_left(self.starts, t - LOCAL_WINDOW_S)
        hi = bisect_right(self.starts, t + LOCAL_WINDOW_S)
        if hi - lo < LOCAL_MIN_CALLS:
            return self.factor()
        return KERNEL_REFERENCE_S * (hi - lo) / (self._sums[hi] - self._sums[lo])


class SetupTicker:
    """Kernel calls interleaved with set-up, which has no ops to tick between.

    A wall-clock timer (SIGALRM, handled in the main thread between
    bytecodes) calls the kernel every SETUP_TICK_S while the `with` block
    runs.  `spent_s` is the kernel's own time, to be taken off the measured
    set-up time before it is multiplied by `calibrator.factor()`.
    """

    def __init__(self) -> None:
        self.calibrator = Calibrator()
        self._previous = None

    def __enter__(self) -> "SetupTicker":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SETUP_TICK_S, SETUP_TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        missing = SETUP_MIN_CALLS - len(self.calibrator.samples)
        if missing > 0:
            self.calibrator.tick(missing)

    def _tick(self, signum, frame) -> None:
        self.calibrator.tick()

    @property
    def spent_s(self) -> float:
        return math.fsum(self.calibrator.samples)
