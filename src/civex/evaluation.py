"""Scoring, aggregation, and the small-sample statistics used in reports.

Utility is a specified scoring rule over the planted signed effect:

    +|theta| - c_exp          execute a safe action
    -|theta| - c_exp          execute a harmful action
    -w_miss * |theta|         refuse a safe action (missed opportunity)
    +|theta|                  refuse a harmful action (correct refusal)

Aggregation computes seed-level mean utilities first and bootstraps a
percentile interval over those means with a stream that is fixed
independently of the benchmark seeds, so intervals reproduce exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import NUMBER, check_fields, setting
from .estimation import EstimationError, unadjusted_difference
from .scm import InstanceId, ScmInstance
from .verifier import Decision

__all__ = [
    "ScoreWeights",
    "ScoreRecord",
    "MethodSummary",
    "RegimeDiagnostics",
    "score",
    "utility_value",
    "outcome_class",
    "summarize",
    "bootstrap_ci",
    "wilcoxon_exact",
    "rule_of_three",
    "observational_diagnostics",
    "render_markdown_table",
    "BOOTSTRAP_SEED",
    "BOOTSTRAP_RESAMPLES",
]

BOOTSTRAP_SEED = 20240817
BOOTSTRAP_RESAMPLES = 2000

CORRECT_EXEC = "correct_exec"
FALSE_EXEC = "false_exec"
CORRECT_REFUSAL = "correct_refusal"
MISSED_OPPORTUNITY = "missed_opportunity"

_TERMINAL = (Decision.EXECUTE, Decision.REJECT, Decision.ABSTAIN)


@dataclass(frozen=True, slots=True)
class ScoreWeights:
    w_miss: float = setting(0.3, NUMBER, "a finite number >= 0", lambda x: 0 <= x < math.inf)
    c_exp: float = setting(0.05, NUMBER, "a finite number >= 0", lambda x: 0 <= x < math.inf)

    __post_init__ = check_fields


@dataclass(frozen=True, slots=True)
class ScoreRecord:
    instance_id: InstanceId
    method: str
    decision: Decision
    utility: float
    outcome: str
    theta: float
    safe: bool


def outcome_class(decision: Decision, safe: bool) -> str:
    if decision is Decision.EXECUTE:
        return CORRECT_EXEC if safe else FALSE_EXEC
    return MISSED_OPPORTUNITY if safe else CORRECT_REFUSAL


def utility_value(decision: Decision, theta: float, safe: bool, w: ScoreWeights) -> float:
    mag = abs(theta)
    if decision is Decision.EXECUTE:
        return (mag if safe else -mag) - w.c_exp
    if safe:
        return -w.w_miss * mag
    return mag


def score(decision: Decision, inst: ScmInstance, w: ScoreWeights, method: str = "") -> ScoreRecord:
    if decision not in _TERMINAL:
        raise ValueError(f"decision {decision} is not terminal; resolve experiments first")
    safe = inst.spec.safe
    return ScoreRecord(
        instance_id=inst.id,
        method=method,
        decision=decision,
        utility=utility_value(decision, inst.spec.theta, safe, w),
        outcome=outcome_class(decision, safe),
        theta=inst.spec.theta,
        safe=safe,
    )


def bootstrap_ci(values: Sequence[float]) -> tuple[float, float]:
    """95% percentile interval for the mean, with a fixed resampling stream."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    idx = rng.integers(0, vals.size, size=(BOOTSTRAP_RESAMPLES, vals.size))
    means = vals[idx].mean(axis=1)
    lo, hi = np.quantile(means, [0.025, 0.975])
    return float(lo), float(hi)


@dataclass(frozen=True, slots=True)
class RegimeDiagnostics:
    """Observational association statistics recorded per regime."""

    trap_fraction: float
    flip_fraction: float
    mean_observational_bias: float


def observational_diagnostics(instances: Sequence[ScmInstance]) -> RegimeDiagnostics:
    """Trap fraction (harmful with positive association), overall sign-flip
    fraction, and mean observational-causal bias over the given instances;
    NaN each when no instance has a usable observational difference."""
    n = 0
    traps = 0
    flips = 0
    biases = []
    for inst in instances:
        try:
            delta = unadjusted_difference(inst.observational).theta_hat
        except EstimationError:
            continue
        n += 1
        theta = inst.spec.theta
        biases.append(delta - theta)
        if theta < 0 and delta > 0:
            traps += 1
        if np.sign(delta) != np.sign(theta):
            flips += 1
    if n == 0:
        return RegimeDiagnostics(math.nan, math.nan, math.nan)
    return RegimeDiagnostics(
        trap_fraction=traps / n,
        flip_fraction=flips / n,
        mean_observational_bias=float(np.mean(biases)),
    )


@dataclass(frozen=True, slots=True)
class MethodSummary:
    method: str
    regime: str
    n_instances: int
    n_executes: int
    false_exec_count: int
    false_exec_per_instance: float
    false_exec_per_execute: float | None
    correct_exec_rate: float
    correct_refusal_rate: float
    accuracy: float
    mean_utility: float
    utility_ci: tuple[float, float]
    per_seed_means: dict[int, float]
    constrained_status: str


def summarize(
    records: Sequence[ScoreRecord],
    *,
    method: str,
    regime: str,
) -> MethodSummary:
    """Aggregate one method's records for one regime.

    Seed means come first and drive the bootstrap interval; rates are pooled
    over instances.  A method is disqualified from the constrained-utility
    ranking as soon as any seed shows a false execution.
    """
    if not records:
        raise ValueError("no records to aggregate")
    ordered = sorted(records, key=lambda r: (r.instance_id.seed, r.instance_id.family,
                                             r.instance_id.index))
    by_seed: dict[int, list[float]] = {}
    for r in ordered:
        by_seed.setdefault(r.instance_id.seed, []).append(r.utility)
    per_seed = {s: float(np.mean(utilities)) for s, utilities in by_seed.items()}
    seed_means = list(per_seed.values())
    n = len(ordered)
    n_exec = sum(r.decision is Decision.EXECUTE for r in ordered)
    n_false = sum(r.outcome == FALSE_EXEC for r in ordered)
    n_correct_exec = sum(r.outcome == CORRECT_EXEC for r in ordered)
    n_correct_refusal = sum(r.outcome == CORRECT_REFUSAL for r in ordered)
    ci = bootstrap_ci(seed_means) if len(seed_means) > 1 else (seed_means[0], seed_means[0])
    return MethodSummary(
        method=method,
        regime=regime,
        n_instances=n,
        n_executes=n_exec,
        false_exec_count=n_false,
        false_exec_per_instance=n_false / n,
        false_exec_per_execute=(n_false / n_exec) if n_exec else None,
        correct_exec_rate=n_correct_exec / n,
        correct_refusal_rate=n_correct_refusal / n,
        accuracy=(n_correct_exec + n_correct_refusal) / n,
        mean_utility=float(np.mean(seed_means)),
        utility_ci=ci,
        per_seed_means=per_seed,
        constrained_status="disqualified" if n_false else "qualified",
    )


def wilcoxon_exact(diffs: Sequence[float]) -> float:
    """Exact two-sided signed-rank p, counting the sign assignments by rank sum.

    Zero differences are dropped (with a warning) per the usual convention;
    ties in |diff| receive average ranks.
    """
    d = np.asarray(diffs, dtype=np.float64)
    if d.size < 1:
        raise ValueError("need at least one difference")
    nonzero = d[d != 0.0]
    dropped = d.size - nonzero.size
    if dropped:
        warnings.warn(f"dropped {dropped} zero difference(s) before ranking")
    n = nonzero.size
    if n == 0:
        warnings.warn("all differences are zero; returning p = 1.0")
        return 1.0
    # Doubled average ranks of |d|, integers: the sum of the first and last
    # 1-based positions a value's tie group takes in sorted order.
    mags = np.abs(nonzero)
    ordered = np.sort(mags)
    ranks = (np.searchsorted(ordered, mags, "left")
             + np.searchsorted(ordered, mags, "right") + 1).tolist()
    w_obs = sum(r for r, x in zip(ranks, nonzero) if x > 0)
    # counts[w]: the sign assignments whose positive ranks sum to w.
    counts = [1] + [0] * sum(ranks)
    for r in ranks:
        counts = [a + b for a, b in zip(counts, [0] * r + counts)]
    p_ge = sum(counts[w_obs:]) / 2**n
    p_le = sum(counts[:w_obs + 1]) / 2**n
    return min(1.0, 2.0 * min(p_ge, p_le))


def rule_of_three(n: int) -> float:
    """Upper 95% bound on an event probability after n event-free trials."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return min(1.0, 3.0 / n)


def render_markdown_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)
