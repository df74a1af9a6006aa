"""Synthetic tool-call benchmark: counterbalanced workflow families as SCMs.

Each instance draws a structural causal model

    T = Bernoulli(sigm(sum_i gamma_i * u~_i))
    Y = beta0 + theta * T + sum_i beta_i * u~_i + eps,   eps ~ N(0, s^2)

over standardized confounders u~_i, plants a signed effect theta, and emits
a committed graph, an observational frame, and a paired frame with randomly
assigned treatment.  Hidden confounders drive T and Y but are never emitted
as columns; their presence surfaces only as a bidirected treatment-outcome
edge in the committed graph.  A build draws exactly the frames the gate
reads: the observational frame when the committed graph identifies the
effect (rule 3 certifies on it), and the trial frame when it does not and
the action is reversible (rule 4 runs the trial).  Every other frame is a
``DeferredFrame`` drawn on first read from the same stream: the trial frame
of an identified effect, the observational frame of a reversible action
whose effect is unidentified, and both frames of an irreversible one (rule
4 abstains on the graph alone).

Two regimes:

* ``moderate`` - random-signed confounder coefficients, an optional weak
  hidden confounder, and a generation-time guarantee that the unadjusted
  observational difference keeps the sign of theta (analytic omitted-variable
  bias is re-drawn until it clears a margin).
* ``adversarial`` - one strong hidden confounder plus two observed
  confounders whose coefficient products align with it, calibrated so the
  observational association flips sign against theta at the default strength
  while covariate-adjusted estimates stay pinned below the execution gate.

Determinism contract: every instance consumes its own counter-based stream
keyed by a 64-bit hash of (seed, regime, family, index), so generation order
cannot change results.  A stream's whole state (key, counter, buffer and the
cached 32-bit half) is one packed record, and ``_stream`` sets the
thread's one scratch generator to it; each use sets it and draws to
completion.  A build sets it to each instance's fresh state;
``instance_rng`` is a new keyed generator, for a caller that keeps it.  A
build draws each fixed-length run of uniforms with one call; the numbers and
their order are those of one scalar call per value.  The two frames are the
stream's last draws, the paired one last, and one schedule, ``_runs``, makes
a frame's generator calls: ``_frame_data`` computes the frame from its runs,
and ``_pass_over`` runs it out unread.  A build packs the state where the
observational frame starts, and passes over that frame when it draws only
the trial frame; a deferred frame sets the scratch generator to that state,
passes over the observational frame too if it is the trial frame, and draws
the same bits without hashing the coordinates.  Instances of one shape share
their committed graph, which is immutable, so graph-keyed caches hit by
identity; each instance builds its own action frame.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import struct
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import INT, INTS, NUMBER, check_fields, distinct, dump, setting
from .frames import DeferredFrame, Frame
from .graphs import CausalGraph, identify
from .verifier import ActionFrame

__all__ = [
    "MODERATE",
    "ADVERSARIAL",
    "FAMILIES",
    "FAMILY_TOOLS",
    "ConfounderSpec",
    "ScmSpec",
    "InstanceId",
    "ScmInstance",
    "BenchmarkSpec",
    "CounterbalanceReport",
    "instance_rng",
    "sample_instance",
    "generate_frame",
    "build_benchmark",
    "unadjusted_plim_bias",
    "instance_to_json_dict",
    "write_instances_jsonl",
    "instance_sort_key",
]

MODERATE = "moderate"
ADVERSARIAL = "adversarial"
REGIMES = (MODERATE, ADVERSARIAL)

FAMILIES = (
    "db_index_operation",
    "service_restart_operation",
    "migration_operation",
    "cache_operation",
    "log_retention_operation",
    "git_branch_operation",
)

FAMILY_TOOLS = {
    "db_index_operation": "add_index",
    "service_restart_operation": "restart_service",
    "migration_operation": "run_migration",
    "cache_operation": "enable_cache",
    "log_retention_operation": "trim_logs",
    "git_branch_operation": "merge_branch",
}

# Observed-confounder name pools.  The db family always uses exactly its two
# canonical confounders; the others draw 2-4 from a pool of four.
FAMILY_CONFOUNDERS = {
    "db_index_operation": ("query_volume", "write_volume"),
    "service_restart_operation": ("cpu_load", "error_rate", "deploy_frequency", "traffic_level"),
    "migration_operation": ("table_size", "lock_contention", "replication_lag", "write_rate"),
    "cache_operation": ("hit_rate", "object_churn", "memory_pressure", "request_rate"),
    "log_retention_operation": ("log_volume", "disk_usage", "query_frequency", "retention_days"),
    "git_branch_operation": ("commit_rate", "conflict_density", "review_latency", "branch_age"),
}

# Signed-effect magnitude grids, calibrated per regime.  Moderate means match
# the target per-label averages (safe 2.5, harmful 3.1).  Adversarial harmful
# magnitudes sit inside the analytic window where the unadjusted association
# flips sign but the covariate-adjusted bound stays below zero.
THETA_RANGES = {
    MODERATE: {"safe": (1.7, 3.3), "harmful": (2.3, 3.9)},
    ADVERSARIAL: {"safe": (1.8, 2.8), "harmful": (4.0, 5.3)},
}

P_HARMFUL = {MODERATE: 0.5, ADVERSARIAL: 0.45}

MODERATE_OBS_COEF = (0.3, 1.0)
MODERATE_HIDDEN_COEF = (0.3, 0.6)
# Unadjusted plim bias must stay this far inside |theta| on moderate draws.
MODERATE_SIGN_MARGIN = 0.6
_MAX_COEF_REDRAWS = 200

# Adversarial observed confounders: exactly two, coefficients tied to the
# hidden strength so the alignment (and hence the flip) scales with it.
ADVERSARIAL_OBS_COUNT = 2
ADVERSARIAL_OBS_SCALE = 1.0

NOISE_SD_MODERATE = (0.5, 1.5)
NOISE_SD_ADVERSARIAL = 1.0
INTERCEPT_RANGE = (-1.0, 1.0)
CONFOUNDER_MEAN_RANGE = (-1.0, 1.0)
CONFOUNDER_SD_RANGE = (0.5, 2.0)

TREATMENT_NODE = "T"
OUTCOME_NODE = "Y"

# Distinct committed graphs a process keeps; a benchmark build has a few
# dozen shapes.
_SHAPE_CACHE_SIZE = 1024


@dataclass(frozen=True, slots=True)
class ConfounderSpec:
    name: str
    mean: float
    sd: float
    treat_coef: float
    outcome_coef: float
    hidden: bool


@dataclass(frozen=True, slots=True)
class ScmSpec:
    family: str
    theta: float
    intercept: float
    confounders: tuple[ConfounderSpec, ...]
    noise_sd: float

    def __post_init__(self) -> None:
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        for c in self.confounders:
            if c.sd <= 0:
                raise ValueError(f"confounder '{c.name}' must have sd > 0")

    @property
    def safe(self) -> bool:
        return self.theta > 0

    @property
    def observed(self) -> tuple[ConfounderSpec, ...]:
        return tuple(c for c in self.confounders if not c.hidden)

    @property
    def hidden_confounders(self) -> tuple[ConfounderSpec, ...]:
        return tuple(c for c in self.confounders if c.hidden)


@dataclass(frozen=True, slots=True)
class InstanceId:
    seed: int
    regime: str
    family: str
    index: int

    def __str__(self) -> str:
        return f"s{self.seed}-{self.regime}-{self.family}-{self.index:04d}"


@dataclass(frozen=True, slots=True)
class ScmInstance:
    """One benchmark instance: the action, its committed graph, the SCM and
    its data.

    ``observational`` is drawn with the instance only when the committed
    graph identifies the effect, the one case in which rule 3 reads it.
    ``experimental``, the paired randomized frame, is drawn with the instance
    only when the action is reversible and the graph does not identify the
    effect, the one case in which the gate runs the trial.  Every other frame
    is a ``DeferredFrame`` that resumes the instance's stream on its first
    read and draws the bits an eager draw would.  Copies such as
    ``dataclasses.replace`` share the frame objects, and with them each draw.
    """

    id: InstanceId
    frame: ActionFrame
    graph: CausalGraph
    spec: ScmSpec
    observational: Frame
    experimental: Frame

    @property
    def safe_experiment_available(self) -> bool:
        """A trial may be run on a reversible action: the frame's own flag."""
        return self.frame.reversible


@dataclass(frozen=True, slots=True)
class BenchmarkSpec:
    seeds: tuple[int, ...] = setting((42, 43, 44, 45, 46, 47, 48), INTS,
                                     "a non-empty list of distinct integers", distinct)
    moderate_per_family: int = setting(25, INT, "an integer > 0", lambda n: n > 0)
    adversarial_per_family: int = setting(20, INT, "an integer > 0", lambda n: n > 0)
    n_rows: int = setting(400, INT, "an integer >= 2", lambda n: n >= 2)
    adversarial_strength: float = setting(2.5, NUMBER, "a finite number > 0",
                                          lambda x: 0 < x < math.inf)
    latent_fraction_moderate: float = setting(0.40, NUMBER, "a number in [0, 1]",
                                              lambda x: 0 <= x <= 1)
    reversible_fraction: float = setting(0.75, NUMBER, "a number in [0, 1]",
                                         lambda x: 0 <= x <= 1)
    action_cost: float = setting(0.05, NUMBER, "a finite number >= 0",
                                 lambda x: 0 <= x < math.inf)

    __post_init__ = check_fields

    def per_family(self, regime: str) -> int:
        """The instances of each family that ``regime`` has at each seed."""
        return self.moderate_per_family if regime == MODERATE else self.adversarial_per_family

    def n_instances(self, regimes: tuple[str, ...]) -> int:
        """How many instances ``build_benchmark`` generates for ``regimes``."""
        return len(self.seeds) * len(FAMILIES) * sum(map(self.per_family, regimes))


# The ``BenchmarkSpec`` keys that only one regime's instances read.
REGIME_KEYS = {MODERATE: ("moderate_per_family", "latent_fraction_moderate"),
               ADVERSARIAL: ("adversarial_strength", "adversarial_per_family")}


def _instance_key(seed: int, regime: str, family: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}|{regime}|{family}|{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def instance_rng(seed: int, regime: str, family: str, index: int) -> np.random.Generator:
    """A new counter-based stream keyed by a 64-bit hash of the instance coordinates."""
    return np.random.Generator(np.random.Philox(key=_instance_key(seed, regime, family, index)))


# A Philox stream's whole state in 104 bytes: the key, the counter, the
# buffer, then the buffer position and the cached 32-bit half's flag and
# value.  One bytes object is less than half the size of a tuple of them,
# and a build keeps one per deferred instance.
_STATE = struct.Struct("<2Q4Q4Qqqq")


def _fresh_state(seed: int, regime: str, family: str, index: int) -> bytes:
    """The packed state that ``Philox(key=k)`` starts in for the coordinates'
    key ``k``: counter zero and the buffer used up."""
    return _STATE.pack(_instance_key(seed, regime, family, index), 0, *[0] * 8, 4, 0, 0)


def _state_of(rng: np.random.Generator) -> bytes:
    """The packed state of ``rng``'s Philox stream."""
    state = rng.bit_generator.state
    return _STATE.pack(*state["state"]["key"].tolist(), *state["state"]["counter"].tolist(),
                       *state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
                       state["uinteger"])


class _Scratch(threading.local):
    """Each thread's one generator for the streams that no caller keeps, made
    on the thread's first use; each use sets it and draws to completion."""

    def __init__(self) -> None:
        self.rng = np.random.Generator(np.random.Philox(0))  # its state is set at each use


_SCRATCH = _Scratch()


def _stream(state: bytes) -> np.random.Generator:
    """The thread's scratch generator, set to the packed Philox ``state``."""
    rng = _SCRATCH.rng
    v = _STATE.unpack(state)
    rng.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"key": v[0:2], "counter": v[2:6]},
                               "buffer": v[6:10], "buffer_pos": v[10], "has_uint32": v[11],
                               "uinteger": v[12]}
    return rng


def _sigm(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


# 80-point Gauss-Hermite rule for E[f(Z)] with Z ~ N(0, 1).
_HERM_X, _HERM_W = np.polynomial.hermite.hermgauss(80)
_HERM_Z = _HERM_X * math.sqrt(2.0)
_HERM_P = _HERM_W / math.sqrt(math.pi)


def _expected_sigmoid_slope(v: float) -> float:
    """E[sigm'(v Z)] for standard normal Z."""
    s = _sigm(v * _HERM_Z)
    return float(np.sum(_HERM_P * s * (1.0 - s)))


def unadjusted_plim_bias(spec: ScmSpec) -> float:
    """Large-sample bias of the unadjusted arm-mean difference.

    With standardized confounders, cov(u~_i, T) = gamma_i * E[sigm'(vZ)]
    where v^2 = sum gamma_i^2 (Stein's identity), and the treatment is
    marginally balanced, so the bias is sum_i beta_i gamma_i E[sigm'(vZ)]/0.25.
    """
    return _plim_bias([c.treat_coef for c in spec.confounders],
                      [c.outcome_coef for c in spec.confounders])


def _plim_bias(treat_coefs: Sequence[float], outcome_coefs: Sequence[float]) -> float:
    gammas = np.array(treat_coefs)
    betas = np.array(outcome_coefs)
    if gammas.size == 0:
        return 0.0
    v = float(np.sqrt(np.sum(gammas**2)))
    slope = _expected_sigmoid_slope(v)
    return float(np.sum(betas * gammas) * slope / 0.25)


def generate_frame(
    spec: ScmSpec,
    n_rows: int,
    randomize_treatment: bool,
    rng: np.random.Generator,
) -> Frame:
    """Sample one data frame from the SCM.

    Hidden confounders contribute to the treatment and outcome equations but
    are not emitted as columns.  With ``randomize_treatment`` the treatment is
    a fair coin instead of the confounded logistic draw.
    """
    return Frame._adopt(_frame_columns(spec), _frame_data(spec, n_rows, randomize_treatment, rng))


def _frame_columns(spec: ScmSpec) -> tuple[str, ...]:
    """Columns T, Y, then the observed confounders."""
    return (TREATMENT_NODE, OUTCOME_NODE, *(c.name for c in spec.observed))


def _runs(spec: ScmSpec, n_rows: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """A frame's generator calls, in stream order: a normal run per confounder,
    a uniform run, and a noise run (zeros, drawing nothing, if its sd is 0)."""
    for c in spec.confounders:
        yield rng.normal(c.mean, c.sd, size=n_rows)
    yield rng.random(n_rows)
    yield rng.normal(0.0, spec.noise_sd, size=n_rows) if spec.noise_sd > 0 else np.zeros(n_rows)


# A coefficient near the float maximum overflows the logit and the outcome
# sums (and inf - inf gives NaN); the frame then refuses the data.
@np.errstate(over="ignore", invalid="ignore")
def _frame_data(
    spec: ScmSpec,
    n_rows: int,
    randomize_treatment: bool,
    rng: np.random.Generator,
) -> np.ndarray:
    """The array of ``generate_frame``, in ``_frame_columns`` order, from ``_runs``."""
    if n_rows < 2:
        raise ValueError("n_rows must be >= 2")
    runs = _runs(spec, n_rows, rng)
    # Columns T, Y, then the observed confounders' raw draws.
    data = np.empty((n_rows, 2 + len(spec.observed)))
    column = 2
    standardized = []
    for c in spec.confounders:
        u = next(runs)
        if not c.hidden:
            data[:, column] = u
            column += 1
        standardized.append((u - c.mean) / c.sd)
    t = data[:, 0]
    if randomize_treatment:
        t[:] = next(runs) < 0.5
    else:
        logit = np.zeros(n_rows)
        for c, z in zip(spec.confounders, standardized):
            logit += c.treat_coef * z
        t[:] = next(runs) < _sigm(logit)
    y = spec.intercept + spec.theta * t + next(runs)
    for c, z in zip(spec.confounders, standardized):
        y += c.outcome_coef * z
    data[:, 1] = y
    return data


def _pass_over(spec: ScmSpec, n_rows: int, rng: np.random.Generator) -> None:
    """Move ``rng`` past one ``_frame_data`` call's draws by running ``_runs``
    out unread; either value of ``randomize_treatment`` draws the same runs."""
    for _ in _runs(spec, n_rows, rng):
        pass


def _trial_data(spec: ScmSpec, n_rows: int, rng: np.random.Generator) -> np.ndarray:
    """The trial frame's array, passing over the observational frame at ``rng``."""
    _pass_over(spec, n_rows, rng)
    return _frame_data(spec, n_rows, True, rng)


class _ResumedDraw(NamedTuple):
    """A deferred frame's draw from the packed stream ``state`` where the
    instance's observational frame starts: that frame, or, if ``trial``, the
    paired frame, through ``_trial_data``: the build's own schedule, ``_runs``."""

    state: bytes
    spec: ScmSpec
    n_rows: int
    trial: bool

    def __call__(self) -> np.ndarray:
        rng = _stream(self.state)
        return (_trial_data(self.spec, self.n_rows, rng) if self.trial
                else _frame_data(self.spec, self.n_rows, False, rng))


@functools.lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _committed_graph(observed: tuple[str, ...], latent: bool) -> CausalGraph:
    """The committed graph of every spec with these observed confounders and,
    if ``latent``, a hidden one.

    One object per shape, so graph-keyed caches downstream hit by identity.
    """
    directed = [(TREATMENT_NODE, OUTCOME_NODE)]
    for name in observed:
        directed.append((name, TREATMENT_NODE))
        directed.append((name, OUTCOME_NODE))
    bidirected = [(TREATMENT_NODE, OUTCOME_NODE)] if latent else []
    return CausalGraph.create([TREATMENT_NODE, OUTCOME_NODE, *observed], directed, bidirected,
                              TREATMENT_NODE, OUTCOME_NODE)


def _uniform(lo: float, hi: float, u: float) -> float:
    """What ``rng.uniform(lo, hi)`` returns when it draws ``u`` from ``rng.random()``.

    A run of draws whose length is known beforehand is taken with one
    ``rng.random(n)`` call and mapped through this, giving the same doubles
    in the same order as one ``rng.uniform`` call per value.  (An
    array-argument ``rng.uniform`` draws them too, but its argument checks
    cost more than the scalar calls it replaces.)
    """
    return lo + (hi - lo) * u


def _signed(lo: float, hi: float, u_sign: float, u: float) -> float:
    """A magnitude in [lo, hi) with a fair random sign, from two draws."""
    return (1.0 if u_sign < 0.5 else -1.0) * _uniform(lo, hi, u)


def _draw_moderate_spec(
    family: str,
    theta: float,
    intercept: float,
    rng: np.random.Generator,
    latent_fraction: float,
) -> ScmSpec:
    pool = FAMILY_CONFOUNDERS[family]
    if family == "db_index_operation":
        observed = pool
    else:
        observed = pool[:int(rng.integers(2, 5))]
    # The latent coin, the noise sd, then each observed confounder's mean and sd.
    coin, u_noise, *u = rng.random(2 + 2 * len(observed)).tolist()
    noise_sd = _uniform(*NOISE_SD_MODERATE, u_noise)
    names, hidden = list(observed), [False] * len(observed)
    if coin < latent_fraction:
        names.append(f"latent_{family}_driver")
        hidden.append(True)
        u += rng.random(2).tolist()  # the latent's mean and sd
    means = [_uniform(*CONFOUNDER_MEAN_RANGE, x) for x in u[0::2]]
    sds = [_uniform(*CONFOUNDER_SD_RANGE, x) for x in u[1::2]]
    ranges = [MODERATE_HIDDEN_COEF if h else MODERATE_OBS_COEF for h in hidden]

    margin = MODERATE_SIGN_MARGIN
    for _ in range(_MAX_COEF_REDRAWS):
        # Per confounder: treatment sign and magnitude, then outcome sign and magnitude.
        u = rng.random(4 * len(names)).tolist()
        treat = [_signed(lo, hi, sign, x) for (lo, hi), sign, x in zip(ranges, u[0::4], u[1::4])]
        outcome = [_signed(lo, hi, sign, x) for (lo, hi), sign, x in zip(ranges, u[2::4], u[3::4])]
        if abs(_plim_bias(treat, outcome)) <= abs(theta) - margin:
            return ScmSpec(
                family=family, theta=theta, intercept=intercept,
                confounders=tuple(
                    ConfounderSpec(name=name, mean=mean, sd=sd, treat_coef=gamma,
                                   outcome_coef=beta, hidden=h)
                    for name, mean, sd, gamma, beta, h in zip(names, means, sds, treat,
                                                              outcome, hidden)
                ),
                noise_sd=noise_sd,
            )
    raise RuntimeError(
        "could not draw moderate coefficients inside the sign margin; "
        "the coefficient ranges no longer fit the magnitude grid"
    )


def _draw_adversarial_spec(
    family: str,
    theta: float,
    intercept: float,
    strength: float,
    rng: np.random.Generator,
) -> ScmSpec:
    harmful = theta < 0
    names = FAMILY_CONFOUNDERS[family][:ADVERSARIAL_OBS_COUNT]
    hidden_name = f"latent_{family}_driver"
    tau = ADVERSARIAL_OBS_SCALE * strength
    align = 1.0 if harmful else -1.0
    # Each observed confounder's mean and sd, then the latent's.
    u = rng.random(2 * (len(names) + 1)).tolist()
    shells = [(_uniform(*CONFOUNDER_MEAN_RANGE, m), _uniform(*CONFOUNDER_SD_RANGE, s))
              for m, s in zip(u[0::2], u[1::2])]
    confounders = [
        ConfounderSpec(name=name, mean=mean, sd=sd,
                       treat_coef=tau, outcome_coef=align * tau, hidden=False)
        for name, (mean, sd) in zip(names, shells)
    ]
    mean, sd = shells[-1]
    confounders.append(
        ConfounderSpec(name=hidden_name, mean=mean, sd=sd,
                       treat_coef=strength, outcome_coef=align * strength, hidden=True)
    )
    return ScmSpec(family=family, theta=theta, intercept=intercept,
                   confounders=tuple(confounders),
                   noise_sd=NOISE_SD_ADVERSARIAL)


def _draw_effect(regime: str, rng: np.random.Generator) -> tuple[float, float]:
    """Draw the planted effect theta (signed by a harmful coin) and the intercept."""
    coin, u_theta, u_intercept = rng.random(3).tolist()
    harmful = coin < P_HARMFUL[regime]
    lo, hi = THETA_RANGES[regime]["harmful" if harmful else "safe"]
    theta = _uniform(lo, hi, u_theta) * (-1.0 if harmful else 1.0)
    return theta, _uniform(*INTERCEPT_RANGE, u_intercept)


def sample_instance(
    family: str,
    regime: str,
    idx: int,
    *,
    seed: int,
    bspec: BenchmarkSpec | None = None,
) -> ScmInstance:
    """Draw one benchmark instance from its keyed stream."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family '{family}'")
    if regime not in REGIMES:
        raise ValueError(f"unknown regime '{regime}'")
    return _sample(InstanceId(seed=seed, regime=regime, family=family, index=idx),
                   bspec or BenchmarkSpec(), _stream(_fresh_state(seed, regime, family, idx)))


def _sample(inst_id: InstanceId, bspec: BenchmarkSpec, rng: np.random.Generator) -> ScmInstance:
    family, regime = inst_id.family, inst_id.regime
    theta, intercept = _draw_effect(regime, rng)
    if regime == MODERATE:
        spec = _draw_moderate_spec(family, theta, intercept, rng,
                                   bspec.latent_fraction_moderate)
    else:
        spec = _draw_adversarial_spec(family, theta, intercept,
                                      bspec.adversarial_strength, rng)

    reversible = bool(rng.random() < bspec.reversible_fraction)
    graph = _committed_graph(tuple(c.name for c in spec.observed), bool(spec.hidden_confounders))
    columns, n_rows = _frame_columns(spec), bspec.n_rows

    # Draw what the gate reads: the observational frame when the committed
    # graph identifies the effect (rule 3 certifies on it), the trial frame
    # when it does not and the action is reversible (rule 4 runs the trial),
    # and neither when rule 4 abstains on the graph alone.  Every other frame
    # resumes the stream where the observational frame starts.
    state = _state_of(rng)

    def deferred(trial: bool) -> DeferredFrame:
        return DeferredFrame(columns, _ResumedDraw(state, spec, n_rows, trial))

    identified = identify(graph).identified
    if identified:
        observational = Frame._adopt(columns, _frame_data(spec, n_rows, False, rng))
        experimental = deferred(True)
    elif reversible:
        observational = deferred(False)
        experimental = Frame._adopt(columns, _trial_data(spec, n_rows, rng))
    else:
        observational, experimental = deferred(False), deferred(True)
    return ScmInstance(
        id=inst_id,
        frame=ActionFrame(tool=FAMILY_TOOLS[family], target_variable=TREATMENT_NODE,
                          target_value=1.0, utility_variable=OUTCOME_NODE,
                          cost=bspec.action_cost, reversible=reversible),
        graph=graph,
        spec=spec,
        observational=observational,
        experimental=experimental,
    )


@dataclass(frozen=True, slots=True)
class CounterbalanceReport:
    """Realized harmful fractions, aggregated and per seed."""

    per_family: dict[tuple[str, str], float]
    per_family_per_seed: dict[tuple[str, str, int], float]
    per_regime: dict[str, float]


def _counterbalance(instances: Sequence[ScmInstance]) -> CounterbalanceReport:
    counts: dict[tuple[str, str], list[int]] = {}
    seed_counts: dict[tuple[str, str, int], list[int]] = {}
    regime_counts: dict[str, list[int]] = {}
    for inst in instances:
        harmful = 0 if inst.spec.safe else 1
        counts.setdefault((inst.id.regime, inst.id.family), []).append(harmful)
        seed_counts.setdefault((inst.id.regime, inst.id.family, inst.id.seed), []).append(harmful)
        regime_counts.setdefault(inst.id.regime, []).append(harmful)
    return CounterbalanceReport(
        per_family={k: float(np.mean(v)) for k, v in counts.items()},
        per_family_per_seed={k: float(np.mean(v)) for k, v in seed_counts.items()},
        per_regime={k: float(np.mean(v)) for k, v in regime_counts.items()},
    )


def instance_sort_key(inst_id: InstanceId) -> tuple:
    return (
        inst_id.seed,
        REGIMES.index(inst_id.regime),
        FAMILIES.index(inst_id.family),
        inst_id.index,
    )


# The smallest build that ends in a full collection: a smaller one leaves
# too few objects (about 10 an instance) for a full pass to come due on them.
FULL_COLLECTION_MIN_INSTANCES = 100


@contextmanager
def collection_deferred(n_instances: int) -> Iterator[None]:
    """Pause automatic garbage collection for a bulk build of ``n_instances``;
    collect once after, unless it is below ``FULL_COLLECTION_MIN_INSTANCES``.

    Generation and evaluation make tens of thousands of acyclic objects that
    live as long as the run (about 10 per generated instance).  With the
    collector on, its full passes over them (about 20 ms per 120,000
    tracked objects) fall inside whichever later call first allocates past
    a threshold, such as one verdict of an agent's stream.  Collecting once
    at the end moves them all to the oldest generation.  Inside another
    deferral, or when the caller has disabled the collector, this does
    nothing.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        if n_instances >= FULL_COLLECTION_MIN_INSTANCES:
            gc.collect()


def build_benchmark(
    bspec: BenchmarkSpec,
    *,
    regimes: tuple[str, ...] = REGIMES,
) -> tuple[list[ScmInstance], CounterbalanceReport]:
    """Generate the full instance set plus its counterbalance report.

    Instances are keyed streams, so the generation order does not matter; the
    output is sorted by (seed, regime, family, index).
    """
    with collection_deferred(bspec.n_instances(regimes)):
        instances = [_sample(InstanceId(seed, regime, family, idx), bspec,
                             _stream(_fresh_state(seed, regime, family, idx)))
                     for seed in bspec.seeds for regime in regimes for family in FAMILIES
                     for idx in range(bspec.per_family(regime))]
        instances.sort(key=lambda inst: instance_sort_key(inst.id))
        return instances, _counterbalance(instances)


def instance_to_json_dict(inst: ScmInstance) -> dict:
    """The instance file's record: the id's and spec's own fields, the
    frame's and graph's documents, plus the spec's ``safe`` label."""
    return {
        "id": asdict(inst.id),
        "frame": dump(inst.frame),
        "graph": dump(inst.graph),
        "spec": {**asdict(inst.spec), "safe": inst.spec.safe},
        "observational": inst.observational.to_json_obj(),
        "experimental": inst.experimental.to_json_obj(),
        "safe_experiment_available": inst.safe_experiment_available,
    }


def write_instances_jsonl(path, instances: Iterable[ScmInstance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_json_dict(inst), sort_keys=True))
            fh.write("\n")
