"""Comparison verdict providers, plus the recorded results of replay shards.

Every provider consumes the same redacted view (action frame, committed
graph set, observational frame).  Only the oracle is handed the planted
effect, through a context table keyed by instance id; nothing else can reach
ground truth by construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .estimation import EstimationError, adjusted_effect, unadjusted_difference
from .frames import Frame, FrameError
from .scm import FAMILIES, REGIMES, InstanceId, ScmInstance
from .verifier import Decision, InstanceView, TwoStageResult, Verdict, VerifierConfig, triage

__all__ = [
    "ORACLE_SCM",
    "CIVEX",
    "CIVEX_CERT_ONLY",
    "CAUSAL_NO_EXPERIMENT",
    "CONTEXT_ONLY_NO_CAUSAL",
    "OBSERVATIONAL_ASSOCIATION",
    "ALWAYS_ABSTAIN",
    "POLICY_GATE",
    "SCHEMA_GATE",
    "SEMANTIC_ONTOLOGY_GATE",
    "FAMILY_MAJORITY_CLASSIFIER",
    "NAME_ONLY_CLASSIFIER",
    "ALL_METHODS",
    "ProviderContext",
    "build_context",
    "make_provider",
    "is_replay",
    "replay_tag",
    "ReplayError",
    "load_replay_shard",
    "replayed_result",
]

ORACLE_SCM = "OracleSCM"
CIVEX = "CIVeX"
CIVEX_CERT_ONLY = "CIVeXCertOnly"
CAUSAL_NO_EXPERIMENT = "CausalNoExperiment"
CONTEXT_ONLY_NO_CAUSAL = "ContextOnlyNoCausal"
OBSERVATIONAL_ASSOCIATION = "ObservationalAssociation"
ALWAYS_ABSTAIN = "AlwaysAbstain"
POLICY_GATE = "PolicyGate"
SCHEMA_GATE = "SchemaGate"
SEMANTIC_ONTOLOGY_GATE = "SemanticOntologyGate"
FAMILY_MAJORITY_CLASSIFIER = "FamilyMajorityClassifier"
NAME_ONLY_CLASSIFIER = "NameOnlyClassifier"

# Action names treated as benign by the name-only classifier.
NAME_ONLY_EXECUTE_TOOLS = frozenset({"enable_cache", "trim_logs"})

_REPLAY_PREFIX = "Replay("


def is_replay(method: str) -> bool:
    return method.startswith(_REPLAY_PREFIX) and method.endswith(")")


def replay_tag(method: str) -> str:
    if not is_replay(method):
        raise ValueError(f"'{method}' is not a replay method id")
    return method[len(_REPLAY_PREFIX):-1]


@dataclass(frozen=True, slots=True)
class ProviderContext:
    """Side tables a provider may need beyond the redacted view."""

    theta_by_id: Mapping[InstanceId, float] = field(default_factory=dict)
    # Each (seed, regime, family) pool's frame of instance-level arm means.
    pooled_association: Mapping[tuple[int, str, str], Frame] = field(default_factory=dict)


def _pooled_association(instances: Sequence[ScmInstance]) -> dict[tuple[int, str, str], Frame]:
    """Family-pooled arm means per seed: one (T, Y) frame of the treated and
    control means of each instance in the pool that has both arms."""
    groups: dict[tuple[int, str, str], list[tuple[float, float]]] = {}
    for inst in instances:
        t = inst.observational.column("T")
        y = inst.observational.column("Y")
        treated, control = t == 1.0, t == 0.0
        if not treated.any() or not control.any():
            continue
        key = (inst.id.seed, inst.id.regime, inst.id.family)
        groups.setdefault(key, []).append(
            (float(y[treated].mean()), float(y[control].mean()))
        )
    return {key: Frame(columns=("T", "Y"), data=np.array(
                [(1.0, m1) for m1, _ in pairs] + [(0.0, m0) for _, m0 in pairs]))
            for key, pairs in groups.items()}


def build_context(instances: Sequence[ScmInstance]) -> ProviderContext:
    return ProviderContext(
        theta_by_id={inst.id: inst.spec.theta for inst in instances},
        pooled_association=_pooled_association(instances),
    )


# A provider's verdicts whose every field is fixed are made once, here or in
# its factory, and shared by every call that returns them.
_ORACLE_EXECUTE = Verdict(Decision.EXECUTE, rationale="planted effect is positive")
_ORACLE_REJECT = Verdict(Decision.REJECT, refusal_reason="planted effect is not positive")
_ADJUSTED_EXECUTE = Verdict(Decision.EXECUTE,
                            rationale="covariate-adjusted bound clears the threshold")
_ADJUSTED_REJECT = Verdict(Decision.REJECT,
                           refusal_reason="covariate-adjusted bound below the threshold")
_NO_POOLED_ASSOCIATION = Verdict(Decision.ABSTAIN,
                                 refusal_reason="no pooled association available")
_ABSTAIN_ALWAYS = Verdict(Decision.ABSTAIN,
                          refusal_reason="refuses every state-changing action")
_POLICY_EXECUTE = Verdict(Decision.EXECUTE, rationale="observed association is positive")
_POLICY_REJECT = Verdict(Decision.REJECT, refusal_reason="observed association is not positive")


def _oracle(ctx: ProviderContext) -> Callable[[InstanceView], Verdict]:
    def provider(view: InstanceView) -> Verdict:
        return _ORACLE_EXECUTE if ctx.theta_by_id[view.id] > 0 else _ORACLE_REJECT

    return provider


def _civex(cfg: VerifierConfig) -> Callable[[InstanceView], Verdict]:
    def provider(view: InstanceView) -> Verdict:
        return triage(view.frame, view.graphs, view.data, cfg)

    return provider


def _without_experiments(cfg: VerifierConfig, refusal: str) -> Callable[[InstanceView], Verdict]:
    """CIVeX with experimentation disabled: rule 4's EXPERIMENT becomes ABSTAIN."""
    abstain = Verdict(Decision.ABSTAIN, rule_fired=4, refusal_reason=refusal)

    def provider(view: InstanceView) -> Verdict:
        v = triage(view.frame, view.graphs, view.data, cfg)
        return abstain if v.decision is Decision.EXPERIMENT else v

    return provider


def _context_only(cfg: VerifierConfig) -> Callable[[InstanceView], Verdict]:
    """Adjust on every observed covariate column, with no identification
    reasoning; the latent edge is simply ignored."""

    def provider(view: InstanceView) -> Verdict:
        t_col = view.frame.target_variable
        y_col = view.frame.utility_variable
        covariates = [c for c in view.data.columns if c not in (t_col, y_col)]
        try:
            est = adjusted_effect(view.data, covariates, cfg.alpha,
                                  treatment_col=t_col, outcome_col=y_col)
        except (EstimationError, FrameError) as exc:
            return Verdict(Decision.REJECT, refusal_reason=f"estimation failure: {exc}")
        return _ADJUSTED_EXECUTE if est.lcb >= cfg.tau_u else _ADJUSTED_REJECT

    return provider


def _observational_association(ctx: ProviderContext,
                                cfg: VerifierConfig) -> Callable[[InstanceView], Verdict]:
    """One association estimate per pool, at ``cfg.alpha``, shared by the
    pool's instances; its bound is compared with ``cfg.tau_u``."""
    estimates = {}
    for key, frame in ctx.pooled_association.items():
        try:
            estimates[key] = unadjusted_difference(frame, cfg.alpha)
        except EstimationError:
            continue
    execute = Verdict(Decision.EXECUTE,
                      rationale=f"positive association with a bound at or above "
                                f"the utility threshold {cfg.tau_u:.6g}")
    abstain = Verdict(Decision.ABSTAIN,
                      refusal_reason=f"association is not positive or its bound is "
                                     f"below the utility threshold {cfg.tau_u:.6g}")

    def provider(view: InstanceView) -> Verdict:
        est = estimates.get((view.id.seed, view.id.regime, view.id.family))
        if est is None:
            return _NO_POOLED_ASSOCIATION
        return execute if est.theta_hat > 0 and est.lcb >= cfg.tau_u else abstain

    return provider


def _always_abstain(view: InstanceView) -> Verdict:
    return _ABSTAIN_ALWAYS


def _policy_gate(view: InstanceView) -> Verdict:
    try:
        est = unadjusted_difference(view.data,
                                    treatment_col=view.frame.target_variable,
                                    outcome_col=view.frame.utility_variable)
    except (EstimationError, FrameError) as exc:
        return Verdict(Decision.REJECT, refusal_reason=f"estimation failure: {exc}")
    return _POLICY_EXECUTE if est.theta_hat > 0 else _POLICY_REJECT


def _forbidden_list_gate(rationale: str, cfg: VerifierConfig) -> Callable[[InstanceView], Verdict]:
    allow = Verdict(Decision.EXECUTE, rationale=rationale)

    def provider(view: InstanceView) -> Verdict:
        if view.frame.tool in cfg.forbidden_tools:
            return Verdict(Decision.REJECT,
                           refusal_reason=f"tool '{view.frame.tool}' is on the forbidden list")
        return allow

    return provider


def _name_only(view: InstanceView) -> Verdict:
    if view.frame.tool in NAME_ONLY_EXECUTE_TOOLS:
        return Verdict(Decision.EXECUTE,
                       rationale=f"action name '{view.frame.tool}' is on the benign list")
    return Verdict(Decision.ABSTAIN,
                   refusal_reason=f"action name '{view.frame.tool}' is not on the benign list")


ProviderFactory = Callable[[ProviderContext, VerifierConfig], Callable[[InstanceView], Verdict]]

# Each method id and the factory of its provider; the order is the methods'
# order in a default run.  The forbidden-list gates execute every tool not on
# the forbidden list.
_PROVIDERS: dict[str, ProviderFactory] = {
    ORACLE_SCM: lambda ctx, cfg: _oracle(ctx),
    CIVEX: lambda ctx, cfg: _civex(cfg),
    CIVEX_CERT_ONLY: lambda ctx, cfg: _without_experiments(
        cfg, "effect not identifiable; experimentation disabled (certificate-only mode)"),
    # No tool gate: this method ignores the forbidden-tool list.
    CAUSAL_NO_EXPERIMENT: lambda ctx, cfg: _without_experiments(
        replace(cfg, forbidden_tools=frozenset()),
        "effect not identifiable; this method never experiments"),
    CONTEXT_ONLY_NO_CAUSAL: lambda ctx, cfg: _context_only(cfg),
    OBSERVATIONAL_ASSOCIATION: _observational_association,
    ALWAYS_ABSTAIN: lambda ctx, cfg: _always_abstain,
    POLICY_GATE: lambda ctx, cfg: _policy_gate,
    SCHEMA_GATE: lambda ctx, cfg: _forbidden_list_gate("tool schema validated", cfg),
    SEMANTIC_ONTOLOGY_GATE: lambda ctx, cfg: _forbidden_list_gate(
        "target and utility variables are present in the tool ontology", cfg),
    FAMILY_MAJORITY_CLASSIFIER: lambda ctx, cfg: _forbidden_list_gate(
        "counterbalanced families have no usable majority label; defaults to allow", cfg),
    NAME_ONLY_CLASSIFIER: lambda ctx, cfg: _name_only,
}

ALL_METHODS = tuple(_PROVIDERS)


def make_provider(
    method: str,
    ctx: ProviderContext,
    cfg: VerifierConfig,
) -> Callable[[InstanceView], Verdict]:
    factory = _PROVIDERS.get(method)
    if factory is None:
        raise ValueError(f"unknown method '{method}'")
    return factory(ctx, cfg)


# A recorded terminal verdict; EXPERIMENT is only ever a stage-1 answer.
_TERMINAL_VERDICTS = {d.value for d in Decision if d is not Decision.EXPERIMENT}
_SHARD_COLUMNS = ("seed", "regime", "family", "index", "stage1", "terminal")

_NO_RECORD = Verdict(Decision.ABSTAIN, refusal_reason="no recorded verdict")
_NOT_RECORDED = TwoStageResult((_NO_RECORD,))


class ReplayError(ValueError):
    """A replay input that cannot be scored as written."""


def replayed_result(table: Mapping[InstanceId, TwoStageResult],
                    inst_id: InstanceId) -> TwoStageResult:
    """The result a shard table recorded for an instance; ABSTAIN if none."""
    return table.get(inst_id, _NOT_RECORDED)


def load_replay_shard(path, table: dict | None = None) -> dict[InstanceId, TwoStageResult]:
    """Add one recorded-verdict CSV's rows to ``table`` (a new one by default),
    keyed by instance id as ``RunResult.decisions`` is.

    Each row becomes the two-stage result it records: stage 1, then, after an
    EXPERIMENT, the terminal verdict.  Refuses the whole shard on a missing
    column, a short row, a non-integer seed or index, a regime or family the
    benchmark does not have, a second row for an instance already in
    ``table``, a terminal verdict other than EXECUTE, REJECT or ABSTAIN, or a
    stage 1 that is neither EXPERIMENT nor the terminal verdict.  Unknown
    columns are ignored.
    """
    table = {} if table is None else table
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if not set(_SHARD_COLUMNS).issubset(reader.fieldnames or ()):
                raise ValueError(f"missing required columns {list(_SHARD_COLUMNS)}")
            for row in reader:
                fields = [row[c] for c in _SHARD_COLUMNS]
                if None in fields:
                    raise ValueError(f"line {reader.line_num} has too few fields")
                seed, regime, family, index, stage1, terminal = (f.strip() for f in fields)
                key = InstanceId(int(seed), regime, family, int(index))
                stage1, terminal = stage1.upper(), terminal.upper()
                if regime not in REGIMES or family not in FAMILIES:
                    raise ValueError(f"line {reader.line_num} has unknown regime or family "
                                     f"'{regime}/{family}'")
                if key in table:
                    raise ValueError(f"line {reader.line_num} records instance {key} a "
                                     f"second time")
                if terminal not in _TERMINAL_VERDICTS:
                    raise ValueError(f"line {reader.line_num} has invalid verdict '{terminal}'")
                if stage1 not in (Decision.EXPERIMENT.value, terminal):
                    raise ValueError(f"line {reader.line_num} has stage 1 '{stage1}', which is "
                                     f"neither EXPERIMENT nor its terminal verdict {terminal}")
                note = f"replayed from {path}"
                last = Verdict(Decision(terminal), rationale=note)
                trace = (last,) if stage1 == terminal else (
                    Verdict(Decision.EXPERIMENT, rationale=note), last)
                table[key] = TwoStageResult(trace)
    except (OSError, ValueError, csv.Error) as exc:
        raise ReplayError(f"replay shard {path}: {exc}") from None
    return table
