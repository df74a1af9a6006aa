"""Comparison verdict providers, plus a replay provider for recorded shards.

Every provider consumes the same redacted view (action frame, committed
graph set, observational frame).  Only the oracle is handed the planted
effect, through a context table keyed by instance id; nothing else can reach
ground truth by construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .estimation import EstimationError, adjusted_effect, unadjusted_difference
from .frames import Frame, FrameError
from .graphs import identify
from .scm import FAMILIES, REGIMES, InstanceId, ScmInstance
from .verifier import (
    Decision,
    InstanceView,
    Verdict,
    VerifierConfig,
    certify,
    query_reason,
    triage,
)

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

ALL_METHODS = (
    ORACLE_SCM,
    CIVEX,
    CIVEX_CERT_ONLY,
    CAUSAL_NO_EXPERIMENT,
    CONTEXT_ONLY_NO_CAUSAL,
    OBSERVATIONAL_ASSOCIATION,
    ALWAYS_ABSTAIN,
    POLICY_GATE,
    SCHEMA_GATE,
    SEMANTIC_ONTOLOGY_GATE,
    FAMILY_MAJORITY_CLASSIFIER,
    NAME_ONLY_CLASSIFIER,
)

# Action names treated as benign by the name-only classifier.
NAME_ONLY_EXECUTE_TOOLS = frozenset({"enable_cache", "trim_logs"})

_REPLAY_PREFIX = "Replay("


def is_replay(method: str) -> bool:
    return method.startswith(_REPLAY_PREFIX) and method.endswith(")")


def replay_tag(method: str) -> str:
    if not is_replay(method):
        raise ValueError(f"'{method}' is not a replay method id")
    return method[len(_REPLAY_PREFIX):-1]


def _shard_key(inst_id: InstanceId) -> tuple[int, str, str, int]:
    return (inst_id.seed, inst_id.regime, inst_id.family, inst_id.index)


@dataclass(frozen=True)
class ProviderContext:
    """Side tables a provider may need beyond the redacted view."""

    theta_by_id: Mapping[InstanceId, float] = field(default_factory=dict)
    pooled_association: Mapping[tuple[int, str, str], tuple[float, float]] = field(
        default_factory=dict
    )
    replay_shards: Mapping[str, Mapping[tuple[int, str, str, int], str]] = field(
        default_factory=dict
    )


def _pooled_association(instances: Sequence[ScmInstance]) -> dict[tuple[int, str, str], tuple[float, float]]:
    """Family-pooled association per seed: one estimate over the family's
    instance-level arm means, shared by all instances in the pool."""
    groups: dict[tuple[int, str, str], list[tuple[float, float]]] = {}
    for inst in instances:
        t = inst.observational.column("T")
        y = inst.observational.column("Y")
        if not (t == 1.0).any() or not (t == 0.0).any():
            continue
        key = (inst.id.seed, inst.id.regime, inst.id.family)
        groups.setdefault(key, []).append(
            (float(y[t == 1.0].mean()), float(y[t == 0.0].mean()))
        )
    pooled: dict[tuple[int, str, str], tuple[float, float]] = {}
    for key, pairs in groups.items():
        rows = [(1.0, m1) for m1, _ in pairs] + [(0.0, m0) for _, m0 in pairs]
        frame = Frame(columns=("T", "Y"), data=np.array(rows))
        try:
            est = unadjusted_difference(frame)
        except EstimationError:
            continue
        pooled[key] = (est.theta_hat, est.lcb)
    return pooled


def build_context(
    instances: Sequence[ScmInstance],
    *,
    replay_shards: Mapping[str, Mapping[tuple[int, str, str, int], str]] | None = None,
) -> ProviderContext:
    return ProviderContext(
        theta_by_id={inst.id: inst.spec.theta for inst in instances},
        pooled_association=_pooled_association(instances),
        replay_shards=dict(replay_shards or {}),
    )


def _oracle(ctx: ProviderContext) -> Callable[[InstanceView], Verdict]:
    def provider(view: InstanceView) -> Verdict:
        theta = ctx.theta_by_id[view.id]
        if theta > 0:
            return Verdict(Decision.EXECUTE, rationale="planted effect is positive")
        return Verdict(Decision.REJECT, refusal_reason="planted effect is not positive")

    return provider


def _civex(cfg: VerifierConfig) -> Callable[[InstanceView], Verdict]:
    def provider(view: InstanceView) -> Verdict:
        return triage(view.frame, view.graphs, view.data, cfg)

    return provider


def _certificate_only(cfg: VerifierConfig) -> Callable[[InstanceView], Verdict]:
    """CIVeX with experimentation disabled: rule 4's EXPERIMENT becomes ABSTAIN."""
    civex = _civex(cfg)

    def provider(view: InstanceView) -> Verdict:
        v = civex(view)
        if v.decision is Decision.EXPERIMENT:
            return Verdict(Decision.ABSTAIN, rule_fired=4,
                           refusal_reason="effect not identifiable; experimentation disabled "
                                          "(certificate-only mode)")
        return v

    return provider


def _causal_no_experiment(cfg: VerifierConfig) -> Callable[[InstanceView], Verdict]:
    """Triage rule 3 without a tool gate and without experimentation:
    unidentified queries are refused outright."""

    def provider(view: InstanceView) -> Verdict:
        reason = query_reason(view.frame, view.graphs)
        if reason is not None:
            return Verdict(Decision.ABSTAIN, refusal_reason=reason)
        proofs = [identify(g) for g in view.graphs]
        if any(not p.identified for p in proofs):
            return Verdict(Decision.ABSTAIN,
                           refusal_reason="effect not identifiable; this method never experiments")
        return certify(view.frame, view.graphs, proofs, view.data, cfg)

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
        if est.lcb >= cfg.tau_u:
            return Verdict(Decision.EXECUTE,
                           rationale="covariate-adjusted bound clears the threshold")
        return Verdict(Decision.REJECT,
                       refusal_reason="covariate-adjusted bound below the threshold")

    return provider


def _observational_association(ctx: ProviderContext) -> Callable[[InstanceView], Verdict]:
    def provider(view: InstanceView) -> Verdict:
        key = (view.id.seed, view.id.regime, view.id.family)
        if key not in ctx.pooled_association:
            return Verdict(Decision.ABSTAIN,
                           refusal_reason="no pooled association available")
        delta, lcb = ctx.pooled_association[key]
        if delta > 0 and lcb >= 0:
            return Verdict(Decision.EXECUTE,
                           rationale="positive association with a non-negative bound")
        return Verdict(Decision.ABSTAIN,
                       refusal_reason="association sign or bound did not clear zero")

    return provider


def _always_abstain(view: InstanceView) -> Verdict:
    return Verdict(Decision.ABSTAIN,
                   refusal_reason="refuses every state-changing action")


def _policy_gate(view: InstanceView) -> Verdict:
    try:
        est = unadjusted_difference(view.data,
                                    treatment_col=view.frame.target_variable,
                                    outcome_col=view.frame.utility_variable)
    except (EstimationError, FrameError) as exc:
        return Verdict(Decision.REJECT, refusal_reason=f"estimation failure: {exc}")
    if est.theta_hat > 0:
        return Verdict(Decision.EXECUTE, rationale="observed association is positive")
    return Verdict(Decision.REJECT, refusal_reason="observed association is not positive")


def _forbidden_list_gate(rationale: str, cfg: VerifierConfig) -> Callable[[InstanceView], Verdict]:
    def provider(view: InstanceView) -> Verdict:
        if view.frame.tool in cfg.forbidden_tools:
            return Verdict(Decision.REJECT,
                           refusal_reason=f"tool '{view.frame.tool}' is on the forbidden list")
        return Verdict(Decision.EXECUTE, rationale=rationale)

    return provider


# Forbidden-list gates: each executes every tool not on the forbidden list.
_FORBIDDEN_LIST_RATIONALES = {
    SCHEMA_GATE: "tool schema validated",
    SEMANTIC_ONTOLOGY_GATE: "target and utility variables are present in the tool ontology",
    FAMILY_MAJORITY_CLASSIFIER:
        "counterbalanced families have no usable majority label; defaults to allow",
}


def _name_only(view: InstanceView) -> Verdict:
    if view.frame.tool in NAME_ONLY_EXECUTE_TOOLS:
        return Verdict(Decision.EXECUTE,
                       rationale=f"action name '{view.frame.tool}' is on the benign list")
    return Verdict(Decision.ABSTAIN,
                   refusal_reason=f"action name '{view.frame.tool}' is not on the benign list")


def _replay(tag: str, ctx: ProviderContext) -> Callable[[InstanceView], Verdict]:
    if tag not in ctx.replay_shards:
        raise ReplayError(f"replay has no recorded verdicts for tag '{tag}'")
    shard = ctx.replay_shards[tag]

    def provider(view: InstanceView) -> Verdict:
        terminal = shard.get(_shard_key(view.id))
        if terminal is None:
            return Verdict(Decision.ABSTAIN, refusal_reason="no recorded verdict")
        return Verdict(Decision(terminal), rationale=f"replayed from shard '{tag}'")

    return provider


def make_provider(
    method: str,
    ctx: ProviderContext,
    cfg: VerifierConfig,
) -> Callable[[InstanceView], Verdict]:
    if is_replay(method):
        return _replay(replay_tag(method), ctx)
    if method == ORACLE_SCM:
        return _oracle(ctx)
    if method == CIVEX:
        return _civex(cfg)
    if method == CIVEX_CERT_ONLY:
        return _certificate_only(cfg)
    if method == CAUSAL_NO_EXPERIMENT:
        return _causal_no_experiment(cfg)
    if method == CONTEXT_ONLY_NO_CAUSAL:
        return _context_only(cfg)
    if method == OBSERVATIONAL_ASSOCIATION:
        return _observational_association(ctx)
    if method == ALWAYS_ABSTAIN:
        return _always_abstain
    if method == POLICY_GATE:
        return _policy_gate
    if method in _FORBIDDEN_LIST_RATIONALES:
        return _forbidden_list_gate(_FORBIDDEN_LIST_RATIONALES[method], cfg)
    if method == NAME_ONLY_CLASSIFIER:
        return _name_only
    raise ValueError(f"unknown method '{method}'")


# A recorded terminal verdict; EXPERIMENT is only ever a stage-1 answer.
_TERMINAL_VERDICTS = {d.value for d in Decision if d is not Decision.EXPERIMENT}
_SHARD_COLUMNS = ("seed", "regime", "family", "index", "stage1", "terminal")


class ReplayError(ValueError):
    """A replay input that cannot be scored as written."""


def load_replay_shard(path, table: dict | None = None) -> dict[tuple[int, str, str, int], str]:
    """Add one recorded-verdict CSV's rows to ``table`` (a new one by default).

    Refuses the whole shard on a missing column, a short row, a non-integer
    seed or index, a regime or family the benchmark does not have, a terminal
    verdict other than EXECUTE, REJECT or ABSTAIN, or a second row for an
    instance already in ``table``.  Unknown columns are ignored.
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
                seed, regime, family, index, _, terminal = (f.strip() for f in fields)
                key, terminal = (int(seed), regime, family, int(index)), terminal.upper()
                if regime not in REGIMES or family not in FAMILIES:
                    raise ValueError(f"line {reader.line_num} has unknown regime or family "
                                     f"'{regime}/{family}'")
                if terminal not in _TERMINAL_VERDICTS:
                    raise ValueError(f"line {reader.line_num} has invalid verdict '{terminal}'")
                if key in table:
                    raise ValueError(f"line {reader.line_num} records instance {key} a "
                                     f"second time")
                table[key] = terminal
    except (OSError, ValueError, csv.Error) as exc:
        raise ReplayError(f"replay shard {path}: {exc}") from None
    return table
