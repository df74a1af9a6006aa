"""Four-way triage over committed graphs, with auditable execution certificates.

Rules, in order:

1. Tool gate - malformed frames (a wrongly typed field, or a target value
   other than 1.0), malformed graphs, actions whose target or utility
   variable is not the graph's treatment or outcome, and forbidden tools are
   rejected; non-interventional actions then pass straight through.
2. Identification - every candidate graph is checked for a backdoor or
   frontdoor argument and the set is partitioned into identified /
   not-identified.
3. Certified execution - when every graph is identified, estimate the effect
   under each graph, take the minimum (worst-case) lower confidence bound,
   and execute only if every estimate is finite and rests on enough residual
   degrees of freedom, the bound clears the utility threshold and the action
   cost stays inside the risk budget.  Execution carries a certificate.
4. Bounded-risk experimentation - any not-identified graph routes to
   EXPERIMENT when the action is reversible and affordable, else ABSTAIN.

Every EXECUTE issued by rule 3 carries a certificate binding the committed
graph, the assumption labels, the identification proof, the estimate with
its one-sided bound, the provenance hash of the data, and the declared risk.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Callable, Mapping, Sequence

from .config import NUMBER, STR_SET, check_fields, setting
from .estimation import (
    EffectEstimate,
    EstimationError,
    adjusted_effect,
    frontdoor_effect,
    provenance_hash,
)
from .frames import Frame, FrameError
from .graphs import (
    CausalGraph,
    GraphError,
    IdentificationKind,
    IdentificationResult,
    graph_digest,
    graph_from_json_dict,
    graph_to_json_dict,
    identify,
    string_list,
    validate_graph,
)
from .scm import ActionFrame, InstanceId, ScmInstance

__all__ = [
    "Decision",
    "VerifierConfig",
    "Certificate",
    "Verdict",
    "InstanceView",
    "TwoStageResult",
    "triage",
    "certify",
    "run_two_stage",
    "make_view",
    "resolve_for_experiment",
    "build_execution_certificate",
    "certificate_to_json_dict",
    "certificate_from_json_dict",
    "verify_certificate",
    "record_fields",
]

ASSUMPTION_LABELS = ("A1", "A2", "A3", "A4")

# The bound takes the normal quantile, but an estimate's error has a t
# distribution's heavier tail, which at few residual degrees of freedom
# misses the effect more often than alpha allows.  32 is the least dof at
# which P(t_dof >= z_0.05) stays within 1.1 * 0.05; rule 3 abstains below it.
MIN_RESIDUAL_DOF = 32


class Decision(str, Enum):
    EXECUTE = "EXECUTE"
    REJECT = "REJECT"
    EXPERIMENT = "EXPERIMENT"
    ABSTAIN = "ABSTAIN"


@dataclass(frozen=True, slots=True)
class VerifierConfig:
    alpha: float = setting(0.05, NUMBER, "a number in (0, 1)", lambda x: 0 < x < 1)
    tau_u: float = setting(0.0, NUMBER, "a non-NaN number", lambda x: -math.inf <= x <= math.inf)
    tau_r: float = setting(0.5, NUMBER, "a non-NaN number >= 0", lambda x: x >= 0)
    forbidden_tools: frozenset[str] = setting(frozenset(), STR_SET,
                                              "a list of tool names (strings)")

    __post_init__ = check_fields


@dataclass(frozen=True, slots=True)
class Certificate:
    graph: CausalGraph
    graph_sha256: str
    assumptions: tuple[str, ...]
    proof: IdentificationResult
    theta_hat: float
    std_err: float
    lcb_alpha: float
    alpha: float
    n: int
    provenance: str
    risk: float


@dataclass(frozen=True, slots=True)
class Verdict:
    decision: Decision
    rule_fired: int | None = None
    certificate: Certificate | None = None
    refusal_reason: str | None = None
    rationale: str | None = None

    def __post_init__(self) -> None:
        if self.decision is not Decision.EXECUTE and self.refusal_reason is None:
            object.__setattr__(self, "refusal_reason", "unspecified refusal")


@dataclass(frozen=True, slots=True)
class InstanceView:
    """What a verdict provider is allowed to see.

    Carries the action frame, the committed graph set, and one data frame.
    Ground-truth effects, labels, and the paired experimental frame are not
    part of the view; the two-stage protocol swaps the data in itself.
    """

    id: InstanceId
    frame: ActionFrame
    graphs: tuple[CausalGraph, ...]
    data: Frame


VerdictProvider = Callable[[InstanceView], Verdict]

# Verdicts whose every field is fixed are made once and shared by every call
# that returns them; a verdict with per-call text or a certificate is made
# per call.
_PASS_THROUGH = Verdict(Decision.EXECUTE, rule_fired=1,
                        rationale="non-interventional action; no causal claim to certify")
_EXPERIMENT = Verdict(Decision.EXPERIMENT, rule_fired=4,
                      refusal_reason="effect not identifiable under the committed graph; "
                                     "reversible action within the risk budget")
_NO_SAFE_EXPERIMENT = Verdict(
    Decision.ABSTAIN, rule_fired=4,
    refusal_reason="effect not identifiable and no safe experiment is admissible")
_EXPERIMENT_UNAVAILABLE = Verdict(
    Decision.ABSTAIN, rule_fired=4,
    refusal_reason="experiment requested but no safe experiment is available")
_EXPERIMENT_LOOP = Verdict(
    Decision.ABSTAIN, rule_fired=4,
    refusal_reason="experiment loop did not terminate after one stage")


def make_view(inst: ScmInstance) -> InstanceView:
    return InstanceView(
        id=inst.id,
        frame=inst.frame,
        graphs=(inst.graph,),
        data=inst.observational,
    )


# Distinct committed graphs a process keeps resolved; a benchmark run commits
# a few dozen graph shapes.
_RESOLVED_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_RESOLVED_CACHE_SIZE)
def resolve_for_experiment(g: CausalGraph) -> CausalGraph:
    """Graph describing the randomized follow-up data.

    Random assignment severs every influence on the treatment, so the latent
    edge and all directed edges into the treatment are dropped; the empty
    backdoor set then identifies the effect.  Memoized per graph, so each
    committed graph object resolves to one object, whose ``identify`` result
    is then found by identity.
    """
    return replace(g, directed_edges=[e for e in g.directed_edges if e[1] != g.treatment],
                   bidirected_edges=())


def _malformed_reason(frame: ActionFrame, graphs: Sequence[CausalGraph]) -> str | None:
    """Why rule 1 refuses the action as malformed, if it does.

    The frame must pass its own check, ``ActionFrame.violation``: each field
    of its declared type, and a target value of 1.0, the treatment level a
    certificate's estimate compares with 0.
    Each committed graph must be well formed, and its treatment and outcome
    must be the action's target and utility variables: a certificate for
    another (treatment, outcome) pair says nothing about this action.
    """
    violation = frame.violation()
    if violation is not None:
        return f"malformed action frame: {violation}"
    for g in graphs:
        violation = validate_graph(g)
        if violation is not None:
            return f"malformed committed graph: {violation}"
        if frame.target_variable != g.treatment:
            return (f"malformed action frame: target variable '{frame.target_variable}' "
                    f"is not the graph's treatment '{g.treatment}'")
        if frame.utility_variable != g.outcome:
            return (f"malformed action frame: utility variable '{frame.utility_variable}' "
                    f"is not the graph's outcome '{g.outcome}'")
    return None


def _estimate_for(
    proof: IdentificationResult, d: Frame, alpha: float,
    treatment: str, outcome: str,
) -> EffectEstimate:
    if proof.kind is IdentificationKind.BACKDOOR:
        return adjusted_effect(d, proof.adjustment_set, alpha=alpha,
                               treatment_col=treatment, outcome_col=outcome)
    if proof.kind is IdentificationKind.FRONTDOOR:
        return frontdoor_effect(d, proof.mediator_set, alpha=alpha,
                                treatment_col=treatment, outcome_col=outcome)
    raise EstimationError("cannot estimate an unidentified effect")


def build_execution_certificate(
    graph: CausalGraph,
    proof: IdentificationResult,
    estimate: EffectEstimate,
    d: Frame,
    frame: ActionFrame,
) -> Certificate:
    return Certificate(
        graph=graph,
        graph_sha256=graph_digest(graph),
        assumptions=ASSUMPTION_LABELS,
        proof=proof,
        theta_hat=estimate.theta_hat,
        std_err=estimate.std_err,
        lcb_alpha=estimate.lcb,
        alpha=estimate.alpha,
        n=estimate.n,
        provenance=provenance_hash(d),
        risk=frame.cost,
    )


def certify(
    frame: ActionFrame,
    graphs: Sequence[CausalGraph],
    proofs: Sequence[IdentificationResult],
    d: Frame,
    cfg: VerifierConfig,
) -> Verdict:
    """Rule 3: certified execution on the worst-case bound.

    ``proofs`` holds one identification result per graph; an unidentified one
    ends in ABSTAIN.  The effect is estimated under each graph, and the action
    executes, with a certificate for the graph whose lower bound is smallest
    (the first on ties), only when every estimate has at least
    ``MIN_RESIDUAL_DOF`` residual degrees of freedom and is finite, that
    bound clears ``tau_u`` and the cost stays within ``tau_r``.
    """
    estimates: list[EffectEstimate] = []
    try:
        for g, proof in zip(graphs, proofs):
            estimates.append(_estimate_for(proof, d, cfg.alpha,
                                           g.treatment, g.outcome))
    except (EstimationError, FrameError) as exc:
        return Verdict(Decision.ABSTAIN, rule_fired=3,
                       refusal_reason=f"estimation failure: {exc}")
    # Rows less the intercept, the treatment and the adjustment columns (the
    # mediator, for a frontdoor fit's outcome stage).
    dof = min(e.n - 2 - len(e.adjustment_set) for e in estimates)
    if dof < MIN_RESIDUAL_DOF:
        return Verdict(Decision.ABSTAIN, rule_fired=3,
                       refusal_reason=f"too few residual degrees of freedom: {dof} is below "
                                      f"{MIN_RESIDUAL_DOF}, the least a normal-quantile "
                                      f"bound is trusted at")
    if not all(math.isfinite(x) for e in estimates
               for x in (e.theta_hat, e.std_err, e.lcb)):
        return Verdict(Decision.ABSTAIN, rule_fired=3,
                       refusal_reason="estimation failure: non-finite estimate or bound")
    worst = min(range(len(estimates)), key=lambda i: estimates[i].lcb)
    min_lcb = estimates[worst].lcb
    if min_lcb < cfg.tau_u:
        return Verdict(
            Decision.REJECT, rule_fired=3,
            refusal_reason=f"worst-case lower confidence bound {min_lcb:.6g} "
                           f"is below the utility threshold {cfg.tau_u:.6g}")
    if not frame.cost <= cfg.tau_r:  # a NaN cost overruns too
        return Verdict(
            Decision.REJECT, rule_fired=3,
            refusal_reason=f"cost {frame.cost:.6g} overruns the risk threshold {cfg.tau_r:.6g}")
    cert = build_execution_certificate(graphs[worst], proofs[worst], estimates[worst], d, frame)
    return Verdict(Decision.EXECUTE, rule_fired=3, certificate=cert,
                   rationale=proofs[worst].proof_note)


def triage(
    frame: ActionFrame,
    graphs: Sequence[CausalGraph],
    d: Frame,
    cfg: VerifierConfig,
) -> Verdict:
    """Route one proposed action to EXECUTE, REJECT, EXPERIMENT, or ABSTAIN."""
    if not graphs:
        raise ValueError("at least one committed graph is required")

    # Rule 1: tool gate.
    reason = _malformed_reason(frame, graphs)
    if reason is not None:
        return Verdict(Decision.REJECT, rule_fired=1, refusal_reason=reason)
    if frame.tool in cfg.forbidden_tools:
        return Verdict(Decision.REJECT, rule_fired=1,
                       refusal_reason=f"tool '{frame.tool}' is in a forbidden risk class")
    if not frame.interventional:
        return _PASS_THROUGH

    # Rule 2: identification.
    proofs = [identify(g) for g in graphs]
    not_identified = [p for p in proofs if not p.identified]

    # Rule 4: any unidentified graph dominates.
    if not_identified:
        if frame.cost <= cfg.tau_r and frame.reversible:
            return _EXPERIMENT
        return _NO_SAFE_EXPERIMENT

    return certify(frame, graphs, proofs, d, cfg)


@dataclass(frozen=True, slots=True)
class TwoStageResult:
    trace: tuple[Verdict, ...]

    @property
    def stage1(self) -> Verdict:
        return self.trace[0]

    @property
    def terminal(self) -> Verdict:
        return self.trace[-1]


def run_two_stage(
    inst: ScmInstance,
    decide: VerdictProvider,
    cfg: VerifierConfig,
) -> TwoStageResult:
    """Record the stage-1 verdict and resolve EXPERIMENT via the paired data.

    When stage 1 returns EXPERIMENT and a safe experiment is available, the
    provider is re-invoked on the resolved graph (latent edge dropped,
    treatment randomized) with the experimental frame; the terminal verdict
    is the second answer.  Without an available experiment the terminal
    verdict is a conservative ABSTAIN.
    """
    view1 = make_view(inst)
    v1 = decide(view1)
    if v1.decision is not Decision.EXPERIMENT:
        return TwoStageResult((v1,))
    if not inst.safe_experiment_available:
        return TwoStageResult((v1, _EXPERIMENT_UNAVAILABLE))
    view2 = InstanceView(
        id=inst.id,
        frame=inst.frame,
        graphs=tuple(resolve_for_experiment(g) for g in view1.graphs),
        data=inst.experimental,
    )
    v2 = decide(view2)
    if v2.decision is Decision.EXPERIMENT:
        v2 = _EXPERIMENT_LOOP
    return TwoStageResult((v1, v2))


def record_fields(record) -> dict:
    """A dataclass record's fields by name, in declaration order."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def certificate_to_json_dict(cert: Certificate) -> dict:
    """The certificate's and its proof's own fields, in JSON form."""
    proof = cert.proof
    return {**record_fields(cert), "graph": graph_to_json_dict(cert.graph),
            "assumptions": list(cert.assumptions),
            "proof": {**record_fields(proof), "kind": proof.kind.value,
                      "adjustment_set": list(proof.adjustment_set),
                      "mediator_set": list(proof.mediator_set)}}


def certificate_from_json_dict(obj: Mapping) -> Certificate:
    """The mirror of ``certificate_to_json_dict``: a missing or extra key in the
    certificate, its proof or its graph raises a KeyError, TypeError or GraphError,
    and so does a name set that is not a list of strings.  Replay cannot check
    the declared ``risk``, so one that is not a finite number >= 0 raises a
    ValueError here."""
    risk = obj["risk"]
    if (isinstance(risk, bool) or not isinstance(risk, (int, float))
            or not 0.0 <= risk < math.inf):
        raise ValueError(f"risk {risk!r} is not a finite number >= 0")
    proof = obj["proof"]
    proof = IdentificationResult(**{
        **proof, "kind": IdentificationKind(proof["kind"]),
        "adjustment_set": tuple(string_list(proof["adjustment_set"], "adjustment_set")),
        "mediator_set": tuple(string_list(proof["mediator_set"], "mediator_set"))})
    return Certificate(**{**obj, "graph": graph_from_json_dict(obj["graph"]),
                          "assumptions": tuple(string_list(obj["assumptions"], "assumptions")),
                          "proof": proof})


def verify_certificate(cert: Certificate, data_bytes: bytes) -> list[str]:
    """Replay a stored certificate against stored data.

    Recomputes from scratch the provenance digest, the graph commitment
    digest, the identification proof and the estimate (point value, standard
    error, bound and row count), and checks the assumption labels.  The
    declared risk comes from the action, not the data, so replay cannot
    reproduce it; ``certify`` checks it against ``tau_r`` when it mints the
    certificate.  Returns the names of mismatched fields; an empty list
    means the replay reproduced the certificate exactly.
    """
    mismatches: list[str] = []
    if hashlib.sha256(data_bytes).hexdigest() != cert.provenance:
        mismatches.append("provenance")
        return mismatches
    if graph_digest(cert.graph) != cert.graph_sha256:
        mismatches.append("graph_sha256")
    if cert.assumptions != ASSUMPTION_LABELS:
        mismatches.append("assumptions")
    try:
        if identify(cert.graph) != cert.proof:
            mismatches.append("proof")
    except GraphError as exc:
        mismatches.append(f"proof ({exc})")
    try:
        frame = Frame.from_canonical_bytes(data_bytes)
        estimate = _estimate_for(cert.proof, frame, cert.alpha,
                                 cert.graph.treatment, cert.graph.outcome)
    except (EstimationError, FrameError, TypeError, ValueError) as exc:
        mismatches.append(f"estimation ({exc})")
        return mismatches
    for name, value in (("theta_hat", estimate.theta_hat), ("std_err", estimate.std_err),
                        ("lcb_alpha", estimate.lcb), ("n", estimate.n)):
        if value != getattr(cert, name):
            mismatches.append(name)
    return mismatches
