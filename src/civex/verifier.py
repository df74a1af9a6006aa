"""Four-way triage over committed graphs, with auditable execution certificates.

Rules, in order:

1. Tool gate - a malformed verifier config (a field of the wrong kind or
   out of range, such as a NaN ``tau_u``), malformed frames (a wrongly typed
   field, or a target value other than 1.0), malformed graphs, actions whose
   target or utility variable is not the graph's treatment or outcome, and
   forbidden tools are rejected; non-interventional actions then pass
   straight through.
2. Identification - every candidate graph is checked for a backdoor or
   frontdoor argument and the set is partitioned into identified /
   not-identified.
3. Certified execution - when every graph is identified, estimate the effect
   under each graph, take the minimum (worst-case) lower confidence bound,
   and execute only if every estimate is finite and rests on enough residual
   degrees of freedom, the bound clears the utility threshold and the action
   cost stays inside the risk budget.  Execution carries a certificate.
   A refusal on the bound is taken from certified normal-equation bounds on
   each lcb (``estimation.adjusted_effect_bound``) where they settle it and
   its text; otherwise, and for every execution, the exact fit decides.
4. Bounded-risk experimentation - any not-identified graph routes to
   EXPERIMENT when the action is reversible and affordable, else ABSTAIN.

Every EXECUTE issued by rule 3 carries a certificate binding the committed
graph, the assumption labels, the identification proof, the estimate with
its one-sided bound, the provenance hash of the data, and the declared risk.
Replay (``verify_certificate``) mints the certificate again through ``triage``
under a given policy and compares, so rule 3's thresholds exist once.

The gate's input, ``ActionFrame``, is defined here.  The benchmark
(``civex.scm``) is a client of this module, which imports the benchmark for
annotations only, so the gate and certificate replay load without it.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .config import (BOOL, FLOAT, INT, NUMBER, REQUIRED, STR, STR_SET, STRS, check_fields, dump,
                     load, record, setting)
from .estimation import (
    EffectEstimate,
    EstimationError,
    LcbBound,
    adjusted_effect_bound,
    frontdoor_effect,
    provenance_hash,
)
from .frames import Frame, FrameError
from .graphs import (
    CausalGraph,
    IdentificationKind,
    IdentificationResult,
    graph_digest,
    identify,
    validate_graph,
)

if TYPE_CHECKING:
    from .scm import InstanceId, ScmInstance

__all__ = [
    "Decision",
    "VerifierConfig",
    "ActionFrame",
    "Certificate",
    "Verdict",
    "InstanceView",
    "TwoStageResult",
    "triage",
    "run_two_stage",
    "make_view",
    "resolve_for_experiment",
    "build_execution_certificate",
    "certificate_to_json_dict",
    "certificate_from_json_dict",
    "verify_certificate",
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

    @property
    def terminal(self) -> bool:
        """Whether the decision ends a trace: EXPERIMENT asks for a second stage."""
        return self is not Decision.EXPERIMENT


@dataclass(frozen=True, slots=True)
class VerifierConfig:
    alpha: float = setting(0.05, NUMBER, "a number in (0, 1)", lambda x: 0 < x < 1)
    tau_u: float = setting(0.0, NUMBER, "a non-NaN number", lambda x: -math.inf <= x <= math.inf)
    tau_r: float = setting(0.5, NUMBER, "a non-NaN number >= 0", lambda x: x >= 0)
    forbidden_tools: frozenset[str] = setting(frozenset(), STR_SET,
                                              "a list of tool names (strings)")

    __post_init__ = check_fields


@dataclass(frozen=True, slots=True)
class ActionFrame:
    """The proposed action.  Its check runs again at the gate, for a frame that
    skipped the constructor (set by hand, or unpickled)."""

    tool: str = setting(REQUIRED, STR, "a non-empty string", bool)
    target_variable: str = setting(REQUIRED, STR, "a string")
    target_value: float = setting(REQUIRED, NUMBER, "1.0, the only treatment level civex "
                                                    "certifies", lambda x: x == 1.0)
    utility_variable: str = setting(REQUIRED, STR, "a string")
    cost: float = setting(REQUIRED, NUMBER, "a finite number >= 0", lambda x: 0 <= x < math.inf)
    reversible: bool = setting(REQUIRED, BOOL, "a boolean")
    interventional: bool = setting(True, BOOL, "a boolean")

    __post_init__ = check_fields


@dataclass(frozen=True, slots=True)
class Certificate:
    """What an EXECUTE rests on.  Replay mints it again and compares every
    field by value, so the reader checks each field's kind: ``400.0`` would
    pass for a row count of 400."""

    graph: CausalGraph = setting(REQUIRED, record(CausalGraph), "a committed graph (an object)")
    graph_sha256: str = setting(REQUIRED, STR, "a string")
    assumptions: tuple[str, ...] = setting(REQUIRED, STRS, "a list of strings")
    proof: IdentificationResult = setting(REQUIRED, record(IdentificationResult),
                                          "an identification proof (an object)")
    theta_hat: float = setting(REQUIRED, FLOAT, "a float")
    std_err: float = setting(REQUIRED, FLOAT, "a float")
    lcb_alpha: float = setting(REQUIRED, FLOAT, "a float")
    alpha: float = setting(REQUIRED, FLOAT, "a float")
    n: int = setting(REQUIRED, INT, "an integer")
    provenance: str = setting(REQUIRED, STR, "a string")
    risk: float = setting(REQUIRED, NUMBER, "a finite number >= 0", lambda x: 0 <= x < math.inf)

    __post_init__ = check_fields


@dataclass(frozen=True, slots=True)
class Verdict:
    """A decision and the one text that explains it, whatever the decision."""

    decision: Decision
    reason: str
    rule_fired: int | None = None
    certificate: Certificate | None = None


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
_PASS_THROUGH = Verdict(Decision.EXECUTE, "non-interventional action; no causal claim to certify",
                        rule_fired=1)
_EXPERIMENT = Verdict(Decision.EXPERIMENT, "effect not identifiable under the committed graph; "
                                           "reversible action within the risk budget",
                      rule_fired=4)
_NO_SAFE_EXPERIMENT = Verdict(
    Decision.ABSTAIN, "effect not identifiable and no safe experiment is admissible", rule_fired=4)
_EXPERIMENT_UNAVAILABLE = Verdict(
    Decision.ABSTAIN, "experiment requested but no safe experiment is available", rule_fired=4)
_EXPERIMENT_LOOP = Verdict(
    Decision.ABSTAIN, "experiment loop did not terminate after one stage", rule_fired=4)


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

    Random assignment severs every influence on the treatment, so the edges
    into it are dropped, directed and bidirected; latent edges between other
    variables stay.  The empty backdoor set then identifies the effect.
    Memoized per graph, so each committed graph object resolves to one
    object, whose ``identify`` result is then found by identity.
    """
    return replace(g, directed=frozenset(e for e in g.directed if e[1] != g.treatment),
                   bidirected=frozenset(p for p in g.bidirected if g.treatment not in p))


def _malformed_reason(frame: ActionFrame, graphs: Sequence[CausalGraph], d: Frame,
                      cfg: VerifierConfig) -> str | None:
    """Why rule 1 refuses the action as malformed, if it does.

    Each input must be of its kind: a ``VerifierConfig``, an ``ActionFrame``,
    a tuple of ``CausalGraph``s (``triage`` makes one of any iterable) and a
    ``Frame``.  The config and the frame must pass their own check,
    ``check_fields``: each field of its declared kind and range (a NaN
    ``tau_u`` would let every bound clear it), and a target value of 1.0,
    the treatment level a certificate's estimate compares with 0.
    At least one graph must be committed.  Each must be well formed, and its
    treatment and outcome must be the action's target and utility variables:
    a certificate for another (treatment, outcome) pair says nothing about
    this action.
    """
    if not isinstance(cfg, VerifierConfig):
        return f"malformed verifier config: a {type(cfg).__name__} is not a VerifierConfig"
    try:
        check_fields(cfg)
    except ValueError as exc:
        return f"malformed verifier config: {exc}"
    if not isinstance(frame, ActionFrame):
        return f"malformed action frame: a {type(frame).__name__} is not an ActionFrame"
    if not isinstance(graphs, tuple):
        return f"malformed committed graph set: a {type(graphs).__name__} is not a list of graphs"
    for g in graphs:
        if not isinstance(g, CausalGraph):
            return f"malformed committed graph: a {type(g).__name__} is not a CausalGraph"
    if not isinstance(d, Frame):
        return f"malformed data: a {type(d).__name__} is not a Frame"
    try:
        check_fields(frame)
    except ValueError as exc:
        return f"malformed action frame: {exc}"
    if not graphs:
        return "malformed committed graph set: no graph is committed"
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


def _bound_for(
    proof: IdentificationResult, d: Frame, alpha: float,
    treatment: str, outcome: str,
) -> tuple[LcbBound, Callable[[], EffectEstimate]]:
    """A certified bound on the lcb of an identifying ``proof``'s estimate, and
    a function that gives that estimate; a frontdoor fit's bound is its lcb."""
    if proof.kind is IdentificationKind.BACKDOOR:
        return adjusted_effect_bound(d, proof.adjustment_set, alpha=alpha,
                                     treatment_col=treatment, outcome_col=outcome)
    est = frontdoor_effect(d, proof.mediator_set, alpha=alpha,
                           treatment_col=treatment, outcome_col=outcome)
    return LcbBound.of(est), lambda: est


def _below_threshold(lcb: float, tau_u: float) -> Verdict:
    return Verdict(Decision.REJECT, f"worst-case lower confidence bound {lcb:.6g} "
                                    f"is below the utility threshold {tau_u:.6g}", rule_fired=3)


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


def triage(
    frame: ActionFrame,
    graphs: Iterable[CausalGraph],
    d: Frame,
    cfg: VerifierConfig,
) -> Verdict:
    """The gate's one entry: route one proposed action to EXECUTE, REJECT,
    EXPERIMENT, or ABSTAIN.  Rule 3 runs only after rules 1, 2 and 4."""
    try:
        graphs = tuple(graphs)
    except TypeError:  # not iterable: rule 1 refuses the set
        pass

    # Rule 1: tool gate.
    reason = _malformed_reason(frame, graphs, d, cfg)
    if reason is not None:
        return Verdict(Decision.REJECT, reason, rule_fired=1)
    if frame.tool in cfg.forbidden_tools:
        return Verdict(Decision.REJECT, f"tool '{frame.tool}' is in a forbidden risk class",
                       rule_fired=1)
    if not frame.interventional:
        return _PASS_THROUGH

    # Rule 2: identification.
    proofs = [identify(g) for g in graphs]

    # Rule 4: any unidentified graph dominates.
    if not all(p.identified for p in proofs):
        if frame.cost <= cfg.tau_r and frame.reversible:
            return _EXPERIMENT
        return _NO_SAFE_EXPERIMENT

    # Rule 3: certified execution on the worst-case bound, with a certificate
    # for the graph whose lower bound is smallest (the first on ties).
    try:
        bounds, fits = zip(*(_bound_for(proof, d, cfg.alpha, g.treatment, g.outcome)
                             for g, proof in zip(graphs, proofs)))
    except (EstimationError, FrameError) as exc:
        return Verdict(Decision.ABSTAIN, f"estimation failure: {exc}", rule_fired=3)
    # Rows less the intercept, the treatment and the adjustment columns (the
    # mediator, for a frontdoor fit's outcome stage).
    dof = min(b.n - 2 - len(b.adjustment_set) for b in bounds)
    if dof < MIN_RESIDUAL_DOF:
        return Verdict(Decision.ABSTAIN, f"too few residual degrees of freedom: {dof} is below "
                                         f"{MIN_RESIDUAL_DOF}, the least a normal-quantile "
                                         f"bound is trusted at", rule_fired=3)
    # The smallest exact lcb lies between the smallest lo and the smallest hi.
    # When both print alike and hi is below tau_u, the exact path would refuse
    # with that text, so the refusal needs no exact fit.  A graph without a
    # finite bound has lo = -inf, which prints unlike any finite hi.
    lo = min(b.lo for b in bounds)
    hi = min(b.hi for b in bounds)
    if hi < cfg.tau_u and f"{lo:.6g}" == f"{hi:.6g}":
        return _below_threshold(hi, cfg.tau_u)
    estimates = [fit() for fit in fits]
    if not all(math.isfinite(x) for e in estimates
               for x in (e.theta_hat, e.std_err, e.lcb)):
        return Verdict(Decision.ABSTAIN, "estimation failure: non-finite estimate or bound",
                       rule_fired=3)
    worst = min(range(len(estimates)), key=lambda i: estimates[i].lcb)
    min_lcb = estimates[worst].lcb
    if not min_lcb >= cfg.tau_u:
        return _below_threshold(min_lcb, cfg.tau_u)
    if not frame.cost <= cfg.tau_r:  # a NaN cost overruns too
        return Verdict(Decision.REJECT,
                       f"cost {frame.cost:.6g} overruns the risk threshold {cfg.tau_r:.6g}",
                       rule_fired=3)
    cert = build_execution_certificate(graphs[worst], proofs[worst], estimates[worst], d, frame)
    return Verdict(Decision.EXECUTE, proofs[worst].proof_note, rule_fired=3, certificate=cert)


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
    verdict is a conservative ABSTAIN.  ``cfg`` is unused; it stays because
    the benchmark harness (``perfbench/workloads.py``) wraps and calls this
    function with three arguments.
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


def certificate_to_json_dict(cert: Certificate) -> dict:
    """The certificate's and its proof's own fields, in JSON form."""
    return dump(cert)


def certificate_from_json_dict(obj: Mapping) -> Certificate:
    """The mirror of ``certificate_to_json_dict``: a missing, extra or wrongly
    typed key in the certificate, its proof or its graph raises a ValueError."""
    return load(Certificate, obj)


def verify_certificate(cert: Certificate, data_bytes: bytes,
                       cfg: VerifierConfig = VerifierConfig()) -> list[str]:
    """Replay a stored certificate against stored data under the policy ``cfg``.

    Data whose SHA-256 is not ``provenance`` give ``provenance``; a graph or
    proof that skipped its constructor and that replay cannot read (one of
    another type, or a graph with a field that does not hash) is named with
    its defect; data that do not parse give ``estimation (…)``.  Otherwise
    replay mints the certificate again: ``triage`` runs under ``cfg`` with the
    certificate's graph as the committed set and the action it stands for
    (the graph's treatment and outcome, target value 1.0, ``risk`` as the
    cost).  A verdict other than EXECUTE is the one mismatch ``policy (<its
    reason>)``; an EXECUTE gives the fields that differ from the re-minted
    certificate, in declaration order, ``alpha`` among them.  The certificate
    names no action, so ``cfg.forbidden_tools`` cannot apply, and the parsed
    frame keeps the checked digest, so the bytes are bound as given.
    """
    digest = hashlib.sha256(data_bytes).hexdigest()
    if digest != cert.provenance:
        return ["provenance"]
    mismatches: list[str] = []
    for name, cls, kind in (("graph", CausalGraph, "a CausalGraph"),
                            ("proof", IdentificationResult, "an IdentificationResult")):
        value = getattr(cert, name)
        if not isinstance(value, cls):
            mismatches.append(f"{name} (a {type(value).__name__} is not {kind})")
    if not mismatches:
        try:
            hash(cert.graph)  # identify's memo keys by it
        except TypeError:  # a field of the wrong kind, which the validator names
            mismatches.append(f"graph ({validate_graph(cert.graph)})")
    if mismatches:
        return mismatches
    try:
        frame = Frame.from_canonical_bytes(data_bytes, sha256=digest)
    except ValueError as exc:
        return [f"estimation ({exc})"]
    # A certificate names no tool, so the action's tool names no real one.
    try:
        action = ActionFrame("(certificate replay)", cert.graph.treatment, 1.0,
                             cert.graph.outcome, cert.risk, reversible=False)
    except ValueError as exc:  # a risk or graph role that skipped its constructor
        return [f"policy (malformed action frame: {exc})"]
    v = triage(action, [cert.graph], frame, cfg)
    if v.decision is not Decision.EXECUTE:
        return [f"policy ({v.reason})"]
    if v.certificate == cert:  # one comparison settles the usual case
        return []
    return [f.name for f in fields(Certificate)
            if getattr(v.certificate, f.name) != getattr(cert, f.name)]
