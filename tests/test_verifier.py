import json
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from civex import estimation, verifier
from civex.baselines import (
    CAUSAL_NO_EXPERIMENT,
    CIVEX_CERT_ONLY,
    ProviderContext,
    make_provider,
)
from civex.estimation import provenance_hash
from civex.frames import Frame
from civex.cli import main as cli_main
from civex.graphs import (
    CausalGraph,
    IdentificationKind,
    graph_digest,
    identify,
)
from civex.scm import (
    ADVERSARIAL,
    MODERATE,
    ActionFrame,
    BenchmarkSpec,
    InstanceId,
    sample_instance,
)
from civex.verifier import (
    Decision,
    InstanceView,
    VerifierConfig,
    certificate_from_json_dict,
    certificate_to_json_dict,
    make_view,
    resolve_for_experiment,
    run_two_stage,
    triage,
    verify_certificate,
)

from oracles import unchecked

CFG = VerifierConfig()


def worked_graph():
    return CausalGraph.create(
        nodes=["add_index", "latency_savings_ms", "query_volume", "write_volume"],
        directed=[
            ("query_volume", "add_index"),
            ("query_volume", "latency_savings_ms"),
            ("write_volume", "add_index"),
            ("write_volume", "latency_savings_ms"),
            ("add_index", "latency_savings_ms"),
        ],
        treatment="add_index",
        outcome="latency_savings_ms",
    )


def worked_frame(reversible=True, cost=0.05, interventional=True, tool="add_index"):
    return ActionFrame(tool=tool, target_variable="add_index", target_value=1.0,
                       utility_variable="latency_savings_ms", cost=cost,
                       reversible=reversible, interventional=interventional)


def worked_data(theta=3.1, n=400, seed=0):
    """Confounded draw matching the worked graph, planted positive effect."""
    rng = np.random.default_rng(seed)
    qv = rng.normal(0, 1, n)
    wv = rng.normal(0, 1, n)
    t = (rng.random(n) < 1 / (1 + np.exp(-(0.8 * qv + 0.6 * wv)))).astype(float)
    y = theta * t + 1.2 * qv + 0.9 * wv + rng.normal(0, 1, n)
    return Frame.from_columns([
        ("add_index", t), ("latency_savings_ms", y),
        ("query_volume", qv), ("write_volume", wv),
    ])


def estimators_see(frame: Frame) -> Frame:
    """Rename treatment/outcome columns to the estimator schema."""
    cols = {"add_index": "T", "latency_savings_ms": "Y"}
    return Frame(columns=tuple(cols.get(c, c) for c in frame.columns), data=frame.data)


class TestRuleOne:
    def test_non_interventional_passes_without_certificate(self):
        v = triage(worked_frame(interventional=False), [worked_graph()],
                   worked_data(), CFG)
        assert v.decision is Decision.EXECUTE
        assert v.rule_fired == 1
        assert v.certificate is None

    def test_missing_tool_name_rejected(self):
        v = triage(unchecked(worked_frame(), tool=""), [worked_graph()], worked_data(), CFG)
        assert v.decision is Decision.REJECT
        assert v.rule_fired == 1
        assert "malformed" in v.refusal_reason

    def test_unknown_target_variable_rejected(self):
        frame = replace(worked_frame(), target_variable="nope")
        v = triage(frame, [worked_graph()], worked_data(), CFG)
        assert v.decision is Decision.REJECT
        assert "target variable" in v.refusal_reason

    def test_forbidden_tool_rejected(self):
        cfg = VerifierConfig(forbidden_tools=frozenset({"add_index"}))
        v = triage(worked_frame(), [worked_graph()], worked_data(), cfg)
        assert v.decision is Decision.REJECT
        assert "forbidden" in v.refusal_reason


class TestRuleThree:
    def test_worked_example_executes_with_certificate(self):
        data = worked_data()
        v = triage(worked_frame(), [worked_graph()], data, CFG)
        assert v.decision is Decision.EXECUTE
        assert v.rule_fired == 3
        cert = v.certificate
        assert cert is not None
        assert cert.proof.kind is IdentificationKind.BACKDOOR
        assert cert.proof.adjustment_set == ("query_volume", "write_volume")
        assert cert.risk == 0.05
        assert cert.lcb_alpha >= 0
        assert cert.provenance == provenance_hash(data)
        assert cert.assumptions == ("A1", "A2", "A3", "A4")

    def test_identified_harmful_effect_rejected(self):
        bs = BenchmarkSpec(latent_fraction_moderate=0.0)
        for idx in range(12):
            inst = sample_instance("cache_operation", MODERATE, idx,
                                   seed=43, bspec=bs)
            if inst.spec.theta < 0:
                v = triage(inst.frame, [inst.graph], inst.observational, CFG)
                assert v.decision is Decision.REJECT
                assert v.rule_fired == 3
                return
        pytest.fail("no harmful instance drawn")

    def test_cost_overrun_rejected_even_with_good_bound(self):
        v = triage(worked_frame(cost=0.9), [worked_graph()], worked_data(), CFG)
        assert v.decision is Decision.REJECT
        assert "cost" in v.refusal_reason

    def test_bound_exactly_at_threshold_executes(self):
        from civex.estimation import adjusted_effect

        data = worked_data()
        est = adjusted_effect(data, ["query_volume", "write_volume"],
                              treatment_col="add_index",
                              outcome_col="latency_savings_ms")
        at_bound = VerifierConfig(tau_u=est.lcb)
        v = triage(worked_frame(), [worked_graph()], data, at_bound)
        assert v.decision is Decision.EXECUTE
        just_above = VerifierConfig(tau_u=np.nextafter(est.lcb, np.inf))
        v2 = triage(worked_frame(), [worked_graph()], data, just_above)
        assert v2.decision is Decision.REJECT

    def test_estimation_failure_abstains(self):
        one_arm = Frame.from_columns([
            ("add_index", np.ones(50)), ("latency_savings_ms", np.ones(50)),
            ("query_volume", np.arange(50.0)), ("write_volume", np.arange(50.0)),
        ])
        v = triage(worked_frame(), [worked_graph()], one_arm, CFG)
        assert v.decision is Decision.ABSTAIN
        assert "estimation failure" in v.refusal_reason

    def test_nan_from_lapack_abstains(self, monkeypatch):
        # A least-squares solve that fails comes back from LAPACK as NaN,
        # not as an exception; ``certify`` refuses it as non-finite.
        lapack = estimation._lapack

        def nan_lstsq(*args, **kwargs):
            x, *rest = lapack.lstsq(*args, **kwargs)
            return (np.full_like(x, np.nan), *rest)

        monkeypatch.setattr(estimation, "_lapack", SimpleNamespace(
            cholesky_lo=lapack.cholesky_lo, inv=lapack.inv, lstsq=nan_lstsq))
        v = triage(worked_frame(), [worked_graph()], worked_data(), CFG)
        assert v.decision is Decision.ABSTAIN
        assert v.rule_fired == 3
        assert v.refusal_reason == "estimation failure: non-finite estimate or bound"

    def test_missing_adjustment_column_abstains(self):
        data = worked_data()
        no_wv = Frame(columns=tuple(c for c in data.columns if c != "write_volume"),
                      data=data.data[:, [0, 1, 2]])
        v = triage(worked_frame(), [worked_graph()], no_wv, CFG)
        assert v.decision is Decision.ABSTAIN

    def test_least_residual_dof_is_where_the_t_tail_nears_alpha(self):
        from scipy import stats

        z = stats.norm.isf(0.05)
        least = next(dof for dof in range(1, 1000) if stats.t.sf(z, dof) <= 1.1 * 0.05)
        assert verifier.MIN_RESIDUAL_DOF == least

    @staticmethod
    def _assert_needs_least_dof(v, spare):
        if spare < 0:
            assert v.decision is Decision.ABSTAIN
            assert v.rule_fired == 3
            assert v.refusal_reason.startswith(
                f"too few residual degrees of freedom: {verifier.MIN_RESIDUAL_DOF - 1} ")
        else:
            assert v.decision is Decision.EXECUTE, v.refusal_reason

    @pytest.mark.parametrize("spare", [-1, 0])
    def test_backdoor_bound_needs_enough_residual_dof(self, spare):
        # The intercept, the treatment and two adjustment columns leave n - 4.
        data = worked_data(theta=6.0, n=verifier.MIN_RESIDUAL_DOF + 4 + spare)
        self._assert_needs_least_dof(triage(worked_frame(), [worked_graph()], data, CFG),
                                     spare)

    @pytest.mark.parametrize("spare", [-1, 0])
    def test_frontdoor_bound_needs_enough_residual_dof(self, spare):
        # The outcome stage's intercept, mediator and treatment leave n - 3.
        n = verifier.MIN_RESIDUAL_DOF + 3 + spare
        g = CausalGraph.create(["T", "M", "Y"], [("T", "M"), ("M", "Y")],
                               bidirected=[("T", "Y")])
        assert identify(g).kind is IdentificationKind.FRONTDOOR
        rng = np.random.default_rng(4)
        u = rng.normal(size=n)
        t = (rng.random(n) < 1 / (1 + np.exp(-u))).astype(float)
        m = 2.0 * t + 0.3 * rng.normal(size=n)
        y = 2.0 * m + u + 0.3 * rng.normal(size=n)
        data = Frame.from_columns([("T", t), ("Y", y), ("M", m)])
        frame = ActionFrame(tool="x", target_variable="T", target_value=1.0,
                            utility_variable="Y", cost=0.05, reversible=True)
        self._assert_needs_least_dof(triage(frame, [g], data, CFG), spare)


class TestRuleFour:
    def _latent_graph(self):
        g = worked_graph()
        return CausalGraph.create(g.nodes, g.directed_edges,
                                  bidirected=[(g.treatment, g.outcome)],
                                  treatment=g.treatment, outcome=g.outcome)

    def test_reversible_within_budget_experiments(self):
        v = triage(worked_frame(), [self._latent_graph()], worked_data(), CFG)
        assert v.decision is Decision.EXPERIMENT
        assert v.rule_fired == 4

    def test_irreversible_abstains(self):
        v = triage(worked_frame(reversible=False), [self._latent_graph()],
                   worked_data(), CFG)
        assert v.decision is Decision.ABSTAIN

    def test_costly_abstains(self):
        v = triage(worked_frame(cost=0.9), [self._latent_graph()], worked_data(), CFG)
        assert v.decision is Decision.ABSTAIN

    def test_cert_only_maps_experiment_to_abstain(self):
        v = provider_verdict(CIVEX_CERT_ONLY, worked_frame(), self._latent_graph(),
                             worked_data())
        assert v.decision is Decision.ABSTAIN
        assert v.rule_fired == 4
        assert "certificate-only" in v.refusal_reason

    @pytest.mark.parametrize("frame, latent", [
        (worked_frame(), False),                  # rule 3 EXECUTE with a certificate
        (worked_frame(reversible=False), True),   # rule 4 ABSTAIN
        (unchecked(worked_frame(), tool=""), False),  # rule 1 REJECT
    ])
    def test_cert_only_passes_every_other_verdict_through(self, frame, latent):
        graph = self._latent_graph() if latent else worked_graph()
        data = worked_data()
        assert provider_verdict(CIVEX_CERT_ONLY, frame, graph, data) \
            == triage(frame, [graph], data, CFG)

    @staticmethod
    def _two_mediator_case():
        """T -> M1 -> Y and T -> M2 -> Y with T <-> Y: only the pair {M1, M2}
        meets the frontdoor criterion, and civex estimates single mediators."""
        g = CausalGraph.create(["T", "M1", "M2", "Y"],
                               [("T", "M1"), ("M1", "Y"), ("T", "M2"), ("M2", "Y")],
                               bidirected=[("T", "Y")])
        rng = np.random.default_rng(3)
        u = rng.normal(size=400)
        t = (rng.random(400) < 1 / (1 + np.exp(-u))).astype(float)
        m1 = 1.5 * t + rng.normal(size=400)
        m2 = -0.5 * t + rng.normal(size=400)
        y = 2.0 * m1 + m2 + u + rng.normal(size=400)
        data = Frame.from_columns([("T", t), ("Y", y), ("M1", m1), ("M2", m2)])
        frame = ActionFrame(tool="x", target_variable="T", target_value=1.0,
                            utility_variable="Y", cost=0.05, reversible=True)
        return frame, g, data

    def test_two_mediator_frontdoor_routes_to_rule_four(self):
        frame, g, data = self._two_mediator_case()
        assert identify(g).kind is IdentificationKind.NOT_IDENTIFIED
        v = triage(frame, [g], data, CFG)
        assert (v.decision, v.rule_fired) == (Decision.EXPERIMENT, 4)
        for refused in (replace(frame, reversible=False), replace(frame, cost=0.9)):
            v = triage(refused, [g], data, CFG)
            assert (v.decision, v.rule_fired) == (Decision.ABSTAIN, 4)
            assert v.refusal_reason == ("effect not identifiable and no safe "
                                        "experiment is admissible")

    def test_mixed_graph_set_routes_to_rule_four(self):
        v = triage(worked_frame(), [worked_graph(), self._latent_graph()],
                   worked_data(), CFG)
        assert v.decision is Decision.EXPERIMENT
        assert v.rule_fired == 4


class TestWorstCaseRule:
    def _two_graph_setup(self, seed=5):
        # One graph sees the raw confounded association (biased up), the other
        # demands adjustment; the adjusted bound is the worst case.
        rng = np.random.default_rng(seed)
        n = 400
        c = rng.normal(0, 1, n)
        t = (rng.random(n) < 1 / (1 + np.exp(-2.2 * c))).astype(float)
        y = -1.0 * t + 3.0 * c + rng.normal(0, 0.5, n)
        data = Frame.from_columns([("T", t), ("Y", y), ("c", c)])
        g_bare = CausalGraph.create(["T", "Y", "c"], [("T", "Y"), ("c", "Y")])
        g_conf = CausalGraph.create(["T", "Y", "c"],
                                    [("T", "Y"), ("c", "Y"), ("c", "T")])
        frame = ActionFrame(tool="x", target_variable="T", target_value=1.0,
                            utility_variable="Y", cost=0.05, reversible=True)
        return frame, g_bare, g_conf, data

    def test_min_lcb_rejects_when_any_graph_is_unsafe(self):
        frame, g_bare, g_conf, data = self._two_graph_setup()
        alone = triage(frame, [g_bare], data, CFG)
        assert alone.decision is Decision.EXECUTE
        both = triage(frame, [g_bare, g_conf], data, CFG)
        assert both.decision is Decision.REJECT

    def test_adding_graphs_never_turns_reject_into_execute(self):
        frame, g_bare, g_conf, data = self._two_graph_setup()
        base = triage(frame, [g_conf], data, CFG)
        assert base.decision is Decision.REJECT
        for extra in ([g_bare], [g_bare, g_conf]):
            v = triage(frame, [g_conf, *extra], data, CFG)
            assert v.decision is Decision.REJECT


class TestTwoStage:
    def _decider(self, cfg=CFG):
        return lambda view: triage(view.frame, view.graphs, view.data, cfg)

    def test_adversarial_safe_reversible_recovers_effect(self):
        bs = BenchmarkSpec()
        for idx in range(30):
            inst = sample_instance("db_index_operation", ADVERSARIAL, idx,
                                   seed=42, bspec=bs)
            if inst.spec.theta > 0 and inst.safe_experiment_available:
                res = run_two_stage(inst, self._decider(), CFG)
                assert [v.decision for v in res.trace] == [Decision.EXPERIMENT,
                                                           Decision.EXECUTE]
                assert res.terminal.certificate is not None
                return
        pytest.fail("no safe reversible adversarial instance drawn")

    def test_adversarial_harmful_reversible_rejects_after_experiment(self):
        bs = BenchmarkSpec()
        for idx in range(30):
            inst = sample_instance("db_index_operation", ADVERSARIAL, idx,
                                   seed=42, bspec=bs)
            if inst.spec.theta < 0 and inst.safe_experiment_available:
                res = run_two_stage(inst, self._decider(), CFG)
                assert [v.decision for v in res.trace] == [Decision.EXPERIMENT,
                                                           Decision.REJECT]
                return
        pytest.fail("no harmful reversible adversarial instance drawn")

    def test_stage_one_execute_is_single_stage(self):
        bs = BenchmarkSpec(latent_fraction_moderate=0.0)
        for idx in range(10):
            inst = sample_instance("cache_operation", MODERATE, idx,
                                   seed=42, bspec=bs)
            if inst.spec.theta > 0:
                res = run_two_stage(inst, self._decider(), CFG)
                assert len(res.trace) == 1
                assert res.terminal.decision is Decision.EXECUTE
                return
        pytest.fail("no safe identified instance drawn")

    def test_experiment_unavailable_becomes_abstain(self):
        bs = BenchmarkSpec()
        for idx in range(40):
            inst = sample_instance("db_index_operation", ADVERSARIAL, idx,
                                   seed=43, bspec=bs)
            if not inst.safe_experiment_available:
                res = run_two_stage(inst, self._decider(), CFG)
                assert res.trace[0].decision in (Decision.EXPERIMENT, Decision.ABSTAIN)
                assert res.terminal.decision is Decision.ABSTAIN
                return
        pytest.fail("no irreversible adversarial instance drawn")

    def test_resolved_graph_drops_latent_edge_and_treatment_parents(self):
        g = CausalGraph.create(
            ["T", "Y", "c"], [("c", "T"), ("c", "Y"), ("T", "Y")],
            bidirected=[("T", "Y")])
        resolved = resolve_for_experiment(g)
        assert resolved.bidirected_edges == frozenset()
        assert resolved.directed_edges == frozenset({("c", "Y"), ("T", "Y")})


class TestCertificates:
    def _executed(self):
        data = worked_data()
        v = triage(worked_frame(), [worked_graph()], data, CFG)
        assert v.decision is Decision.EXECUTE
        return v.certificate, data

    def test_structural_invariants(self):
        cert, _ = self._executed()
        assert cert.proof.identified
        assert math.isfinite(cert.lcb_alpha) and cert.lcb_alpha >= CFG.tau_u
        assert cert.risk == worked_frame().cost <= CFG.tau_r
        assert cert.graph == worked_graph()
        assert cert.graph_sha256 == graph_digest(worked_graph())

    def test_invariant_violations_detected(self):
        # ``certify`` is the one place that checks the bound and the risk:
        # an action that would break either gets no certificate.
        cert, _ = self._executed()
        for cfg in (replace(CFG, tau_u=cert.lcb_alpha + 1.0),
                    replace(CFG, tau_r=worked_frame().cost / 2)):
            v = triage(worked_frame(), [worked_graph()], worked_data(), cfg)
            assert v.decision is Decision.REJECT and v.rule_fired == 3
            assert v.certificate is None

    def test_replay_reproduces_exactly(self):
        cert, data = self._executed()
        assert verify_certificate(cert, data.canonical_bytes()) == []

    def test_single_byte_tamper_fails_provenance(self):
        cert, data = self._executed()
        blob = bytearray(data.canonical_bytes())
        blob[len(blob) // 2] ^= 1
        assert verify_certificate(cert, bytes(blob)) == ["provenance"]

    def test_json_roundtrip_preserves_replay(self):
        cert, data = self._executed()
        obj = json.loads(json.dumps(certificate_to_json_dict(cert), sort_keys=True))
        again = certificate_from_json_dict(obj)
        assert again == cert
        assert verify_certificate(again, data.canonical_bytes()) == []

    def test_graph_built_from_lists_certifies_and_replays(self):
        # Lists, and a latent pair out of name order: the committed graph's
        # digest must survive the certificate's JSON round trip.
        g = worked_graph()
        built = CausalGraph(nodes=sorted(g.nodes),
                            directed_edges=[list(e) for e in sorted(g.directed_edges)],
                            bidirected_edges=[["write_volume", "query_volume"]],
                            treatment=g.treatment, outcome=g.outcome)
        data = worked_data()
        v = triage(worked_frame(), [built], data, CFG)
        assert v.decision is Decision.EXECUTE
        assert v.certificate.proof.adjustment_set == ("query_volume", "write_volume")
        obj = json.loads(json.dumps(certificate_to_json_dict(v.certificate)))
        assert obj["graph"]["bidirected"] == [["query_volume", "write_volume"]]
        again = certificate_from_json_dict(obj)
        assert again == v.certificate
        assert verify_certificate(again, data.canonical_bytes()) == []

    def test_graph_digest_mismatch_detected(self):
        cert, data = self._executed()
        tampered = replace(cert, graph_sha256="0" * 64)
        assert "graph_sha256" in verify_certificate(tampered, data.canonical_bytes())


TAMPERS = {
    "std_err": lambda obj: obj.update(std_err=obj["std_err"] * (1.0 + 1e-12)),
    "n": lambda obj: obj.update(n="x"),
    "assumptions": lambda obj: obj.update(assumptions=obj["assumptions"][:-1]),
    "proof": lambda obj: obj["proof"].update(proof_note="edited"),
    "theta_hat": lambda obj: obj.update(theta_hat=obj["theta_hat"] + 1.0),
    "lcb_alpha": lambda obj: obj.update(lcb_alpha=obj["lcb_alpha"] - 1.0),
}


class TestWholeCertificateReplay:
    """Every field that the data and the graph determine is replayed."""

    def _stored(self):
        data = worked_data()
        cert = triage(worked_frame(), [worked_graph()], data, CFG).certificate
        return certificate_to_json_dict(cert), data.canonical_bytes()

    @pytest.mark.parametrize("name", sorted(TAMPERS))
    def test_tampered_field_is_named(self, tmp_path, name):
        obj, blob = self._stored()
        TAMPERS[name](obj)
        assert verify_certificate(certificate_from_json_dict(obj), blob) == [name]
        cert_path, data_path = tmp_path / "c.cert.json", tmp_path / "c.data.txt"
        cert_path.write_text(json.dumps(obj), encoding="utf-8")
        data_path.write_bytes(blob)
        result = CliRunner().invoke(cli_main, ["verify-cert", str(cert_path), str(data_path)])
        assert result.exit_code == 1
        assert f"certificate mismatch: {name}" in result.output

    @pytest.mark.parametrize("edit", [
        lambda obj: obj.update(note="added"),
        lambda obj: obj["proof"].update(witness=[]),
        lambda obj: obj["graph"].update(latent=[["T", "Y"]]),
        lambda obj: obj.pop("risk"),
        lambda obj: obj["proof"].pop("mediator_set"),
        lambda obj: obj["proof"].pop("proof_note"),
        lambda obj: obj["graph"].pop("bidirected"),
    ], ids=["extra-key", "extra-proof-key", "extra-graph-key", "missing-key",
            "missing-proof-set", "missing-proof-note", "missing-graph-key"])
    def test_missing_or_extra_key_is_refused(self, tmp_path, edit):
        # The reader is the writer's mirror, so a key that it would drop or
        # fill in cannot pass for a verified certificate.
        obj, blob = self._stored()
        edit(obj)
        cert_path, data_path = tmp_path / "c.cert.json", tmp_path / "c.data.txt"
        cert_path.write_text(json.dumps(obj), encoding="utf-8")
        data_path.write_bytes(blob)
        result = CliRunner().invoke(cli_main, ["verify-cert", str(cert_path), str(data_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: cannot parse certificate")

    @pytest.mark.parametrize("risk", ["lots", None, True, -1.0, math.inf],
                             ids=["string", "null", "bool", "negative", "infinity"])
    def test_risk_that_is_not_a_finite_number_is_refused(self, tmp_path, risk):
        # Replay cannot reproduce the declared risk, so the reader checks it.
        obj, blob = self._stored()
        obj["risk"] = risk
        cert_path, data_path = tmp_path / "c.cert.json", tmp_path / "c.data.txt"
        cert_path.write_text(json.dumps(obj), encoding="utf-8")
        data_path.write_bytes(blob)
        result = CliRunner().invoke(cli_main, ["verify-cert", str(cert_path), str(data_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(
            f"Error: cannot parse certificate: risk {risk!r} is not a finite number >= 0")

    @pytest.mark.parametrize("edit, what", [
        (lambda obj: obj["proof"].update(adjustment_set="", mediator_set={}),
         "adjustment_set"),
        (lambda obj: obj["proof"].update(mediator_set={}), "mediator_set"),
        (lambda obj: obj["proof"].update(adjustment_set="query_volume"), "adjustment_set"),
        (lambda obj: obj.update(assumptions={"A1": 0, "A2": 0, "A3": 0, "A4": 0}),
         "assumptions"),
        (lambda obj: obj.update(assumptions=["A1", "A2", "A3", 4]), "assumptions"),
    ], ids=["empty-string-and-object", "object-mediators", "string-adjustment",
            "object-assumptions", "non-string-assumption"])
    def test_name_set_that_is_not_a_list_of_strings_is_refused(self, tmp_path, edit, what):
        # A string would be read by its characters and an object by its keys.
        obj, blob = self._stored()
        edit(obj)
        cert_path, data_path = tmp_path / "c.cert.json", tmp_path / "c.data.txt"
        cert_path.write_text(json.dumps(obj), encoding="utf-8")
        data_path.write_bytes(blob)
        result = CliRunner().invoke(cli_main, ["verify-cert", str(cert_path), str(data_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(
            f"Error: cannot parse certificate: {what} must be a list of strings")

    @pytest.mark.parametrize("role", ["treatment", "outcome"])
    def test_list_valued_graph_role_is_a_clean_error(self, tmp_path, role):
        obj, blob = self._stored()
        obj["graph"][role] = [obj["graph"][role]]
        cert_path, data_path = tmp_path / "c.cert.json", tmp_path / "c.data.txt"
        cert_path.write_text(json.dumps(obj), encoding="utf-8")
        data_path.write_bytes(blob)
        result = CliRunner().invoke(cli_main, ["verify-cert", str(cert_path), str(data_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"cannot parse certificate: graph {role} must be a string" in result.output

    def test_proof_for_a_malformed_graph_is_a_mismatch(self):
        obj, blob = self._stored()
        cert = certificate_from_json_dict(obj)
        g = worked_graph()
        cyclic = replace(g, directed_edges=g.directed_edges
                         | {("latency_savings_ms", "query_volume")})
        tampered = replace(cert, graph=cyclic, graph_sha256=graph_digest(cyclic))
        mismatches = verify_certificate(tampered, blob)
        assert mismatches == ["proof (directed cycle)"]


def provider_verdict(method, frame, graph, data, cfg=CFG):
    view = InstanceView(id=InstanceId(seed=0, regime=MODERATE, family="db_index_operation",
                                      index=0),
                        frame=frame, graphs=(graph,), data=data)
    return make_provider(method, ProviderContext(), cfg)(view)


def causal_no_experiment(frame, graph, data, cfg=CFG):
    return provider_verdict(CAUSAL_NO_EXPERIMENT, frame, graph, data, cfg)


class TestFailClosed:
    """Bad input ends in REJECT or ABSTAIN, never in EXECUTE or an exception."""

    @pytest.mark.parametrize("field, node", [("target_variable", "query_volume"),
                                             ("utility_variable", "write_volume")])
    def test_query_other_than_the_graph_treatment_and_outcome_rejected(self, field, node):
        frame = replace(worked_frame(), **{field: node})
        v = triage(frame, [worked_graph()], worked_data(), CFG)
        assert v.decision is Decision.REJECT
        assert v.rule_fired == 1
        assert v.certificate is None
        assert node in v.refusal_reason
        assert causal_no_experiment(frame, worked_graph(), worked_data()) == v

    def test_cyclic_graph_rejected_under_rule_one(self):
        g = worked_graph()
        cyclic = replace(g, directed_edges=g.directed_edges
                         | {("latency_savings_ms", "query_volume")})
        v = triage(worked_frame(), [cyclic], worked_data(), CFG)
        assert v.decision is Decision.REJECT
        assert v.rule_fired == 1
        assert "cycle" in v.refusal_reason
        assert causal_no_experiment(worked_frame(), cyclic, worked_data()) == v

    def test_non_string_node_rejected_under_rule_one(self):
        # Identified, but no certificate could write its canonical JSON.
        g = worked_graph()
        odd = CausalGraph(nodes=[*g.nodes, 1], directed_edges=g.directed_edges,
                          bidirected_edges=(), treatment=g.treatment, outcome=g.outcome)
        v = triage(worked_frame(), [odd], worked_data(), CFG)
        assert v.decision is Decision.REJECT
        assert v.rule_fired == 1
        assert v.refusal_reason == "malformed committed graph: node name 1 is not a string"
        assert causal_no_experiment(worked_frame(), odd, worked_data()) == v

    def test_tool_less_frame_rejected_by_causal_no_experiment(self):
        frame = unchecked(worked_frame(), tool="")
        v = causal_no_experiment(frame, worked_graph(), worked_data())
        assert v.decision is Decision.REJECT
        assert v.rule_fired == 1
        assert v.refusal_reason == "malformed action frame: missing tool name"
        assert v == triage(frame, [worked_graph()], worked_data(), CFG)

    def test_causal_no_experiment_ignores_forbidden_tools(self):
        # This method has no tool gate: a forbidden tool is certified as usual.
        cfg = replace(CFG, forbidden_tools=frozenset({worked_frame().tool}))
        assert triage(worked_frame(), [worked_graph()], worked_data(), cfg).decision \
            is Decision.REJECT
        v = causal_no_experiment(worked_frame(), worked_graph(), worked_data(), cfg)
        assert v.decision is Decision.EXECUTE
        assert v == triage(worked_frame(), [worked_graph()], worked_data(), CFG)

    def test_non_finite_estimate_abstains(self):
        # Finite data whose outcome sums overflow: the fit gives an infinite
        # estimate and a NaN bound.
        data = worked_data()
        arr = data.data.copy()
        arr[:, 1] = np.where(arr[:, 0] == 1.0, 1.7e308, -1.7e308)
        extreme = Frame(columns=data.columns, data=arr)
        with np.errstate(all="ignore"):
            verdicts = [triage(worked_frame(), [worked_graph()], extreme, CFG),
                        causal_no_experiment(worked_frame(), worked_graph(), extreme)]
        for v in verdicts:
            assert v.decision is Decision.ABSTAIN
            assert v.rule_fired == 3
            assert "non-finite" in v.refusal_reason

    def test_non_finite_bound_fails_certificate_validation(self, monkeypatch):
        # A finite estimate whose bound alone is not finite gets no certificate.
        fit = verifier.adjusted_effect
        for lcb in (float("nan"), float("inf")):
            monkeypatch.setattr(verifier, "adjusted_effect",
                                lambda *a, **k: replace(fit(*a, **k), lcb=lcb))
            v = triage(worked_frame(), [worked_graph()], worked_data(), CFG)
            assert v.decision is Decision.ABSTAIN and v.rule_fired == 3
            assert v.certificate is None
            assert "non-finite" in v.refusal_reason

    @staticmethod
    def _nan_cost_frame() -> ActionFrame:
        # The constructor refuses a NaN cost; a frame that skipped it (set by
        # hand, or unpickled) must still fail closed at the gate.
        with pytest.raises(ValueError, match="cost"):
            worked_frame(cost=math.nan)
        frame = worked_frame()
        object.__setattr__(frame, "cost", math.nan)
        return frame

    def test_nan_cost_rejected_by_triage(self):
        v = triage(self._nan_cost_frame(), [worked_graph()], worked_data(), CFG)
        assert v.decision is Decision.REJECT
        assert v.rule_fired == 1
        assert v.certificate is None
        assert v.refusal_reason == "malformed action frame: negative or NaN cost"

    def test_nan_cost_rejected_by_causal_no_experiment(self):
        v = causal_no_experiment(self._nan_cost_frame(), worked_graph(), worked_data())
        assert v.decision is Decision.REJECT
        assert v.rule_fired == 1
        assert v.certificate is None
        assert v.refusal_reason == "malformed action frame: negative or NaN cost"

    @staticmethod
    def _harmful_adversarial_instance():
        inst = sample_instance("db_index_operation", ADVERSARIAL, 0, seed=42)
        assert inst.spec.theta < -4
        return inst

    @pytest.mark.parametrize("field, value, reason", [
        ("interventional", None, "interventional flag is not a boolean"),
        ("interventional", 0, "interventional flag is not a boolean"),
        ("reversible", "no", "reversible flag is not a boolean"),
        ("reversible", 1, "reversible flag is not a boolean"),
        ("tool", None, "tool name is not a string"),
        ("tool", ["add_index"], "tool name is not a string"),
        ("tool", "", "missing tool name"),
        ("cost", "0.05", "cost is not a number"),
        ("cost", True, "cost is not a number"),
        ("cost", None, "cost is not a number"),
        ("cost", -0.5, "negative or NaN cost"),
        ("target_value", "1.0", "target value is not a number"),
        ("target_value", True, "target value is not a number"),
        ("target_value", np.ones(2), "target value is not a number"),
    ])
    def test_wrongly_typed_frame_field_rejected_under_rule_one(self, field, value, reason):
        inst = self._harmful_adversarial_instance()
        with pytest.raises(ValueError, match=f"malformed action frame: {reason}"):
            replace(inst.frame, **{field: value})
        frame = unchecked(inst.frame, **{field: value})
        verdicts = [triage(frame, [inst.graph], inst.observational, CFG),
                    causal_no_experiment(frame, inst.graph, inst.observational)]
        for v in verdicts:
            assert (v.decision, v.rule_fired) == (Decision.REJECT, 1)
            assert v.certificate is None
            assert v.refusal_reason == f"malformed action frame: {reason}"

    @pytest.mark.parametrize("value", [0.0, 2.0, -1.0, math.nan])
    def test_target_value_other_than_one_rejected(self, value):
        # A safe instance that executes under the T=1 certificate; the effect
        # of setting T to another value is not what that certificate bounds.
        inst = sample_instance("db_index_operation", MODERATE, 8, seed=42)
        assert inst.spec.theta > 2
        assert triage(inst.frame, [inst.graph], inst.observational, CFG).decision \
            is Decision.EXECUTE
        with pytest.raises(ValueError, match=f"malformed action frame: target value "
                                             f"{re.escape(repr(value))} is not 1.0"):
            replace(inst.frame, target_value=value)
        frame = unchecked(inst.frame, target_value=value)
        for v in (triage(frame, [inst.graph], inst.observational, CFG),
                  causal_no_experiment(frame, inst.graph, inst.observational)):
            assert (v.decision, v.rule_fired) == (Decision.REJECT, 1)
            assert v.certificate is None
            assert v.refusal_reason.startswith(
                f"malformed action frame: target value {value!r} is not 1.0")

    def test_wrongly_typed_alpha_is_a_replay_mismatch(self):
        data = worked_data()
        cert = triage(worked_frame(), [worked_graph()], data, CFG).certificate
        mismatches = verify_certificate(replace(cert, alpha="0.05"), data.canonical_bytes())
        assert len(mismatches) == 1 and mismatches[0].startswith("estimation")

    def test_nan_thresholds_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            VerifierConfig(tau_u=float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            VerifierConfig(tau_r=float("nan"))


class TestViews:
    def test_view_is_redacted(self):
        inst = sample_instance("cache_operation", MODERATE, 0, seed=42)
        view = make_view(inst)
        assert not hasattr(view, "spec")
        assert not hasattr(view, "experimental")
        assert view.graphs == (inst.graph,)
        assert view.data == inst.observational

    def test_empty_graph_set_rejected(self):
        with pytest.raises(ValueError):
            triage(worked_frame(), [], worked_data(), CFG)
