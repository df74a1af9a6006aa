import hashlib
import json
import math
import re
from dataclasses import fields, replace
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
from civex.config import dump, load
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
    BenchmarkSpec,
    InstanceId,
    build_benchmark,
    sample_instance,
)
from civex.verifier import (
    ActionFrame,
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
        assert "malformed" in v.reason

    def test_unknown_target_variable_rejected(self):
        frame = replace(worked_frame(), target_variable="nope")
        v = triage(frame, [worked_graph()], worked_data(), CFG)
        assert v.decision is Decision.REJECT
        assert "target variable" in v.reason

    def test_forbidden_tool_rejected(self):
        cfg = VerifierConfig(forbidden_tools=frozenset({"add_index"}))
        v = triage(worked_frame(), [worked_graph()], worked_data(), cfg)
        assert v.decision is Decision.REJECT
        assert "forbidden" in v.reason


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
        assert "cost" in v.reason

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
        assert "estimation failure" in v.reason

    def test_nan_from_lapack_abstains(self, monkeypatch):
        # A least-squares solve that fails comes back from LAPACK as NaN,
        # not as an exception; rule 3 refuses it as non-finite.
        lapack = estimation._lapack

        def nan_lstsq(*args, **kwargs):
            x, *rest = lapack.lstsq(*args, **kwargs)
            return (np.full_like(x, np.nan), *rest)

        monkeypatch.setattr(estimation, "_lapack", SimpleNamespace(
            cholesky_lo=lapack.cholesky_lo, inv=lapack.inv, lstsq=nan_lstsq))
        v = triage(worked_frame(), [worked_graph()], worked_data(), CFG)
        assert v.decision is Decision.ABSTAIN
        assert v.rule_fired == 3
        assert v.reason == "estimation failure: non-finite estimate or bound"

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
            assert v.reason.startswith(
                f"too few residual degrees of freedom: {verifier.MIN_RESIDUAL_DOF - 1} ")
        else:
            assert v.decision is Decision.EXECUTE, v.reason

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


def _fresh(d: Frame) -> Frame:
    """The same data in a frame that has no fit kept yet."""
    return Frame(columns=d.columns, data=d.data)


def _count_lstsq(monkeypatch) -> list:
    """Route the fit's LAPACK least squares through a counter: one item a call."""
    calls = []
    lapack = estimation._lapack

    def lstsq(*args, **kwargs):
        calls.append(1)
        return lapack.lstsq(*args, **kwargs)

    monkeypatch.setattr(estimation, "_lapack", SimpleNamespace(
        cholesky_lo=lapack.cholesky_lo, inv=lapack.inv, lstsq=lstsq))
    return calls


def _no_bound(y, design, xtx, xtx_inv, alpha, n, adjustment_set):
    return estimation.LcbBound(-math.inf, math.inf, n, adjustment_set)


class TestRefusalBound:
    """Rule 3 refuses from the certified normal-equation bound where it
    settles the refusal, and fits LAPACK's least squares everywhere else."""

    @staticmethod
    def _seed42_traces(monkeypatch):
        """Each seed-42 instance's trace, on frames with no fit kept, and the
        least-squares calls each took."""
        calls = _count_lstsq(monkeypatch)
        out = []
        for inst in build_benchmark(BenchmarkSpec(seeds=(42,)))[0]:
            before = len(calls)
            result = run_two_stage(inst, lambda view: triage(view.frame, view.graphs,
                                                             _fresh(view.data), CFG), CFG)
            out.append((result.trace, len(calls) - before))
        return out

    def test_lstsq_calls_fall_by_the_bound_decided_refusals(self, monkeypatch):
        bounded = self._seed42_traces(monkeypatch)
        monkeypatch.setattr(estimation, "_lcb_bound", _no_bound)
        exact = self._seed42_traces(monkeypatch)
        # Every verdict, reason and certificate is the exact path's.
        assert [trace for trace, _ in bounded] == [trace for trace, _ in exact]
        by_bound = sum(1 for trace, calls in bounded
                       if calls == 0 and trace[-1].rule_fired == 3)
        rule3_rejects = sum(1 for trace, _ in bounded if trace[-1].rule_fired == 3
                            and trace[-1].decision is Decision.REJECT)
        assert by_bound > rule3_rejects // 2
        assert sum(c for _, c in exact) - sum(c for _, c in bounded) == by_bound
        for trace, calls in bounded:
            if trace[-1].rule_fired == 3 and calls == 0:
                assert trace[-1].decision is Decision.REJECT
            if trace[-1].certificate is not None:  # minted from a least-squares fit
                assert calls >= 1

    def test_replay_rests_on_the_exact_fit_alone(self, monkeypatch):
        # Replay is triage again, so it computes the bound; with the bound
        # forced to the whole line it still reproduces every certificate,
        # so the numbers it compares come from the exact fit.
        minted = []
        for inst in build_benchmark(BenchmarkSpec(seeds=(42,)))[0]:
            result = run_two_stage(inst, lambda view: triage(view.frame, view.graphs,
                                                             view.data, CFG), CFG)
            if result.terminal.certificate is not None:
                data = inst.experimental if len(result.trace) == 2 else inst.observational
                minted.append((result.terminal.certificate, data.canonical_bytes()))
        assert minted
        monkeypatch.setattr(estimation, "_lcb_bound", _no_bound)
        assert all(verify_certificate(cert, data) == [] for cert, data in minted)

    def test_a_straddled_threshold_fits_exactly(self, monkeypatch):
        # tau_u a hair above the exact lcb: the bound cannot say which side
        # of it the lcb lies, so rule 3 fits, and refuses with its digits.
        data = worked_data()
        est = estimation.adjusted_effect(_fresh(data), ["query_volume", "write_volume"],
                                         treatment_col="add_index",
                                         outcome_col="latency_savings_ms")
        calls = _count_lstsq(monkeypatch)
        v = triage(worked_frame(), [worked_graph()], data,
                   VerifierConfig(tau_u=np.nextafter(est.lcb, np.inf)))
        assert (v.decision, v.rule_fired, len(calls)) == (Decision.REJECT, 3, 1)
        assert v.reason.startswith(f"worst-case lower confidence bound {est.lcb:.6g} ")

    def test_a_bound_whose_ends_print_apart_fits_exactly(self, monkeypatch):
        # A valid bound, far below tau_u but wide enough that its ends print
        # different digits: only the exact fit can say which the reason shows.
        data = worked_data(theta=-3.0)
        est = estimation.adjusted_effect(_fresh(data), ["query_volume", "write_volume"],
                                         treatment_col="add_index",
                                         outcome_col="latency_savings_ms")
        bound = estimation._lcb_bound
        monkeypatch.setattr(estimation, "_lcb_bound", lambda *args: bound(*args)._replace(
            lo=est.lcb - 0.01, hi=est.lcb + 0.01))
        calls = _count_lstsq(monkeypatch)
        v = triage(worked_frame(), [worked_graph()], data, CFG)
        assert (v.decision, v.rule_fired, len(calls)) == (Decision.REJECT, 3, 1)
        assert v.reason.startswith(f"worst-case lower confidence bound {est.lcb:.6g} ")

    def test_a_clear_refusal_fits_nothing(self, monkeypatch):
        data = worked_data(theta=-3.0)
        calls = _count_lstsq(monkeypatch)
        v = triage(worked_frame(), [worked_graph()], data, CFG)
        assert (v.decision, v.rule_fired, calls) == (Decision.REJECT, 3, [])
        monkeypatch.setattr(estimation, "_lcb_bound", _no_bound)
        assert triage(worked_frame(), [worked_graph()], _fresh(data), CFG) == v
        assert len(calls) == 1


class TestRuleFour:
    @staticmethod
    def _latent_graph():
        g = worked_graph()
        return CausalGraph.create(g.nodes, g.directed,
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
        assert "certificate-only" in v.reason

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
            assert v.reason == ("effect not identifiable and no safe "
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

    @pytest.mark.parametrize("reversible, reason", [
        (False, "experiment requested but no safe experiment is available"),
        (True, "experiment loop did not terminate after one stage"),
    ])
    def test_an_endless_experimenter_ends_in_abstain(self, reversible, reason):
        # A provider that asks for a trial at every stage: without a
        # reversible action there is no trial, and with one the second ask
        # cannot start another.
        ask = verifier.Verdict(Decision.EXPERIMENT, "always experiments")
        inst = sample_instance("cache_operation", MODERATE, 0, seed=42,
                               bspec=BenchmarkSpec(reversible_fraction=float(reversible)))
        assert inst.safe_experiment_available is reversible
        res = run_two_stage(inst, lambda view: ask, CFG)
        assert [v.decision for v in res.trace] == [Decision.EXPERIMENT, Decision.ABSTAIN]
        assert res.stage1 is ask
        assert (res.terminal.rule_fired, res.terminal.reason) == (4, reason)

    def test_resolved_graph_drops_latent_edge_and_treatment_parents(self):
        g = CausalGraph.create(
            ["T", "Y", "c"], [("c", "T"), ("c", "Y"), ("T", "Y")],
            bidirected=[("T", "Y")])
        resolved = resolve_for_experiment(g)
        assert resolved.bidirected == frozenset()
        assert resolved.directed == frozenset({("c", "Y"), ("T", "Y")})
        # Randomizing T severs only the edges into T: a latent M<->Y stays.
        g = CausalGraph.create(["T", "M", "Y"], [("T", "M"), ("M", "Y")],
                               bidirected=[("T", "Y"), ("M", "Y")])
        resolved = resolve_for_experiment(g)
        assert resolved.bidirected == frozenset({("M", "Y")})
        assert resolved.directed == g.directed
        result = identify(resolved)
        assert (result.kind, result.adjustment_set) == (IdentificationKind.BACKDOOR, ())


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
        # Rule 3 is the one place that checks the bound and the risk:
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

    def test_json_roundtrip_preserves_replay(self, small_run):
        # The worked example's certificate, then every certificate of a run,
        # each through the JSON text the writer writes.
        cert, data = self._executed()
        stored = [(cert, data)]
        by_id = {inst.id: inst for inst in small_run.instances}
        for r in small_run.records:
            if r.result.terminal.certificate is not None:
                inst = by_id[r.instance_id]
                stored.append((r.result.terminal.certificate,
                               inst.experimental if len(r.result.trace) == 2
                               else inst.observational))
        assert len(stored) > 10
        for cert, data in stored:
            obj = json.loads(json.dumps(certificate_to_json_dict(cert), sort_keys=True))
            again = certificate_from_json_dict(obj)
            assert again == cert
            assert verify_certificate(again, data.canonical_bytes()) == []

    def test_action_frame_roundtrip(self, small_run):
        # Each distinct frame of a build, through its JSON document.
        frames = {inst.frame for inst in small_run.instances}
        assert len(frames) > 1
        for frame in frames:
            assert load(ActionFrame, json.loads(json.dumps(dump(frame)))) == frame

    def test_graph_built_from_lists_certifies_and_replays(self):
        # Lists, and a latent pair out of name order: the committed graph's
        # digest must survive the certificate's JSON round trip.
        g = worked_graph()
        built = CausalGraph.create(nodes=sorted(g.nodes),
                                   directed=[list(e) for e in sorted(g.directed)],
                                   bidirected=[["write_volume", "query_volume"]],
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
    "n": lambda obj: obj.update(n=obj["n"] + 1),
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
            f"Error: cannot parse certificate: risk must be a finite number >= 0, got {risk!r}")

    @pytest.mark.parametrize("name, edit", [
        ("n", float), ("n", lambda n: True), ("n", str), ("alpha", lambda a: [a]),
        ("alpha", lambda a: 1), ("theta_hat", str), ("std_err", lambda s: None),
        ("lcb_alpha", lambda b: False),
    ], ids=["float-n", "bool-n", "string-n", "list-alpha", "int-alpha", "string-theta",
            "null-std-err", "bool-lcb"])
    def test_wrongly_typed_number_is_refused(self, tmp_path, name, edit):
        # The writer writes n as an int and the others as floats; replay
        # compares with ==, so 400.0 would pass for a row count of 400.
        obj, blob = self._stored()
        obj[name] = edit(obj[name])
        cert_path, data_path = tmp_path / "c.cert.json", tmp_path / "c.data.txt"
        cert_path.write_text(json.dumps(obj), encoding="utf-8")
        data_path.write_bytes(blob)
        result = CliRunner().invoke(cli_main, ["verify-cert", str(cert_path), str(data_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        kind = "an integer" if name == "n" else "a float"
        assert result.output.startswith(
            f"Error: cannot parse certificate: {name} must be {kind}, got {obj[name]!r}")

    @pytest.mark.parametrize("edit, what", [
        (lambda obj: obj["proof"].update(adjustment_set="", mediator_set={}),
         "proof.adjustment_set"),
        (lambda obj: obj["proof"].update(mediator_set={}), "proof.mediator_set"),
        (lambda obj: obj["proof"].update(adjustment_set="query_volume"),
         "proof.adjustment_set"),
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
        assert (f"cannot parse certificate: graph.{role} must be a string, "
                f"got {obj['graph'][role]!r}") in result.output

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj["assumptions"].__setitem__(-1, 4),
         "assumptions must be a list of strings, got ['A1', 'A2', 'A3', 4]"),
        (lambda obj: obj["graph"].update(nodes=7),
         "graph.nodes must be a list of node names (strings), got 7"),
        (lambda obj: obj["graph"]["nodes"].append(1),
         "graph.nodes must be a list of node names (strings), got ['add_index', "
         "'latency_savings_ms', 'query_volume', 'write_volume', 1]"),
        (lambda obj: obj["graph"].update(directed=[["add_index", "latency_savings_ms", "T"]]),
         "graph.directed must be a list of node-name pairs, "
         "got [['add_index', 'latency_savings_ms', 'T']]"),
        (lambda obj: obj["graph"].update(bidirected=[[{}, "add_index"]]),
         "graph.bidirected must be a list of node-name pairs, got [[{}, 'add_index']]"),
        (lambda obj: obj["graph"].pop("outcome"), "missing key: graph.outcome"),
        (lambda obj: obj["graph"].update(latent=[]), "unknown key(s): graph.latent"),
    ], ids=["assumption", "number-nodes", "number-node", "three-name-edge", "object-endpoint",
            "missing-graph-key", "extra-graph-key"])
    def test_refusal_shows_the_value_the_document_held(self, tmp_path, edit, message):
        # A list is read only when every item holds, so the refusal shows the
        # document's array, not a Python tuple or set the reader made of it.
        obj, blob = self._stored()
        edit(obj)
        cert_path, data_path = tmp_path / "c.cert.json", tmp_path / "c.data.txt"
        cert_path.write_text(json.dumps(obj), encoding="utf-8")
        data_path.write_bytes(blob)
        result = CliRunner().invoke(cli_main, ["verify-cert", str(cert_path), str(data_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: cannot parse certificate: {message}\n"

    def test_proof_for_a_malformed_graph_is_a_mismatch(self):
        obj, blob = self._stored()
        cert = certificate_from_json_dict(obj)
        g = worked_graph()
        cyclic = replace(g, directed=g.directed
                         | {("latency_savings_ms", "query_volume")})
        tampered = replace(cert, graph=cyclic, graph_sha256=graph_digest(cyclic))
        mismatches = verify_certificate(tampered, blob)
        assert mismatches == ["policy (malformed committed graph: directed cycle)"]

    def test_replay_binds_the_bytes_as_given(self, monkeypatch):
        # The parsed frame keeps the digest replay checked, so replay does not
        # serialize the data again: bytes in a form other than canonical (a
        # trailing zero on one value, the same float) replay under their own
        # digest, as the certificate names them.
        data = worked_data()
        cert = triage(worked_frame(), [worked_graph()], data, CFG).certificate
        header, _, body = data.canonical_bytes().partition(b"\n")
        first, _, rest = body.partition(b",")
        assert b"." in first and b"e" not in first
        blob = header + b"\n" + first + b"0," + rest
        assert Frame.from_canonical_bytes(blob) == data
        digest = hashlib.sha256(blob).hexdigest()
        monkeypatch.setattr(Frame, "canonical_bytes", None)  # replay never calls it
        assert Frame.from_canonical_bytes(blob, sha256=digest).sha256() == digest
        assert verify_certificate(replace(cert, provenance=digest), blob) == []


def _write_replay_inputs(tmp_path, cert, blob, policy=None) -> list[str]:
    """The verify-cert arguments for ``cert``, ``blob`` and a ``policy`` document."""
    cert_path, data_path = tmp_path / "c.cert.json", tmp_path / "c.data.txt"
    cert_path.write_text(json.dumps(certificate_to_json_dict(cert)), encoding="utf-8")
    data_path.write_bytes(blob)
    args = ["verify-cert", str(cert_path), str(data_path)]
    if policy is not None:
        (tmp_path / "policy.json").write_text(json.dumps(policy), encoding="utf-8")
        args += ["--config", str(tmp_path / "policy.json")]
    return args


class TestReplayPolicy:
    """Replay mints the certificate again under a policy, so a certificate
    that the policy would refuse does not verify."""

    LOOSE = {"alpha": 0.999, "tau_u": -3.0}

    def _loose_certificate(self):
        # Planted theta -2.72: refused at alpha 0.05 (lcb -2.99) and at alpha
        # 0.999 under tau_u 0 (lcb -2.34), but executed under the loose policy.
        inst = sample_instance("db_index_operation", MODERATE, 3, seed=42)
        assert str(inst.id) == "s42-moderate-db_index_operation-0003"
        assert inst.spec.theta < -2.7
        v = triage(inst.frame, [inst.graph], inst.observational, VerifierConfig(**self.LOOSE))
        assert v.decision is Decision.EXECUTE
        return v.certificate, inst.observational.canonical_bytes()

    def test_loose_alpha_certificate_fails_the_default_policy(self, tmp_path):
        cert, blob = self._loose_certificate()
        expected = ("policy (worst-case lower confidence bound -2.99171 is below the "
                    "utility threshold 0)")
        assert verify_certificate(cert, blob) == [expected]
        result = CliRunner().invoke(cli_main, _write_replay_inputs(tmp_path, cert, blob))
        assert result.exit_code == 1
        assert result.output == f"certificate mismatch: {expected}\n"

    def test_loose_alpha_certificate_verifies_under_its_own_policy(self, tmp_path):
        cert, blob = self._loose_certificate()
        assert verify_certificate(cert, blob, VerifierConfig(**self.LOOSE)) == []
        result = CliRunner().invoke(cli_main,
                                    _write_replay_inputs(tmp_path, cert, blob, self.LOOSE))
        assert result.exit_code == 0
        assert "the policy held" in result.output

    def test_other_alpha_is_named(self):
        # Under a policy whose tau_u the bound clears at either alpha, replay
        # names the alpha the certificate was minted at, and the bound, which
        # depends on alpha where the fit does not.
        cert, blob = self._loose_certificate()
        assert verify_certificate(cert, blob, VerifierConfig(tau_u=-4.0)) \
            == ["lcb_alpha", "alpha"]

    @pytest.mark.parametrize("policy, reason", [
        (lambda cert: {"tau_u": cert.lcb_alpha + 1.0}, "worst-case lower confidence bound"),
        (lambda cert: {"tau_r": cert.risk / 2}, "cost 0.05 overruns the risk threshold 0.025"),
    ], ids=["tau_u-above-lcb", "tau_r-below-risk"])
    def test_honest_certificate_under_a_stricter_policy(self, tmp_path, policy, reason):
        data = worked_data()
        cert = triage(worked_frame(), [worked_graph()], data, CFG).certificate
        blob = data.canonical_bytes()
        strict = policy(cert)
        mismatches = verify_certificate(cert, blob, VerifierConfig(**strict))
        assert len(mismatches) == 1 and mismatches[0].startswith(f"policy ({reason}")
        result = CliRunner().invoke(cli_main, _write_replay_inputs(tmp_path, cert, blob, strict))
        assert result.exit_code == 1
        assert result.output == f"certificate mismatch: {mismatches[0]}\n"

    @pytest.mark.parametrize("policy, message", [
        ({"tau_x": 1.0}, "invalid configuration: unknown key(s): tau_x"),
        ({"alpha": "0.05"}, "invalid configuration: alpha must be a number in (0, 1), "
                            "got '0.05'"),
        ({"forbidden_tools": "rm"}, "invalid configuration: forbidden_tools must be a list "
                                    "of tool names (strings), got 'rm'"),
        ([], "invalid configuration: the document must be a JSON object"),
    ], ids=["unknown-key", "string-alpha", "string-tools", "array"])
    def test_malformed_policy_is_a_clean_error(self, tmp_path, policy, message):
        data = worked_data()
        cert = triage(worked_frame(), [worked_graph()], data, CFG).certificate
        args = _write_replay_inputs(tmp_path, cert, data.canonical_bytes(), policy)
        result = CliRunner().invoke(cli_main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"Error: {message}\n"


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
        assert node in v.reason
        assert causal_no_experiment(frame, worked_graph(), worked_data()) == v

    def test_cyclic_graph_rejected_under_rule_one(self):
        g = worked_graph()
        cyclic = replace(g, directed=g.directed
                         | {("latency_savings_ms", "query_volume")})
        v = triage(worked_frame(), [cyclic], worked_data(), CFG)
        assert v.decision is Decision.REJECT
        assert v.rule_fired == 1
        assert "cycle" in v.reason
        assert causal_no_experiment(worked_frame(), cyclic, worked_data()) == v

    def test_non_string_node_rejected_under_rule_one(self):
        # Identified, but no certificate could write its canonical JSON.  The
        # constructor refuses the name, so the graph skips it.
        g = worked_graph()
        odd = unchecked(g, nodes=g.nodes | {1})
        v = triage(worked_frame(), [odd], worked_data(), CFG)
        assert v.decision is Decision.REJECT
        assert v.rule_fired == 1
        assert v.reason == ("malformed committed graph: nodes must be a list of node names "
                            "(strings), got {'add_index', 'latency_savings_ms', "
                            "'query_volume', 'write_volume', 1}")
        assert causal_no_experiment(worked_frame(), odd, worked_data()) == v

    @pytest.mark.parametrize("role", ["treatment", "outcome"])
    @pytest.mark.parametrize("value", [["add_index"], 1])
    def test_role_that_is_not_a_string_rejected_under_rule_one(self, role, value):
        # A list does not hash, so rule 1 must refuse it before a memo sees the graph.
        odd = unchecked(worked_graph(), **{role: value})
        v = triage(worked_frame(), [odd], worked_data(), CFG)
        assert v.decision is Decision.REJECT
        assert v.rule_fired == 1
        assert v.reason == (f"malformed committed graph: {role} must be a string, "
                            f"got {value!r}")
        assert causal_no_experiment(worked_frame(), odd, worked_data()) == v

    def test_tool_less_frame_rejected_by_causal_no_experiment(self):
        frame = unchecked(worked_frame(), tool="")
        v = causal_no_experiment(frame, worked_graph(), worked_data())
        assert v.decision is Decision.REJECT
        assert v.rule_fired == 1
        assert v.reason == "malformed action frame: tool must be a non-empty string, got ''"
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
            assert "non-finite" in v.reason

    def test_non_finite_bound_fails_certificate_validation(self, monkeypatch):
        # A finite estimate whose bound alone is not finite gets no certificate.
        # Rule 3 takes a backdoor fit from ``adjusted_effect_bound``; an exact
        # fit's bound is its own lcb.
        bound_for = verifier.adjusted_effect_bound
        for lcb in (float("nan"), float("inf")):
            def bounded(*a, lcb=lcb, **k):
                est = replace(bound_for(*a, **k)[1](), lcb=lcb)
                return estimation.LcbBound.of(est), lambda: est

            monkeypatch.setattr(verifier, "adjusted_effect_bound", bounded)
            v = triage(worked_frame(), [worked_graph()], worked_data(), CFG)
            assert v.decision is Decision.ABSTAIN and v.rule_fired == 3
            assert v.certificate is None
            assert "non-finite" in v.reason

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
        assert v.reason == "malformed action frame: cost must be a finite number >= 0, got nan"

    def test_nan_cost_rejected_by_causal_no_experiment(self):
        v = causal_no_experiment(self._nan_cost_frame(), worked_graph(), worked_data())
        assert v.decision is Decision.REJECT
        assert v.rule_fired == 1
        assert v.certificate is None
        assert v.reason == "malformed action frame: cost must be a finite number >= 0, got nan"

    @staticmethod
    def _harmful_adversarial_instance():
        inst = sample_instance("db_index_operation", ADVERSARIAL, 0, seed=42)
        assert inst.spec.theta < -4
        return inst

    @pytest.mark.parametrize("field, value, requirement", [
        ("interventional", None, "a boolean"),
        ("interventional", 0, "a boolean"),
        ("reversible", "no", "a boolean"),
        ("reversible", 1, "a boolean"),
        ("tool", None, "a non-empty string"),
        ("tool", ["add_index"], "a non-empty string"),
        ("tool", "", "a non-empty string"),
        ("target_variable", ["T"], "a string"),
        ("utility_variable", None, "a string"),
        ("cost", "0.05", "a finite number >= 0"),
        ("cost", True, "a finite number >= 0"),
        ("cost", None, "a finite number >= 0"),
        ("cost", -0.5, "a finite number >= 0"),
        ("cost", math.inf, "a finite number >= 0"),
        ("target_value", "1.0", "1.0, the only treatment level civex certifies"),
        ("target_value", True, "1.0, the only treatment level civex certifies"),
        ("target_value", np.ones(2), "1.0, the only treatment level civex certifies"),
    ])
    def test_wrongly_typed_frame_field_rejected_under_rule_one(self, field, value, requirement):
        reason = f"{field} must be {requirement}, got {value!r}"
        inst = self._harmful_adversarial_instance()
        with pytest.raises(ValueError, match=re.escape(reason)):
            replace(inst.frame, **{field: value})
        frame = unchecked(inst.frame, **{field: value})
        verdicts = [triage(frame, [inst.graph], inst.observational, CFG),
                    causal_no_experiment(frame, inst.graph, inst.observational)]
        for v in verdicts:
            assert (v.decision, v.rule_fired) == (Decision.REJECT, 1)
            assert v.certificate is None
            assert v.reason == f"malformed action frame: {reason}"

    @pytest.mark.parametrize("value", [0.0, 2.0, -1.0, math.nan])
    def test_target_value_other_than_one_rejected(self, value):
        # A safe instance that executes under the T=1 certificate; the effect
        # of setting T to another value is not what that certificate bounds.
        inst = sample_instance("db_index_operation", MODERATE, 8, seed=42)
        assert inst.spec.theta > 2
        assert triage(inst.frame, [inst.graph], inst.observational, CFG).decision \
            is Decision.EXECUTE
        reason = (f"target_value must be 1.0, the only treatment level civex certifies, "
                  f"got {value!r}")
        with pytest.raises(ValueError, match=re.escape(reason)):
            replace(inst.frame, target_value=value)
        frame = unchecked(inst.frame, target_value=value)
        for v in (triage(frame, [inst.graph], inst.observational, CFG),
                  causal_no_experiment(frame, inst.graph, inst.observational)):
            assert (v.decision, v.rule_fired) == (Decision.REJECT, 1)
            assert v.certificate is None
            assert v.reason == f"malformed action frame: {reason}"

    def test_wrongly_typed_alpha_is_a_replay_mismatch(self):
        data = worked_data()
        cert = triage(worked_frame(), [worked_graph()], data, CFG).certificate
        # The constructor refuses the string, so it is set past the check.
        mismatches = verify_certificate(unchecked(cert, alpha="0.05"), data.canonical_bytes())
        assert mismatches == ["alpha"]

    @pytest.mark.parametrize("edit, expected", [
        (lambda c: unchecked(c, graph=None), ["graph (a NoneType is not a CausalGraph)"]),
        (lambda c: unchecked(c, graph="g"), ["graph (a str is not a CausalGraph)"]),
        (lambda c: unchecked(c, graph=unchecked(c.graph, nodes=sorted(c.graph.nodes))),
         ["graph (nodes must be a list of node names (strings), got ['add_index', "
          "'latency_savings_ms', 'query_volume', 'write_volume'])"]),
        (lambda c: unchecked(c, proof=None), ["proof (a NoneType is not an IdentificationResult)"]),
        (lambda c: unchecked(c, proof=dump(c.proof)),
         ["proof (a dict is not an IdentificationResult)"]),
        (lambda c: unchecked(c, graph=None, proof=None),
         ["graph (a NoneType is not a CausalGraph)",
          "proof (a NoneType is not an IdentificationResult)"]),
        *((lambda c, risk=risk: unchecked(c, risk=risk),
           [f"policy (malformed action frame: cost must be a finite number >= 0, got {risk!r})"])
          for risk in (None, math.nan, "lots", -1.0)),
    ], ids=["graph-none", "graph-str", "graph-list-nodes", "proof-none", "proof-dict", "both",
            "risk-none", "risk-nan", "risk-str", "risk-negative"])
    def test_record_past_the_constructor_is_a_replay_mismatch(self, edit, expected):
        # A certificate whose graph, proof or risk skipped its constructor is
        # named: replay promises a list of mismatches, never an exception.
        data = worked_data()
        cert = triage(worked_frame(), [worked_graph()], data, CFG).certificate
        assert verify_certificate(edit(cert), data.canonical_bytes()) == expected

    def test_nan_thresholds_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            VerifierConfig(tau_u=float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            VerifierConfig(tau_r=float("nan"))


class TestVerdict:
    def test_one_required_reason(self):
        assert [f.name for f in fields(verifier.Verdict)] \
            == ["decision", "reason", "rule_fired", "certificate"]
        with pytest.raises(TypeError, match="reason"):
            verifier.Verdict(Decision.REJECT)

    def test_only_experiment_asks_for_another_stage(self):
        assert [d for d in Decision if not d.terminal] == [Decision.EXPERIMENT]


class TestViews:
    def test_view_is_redacted(self):
        inst = sample_instance("cache_operation", MODERATE, 0, seed=42)
        view = make_view(inst)
        assert not hasattr(view, "spec")
        assert not hasattr(view, "experimental")
        assert view.graphs == (inst.graph,)
        assert view.data == inst.observational

    def test_empty_graph_set_rejected(self):
        v = triage(worked_frame(), (), worked_data(), CFG)
        assert (v.decision, v.rule_fired) == (Decision.REJECT, 1)
        assert v.reason == "malformed committed graph set: no graph is committed"
        view = InstanceView(id=InstanceId(0, MODERATE, "db_index_operation", 0),
                            frame=worked_frame(), graphs=(), data=worked_data())
        assert make_provider(CAUSAL_NO_EXPERIMENT, ProviderContext(), CFG)(view) == v

    def test_triage_is_the_gates_one_entry(self):
        # Rule 3 alone would certify each probe: a target that is not the
        # graph's treatment, a forbidden tool, and a latent graph passed with
        # the backdoor proof of its latent-free twin.  So no public name may
        # reach it around rules 1 and 2.
        assert not hasattr(verifier, "certify")
        frame, data = worked_frame(), worked_data()
        probes = [
            (replace(frame, target_variable="query_volume"), worked_graph(), CFG,
             (Decision.REJECT, 1)),
            (frame, worked_graph(), replace(CFG, forbidden_tools=frozenset({frame.tool})),
             (Decision.REJECT, 1)),
            (frame, TestRuleFour._latent_graph(), CFG, (Decision.EXPERIMENT, 4)),
        ]
        for probe_frame, graph, cfg, expected in probes:
            v = triage(probe_frame, [graph], data, cfg)
            assert (v.decision, v.rule_fired, v.certificate) == (*expected, None)

    @pytest.mark.parametrize("graph", [worked_graph(), TestRuleFour._latent_graph()],
                             ids=["identified", "latent"])
    def test_a_one_shot_graph_iterator_gives_the_list_verdict(self, graph):
        v = triage(worked_frame(), [graph], worked_data(), CFG)
        assert triage(worked_frame(), iter([graph]), worked_data(), CFG) == v
        view = InstanceView(id=InstanceId(0, MODERATE, "db_index_operation", 0),
                            frame=worked_frame(), graphs=iter([graph]), data=worked_data())
        assert make_provider(CAUSAL_NO_EXPERIMENT, ProviderContext(), CFG)(view) \
            == causal_no_experiment(worked_frame(), graph, worked_data())
