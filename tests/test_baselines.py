import dataclasses
import warnings

import pytest

from civex import baselines
from civex.baselines import (
    ALL_METHODS,
    ALWAYS_ABSTAIN,
    CAUSAL_NO_EXPERIMENT,
    CIVEX,
    CIVEX_CERT_ONLY,
    CONTEXT_ONLY_NO_CAUSAL,
    FAMILY_MAJORITY_CLASSIFIER,
    NAME_ONLY_CLASSIFIER,
    OBSERVATIONAL_ASSOCIATION,
    ORACLE_SCM,
    POLICY_GATE,
    SCHEMA_GATE,
    SEMANTIC_ONTOLOGY_GATE,
    ProviderContext,
    ReplayError,
    build_context,
    is_replay,
    load_replay_shard,
    make_provider,
    replay_tag,
    replayed_result,
)
from civex.estimation import unadjusted_difference
from civex.evaluation import ScoreWeights
from civex.graphs import identify
from civex.runner import evaluate_instances
from civex.scm import (ADVERSARIAL, MODERATE, BenchmarkSpec, InstanceId, build_benchmark,
                        sample_instance)
from civex.verifier import Decision, VerifierConfig, make_view, run_two_stage

from oracles import pooled_association_oracle

CFG = VerifierConfig()
SMALL = BenchmarkSpec(seeds=(42,), moderate_per_family=6, adversarial_per_family=6)


@pytest.fixture(scope="module")
def bench():
    instances, _ = build_benchmark(SMALL)
    return instances


@pytest.fixture(scope="module")
def ctx(bench):
    return build_context(bench)


def terminal(method, inst, ctx):
    provider = make_provider(method, ctx, CFG)
    return run_two_stage(inst, provider, CFG).terminal


class TestOracle:
    def test_executes_exactly_the_safe_instances(self, bench, ctx):
        for inst in bench:
            v = terminal(ORACLE_SCM, inst, ctx)
            expected = Decision.EXECUTE if inst.spec.theta > 0 else Decision.REJECT
            assert v.decision is expected


class TestPolicyGate:
    def test_follows_observational_sign(self, bench, ctx):
        for inst in bench:
            v = terminal(POLICY_GATE, inst, ctx)
            delta = unadjusted_difference(inst.observational).theta_hat
            expected = Decision.EXECUTE if delta > 0 else Decision.REJECT
            assert v.decision is expected

    def test_sign_flipped_on_adversarial_instances(self, bench, ctx):
        flipped = [i for i in bench if i.id.regime == ADVERSARIAL]
        assert flipped
        for inst in flipped:
            v = terminal(POLICY_GATE, inst, ctx)
            if inst.spec.theta < 0:
                assert v.decision is Decision.EXECUTE
            else:
                assert v.decision is Decision.REJECT


class TestForbiddenListGates:
    def test_execute_everything_by_default(self, bench, ctx):
        for inst in bench[:20]:
            for method in (SCHEMA_GATE, SEMANTIC_ONTOLOGY_GATE, FAMILY_MAJORITY_CLASSIFIER):
                assert terminal(method, inst, ctx).decision is Decision.EXECUTE

    def test_three_gates_identical_decision_vectors(self, bench, ctx):
        vectors = {}
        for method in (SCHEMA_GATE, SEMANTIC_ONTOLOGY_GATE, FAMILY_MAJORITY_CLASSIFIER):
            vectors[method] = [terminal(method, i, ctx).decision for i in bench]
        assert vectors[SCHEMA_GATE] == vectors[SEMANTIC_ONTOLOGY_GATE]
        assert vectors[SCHEMA_GATE] == vectors[FAMILY_MAJORITY_CLASSIFIER]

    def test_forbidden_list_rejects(self, bench):
        cfg = VerifierConfig(forbidden_tools=frozenset({"enable_cache"}))
        ctx2 = build_context(bench)
        hits = [i for i in bench if i.frame.tool == "enable_cache"]
        assert hits
        for inst in hits[:3]:
            provider = make_provider(SCHEMA_GATE, ctx2, cfg)
            assert provider(make_view(inst)).decision is Decision.REJECT


class TestNameOnly:
    def test_static_benign_table(self, bench, ctx):
        for inst in bench:
            v = terminal(NAME_ONLY_CLASSIFIER, inst, ctx)
            if inst.id.family in ("cache_operation", "log_retention_operation"):
                assert v.decision is Decision.EXECUTE
            else:
                assert v.decision is Decision.ABSTAIN


class TestAlwaysAbstain:
    def test_always(self, bench, ctx):
        assert all(terminal(ALWAYS_ABSTAIN, i, ctx).decision is Decision.ABSTAIN
                   for i in bench[:20])


class TestObservationalAssociation:
    def test_pooled_decision_is_constant_within_pool(self, bench, ctx):
        by_pool = {}
        for inst in bench:
            v = terminal(OBSERVATIONAL_ASSOCIATION, inst, ctx)
            key = (inst.id.seed, inst.id.regime, inst.id.family)
            by_pool.setdefault(key, set()).add(v.decision)
        assert all(len(decisions) == 1 for decisions in by_pool.values())

    def test_bound_is_at_the_configured_alpha_and_threshold(self, bench, ctx):
        def executes(cfg):
            provider = make_provider(OBSERVATIONAL_ASSOCIATION, ctx, cfg)
            return sum(provider(make_view(i)).decision is Decision.EXECUTE for i in bench)

        # A one-sided bound at alpha 0.5 is the point estimate itself.
        assert executes(CFG) == 0
        assert executes(VerifierConfig(alpha=0.5)) == 24
        assert executes(VerifierConfig(alpha=0.5, tau_u=1e9)) == 0

    def test_texts_name_the_threshold(self, bench, ctx):
        # At alpha 0.5 the bound is the point estimate; two moderate pools
        # (0.35 and 0.43) clear zero but not tau_u 0.5, and abstain.
        provider = make_provider(OBSERVATIONAL_ASSOCIATION, ctx,
                                 VerifierConfig(alpha=0.5, tau_u=0.5))
        texts = {}
        for inst in bench:
            v = provider(make_view(inst))
            texts.setdefault(v.decision, set()).add(v.reason)
        assert texts == {
            Decision.EXECUTE: {"positive association with a bound at or above "
                               "the utility threshold 0.5"},
            Decision.ABSTAIN: {"association is not positive or its bound is below "
                               "the utility threshold 0.5"},
        }

    def test_abstains_on_adversarial_pools(self, bench, ctx):
        for inst in bench:
            if inst.id.regime == ADVERSARIAL:
                assert terminal(OBSERVATIONAL_ASSOCIATION, inst, ctx).decision \
                    is Decision.ABSTAIN


class TestPooledAssociation:
    @pytest.fixture(scope="class")
    def few_rows(self):
        # At 3 rows some observational frames have one arm only; their
        # instances join no pool.
        spec = BenchmarkSpec(seeds=(42, 43), moderate_per_family=3,
                             adversarial_per_family=3, n_rows=3)
        instances, _ = build_benchmark(spec)
        assert any(len(set(i.observational.column("T"))) < 2 for i in instances)
        return instances

    def test_pools_equal_the_oracle_bit_for_bit(self, bench, few_rows):
        for instances in (bench, few_rows):
            pooled = baselines._pooled_association(build_context(instances).observational)
            expected = pooled_association_oracle(instances)
            assert list(pooled) == list(expected)
            assert all(pooled[key] == expected[key] for key in expected)

    def test_only_the_association_provider_pools(self, bench, monkeypatch):
        calls = []
        pool = baselines._pooled_association

        def counted(observational):
            calls.append(len(observational))
            return pool(observational)

        monkeypatch.setattr(baselines, "_pooled_association", counted)
        ctx = build_context(bench)
        for method in ALL_METHODS:
            if method != OBSERVATIONAL_ASSOCIATION:
                make_provider(method, ctx, CFG)
        assert calls == []
        make_provider(OBSERVATIONAL_ASSOCIATION, ctx, CFG)
        assert calls == [len(bench)]


class TestCausalBaselines:
    def test_cert_only_equals_causal_no_experiment_everywhere(self, bench, ctx):
        for inst in bench:
            a = terminal(CIVEX_CERT_ONLY, inst, ctx)
            b = terminal(CAUSAL_NO_EXPERIMENT, inst, ctx)
            assert a.decision == b.decision, inst.id

    def test_causal_no_experiment_abstains_on_latent_edges(self, bench, ctx):
        for inst in bench:
            if inst.graph.bidirected:
                assert terminal(CAUSAL_NO_EXPERIMENT, inst, ctx).decision \
                    is Decision.ABSTAIN

    def test_civex_never_false_executes_here(self, bench, ctx):
        for inst in bench:
            v = terminal(CIVEX, inst, ctx)
            if v.decision is Decision.EXECUTE:
                assert inst.spec.theta > 0

    def test_context_only_rejects_adversarial_and_executes_safe_moderate(self, bench, ctx):
        adversarial = [i for i in bench if i.id.regime == ADVERSARIAL]
        for inst in adversarial:
            assert terminal(CONTEXT_ONLY_NO_CAUSAL, inst, ctx).decision \
                is Decision.REJECT
        moderate_safe = [i for i in bench
                         if i.id.regime == MODERATE and i.spec.theta > 0]
        assert moderate_safe
        for inst in moderate_safe:
            assert terminal(CONTEXT_ONLY_NO_CAUSAL, inst, ctx).decision \
                is Decision.EXECUTE

    def test_context_only_reuses_the_causal_fit(self):
        # identify writes a backdoor set in name order; the frame's columns
        # keep the spec's order, which differs here.
        bspec = dataclasses.replace(SMALL, latent_fraction_moderate=0.0)
        inst = next(i for i in (sample_instance("service_restart_operation", MODERATE, index,
                                                seed=42, bspec=bspec) for index in range(30))
                    if len(i.spec.observed) >= 3)
        columns = list(inst.observational.columns[2:])
        assert columns != sorted(columns)
        assert identify(inst.graph).adjustment_set == tuple(sorted(columns))
        ctx = build_context([inst])
        terminal(CIVEX, inst, ctx)
        fits = dict(inst.observational._fits)
        assert fits
        terminal(CONTEXT_ONLY_NO_CAUSAL, inst, ctx)
        assert inst.observational._fits == fits


class TestInputParity:
    def test_non_oracle_methods_run_without_ground_truth_tables(self, bench):
        # An empty theta table starves the oracle but must not affect anyone
        # else; ground-truth access outside the oracle would raise KeyError.
        full = build_context(bench)
        starved = dataclasses.replace(full, theta_by_id={})
        for method in ALL_METHODS:
            if method == ORACLE_SCM:
                continue
            provider = make_provider(method, starved, CFG)
            for inst in bench[:6]:
                provider(make_view(inst))
        # Every other table holds only the observational frames the views show.
        shown = {id(inst.observational) for inst in bench}
        for f in dataclasses.fields(ProviderContext):
            if f.name != "theta_by_id":
                assert {id(v) for v in getattr(full, f.name).values()} <= shown, f.name

    def test_oracle_requires_the_table(self, bench):
        starved = ProviderContext(theta_by_id={})
        provider = make_provider(ORACLE_SCM, starved, CFG)
        with pytest.raises(KeyError):
            provider(make_view(bench[0]))

    def test_view_redaction(self, bench):
        view = make_view(bench[0])
        assert not hasattr(view, "spec")
        assert not hasattr(view, "experimental")


SHARD_HEADER = "seed,regime,family,index,stage1,terminal"


class TestReplay:
    def test_method_id_parsing(self):
        m = "Replay(opus)"
        assert is_replay(m)
        assert replay_tag(m) == "opus"
        assert not is_replay(CIVEX)
        with pytest.raises(ValueError):
            replay_tag(CIVEX)

    def test_empty_shard_abstains_everywhere(self, bench):
        for inst in bench[:10]:
            result = replayed_result({}, inst.id)
            assert [v.decision for v in result.trace] == [Decision.ABSTAIN]
            assert result.terminal.reason == "no recorded verdict"

    def test_recorded_verdicts_are_replayed(self, bench, tmp_path):
        i = bench[0].id
        path = tmp_path / "shard.csv"
        path.write_text(f"{SHARD_HEADER}\n{i.seed},{i.regime},{i.family},{i.index},"
                        f"EXECUTE,EXECUTE\n", encoding="utf-8")
        table = load_replay_shard(path)
        assert replayed_result(table, bench[0].id).terminal.decision is Decision.EXECUTE
        assert replayed_result(table, bench[1].id).terminal.decision is Decision.ABSTAIN

    def test_shard_csv_roundtrip(self, tmp_path):
        path = tmp_path / "shard.csv"
        path.write_text(
            "seed,regime,family,index,stage1,terminal,extra\n"
            "42,moderate,cache_operation,3,EXPERIMENT,EXECUTE,ignored\n"
            "42,adversarial,cache_operation,1,ABSTAIN,abstain,x\n",
            encoding="utf-8",
        )
        table = load_replay_shard(path)
        assert [v.decision for v in table[InstanceId(42, MODERATE, "cache_operation", 3)].trace] \
            == [Decision.EXPERIMENT, Decision.EXECUTE]
        assert [v.decision
                for v in table[InstanceId(42, ADVERSARIAL, "cache_operation", 1)].trace] \
            == [Decision.ABSTAIN]

    def test_replayed_verdicts_name_their_shard(self, tmp_path):
        path = tmp_path / "shard.csv"
        path.write_text(f"{SHARD_HEADER}\n42,moderate,cache_operation,0,REJECT,REJECT\n"
                        f"42,moderate,cache_operation,1,EXPERIMENT,ABSTAIN\n", encoding="utf-8")
        table = load_replay_shard(path)
        rejected = table[InstanceId(42, MODERATE, "cache_operation", 0)].terminal
        assert (rejected.decision, rejected.reason) == (Decision.REJECT, f"replayed from {path}")
        assert [(v.decision, v.reason)
                for v in table[InstanceId(42, MODERATE, "cache_operation", 1)].trace] \
            == [(Decision.EXPERIMENT, f"replayed from {path}"),
                (Decision.ABSTAIN, f"replayed from {path}")]

    def test_malformed_shard_is_refused(self, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text(f"{SHARD_HEADER}\n42,moderate,cache_operation,0,EXECUTE,EXECUTE\n",
                        encoding="utf-8")
        bad = tmp_path / "bad.csv"
        bad.write_text("seed,regime\n42,moderate\n", encoding="utf-8")
        table = load_replay_shard(good)
        with pytest.raises(ReplayError, match=r"bad\.csv: missing required columns"):
            load_replay_shard(bad, table)

    def test_invalid_verdict_rejected(self, tmp_path):
        path = tmp_path / "shard.csv"
        path.write_text(f"{SHARD_HEADER}\n42,moderate,cache_operation,0,EXECUTE,LAUNCH\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="invalid verdict"):
            load_replay_shard(path)

    @pytest.mark.parametrize("row, message", [
        ("42,moderate", "line 3 has too few fields"),
        ("42,moderate,cache_operation,0,EXECUTE", "line 3 has too few fields"),
        ("42,moderate,cache_operation,0,EXPERIMENT,experiment", "invalid verdict 'EXPERIMENT'"),
        ("42,moderat,cache_operation,0,EXECUTE,EXECUTE", "unknown regime or family"),
        ("42,moderate,cache_op,0,EXECUTE,EXECUTE", "unknown regime or family"),
        ("4.2,moderate,cache_operation,0,EXECUTE,EXECUTE", "invalid literal for int"),
        ("42,moderate,cache_operation,x,EXECUTE,EXECUTE", "invalid literal for int"),
        ("42,moderate,cache_operation,0,LAUNCH,EXECUTE", "line 3 has stage 1 'LAUNCH', which"),
        ("42,moderate,cache_operation,0,REJECT,EXECUTE",
         "line 3 has stage 1 'REJECT', which is neither EXPERIMENT nor its terminal "
         "verdict EXECUTE"),
    ])
    def test_malformed_row_is_refused(self, tmp_path, row, message):
        path = tmp_path / "shard.csv"
        path.write_text(f"{SHARD_HEADER}\n42,adversarial,cache_operation,0,REJECT,REJECT\n"
                        f"{row}\n", encoding="utf-8")
        with pytest.raises(ReplayError, match=message):
            load_replay_shard(path)

    def test_second_row_for_an_instance_is_refused(self, tmp_path):
        row = "42,moderate,cache_operation,0,EXECUTE,"
        path = tmp_path / "shard.csv"
        path.write_text(f"{SHARD_HEADER}\n{row}EXECUTE\n{row}REJECT\n", encoding="utf-8")
        with pytest.raises(ReplayError, match="line 3 records instance "
                                              "s42-moderate-cache_operation-0000 a second time"):
            load_replay_shard(path)
        # Across the shards of one tag as well.
        first = tmp_path / "first.csv"
        first.write_text(f"{SHARD_HEADER}\n{row}EXECUTE\n", encoding="utf-8")
        table = load_replay_shard(first)
        with pytest.raises(ReplayError, match="a second time"):
            load_replay_shard(first, table)

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(ReplayError, match="absent.csv"):
            load_replay_shard(tmp_path / "absent.csv")

    def test_tag_without_a_table_is_refused(self, bench):
        with pytest.raises(ReplayError, match="no recorded verdicts for tag 'x'"):
            evaluate_instances(bench[:1], ["Replay(x)"], CFG, ScoreWeights(),
                               replay_tables={"y": {}})


class TestDecideHelper:
    def test_single_instance_decide(self, bench, ctx):
        v = make_provider(ALWAYS_ABSTAIN, ctx, CFG)(make_view(bench[0]))
        assert v.decision is Decision.ABSTAIN

    def test_unknown_method(self, bench, ctx):
        with pytest.raises(ValueError, match="unknown method"):
            make_provider("MysteryGate", ctx, CFG)
