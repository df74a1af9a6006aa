import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from civex.evaluation import (
    BOOTSTRAP_RESAMPLES,
    BOOTSTRAP_SEED,
    ScoreWeights,
    bootstrap_ci,
    observational_diagnostics,
    outcome_class,
    render_markdown_table,
    rule_of_three,
    score,
    summarize,
    utility_value,
    wilcoxon_exact,
)
from civex.scm import ADVERSARIAL, MODERATE, BenchmarkSpec, build_benchmark, sample_instance
from civex.verifier import Decision

from oracles import bootstrap_oracle, wilcoxon_enumeration_oracle, wilcoxon_rankdata_oracle

W = ScoreWeights()


class TestScore:
    def _inst(self, theta):
        inst = sample_instance("cache_operation", MODERATE, 0, seed=42)
        object.__setattr__(inst.spec, "theta", theta)
        return inst

    def test_execute_on_safe(self):
        assert utility_value(Decision.EXECUTE, 3.0, True, W) == pytest.approx(2.95, abs=1e-12)

    def test_abstain_on_safe(self):
        assert utility_value(Decision.ABSTAIN, 1.0, True, W) == pytest.approx(-0.30, abs=1e-12)

    def test_reject_on_harmful(self):
        assert utility_value(Decision.REJECT, -2.0, False, W) == pytest.approx(2.00, abs=1e-12)

    def test_execute_on_harmful(self):
        assert utility_value(Decision.EXECUTE, -2.0, False, W) == pytest.approx(-2.05, abs=1e-12)

    def test_outcome_classes(self):
        assert outcome_class(Decision.EXECUTE, True) == "correct_exec"
        assert outcome_class(Decision.EXECUTE, False) == "false_exec"
        assert outcome_class(Decision.REJECT, True) == "missed_opportunity"
        assert outcome_class(Decision.ABSTAIN, False) == "correct_refusal"

    def test_experiment_is_not_terminal(self):
        inst = sample_instance("cache_operation", MODERATE, 0, seed=42)
        with pytest.raises(ValueError, match="terminal"):
            score(Decision.EXPERIMENT, inst, W)

    def test_score_record_fields(self):
        inst = sample_instance("cache_operation", MODERATE, 1, seed=42)
        rec = score(Decision.ABSTAIN, inst, W, method="X")
        assert rec.method == "X"
        assert rec.safe == (inst.spec.theta > 0)
        assert rec.theta == inst.spec.theta

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            ScoreWeights(w_miss=-0.1)


class TestBootstrap:
    def test_zero_variance_interval_is_degenerate(self):
        lo, hi = bootstrap_ci([2.5] * 7)
        assert lo == hi == 2.5

    def test_matches_independent_oracle_with_same_stream(self):
        values = [1.4, 0.9, 2.2, 1.7, 1.1, 1.9, 1.5]
        lo, hi = bootstrap_ci(values)
        olo, ohi = bootstrap_oracle(values, BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEED)
        assert lo == pytest.approx(olo, abs=1e-12)
        assert hi == pytest.approx(ohi, abs=1e-12)

    def test_interval_brackets_mean_for_reasonable_samples(self):
        rng = np.random.default_rng(0)
        values = rng.normal(5.0, 1.0, size=7)
        lo, hi = bootstrap_ci(values)
        assert lo <= values.mean() <= hi

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])


class TestWilcoxon:
    def test_seven_uniform_signs(self):
        assert wilcoxon_exact([0.5, 1.0, 0.1, 2.0, 0.7, 0.9, 1.4]) == 0.015625

    def test_symmetric_pair(self):
        assert wilcoxon_exact([1.0, -1.0]) == 1.0

    def test_single_difference(self):
        assert wilcoxon_exact([1.0]) == 1.0

    def test_zero_differences_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="zero difference"):
            p = wilcoxon_exact([0.0, 1.0, 2.0])
        assert p == 0.5

    def test_all_zero_returns_one_with_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert wilcoxon_exact([0.0, 0.0]) == 1.0

    @pytest.mark.parametrize("n", range(21, 31))
    def test_matches_scipy_exact_beyond_twenty_differences(self, n):
        # More seeds than a 2**n enumeration could hold; the rank-sum counts
        # stay exact.
        diffs = np.random.default_rng(n).normal(size=n)
        expected = stats.wilcoxon(diffs, alternative="two-sided", mode="exact").pvalue
        assert wilcoxon_exact(diffs.tolist()) == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            diffs = rng.normal(size=int(rng.integers(3, 9))).tolist()
            assert wilcoxon_exact(diffs) == pytest.approx(
                wilcoxon_enumeration_oracle(diffs), abs=1e-12)

    # Few distinct magnitudes, so most draws hold ties and zeros; the size
    # stays below 20 to keep the 2**n enumeration small.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(diffs=st.lists(st.one_of(st.integers(-4, 4).map(lambda k: k * 0.25),
                                    st.floats(-10.0, 10.0)),
                          min_size=1, max_size=14))
    def test_average_ranks_match_rankdata(self, diffs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert wilcoxon_exact(diffs) == wilcoxon_rankdata_oracle(diffs)

    def test_matches_scipy_exact_without_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            diffs = rng.normal(size=8)
            expected = stats.wilcoxon(diffs, alternative="two-sided",
                                      mode="exact").pvalue
            assert wilcoxon_exact(diffs.tolist()) == pytest.approx(expected, abs=1e-12)


class TestRuleOfThree:
    def test_benchmark_size(self):
        assert rule_of_three(1890) == pytest.approx(3 / 1890)
        assert round(rule_of_three(1890) * 100, 2) == 0.16

    def test_seed_count(self):
        assert rule_of_three(7) == pytest.approx(3 / 7)
        assert round(rule_of_three(7) * 100, 1) == 42.9

    def test_capped_at_one(self):
        assert rule_of_three(3) == 1.0
        assert rule_of_three(1) == 1.0

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            rule_of_three(0)


@pytest.fixture(scope="module")
def records():
    spec = BenchmarkSpec(seeds=(42, 43), moderate_per_family=4,
                         adversarial_per_family=3)
    instances, _ = build_benchmark(spec)
    moderate = [i for i in instances if i.id.regime == MODERATE]
    recs = [score(Decision.ABSTAIN, i, W, method="AlwaysAbstain")
            for i in moderate]
    return moderate, recs


class TestSummarize:

    def test_accuracy_identity(self, records):
        _, recs = records
        s = summarize(recs, method="AlwaysAbstain", regime=MODERATE)
        assert s.accuracy == pytest.approx(
            s.correct_exec_rate + s.correct_refusal_rate, abs=1e-15)

    def test_per_execute_rate_is_none_without_executes(self, records):
        _, recs = records
        s = summarize(recs, method="AlwaysAbstain", regime=MODERATE)
        assert s.n_executes == 0
        assert s.false_exec_per_execute is None
        assert s.constrained_status == "qualified"

    def test_mean_utility_is_mean_of_seed_means(self, records):
        _, recs = records
        s = summarize(recs, method="AlwaysAbstain", regime=MODERATE)
        assert s.mean_utility == pytest.approx(
            np.mean(list(s.per_seed_means.values())), abs=1e-12)
        assert set(s.per_seed_means) == {42, 43}

    def test_single_false_execution_disqualifies(self, records):
        moderate, recs = records
        harmful = next(i for i in moderate if not i.spec.safe)
        flipped = [score(Decision.EXECUTE, i, W, method="M")
                   if i.id == harmful.id else
                   score(Decision.ABSTAIN, i, W, method="M")
                   for i in moderate]
        s = summarize(flipped, method="M", regime=MODERATE)
        assert s.false_exec_count == 1
        assert s.constrained_status == "disqualified"
        assert s.false_exec_per_execute == 1.0

    def test_weight_choice_never_changes_outcomes(self, records):
        # Decisions are recorded before scoring; re-scoring with any other
        # weights must leave the outcome classes untouched.
        moderate, recs = records
        other = ScoreWeights(w_miss=1.0, c_exp=1.0)
        again = [score(r.decision, i, other, method="AlwaysAbstain")
                 for r, i in zip(recs, moderate)]
        assert [r.outcome for r in again] == [r.outcome for r in recs]
        assert [r.decision for r in again] == [r.decision for r in recs]


class TestDiagnostics:
    def test_adversarial_slice_flips(self):
        spec = BenchmarkSpec(seeds=(42,), moderate_per_family=2,
                             adversarial_per_family=6)
        instances, _ = build_benchmark(spec)
        adv = [i for i in instances if i.id.regime == ADVERSARIAL]
        diag = observational_diagnostics(adv)
        assert diag.flip_fraction > 0.95
        assert 0 <= diag.trap_fraction <= 1

    def test_no_usable_difference_reads_nan(self):
        # A pooled-variance difference needs at least three rows.
        spec = BenchmarkSpec(seeds=(42,), moderate_per_family=1, adversarial_per_family=1,
                             n_rows=2)
        instances, _ = build_benchmark(spec)
        diag = observational_diagnostics(instances)
        assert all(math.isnan(v) for v in vars(diag).values())

    def test_abstain_everywhere_accuracy_equals_harmful_fraction(self):
        spec = BenchmarkSpec(seeds=(42, 43), moderate_per_family=2,
                             adversarial_per_family=6)
        instances, cb = build_benchmark(spec)
        adv = [i for i in instances if i.id.regime == ADVERSARIAL]
        recs = [score(Decision.ABSTAIN, i, W, method="AlwaysAbstain") for i in adv]
        s = summarize(recs, method="AlwaysAbstain", regime=ADVERSARIAL)
        assert s.accuracy == pytest.approx(cb.per_regime[ADVERSARIAL], abs=1e-12)


class TestMarkdown:
    def test_pipe_table_shape(self):
        text = render_markdown_table(["a", "b"], [["1", "2"], ["3", "4"]])
        lines = text.split("\n")
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4
