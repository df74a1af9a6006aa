import gc
import hashlib
import json
import pickle
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from civex import scm
from civex.estimation import adjusted_effect, unadjusted_difference
from civex.baselines import CIVEX, build_context, make_provider
from civex.frames import DeferredFrame, Frame, FrameError
from civex.graphs import identify
from civex.runner import (
    DEFAULT_METHODS,
    REGENERATING_SWEEPS,
    SWEEP_SEEDS,
    RunConfig,
    misspecify_instance,
    run_benchmark,
)
from civex.scm import (
    ADVERSARIAL,
    FAMILIES,
    FAMILY_TOOLS,
    FULL_COLLECTION_MIN_INSTANCES,
    MODERATE,
    REGIMES,
    BenchmarkSpec,
    ConfounderSpec,
    ScmInstance,
    ScmSpec,
    _frame_data,
    _instance_key,
    _pass_over,
    _state_of,
    _stream,
    build_benchmark,
    collection_deferred,
    generate_frame,
    instance_rng,
    instance_to_json_dict,
    sample_instance,
    unadjusted_plim_bias,
    write_instances_jsonl,
)
from civex.verifier import VerifierConfig, run_two_stage

from oracles import observational_frame_oracle, trial_frame_oracle

SMALL = BenchmarkSpec(seeds=(42, 43), moderate_per_family=6, adversarial_per_family=5)
# Two rows, a latent confounder on every moderate draw (the most coefficient
# redraws) and an extreme adversarial strength.
CORNER = BenchmarkSpec(n_rows=2, latent_fraction_moderate=1.0, adversarial_strength=1e6)


def digest(instances) -> str:
    """The SHA-256 of the instances' JSON lines.  Tests compare digests, which
    fail at once, rather than the multi-MB texts, which pytest would diff."""
    text = "\n".join(json.dumps(instance_to_json_dict(i), sort_keys=True)
                      for i in instances)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestGenerateFrame:
    def _flat_spec(self, theta=0.0, noise=1.0, confs=()):
        return ScmSpec(family="db_index_operation", theta=theta, intercept=0.25,
                       confounders=tuple(confs), noise_sd=noise)

    def test_balanced_treatment_with_zero_logit(self):
        spec = self._flat_spec()
        frame = generate_frame(spec, 20_000, False, np.random.default_rng(0))
        assert abs(frame.column("T").mean() - 0.5) < 0.02

    def test_noiseless_outcome_is_exact(self):
        spec = self._flat_spec(theta=2.0, noise=0.0)
        frame = generate_frame(spec, 500, True, np.random.default_rng(1))
        t, y = frame.column("T"), frame.column("Y")
        assert np.allclose(y, 0.25 + 2.0 * t, atol=1e-12)

    def test_adjusted_ols_recovers_planted_effect(self):
        conf = ConfounderSpec(name="x", mean=1.0, sd=2.0, treat_coef=0.8,
                              outcome_coef=0.9, hidden=False)
        spec = self._flat_spec(theta=1.5, noise=1.0, confs=[conf])
        frame = generate_frame(spec, 10_000, False, np.random.default_rng(2))
        est = adjusted_effect(frame, ["x"])
        assert abs(est.theta_hat - 1.5) < 0.1

    def test_hidden_confounders_not_emitted(self):
        hidden = ConfounderSpec(name="ghost", mean=0.0, sd=1.0, treat_coef=2.0,
                                outcome_coef=2.0, hidden=True)
        spec = self._flat_spec(confs=[hidden])
        frame = generate_frame(spec, 50, False, np.random.default_rng(3))
        assert frame.columns == ("T", "Y")

    def test_columns_and_read_only_data(self):
        hidden = ConfounderSpec(name="ghost", mean=0.0, sd=1.0, treat_coef=2.0,
                                outcome_coef=2.0, hidden=True)
        seen = ConfounderSpec(name="x", mean=1.0, sd=2.0, treat_coef=0.8,
                              outcome_coef=0.9, hidden=False)
        spec = self._flat_spec(theta=1.5, confs=[hidden, seen])
        frame = generate_frame(spec, 50, False, np.random.default_rng(4))
        assert frame.columns == ("T", "Y", "x")
        draws = np.random.default_rng(4)
        draws.normal(0.0, 1.0, size=50)  # the hidden confounder's, drawn first
        assert frame.column("x").tobytes() == draws.normal(1.0, 2.0, size=50).tobytes()
        assert frame.data.flags.c_contiguous and not frame.data.flags.writeable
        assert set(frame.column("T").tolist()) == {0.0, 1.0}

    @pytest.mark.parametrize("value", [1e308, np.inf])
    def test_overflowing_draws_are_refused(self, value):
        conf = ConfounderSpec(name="x", mean=0.0, sd=1.0, treat_coef=1.0,
                              outcome_coef=value, hidden=False)
        with pytest.raises(FrameError, match="infinite"):
            generate_frame(self._flat_spec(confs=[conf]), 50, False, np.random.default_rng(5))

    def test_min_rows(self):
        with pytest.raises(ValueError):
            generate_frame(self._flat_spec(), 1, False, np.random.default_rng(0))


class TestPassOver:
    # Derandomized, so that the tier-1 run is reproducible.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(regime=st.sampled_from(REGIMES), family=st.sampled_from(FAMILIES),
           index=st.integers(0, 30), latent=st.booleans(), noiseless=st.booleans(),
           n_rows=st.integers(2, 400), randomize_treatment=st.booleans(),
           uniforms=st.integers(0, 5), halves=st.integers(0, 3))
    @example(regime=MODERATE, family=FAMILIES[0], index=0, latent=False, noiseless=True,
             n_rows=2, randomize_treatment=False, uniforms=0, halves=0)
    @example(regime=ADVERSARIAL, family=FAMILIES[1], index=0, latent=True, noiseless=False,
             n_rows=400, randomize_treatment=True, uniforms=1, halves=1)
    def test_leaves_the_stream_where_a_frame_draw_does(self, regime, family, index, latent,
                                                       noiseless, n_rows, randomize_treatment,
                                                       uniforms, halves):
        spec = sample_instance(family, regime, index, seed=42,
                               bspec=replace(SMALL, latent_fraction_moderate=1.0)).spec
        if not latent:
            spec = replace(spec, confounders=spec.observed)
        if noiseless:
            spec = replace(spec, noise_sd=0.0)
        assert bool(spec.hidden_confounders) == latent
        # The stream starts mid-buffer, with or without a cached 32-bit half.
        drawn = instance_rng(42, regime, family, index)
        drawn.random(uniforms)
        drawn.integers(0, 2**32, size=halves, dtype=np.uint32)
        passed = instance_rng(42, regime, family, index)
        passed.bit_generator.state = drawn.bit_generator.state
        _frame_data(spec, n_rows, randomize_treatment, drawn)
        _pass_over(spec, n_rows, passed)
        want, got = drawn.bit_generator.state, passed.bit_generator.state
        assert got["state"]["counter"].tolist() == want["state"]["counter"].tolist()
        assert got["buffer"].tolist() == want["buffer"].tolist()
        for key in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[key] == want[key]


class _Recording:
    """A generator that records each method call made on it, then makes it."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return method(*args, **kwargs)
        return call


class TestOneSchedule:
    # Derandomized, so that the tier-1 run is reproducible.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(regime=st.sampled_from(REGIMES), family=st.sampled_from(FAMILIES),
           index=st.integers(0, 30), latent=st.booleans(), noiseless=st.booleans(),
           n_rows=st.integers(2, 400), randomize_treatment=st.booleans())
    @example(regime=MODERATE, family=FAMILIES[0], index=0, latent=False, noiseless=True,
             n_rows=2, randomize_treatment=False)
    @example(regime=ADVERSARIAL, family=FAMILIES[1], index=0, latent=True, noiseless=False,
             n_rows=400, randomize_treatment=True)
    def test_the_pass_over_makes_the_frame_draws_calls(self, regime, family, index, latent,
                                                       noiseless, n_rows,
                                                       randomize_treatment):
        spec = sample_instance(family, regime, index, seed=42,
                               bspec=replace(SMALL, latent_fraction_moderate=1.0)).spec
        if not latent:
            spec = replace(spec, confounders=spec.observed)
        if noiseless:
            spec = replace(spec, noise_sd=0.0)
        drawn = _Recording(instance_rng(42, regime, family, index))
        passed = _Recording(instance_rng(42, regime, family, index))
        _frame_data(spec, n_rows, randomize_treatment, drawn)
        _pass_over(spec, n_rows, passed)
        assert passed.calls == drawn.calls
        # A normal run per confounder, a uniform run, and a noise run unless noiseless.
        assert [call[0] for call in drawn.calls] == (
            ["normal"] * len(spec.confounders) + ["random"] + ["normal"] * (not noiseless))


def _philox_state(bit_generator) -> tuple:
    """A Philox generator's whole state, as plain values."""
    state = bit_generator.state
    return (state["state"]["key"].tolist(), state["state"]["counter"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


class TestPackedState:
    # Derandomized, so that the tier-1 run is reproducible.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(regime=st.sampled_from(REGIMES), family=st.sampled_from(FAMILIES),
           index=st.integers(0, 30), uniforms=st.integers(0, 5), halves=st.integers(0, 3),
           reuse=st.booleans(), n=st.integers(1, 9))
    @example(regime=MODERATE, family=FAMILIES[0], index=0, uniforms=0, halves=0,
             reuse=False, n=1)
    @example(regime=ADVERSARIAL, family=FAMILIES[1], index=0, uniforms=1, halves=1,
             reuse=True, n=9)
    def test_a_packed_state_continues_the_stream(self, regime, family, index, uniforms,
                                                  halves, reuse, n):
        # The stream stops mid-buffer, with or without a cached 32-bit half.
        rng = instance_rng(42, regime, family, index)
        rng.random(uniforms)
        rng.integers(0, 2**32, size=halves, dtype=np.uint32)
        if reuse:  # the scratch generator holds another stream, mid-buffer with a cached half
            other = instance_rng(43, regime, family, index)
            other.random(3)
            other.integers(0, 2**32, size=1, dtype=np.uint32)
            _stream(_state_of(other))
        resumed = _stream(_state_of(rng))
        assert _philox_state(resumed.bit_generator) == _philox_state(rng.bit_generator)
        for draw in (lambda g: g.integers(0, 2**32, size=n, dtype=np.uint32),
                     lambda g: g.random(n), lambda g: g.standard_normal(n)):
            assert draw(resumed).tolist() == draw(rng).tolist()

    def test_instance_rng_starts_where_a_keyed_philox_does(self):
        for s, r, f, i in ((42, MODERATE, FAMILIES[0], 0), (43, ADVERSARIAL, FAMILIES[5], 19),
                           (2**40, MODERATE, FAMILIES[2], 1000)):
            assert (_philox_state(instance_rng(s, r, f, i).bit_generator)
                    == _philox_state(np.random.Philox(key=_instance_key(s, r, f, i))))

    def test_a_deferred_draw_derives_no_key(self, monkeypatch):
        # A deferred frame holds its stream's packed state, key included, so
        # its first read hashes no coordinates.
        instances, _ = build_benchmark(replace(SMALL, seeds=(42,)))
        deferred = [(frame, oracle(inst.id, SMALL).canonical_bytes()) for inst in instances
                    for frame, oracle in ((inst.observational, observational_frame_oracle),
                                          (inst.experimental, trial_frame_oracle))
                    if _undrawn(frame)]
        assert deferred

        def refuse(*coordinates):
            raise AssertionError(f"a key derived for {coordinates}")

        monkeypatch.setattr(scm, "_instance_key", refuse)
        for frame, expected in deferred:
            assert frame.canonical_bytes() == expected


class TestSampleInstance:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sample_instance("nope", MODERATE, 0, seed=42)

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            sample_instance("cache_operation", "wild", 0, seed=42)

    def test_db_family_moderate_graph_shape_without_latent(self):
        bs = BenchmarkSpec(latent_fraction_moderate=0.0)
        inst = sample_instance("db_index_operation", MODERATE, 0, seed=42, bspec=bs)
        g = inst.graph
        assert g.nodes == frozenset({"T", "Y", "query_volume", "write_volume"})
        assert g.directed == frozenset({
            ("query_volume", "T"), ("query_volume", "Y"),
            ("write_volume", "T"), ("write_volume", "Y"),
            ("T", "Y"),
        })
        assert g.bidirected == frozenset()

    def test_adversarial_sign_conventions(self):
        bs = BenchmarkSpec()
        saw_harmful = saw_safe = False
        for idx in range(20):
            inst = sample_instance("cache_operation", ADVERSARIAL, idx,
                                   seed=42, bspec=bs)
            (h,) = inst.spec.hidden_confounders
            assert h.treat_coef == 2.5
            if inst.spec.theta < 0:
                saw_harmful = True
                assert h.outcome_coef == 2.5
            else:
                saw_safe = True
                assert h.outcome_coef == -2.5
        assert saw_harmful and saw_safe

    def test_adversarial_strength_propagates(self):
        inst = sample_instance("cache_operation", ADVERSARIAL, 0, seed=42,
                               bspec=BenchmarkSpec(adversarial_strength=4.0))
        (h,) = inst.spec.hidden_confounders
        assert abs(h.treat_coef) == 4.0
        assert abs(h.outcome_coef) == 4.0

    def test_latent_edge_iff_hidden_confounder(self):
        bs = SMALL
        insts, _ = build_benchmark(bs)
        for inst in insts:
            has_hidden = bool(inst.spec.hidden_confounders)
            has_edge = bool(inst.graph.bidirected)
            assert has_hidden == has_edge
            for c in inst.spec.hidden_confounders:
                assert c.name not in inst.graph.nodes
                assert c.name not in inst.observational.columns
                assert c.name not in inst.experimental.columns

    def test_frames_share_schema(self):
        inst = sample_instance("migration_operation", MODERATE, 1, seed=44)
        assert inst.observational.columns == inst.experimental.columns
        assert set(np.unique(inst.observational.column("T"))) <= {0.0, 1.0}

    def test_reversibility_matches_experiment_availability(self):
        # The flag is read from the action frame, not stored beside it.
        insts, _ = build_benchmark(SMALL)
        assert all(i.frame.reversible == i.safe_experiment_available for i in insts)
        assert "safe_experiment_available" not in {f.name for f in fields(ScmInstance)}
        flipped = replace(insts[0], frame=replace(insts[0].frame,
                                                  reversible=not insts[0].frame.reversible))
        assert flipped.safe_experiment_available is not insts[0].safe_experiment_available

    def test_tool_names_per_family(self):
        for family in FAMILIES:
            inst = sample_instance(family, MODERATE, 0, seed=42)
            assert inst.frame.tool == FAMILY_TOOLS[family]
            assert inst.frame.interventional
            assert inst.frame.cost == 0.05

    def test_action_frames_keep_the_cost_as_given(self):
        # The instance lines write 0, 0.0 and -0.0 differently.
        for cost in (0.0, 0, -0.0, 0.0):
            bspec = BenchmarkSpec(seeds=(42,), moderate_per_family=1,
                                  adversarial_per_family=1, action_cost=cost)
            insts, _ = build_benchmark(bspec)
            assert all(repr(i.frame.cost) == repr(cost) for i in insts)
            assert repr(sample_instance("cache_operation", MODERATE, 0, seed=42,
                                        bspec=bspec).frame.cost) == repr(cost)

    def test_instances_of_one_shape_share_graph(self):
        insts, _ = build_benchmark(SMALL)
        graphs = {id(i.graph): i.graph for i in insts}
        assert len(graphs) == len(set(graphs.values()))
        again = sample_instance(insts[0].id.family, insts[0].id.regime, insts[0].id.index,
                                seed=insts[0].id.seed, bspec=SMALL)
        assert again.graph is insts[0].graph and again.frame == insts[0].frame

    def test_safe_flag_tracks_theta_sign(self):
        insts, _ = build_benchmark(SMALL)
        assert all(i.spec.safe == (i.spec.theta > 0) for i in insts)

    def test_moderate_sign_margin_is_enforced(self):
        insts, _ = build_benchmark(SMALL)
        for inst in insts:
            if inst.id.regime == MODERATE:
                bias = unadjusted_plim_bias(inst.spec)
                assert abs(bias) <= abs(inst.spec.theta) - 0.59

    def test_every_committed_backdoor_set_blocks_backdoor_paths(self):
        from civex.graphs import backdoor_view, d_separated, identify

        insts, _ = build_benchmark(SMALL)
        for inst in insts:
            res = identify(inst.graph)
            if res.adjustment_set or res.identified and not res.mediator_set:
                assert d_separated(backdoor_view(inst.graph),
                                   {inst.graph.treatment}, {inst.graph.outcome},
                                   set(res.adjustment_set))


class TestDeterminism:
    def test_same_coordinates_same_instance(self):
        a = sample_instance("git_branch_operation", ADVERSARIAL, 7, seed=45)
        b = sample_instance("git_branch_operation", ADVERSARIAL, 7, seed=45)
        assert digest([a]) == digest([b])

    def test_keyed_streams_are_independent_of_order(self):
        a1 = sample_instance("cache_operation", MODERATE, 0, seed=42)
        _ = sample_instance("cache_operation", MODERATE, 1, seed=42)
        a2 = sample_instance("cache_operation", MODERATE, 0, seed=42)
        assert digest([a1]) == digest([a2])

    def test_build_benchmark_is_reproducible(self):
        i1, _ = build_benchmark(SMALL)
        i2, _ = build_benchmark(SMALL)
        assert digest(i1) == digest(i2)

    def test_reverse_order_generation_matches_build(self):
        built, _ = build_benchmark(SMALL)
        reverse = [sample_instance(i.id.family, i.id.regime, i.id.index,
                                   seed=i.id.seed, bspec=SMALL)
                   for i in reversed(built)]
        assert digest(built) == digest(reversed(reverse))

    def test_rng_keying_distinguishes_every_coordinate(self):
        keys = {
            instance_rng(s, r, f, i).bit_generator.state["state"]["key"][0]
            for s in (42, 43) for r in (MODERATE, ADVERSARIAL)
            for f in FAMILIES[:3] for i in range(3)
        }
        assert len(keys) == 2 * 2 * 3 * 3


class TestBuildBenchmark:
    def test_default_counts(self):
        spec = BenchmarkSpec(seeds=(42,))
        insts, _ = build_benchmark(spec)
        moderate = [i for i in insts if i.id.regime == MODERATE]
        adversarial = [i for i in insts if i.id.regime == ADVERSARIAL]
        assert len(moderate) == 25 * 6
        assert len(adversarial) == 20 * 6

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(seeds=())

    def test_only_a_large_build_ends_with_a_full_collection(self):
        # A default build's objects reach the oldest generation before the
        # caller's first verdict, so no later call pays a full pass over
        # them; a build of a few instances is not worth a full pass.
        full_passes = []

        def count(phase, info):
            if phase == "stop" and info["generation"] == 2:
                full_passes.append(info)

        small = BenchmarkSpec(seeds=(42,), moderate_per_family=1, adversarial_per_family=1)
        assert small.n_instances(REGIMES) == 12 < FULL_COLLECTION_MIN_INSTANCES
        gc.callbacks.append(count)
        try:
            instances, _ = build_benchmark(BenchmarkSpec())
            assert len(full_passes) == 1 and len(instances) == 1890
            assert gc.get_count()[1:] == (0, 0)
            build_benchmark(small)
            assert len(full_passes) == 1
        finally:
            gc.callbacks.remove(count)
        assert gc.isenabled()
        # The sweeps' default slices, the smallest default builds, collect too.
        for sweep in REGENERATING_SWEEPS.values():
            slice_size = BenchmarkSpec(seeds=SWEEP_SEEDS).n_instances((sweep.regime,))
            assert slice_size >= FULL_COLLECTION_MIN_INSTANCES

    def test_instance_counts_match_the_build(self):
        for regimes in ((MODERATE,), (ADVERSARIAL,), REGIMES):
            instances, _ = build_benchmark(SMALL, regimes=regimes)
            assert SMALL.n_instances(regimes) == len(instances)

    def test_deferral_leaves_a_disabled_collector_alone(self):
        gc.disable()
        try:
            full_before = gc.get_stats()[2]["collections"]
            with collection_deferred(FULL_COLLECTION_MIN_INSTANCES):
                with collection_deferred(FULL_COLLECTION_MIN_INSTANCES):
                    pass
            assert not gc.isenabled()
            assert gc.get_stats()[2]["collections"] == full_before
        finally:
            gc.enable()

    def test_deferral_restores_the_collector_after_an_error(self):
        with pytest.raises(RuntimeError):
            with collection_deferred(FULL_COLLECTION_MIN_INSTANCES):
                assert not gc.isenabled()
                raise RuntimeError("inside the deferral")
        assert gc.isenabled()

    def test_counterbalance_report_structure(self):
        _, cb = build_benchmark(SMALL)
        assert set(cb.per_regime) == {MODERATE, ADVERSARIAL}
        for (regime, family), frac in cb.per_family.items():
            assert 0.0 <= frac <= 1.0
        assert len(cb.per_family_per_seed) == 2 * 6 * 2

    def test_experimental_frame_recovers_theta_within_three_se(self):
        insts, _ = build_benchmark(SMALL)
        ok = 0
        for inst in insts:
            est = unadjusted_difference(inst.experimental)
            ok += abs(est.theta_hat - inst.spec.theta) <= 3 * est.std_err
        assert ok / len(insts) >= 0.99

    def test_observational_and_experimental_estimates_agree_when_identified(self):
        spec = BenchmarkSpec(seeds=(42, 43), moderate_per_family=10,
                             adversarial_per_family=2, latent_fraction_moderate=0.0)
        insts, _ = build_benchmark(spec)
        identified = [i for i in insts if i.id.regime == MODERATE]
        ok = 0
        for inst in identified:
            names = [c.name for c in inst.spec.observed]
            obs = adjusted_effect(inst.observational, names)
            exp = adjusted_effect(inst.experimental, [])
            combined = np.hypot(obs.std_err, exp.std_err)
            ok += abs(obs.theta_hat - exp.theta_hat) <= 3 * combined
        assert ok / len(identified) >= 0.99


class TestRecoveryCheck:
    """Adjusted OLS on fresh benchmark instances against the planted effect.

    Moderate draws are taken without a hidden confounder, so the adjusted fit
    is consistent and its error is pure sampling noise; adversarial draws
    keep theirs and show the construction's bias.
    """

    @staticmethod
    def _errors(family, regime, n_instances, n_rows, *, seed, noise_sd=None):
        bspec = BenchmarkSpec(n_rows=n_rows, latent_fraction_moderate=0.0)
        errors = []
        for idx in range(n_instances):
            inst = sample_instance(family, regime, idx, seed=seed, bspec=bspec)
            frame = inst.observational
            if noise_sd is not None:
                frame = generate_frame(replace(inst.spec, noise_sd=noise_sd), n_rows, False,
                                       np.random.default_rng([seed, idx]))
            est = adjusted_effect(frame, [c.name for c in inst.spec.observed])
            errors.append(abs(est.theta_hat - inst.spec.theta))
        return np.array(errors)

    def test_moderate_recovery_within_tolerance(self):
        errors = self._errors("service_restart_operation", MODERATE, 50, 10_000, seed=77)
        assert errors.max() < 0.15

    def test_adversarial_is_biased_by_construction(self):
        # Per-instance omitted-variable bias is large on both labels; the
        # signed biases cancel across the counterbalance, so the magnitude is
        # the meaningful statistic.
        errors = self._errors("service_restart_operation", ADVERSARIAL, 50, 4_000, seed=78)
        assert errors.mean() > 1.0

    def test_noiseless_moderate_is_exact(self):
        errors = self._errors("cache_operation", MODERATE, 20, 2_000, seed=79, noise_sd=0.0)
        assert errors.max() < 1e-8


class TestInstanceLines:
    """What ``write_instances_jsonl`` writes; no civex command reads it back."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        insts, _ = build_benchmark(BenchmarkSpec(seeds=(42,), moderate_per_family=2,
                                                 adversarial_per_family=2))
        path = tmp_path_factory.mktemp("lines") / "x.jsonl"
        write_instances_jsonl(path, insts)
        return insts, path.read_text(encoding="utf-8")

    def test_one_sorted_json_line_per_instance_in_order(self, written):
        insts, text = written
        assert text.endswith("\n")
        assert text.splitlines() == [json.dumps(instance_to_json_dict(inst), sort_keys=True)
                                     for inst in insts]

    def test_frames_are_written_losslessly(self, written):
        insts, text = written
        for inst, line in zip(insts, text.splitlines(), strict=True):
            obj = json.loads(line)
            for key in ("observational", "experimental"):
                frame = getattr(inst, key)
                assert obj[key]["columns"] == list(frame.columns)
                rows = np.array(obj[key]["rows"], dtype=np.float64)
                assert rows.shape == frame.data.shape
                assert rows.tobytes() == frame.data.tobytes()  # bit-equal, -0.0 included


def _digests(instances):
    """SHA-256 of the instance lines, and of the frames' canonical bytes."""
    lines, frames = hashlib.sha256(), hashlib.sha256()
    for inst in instances:
        lines.update(json.dumps(instance_to_json_dict(inst), sort_keys=True).encode() + b"\n")
        for frame in (inst.observational, inst.experimental):
            frames.update(hashlib.sha256(frame.canonical_bytes()).digest())
    return lines.hexdigest(), frames.hexdigest()


class TestGolden:
    """Pinned digests of generated instances.

    Any change to generation, however it is made faster, must draw the same
    numbers in the same order: these values were computed before generation
    was reorganised, and must never be updated to follow a change.
    """

    def test_seed_42(self):
        insts, _ = build_benchmark(BenchmarkSpec(seeds=(42,)))
        assert len(insts) == 270
        assert _digests(insts) == (
            "b0c6293ddedd15d394082546ace418132f5e9d4f69d769aad2bb790c89c4d9a1",
            "fb1854309d0b5c32bb8d9f2fcbf91ec1885ed19176155c1091f4f040a8f52c86",
        )

    def test_corner_spec(self):
        insts, _ = build_benchmark(CORNER)
        assert len(insts) == 1890
        assert _digests(insts) == (
            "aff22a2a2a67dc20a3aace5db7a373c150e69444229b8c517aedd9c4f5a17150",
            "0d9b5ca7b3f4c458b6c2316b6931355f71b0abae1ba37ac97243c4115336d15c",
        )


class TestConcurrentBuilds:
    def test_threads_building_at_once_match_a_sequential_build(self):
        # A generator shared between builds would interleave two threads'
        # draws; a short switch interval makes the threads swap often.
        spec = BenchmarkSpec(seeds=(42,), moderate_per_family=4, adversarial_per_family=4)
        expected, _ = build_benchmark(spec)
        start = threading.Barrier(2)
        built = [None, None]

        def build(slot):
            start.wait(timeout=30)
            built[slot], _ = build_benchmark(spec)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(slot,)) for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert _digests(built[0]) == _digests(built[1]) == _digests(expected)
        for inst in built[0]:
            assert inst == sample_instance(inst.id.family, inst.id.regime, inst.id.index,
                                           seed=inst.id.seed, bspec=spec)


class TestScratchGenerator:
    """A stream that no caller keeps, a build's or a deferred frame's, is set
    on its thread's one scratch generator."""

    @staticmethod
    def _deferred():
        """The undrawn frames of a build of ``SMALL`` at seed 42."""
        instances, _ = build_benchmark(replace(SMALL, seeds=(42,)))
        return [frame for inst in instances for frame in (inst.observational, inst.experimental)
                if _undrawn(frame)]

    def test_deferred_reads_construct_no_generator(self, monkeypatch):
        frames = self._deferred()
        assert len(frames) > 21
        expected = [frame.canonical_bytes() for frame in self._deferred()[1:21]]
        frames[0].data  # the thread's first deferred read
        made = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            made.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        read = [frame.canonical_bytes() for frame in frames[1:21]]
        assert made == []
        assert read == expected

    def test_threads_reading_at_once_match_a_sequential_read(self):
        # Each thread sets its own scratch generator: one shared between
        # threads would interleave their draws.  One thread reads the frames
        # in order and the other in reverse, so both draw until they meet.
        frames = self._deferred()
        expected = [frame.canonical_bytes() for frame in self._deferred()]
        start = threading.Barrier(2)
        read = [None, None]

        def draw(slot):
            start.wait(timeout=30)
            order = frames if slot == 0 else frames[::-1]
            read[slot] = [frame.canonical_bytes() for frame in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(slot,)) for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert read[0] == read[1][::-1] == expected


class TestOneDrawPath:
    """Every frame an instance holds is drawn by ``_ResumedDraw``, at build or
    on first read, and ``_frame_data`` is reached only through it."""

    def test_every_frame_is_drawn_through_the_resumed_draw(self, monkeypatch):
        calls, outside, depth = [], [], [0]
        call, frame_data = scm._ResumedDraw.__call__, scm._frame_data

        def spy_call(draw):
            calls.append(draw.trial)
            depth[0] += 1
            try:
                return call(draw)
            finally:
                depth[0] -= 1

        def spy_frame_data(*args):
            if not depth[0]:
                outside.append(args)
            return frame_data(*args)

        monkeypatch.setattr(scm._ResumedDraw, "__call__", spy_call)
        monkeypatch.setattr(scm, "_frame_data", spy_frame_data)
        instances, _ = build_benchmark(replace(SMALL, seeds=(42,)))
        frames = [(frame, trial) for inst in instances
                  for frame, trial in ((inst.observational, False), (inst.experimental, True))]
        drawn = [trial for frame, trial in frames if not _undrawn(frame)]
        assert sorted(calls) == sorted(drawn)
        assert False in drawn and True in drawn
        assert outside == []
        # The deferred frames, on first read, go the same way.
        deferred = [(frame, trial) for frame, trial in frames if _undrawn(frame)]
        for frame, _ in deferred:
            frame.data
        assert len(calls) == len(frames) == len(drawn) + len(deferred)
        assert sorted(calls) == sorted(trial for _, trial in frames)
        assert outside == []


def _undrawn(frame) -> bool:
    return isinstance(frame, DeferredFrame) and not frame.drawn


def _gate_reads(inst) -> tuple[bool, bool]:
    """Whether the gate reads the instance's observational and trial frames."""
    identified = identify(inst.graph).identified
    return identified, inst.safe_experiment_available and not identified


class TestTrialFrameOnDemand:
    """A build draws exactly the frames the gate reads; every other frame is
    a ``DeferredFrame`` that draws itself on first read by resuming the
    instance's stream."""

    @staticmethod
    def _undrawn(spec=SMALL, reversible=False):
        """An instance of ``spec``'s build with an undrawn trial frame: a
        reversible one whose graph identifies the effect, so that its
        observational frame is drawn, or an irreversible one whose effect is
        unidentified, so that its observational frame is undrawn too."""
        instances, _ = build_benchmark(spec)
        for inst in instances:
            reads = _gate_reads(inst)
            assert (not _undrawn(inst.observational), not _undrawn(inst.experimental)) == reads
        inst = next(i for i in instances if _undrawn(i.experimental)
                    and i.safe_experiment_available == reversible
                    and identify(i.graph).identified == reversible)
        assert _undrawn(inst.observational) == (not reversible)
        return inst

    def test_only_trials_the_gate_runs_hold_a_drawn_frame(self):
        self._undrawn()
        # No moderate draw with a latent confounder, or every one.
        for latent in (0.0, 1.0):
            for reversible_fraction in (0.0, 1.0):
                bspec = replace(SMALL, latent_fraction_moderate=latent,
                                reversible_fraction=reversible_fraction)
                inst = sample_instance("db_index_operation", MODERATE, 0, seed=42, bspec=bspec)
                identified = latent == 0.0
                assert identify(inst.graph).identified == identified
                reversible = reversible_fraction == 1.0
                assert not _undrawn(inst.observational) == identified
                assert not _undrawn(inst.experimental) == (reversible and not identified)
                for frame in (inst.observational, inst.experimental):
                    assert type(frame) is (DeferredFrame if _undrawn(frame) else Frame)

    @pytest.mark.parametrize("spec", [
        SMALL, CORNER, replace(SMALL, reversible_fraction=0.0),
        replace(SMALL, reversible_fraction=1.0),
    ], ids=["small", "corner", "irreversible", "reversible"])
    def test_every_frame_is_the_replayed_one(self, spec):
        # Deferred frames on first read, and the frames drawn at build, are
        # the ones a replay of the whole stream draws, bit for bit.
        instances, _ = build_benchmark(replace(spec, seeds=(42,)))
        deferred = {(_undrawn(i.observational), _undrawn(i.experimental)): i
                    for i in instances}
        kinds = {(False, True), (True, True), (True, False)}
        if spec.reversible_fraction == 0.0:
            kinds -= {(True, False)}
        if spec.reversible_fraction == 1.0:
            kinds -= {(True, True)}
        if spec is CORNER:  # every moderate draw is latent, so nothing is identified
            kinds -= {(False, True)}
        assert set(deferred) == kinds
        for inst in instances:
            for frame, oracle in ((inst.observational, observational_frame_oracle),
                                  (inst.experimental, trial_frame_oracle)):
                was_undrawn = _undrawn(frame)
                assert frame.canonical_bytes() == oracle(inst.id, spec).canonical_bytes()
                if was_undrawn:
                    assert frame.drawn
                    assert frame.data is frame.data

    def test_equality_hash_and_repr_do_not_change_on_first_use(self):
        inst = self._undrawn()
        twin = sample_instance(inst.id.family, inst.id.regime, inst.id.index,
                               seed=inst.id.seed, bspec=SMALL)
        inst.observational.data, inst.experimental.data
        assert _undrawn(twin.observational) and _undrawn(twin.experimental)
        assert inst == twin
        assert (hash(inst), repr(inst)) == (hash(twin), repr(twin))
        eager = observational_frame_oracle(inst.id, SMALL)
        assert type(eager) is Frame
        assert inst.observational == eager and hash(inst.observational) == hash(eager)

    @pytest.mark.parametrize("reversible", [False, True])
    def test_pickle_round_trip_before_and_after_first_use(self, reversible):
        inst = self._undrawn(reversible=reversible)
        expected = trial_frame_oracle(inst.id, SMALL).canonical_bytes()
        copy = pickle.loads(pickle.dumps(inst))
        assert _undrawn(copy.experimental)
        assert _undrawn(copy.observational) == (not reversible)
        assert copy.experimental.canonical_bytes() == expected
        assert _undrawn(inst.experimental)  # the copy drew its own
        assert copy == inst
        copy = pickle.loads(pickle.dumps(inst))
        for frame in (copy.observational, copy.experimental):
            assert type(frame) is Frame
        assert copy.experimental.canonical_bytes() == expected

    def test_concurrent_first_uses_agree(self):
        inst = self._undrawn()
        frame = inst.observational
        expected = observational_frame_oracle(inst.id, SMALL).canonical_bytes()
        start = threading.Barrier(4)
        drawn = [None] * 4

        def draw(slot):
            start.wait(timeout=30)
            drawn[slot] = frame.data, frame.canonical_bytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Every thread returns the one array stored, whichever drew first.
        assert all(data is frame.data and text == expected for data, text in drawn)

    def test_misspecified_instance_keeps_what_redraws_the_frame(self):
        spec = replace(SMALL, latent_fraction_moderate=0.0)
        inst = self._undrawn(spec)
        relabeled = misspecify_instance(inst, 1.0)
        assert relabeled.graph != inst.graph
        assert relabeled.observational is inst.observational
        assert relabeled.experimental is inst.experimental
        assert _undrawn(relabeled.experimental)
        expected = trial_frame_oracle(inst.id, spec).canonical_bytes()
        assert relabeled.experimental.canonical_bytes() == expected

    def test_misspecified_copies_share_one_trial_frame(self):
        # Relabelling every observed confounder latent leaves the graph
        # unidentified, so the gate runs a trial that the build deferred;
        # each relabelled copy holds the original's frame, drawn once.
        spec = replace(SMALL, latent_fraction_moderate=0.0)
        inst = self._undrawn(spec, reversible=True)
        copies = [misspecify_instance(inst, fraction) for fraction in (0.5, 1.0)]
        assert not identify(copies[1].graph).identified
        assert all(c.experimental is inst.experimental for c in copies)
        cfg = VerifierConfig()
        provider = make_provider(CIVEX, build_context(copies), cfg)
        assert len(run_two_stage(copies[1], provider, cfg).trace) == 2
        assert inst.experimental.drawn
        expected = trial_frame_oracle(inst.id, spec).canonical_bytes()
        assert copies[0].experimental.canonical_bytes() == expected

    def test_no_default_method_draws_a_frame_on_first_use(self, monkeypatch):
        # Every default method reads exactly the trial frames drawn at build,
        # and a run draws the deferred observational frames before any
        # verdict: drawing more at build would hold frames that nothing
        # reads, and drawing fewer would put a first read inside some verdict.
        import civex.runner

        instances = []
        building = civex.runner.build_benchmark

        def build(bspec):
            built = building(bspec)
            instances.extend(built[0])
            return built

        inside, draws = [False], []
        deciding = civex.runner.run_two_stage

        def decide(*args):
            inside[0] = True
            try:
                return deciding(*args)
            finally:
                inside[0] = False

        first_read = DeferredFrame.__getattr__

        def spy(frame, name):
            draws.append(inside[0])
            return first_read(frame, name)

        monkeypatch.setattr(civex.runner, "build_benchmark", build)
        monkeypatch.setattr(civex.runner, "run_two_stage", decide)
        monkeypatch.setattr(DeferredFrame, "__getattr__", spy)
        result = run_benchmark(RunConfig(bench=SMALL))
        assert len(DEFAULT_METHODS) == len(result.config.methods) == 12
        assert draws and not any(draws)
        at_build = {i.id for i in instances if type(i.experimental) is Frame}
        by_id = {i.id: i for i in instances}
        read = {r.instance_id for r in result.records if len(r.result.trace) == 2
                and by_id[r.instance_id].safe_experiment_available}
        assert read == at_build
        assert all(_undrawn(i.experimental) for i in instances if i.id not in at_build)
        assert not any(_undrawn(i.observational) for i in instances)

    def test_a_gate_stream_build_draws_what_the_gate_reads(self):
        # The build of perfbench's gate_stream at seed 0: 14 seeds, 3,780
        # instances, of which the committed graph identifies the effect of
        # 1,237; of the rest, 1,900 are reversible actions, whose trial the
        # gate runs.  A CIVeX pass reads no deferred frame.
        instances, _ = build_benchmark(BenchmarkSpec(seeds=tuple(range(42, 56))))

        def drawn():
            return (sum(not _undrawn(i.observational) for i in instances),
                    sum(not _undrawn(i.experimental) for i in instances))

        assert len(instances) == 3780
        assert drawn() == (1237, 1900)
        cfg = VerifierConfig()
        provider = make_provider(CIVEX, build_context(instances), cfg)
        for inst in instances:
            run_two_stage(inst, provider, cfg)
        assert drawn() == (1237, 1900)
