import gc
import hashlib
import json
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from civex.estimation import adjusted_effect, unadjusted_difference
from civex.frames import FrameError
from civex.scm import (
    ADVERSARIAL,
    FAMILIES,
    FAMILY_TOOLS,
    MODERATE,
    BenchmarkSpec,
    ConfounderSpec,
    ScmSpec,
    build_benchmark,
    collection_deferred,
    generate_frame,
    instance_rng,
    instance_to_json_dict,
    sample_instance,
    unadjusted_plim_bias,
    write_instances_jsonl,
)

SMALL = BenchmarkSpec(seeds=(42, 43), moderate_per_family=6, adversarial_per_family=5)


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
        assert g.directed_edges == frozenset({
            ("query_volume", "T"), ("query_volume", "Y"),
            ("write_volume", "T"), ("write_volume", "Y"),
            ("T", "Y"),
        })
        assert g.bidirected_edges == frozenset()

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
            has_edge = bool(inst.graph.bidirected_edges)
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
        insts, _ = build_benchmark(SMALL)
        assert all(i.frame.reversible == i.safe_experiment_available for i in insts)

    def test_tool_names_per_family(self):
        for family in FAMILIES:
            inst = sample_instance(family, MODERATE, 0, seed=42)
            assert inst.frame.tool == FAMILY_TOOLS[family]
            assert inst.frame.interventional
            assert inst.frame.cost == 0.05

    def test_shared_action_frames_keep_the_cost_as_given(self):
        # Equal costs of another type or sign must not share an action frame:
        # the instance lines write 0, 0.0 and -0.0 differently.
        for cost in (0.0, 0, -0.0, 0.0):
            bspec = BenchmarkSpec(seeds=(42,), moderate_per_family=1,
                                  adversarial_per_family=1, action_cost=cost)
            insts, _ = build_benchmark(bspec)
            assert all(repr(i.frame.cost) == repr(cost) for i in insts)
            assert repr(sample_instance("cache_operation", MODERATE, 0, seed=42,
                                        bspec=bspec).frame.cost) == repr(cost)

    def test_instances_of_one_shape_share_graph_and_action_frame(self):
        insts, _ = build_benchmark(SMALL)
        graphs = {id(i.graph): i.graph for i in insts}
        frames = {id(i.frame): i.frame for i in insts}
        assert len(graphs) == len(set(graphs.values()))
        assert len(frames) == len(set(frames.values())) <= len(FAMILIES) * 2
        again = sample_instance(insts[0].id.family, insts[0].id.regime, insts[0].id.index,
                                seed=insts[0].id.seed, bspec=SMALL)
        assert again.graph is insts[0].graph and again.frame is insts[0].frame

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

    def test_generation_ends_with_a_full_collection(self):
        # The generated objects reach the oldest generation before the
        # caller's first verdict, so no later call pays a full pass over them.
        full_before = gc.get_stats()[2]["collections"]
        build_benchmark(BenchmarkSpec(seeds=(42,), moderate_per_family=1,
                                      adversarial_per_family=1))
        assert gc.get_stats()[2]["collections"] > full_before
        assert gc.get_count()[1:] == (0, 0)
        assert gc.isenabled()

    def test_deferral_leaves_a_disabled_collector_alone(self):
        gc.disable()
        try:
            full_before = gc.get_stats()[2]["collections"]
            with collection_deferred():
                with collection_deferred():
                    pass
            assert not gc.isenabled()
            assert gc.get_stats()[2]["collections"] == full_before
        finally:
            gc.enable()

    def test_deferral_restores_the_collector_after_an_error(self):
        with pytest.raises(RuntimeError):
            with collection_deferred():
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
        # Two rows, a latent confounder on every moderate draw (the most
        # coefficient redraws) and an extreme adversarial strength.
        insts, _ = build_benchmark(BenchmarkSpec(n_rows=2, latent_fraction_moderate=1.0,
                                                 adversarial_strength=1e6))
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
