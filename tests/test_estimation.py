import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from civex.estimation import (
    DegenerateRegressorWarning,
    EstimationError,
    _ndtri,
    _pivot_rank_ok,
    _zero_variance,
    adjusted_effect,
    frontdoor_effect,
    one_sided_z,
    provenance_hash,
    unadjusted_difference,
)
from civex.frames import Frame
from civex.graphs import identify
from civex.scm import BenchmarkSpec, build_benchmark

from oracles import (
    normal_equations_ols,
    per_value_encode,
    reference_adjusted_effect,
    var_zero_variance,
)

# Eight fixed rows (T, Y, x1, x2); expected values frozen from the
# normal-equations oracle below.
FIXTURE_ROWS = [
    [1.0, 4.10, 0.50, -1.20],
    [0.0, 1.30, -0.30, 0.40],
    [1.0, 5.25, 1.10, 0.80],
    [0.0, 0.70, -0.90, -0.10],
    [1.0, 3.05, -0.20, 1.50],
    [0.0, 2.10, 0.70, -0.60],
    [1.0, 4.80, 0.90, 0.20],
    [0.0, 0.95, -0.60, 0.90],
]
FIXTURE_THETA = 1.989447219093862
FIXTURE_SE = 0.2905899819781901
FIXTURE_LCB = 1.511469233281273


def fixture_frame() -> Frame:
    return Frame(columns=("T", "Y", "x1", "x2"), data=np.array(FIXTURE_ROWS))


def make_frame(t, y, extra=None) -> Frame:
    named = [("T", t), ("Y", y)]
    if extra:
        named.extend(extra)
    return Frame.from_columns(named)


def _ulps_around(x: float, k: int) -> list[float]:
    """``x`` and the ``k`` doubles on either side of it."""
    out = [float(x)]
    lo = hi = float(x)
    for _ in range(k):
        lo, hi = float(np.nextafter(lo, -np.inf)), float(np.nextafter(hi, np.inf))
        out += [lo, hi]
    return out


class TestAdjustedEffect:
    def test_noiseless_exact(self):
        t = np.array([1.0, 0.0] * 50)
        frame = make_frame(t, 2.0 * t)
        est = adjusted_effect(frame, [])
        assert est.theta_hat == pytest.approx(2.0, abs=1e-12)
        assert est.std_err == pytest.approx(0.0, abs=1e-9)
        assert est.lcb == pytest.approx(2.0, abs=1e-9)

    def test_eight_row_fixture_matches_frozen_oracle_values(self):
        est = adjusted_effect(fixture_frame(), ["x1", "x2"])
        assert est.theta_hat == pytest.approx(FIXTURE_THETA, abs=1e-10)
        assert est.std_err == pytest.approx(FIXTURE_SE, abs=1e-10)
        assert est.lcb == pytest.approx(FIXTURE_LCB, abs=1e-10)
        assert est.n == 8
        assert est.adjustment_set == ("x1", "x2")

    def test_fixture_against_live_oracle(self):
        arr = np.array(FIXTURE_ROWS)
        design = np.column_stack([np.ones(8), arr[:, 0], arr[:, 2], arr[:, 3]])
        beta, se = normal_equations_ols(design, arr[:, 1])
        est = adjusted_effect(fixture_frame(), ["x1", "x2"])
        assert est.theta_hat == pytest.approx(beta[1], abs=1e-10)
        assert est.std_err == pytest.approx(se[1], abs=1e-10)

    def test_standard_normal_quantile(self):
        assert round(one_sided_z(0.05), 4) == 1.6449

    def test_lcb_identity(self):
        est = adjusted_effect(fixture_frame(), ["x1"])
        assert est.lcb == pytest.approx(est.theta_hat - one_sided_z(0.05) * est.std_err,
                                        abs=1e-14)
        assert est.lcb <= est.theta_hat
        assert est.std_err >= 0

    def test_positivity_violation(self):
        frame = make_frame(np.ones(20), np.random.default_rng(0).normal(size=20))
        with pytest.raises(EstimationError, match="positivity|one treatment arm"):
            adjusted_effect(frame, [])

    def test_nonbinary_treatment(self):
        frame = make_frame(np.linspace(0, 1, 10), np.zeros(10))
        with pytest.raises(EstimationError):
            adjusted_effect(frame, [])

    def test_singular_design(self):
        rng = np.random.default_rng(1)
        t = (rng.random(30) < 0.5).astype(float)
        x = rng.normal(size=30)
        frame = make_frame(t, rng.normal(size=30), [("x1", x), ("x2", x)])
        with pytest.raises(EstimationError, match="singular"):
            adjusted_effect(frame, ["x1", "x2"])

    def test_too_few_rows(self):
        frame = make_frame(np.array([1.0, 0.0, 1.0]), np.zeros(3),
                           [("x1", np.arange(3.0))])
        with pytest.raises(EstimationError):
            adjusted_effect(frame, ["x1"])

    def test_zero_variance_column_dropped_with_warning(self):
        rng = np.random.default_rng(2)
        t = np.array([1.0, 0.0] * 25)
        y = 1.5 * t + rng.normal(size=50)
        frame = make_frame(t, y, [("flat", np.full(50, 3.0)),
                                  ("x", rng.normal(size=50))])
        with pytest.warns(DegenerateRegressorWarning):
            est = adjusted_effect(frame, ["flat", "x"])
        clean = adjusted_effect(frame, ["x"])
        assert est.adjustment_set == ("x",)
        assert est.theta_hat == pytest.approx(clean.theta_hat, abs=1e-14)

    def test_column_order_invariance(self):
        rng = np.random.default_rng(3)
        t = (rng.random(200) < 0.5).astype(float)
        x1, x2, x3 = rng.normal(size=(3, 200))
        y = 1.0 * t + 0.5 * x1 - 0.3 * x2 + 0.2 * x3 + rng.normal(size=200)
        frame = make_frame(t, y, [("x1", x1), ("x2", x2), ("x3", x3)])
        a = adjusted_effect(frame, ["x1", "x2", "x3"])
        b = adjusted_effect(frame, ["x3", "x1", "x2"])
        assert a.theta_hat == pytest.approx(b.theta_hat, abs=1e-10)
        assert a.std_err == pytest.approx(b.std_err, abs=1e-10)

    def test_random_fixtures_match_normal_equations(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(20, 120))
            k = int(rng.integers(0, 4))
            t = (rng.random(n) < 0.5).astype(float)
            if t.sum() in (0, n):
                continue
            xs = rng.normal(size=(k, n))
            y = rng.normal(size=n) + t
            extra = [(f"x{i}", xs[i]) for i in range(k)]
            frame = make_frame(t, y, extra)
            est = adjusted_effect(frame, [f"x{i}" for i in range(k)])
            design = np.column_stack([np.ones(n), t, *xs])
            beta, se = normal_equations_ols(design, y)
            assert est.theta_hat == pytest.approx(beta[1], abs=1e-8)
            assert est.std_err == pytest.approx(se[1], abs=1e-8)


def _fit_outcome(fit, frame, adjustment_set):
    """What a fit returns or raises, and the warnings it gives, as text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = repr(fit(frame, adjustment_set))
        except EstimationError as exc:
            outcome = f"EstimationError: {exc}"
    return outcome, [(w.category, str(w.message)) for w in caught]


class TestAgainstReferenceFit:
    """The same bits as the fit built with ``column_stack``, ``np.var``,
    ``np.all`` and the whole scaled covariance matrix."""

    def test_every_frame_of_a_default_seed(self):
        instances, _ = build_benchmark(BenchmarkSpec(seeds=(42,)))
        fits = 0
        for inst in instances:
            covariates = tuple(inst.observational.columns[2:])
            proof_set = identify(inst.graph).adjustment_set
            for frame in (inst.observational, inst.experimental):
                for adjustment_set in {(), covariates, proof_set}:
                    got = _fit_outcome(adjusted_effect, frame, adjustment_set)
                    assert got == _fit_outcome(reference_adjusted_effect, frame,
                                               adjustment_set)
                    fits += 1
        assert fits > 2 * len(instances)

    @pytest.mark.parametrize("case", ["zero_variance", "singular", "one_arm",
                                      "non_binary", "too_few_rows"])
    def test_edge_cases(self, case):
        rng = np.random.default_rng(7)
        t = np.array([1.0, 0.0] * 20)
        x = rng.normal(size=40)
        extra = [("x", x), ("flat", np.full(40, 3.0)), ("twin", x.copy())]
        adjustment_set = {"zero_variance": ["flat", "x"], "singular": ["x", "twin"],
                          "one_arm": ["x"], "non_binary": ["x"],
                          "too_few_rows": ["x"]}[case]
        if case == "one_arm":
            t = np.ones(40)
        elif case == "non_binary":
            t = t * 0.5
        frame = make_frame(t, t + rng.normal(size=40), extra)
        if case == "too_few_rows":
            frame = Frame(frame.columns, frame.data[:3])
        got = _fit_outcome(adjusted_effect, frame, adjustment_set)
        assert got == _fit_outcome(reference_adjusted_effect, frame, adjustment_set)
        if case == "zero_variance":
            assert got[1] == [(DegenerateRegressorWarning,
                               "dropping zero-variance adjustment column 'flat'")]
        else:
            assert got[0].startswith("EstimationError")


@pytest.mark.parametrize("xtx", [np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]]),
                                 np.array([[1.0, 0.0], [0.0, -1.0]])],
                         ids=["zero", "rank_one", "indefinite"])
def test_rank_check_on_a_singular_matrix_is_silent(xtx):
    # The failed factorization is NaN with the invalid flag raised, which
    # numpy would report as a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not _pivot_rank_ok(xtx)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
GUARD_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _spread_column(n: int, center: float, ratio: float, i: int, j: int) -> np.ndarray:
    """``n - 2`` entries at ``center`` and entries ``i`` and ``j`` spread
    about it so that the variance is about ``ratio * 1e-24``."""
    delta = float(np.sqrt(ratio * n * 1e-24 / 2.0))
    col = np.full(n, center)
    col[i] = center + delta
    col[j] = center - delta
    return col


def _decide_quietly(col: np.ndarray) -> bool:
    with np.errstate(all="ignore"):
        return _zero_variance(col)


class TestZeroVarianceGuard:
    """The two-entry proof decides as ``np.var(col) <= 1e-24`` does."""

    @GUARD_SETTINGS
    @given(value=FINITE, n=st.integers(1, 300))
    @example(value=0.0, n=1)
    @example(value=1e308, n=200)
    def test_constant_columns(self, value, n):
        col = np.full(n, value)
        assert _decide_quietly(col) == var_zero_variance(col)

    @GUARD_SETTINGS
    @given(values=st.lists(FINITE, min_size=1, max_size=3),
           base=st.floats(-1e307, 1e307), ulps=st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    @example(values=[1.0, 1.0 + 2e-12], base=0.0, ulps=[0])
    @example(values=[-1e308, 1e308, 0.0], base=0.0, ulps=[0])
    def test_columns_of_one_two_and_three_rows(self, values, base, ulps):
        # Arbitrary entries, and entries a few ulps around one value.
        near = [float(base)] * len(ulps)
        for k, steps in enumerate(ulps):
            for _ in range(abs(steps)):
                near[k] = float(np.nextafter(near[k], np.inf if steps > 0 else -np.inf))
        for col in (np.array(values), np.array(near)):
            assert _decide_quietly(col) == var_zero_variance(col)

    @GUARD_SETTINGS
    @given(mantissas=st.lists(st.floats(1.0, 9.99), min_size=2, max_size=50),
           signs=st.lists(st.booleans(), min_size=50, max_size=50))
    @example(mantissas=[1.0, 1.0000000000000002], signs=[True] * 50)
    def test_magnitudes_near_1e300_warn_nothing(self, mantissas, signs):
        col = np.array([(m if s else -m) * 1e300 for m, s in zip(mantissas, signs)])
        if col[0] == col[1]:
            col[1] = np.nextafter(col[1], np.inf)
        # The array pass overflows here; the two-entry proof must not.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _zero_variance(col)
        assert got == var_zero_variance(col)

    @GUARD_SETTINGS
    @given(n=st.integers(3, 400), center=st.floats(-1e3, 1e3),
           ratio=st.floats(0.5, 2.0), first_two=st.booleans(), data=st.data())
    @example(n=3, center=0.0, ratio=0.999, first_two=True, data=None)
    @example(n=400, center=1.0, ratio=1.001, first_two=True, data=None)
    def test_adversarial_spread_around_the_tolerance(self, n, center, ratio, first_two, data):
        if first_two:
            i, j = 0, 1
        else:
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                      unique=True))
        col = _spread_column(n, center, ratio, i, j)
        assert _decide_quietly(col) == var_zero_variance(col)

    @pytest.mark.parametrize("n", [3, 10, 400])
    @pytest.mark.parametrize("ratio", [0.26, 0.9, 0.999, 1.001, 1.1, 4.5])
    def test_variance_just_under_the_tolerance_is_dropped(self, n, ratio):
        # The two spread entries come first, where the proof looks: their
        # squared difference is 2n times the variance.
        col = _spread_column(n, 1.0, ratio, 0, 1)
        assert var_zero_variance(col) == (ratio < 1.0)
        assert _zero_variance(col) == (ratio < 1.0)


class TestUnadjustedDifference:
    def test_two_by_two_groups(self):
        frame = make_frame(np.array([1.0, 1.0, 0.0, 0.0]),
                           np.array([3.0, 3.0, 1.0, 1.0]))
        est = unadjusted_difference(frame)
        assert est.theta_hat == pytest.approx(2.0, abs=1e-14)
        assert est.std_err == pytest.approx(0.0, abs=1e-14)

    def test_equals_adjusted_with_empty_set(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            t = (rng.random(n) < 0.5).astype(float)
            if t.sum() in (0, n):
                continue
            y = rng.normal(size=n) + 0.7 * t
            frame = make_frame(t, y)
            a = unadjusted_difference(frame)
            b = adjusted_effect(frame, [])
            assert a.theta_hat == pytest.approx(b.theta_hat, abs=1e-10)
            assert a.std_err == pytest.approx(b.std_err, abs=1e-10)
            assert a.lcb == pytest.approx(b.lcb, abs=1e-10)

    def test_one_armed_data_errors(self):
        frame = make_frame(np.zeros(10), np.ones(10))
        with pytest.raises(EstimationError):
            unadjusted_difference(frame)

    def test_adversarial_frame_sign_flips(self):
        from civex.scm import ADVERSARIAL, BenchmarkSpec, sample_instance

        bs = BenchmarkSpec()
        flipped = 0
        checked = 0
        for idx in range(12):
            inst = sample_instance("migration_operation", ADVERSARIAL, idx,
                                   seed=42, bspec=bs)
            if inst.spec.theta < 0:
                checked += 1
                est = unadjusted_difference(inst.observational)
                flipped += est.theta_hat > 0
        assert checked > 0
        assert flipped == checked


class TestFrontdoorEffect:
    def _frontdoor_frame(self, n=4000, noise=0.5, seed=0):
        rng = np.random.default_rng(seed)
        latent = rng.normal(size=n)
        t = (rng.random(n) < 1 / (1 + np.exp(-1.5 * latent))).astype(float)
        m = 0.8 * t + noise * rng.normal(size=n)
        y = 1.5 * m + 2.0 * latent + noise * rng.normal(size=n)
        return make_frame(t, y, [("M", m)])

    def test_recovers_product_effect(self):
        frame = self._frontdoor_frame()
        est = frontdoor_effect(frame, ["M"])
        assert est.theta_hat == pytest.approx(0.8 * 1.5, abs=0.1)

    def test_orthogonal_noise_gives_exact_point_estimate(self):
        # Mediator noise is balanced within each arm, so stage 1 recovers the
        # path coefficient exactly; the outcome is deterministic in the
        # mediator, so stage 2 is exact too.
        t = np.array([1.0, 0.0, 1.0, 0.0] * 20)
        e = np.array([1.0, 1.0, -1.0, -1.0] * 20)
        m = 0.5 * t + 0.1 * e
        y = 3.0 * m
        frame = make_frame(t, y, [("M", m)])
        est = frontdoor_effect(frame, ["M"])
        assert est.theta_hat == pytest.approx(1.5, abs=1e-10)
        assert est.std_err > 0

    def test_multi_mediator_unsupported(self):
        frame = self._frontdoor_frame(n=100)
        with pytest.raises(EstimationError, match="one mediator"):
            frontdoor_effect(frame, ["M", "T"])


class TestEstimateMemo:
    """Each (frame, proof) pair is fitted once; failures and warnings repeat."""

    def test_repeat_call_returns_the_identical_estimate(self):
        frame = fixture_frame()
        first = adjusted_effect(frame, ["x1", "x2"])
        assert adjusted_effect(frame, ("x1", "x2")) is first
        # Another set, alpha or outcome column is another fit.
        assert adjusted_effect(frame, ["x2", "x1"]) is not first
        assert adjusted_effect(frame, ["x1", "x2"], alpha=0.1).alpha == 0.1
        assert adjusted_effect(frame, ["x1"], outcome_col="x2") is not first
        # An equal frame is another object and fits again, to the same bits.
        twin = adjusted_effect(fixture_frame(), ["x1", "x2"])
        assert twin is not first and twin == first

    def test_frontdoor_repeat_call_returns_the_identical_estimate(self):
        frame = TestFrontdoorEffect()._frontdoor_frame(n=100)
        assert frontdoor_effect(frame, ["M"]) is frontdoor_effect(frame, ["M"])

    def test_difference_repeat_call_returns_the_identical_estimate(self):
        frame = fixture_frame()
        first = unadjusted_difference(frame)
        assert unadjusted_difference(frame) is first
        assert unadjusted_difference(frame, alpha=0.1).alpha == 0.1
        assert unadjusted_difference(frame, outcome_col="x1") is not first
        # The arm difference and the empty-set OLS fit are kept apart.
        assert adjusted_effect(frame, []) is not first
        assert unadjusted_difference(frame) is first

    def test_positivity_failure_raises_on_every_call(self):
        frame = make_frame(np.ones(20), np.random.default_rng(0).normal(size=20))
        for _ in range(2):
            with pytest.raises(EstimationError, match="one treatment arm"):
                adjusted_effect(frame, [])
        for _ in range(2):
            with pytest.raises(EstimationError, match="one treatment arm"):
                unadjusted_difference(frame)

    def test_zero_variance_column_warns_on_every_call(self):
        rng = np.random.default_rng(2)
        t = np.array([1.0, 0.0] * 25)
        frame = make_frame(t, 1.5 * t + rng.normal(size=50),
                           [("flat", np.full(50, 3.0)), ("x", rng.normal(size=50))])
        estimates = []
        for _ in range(2):
            with pytest.warns(DegenerateRegressorWarning, match="flat"):
                estimates.append(adjusted_effect(frame, ["flat", "x"]))
        assert estimates[0] == estimates[1]


class TestProvenanceHash:
    def test_hash_over_random_fixtures_matches_hashlib(self):
        import hashlib

        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            frame = make_frame((rng.random(n) < 0.5).astype(float),
                               rng.normal(size=n))
            expected = hashlib.sha256(per_value_encode(frame)).hexdigest()
            assert provenance_hash(frame) == expected

    def test_digest_is_cached_on_the_frame(self, monkeypatch):
        import hashlib

        frame = fixture_frame()
        expected = hashlib.sha256(frame.canonical_bytes()).hexdigest()
        calls = []
        original = Frame.canonical_bytes

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Frame, "canonical_bytes", counting)
        assert provenance_hash(frame) == expected
        assert provenance_hash(frame) == expected
        assert len(calls) == 1
        # An equal frame is another object and computes its own digest.
        assert provenance_hash(fixture_frame()) == expected
        assert len(calls) == 2


class TestNormalQuantile:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(alpha=0.05)
    @example(alpha=0.01)
    @example(alpha=0.5)
    @example(alpha=1e-300)
    @example(alpha=5e-324)
    def test_memoized_value_matches_scipy(self, alpha):
        # Bit for bit: `stats.norm.ppf` calls the compiled `ndtri` that `_ndtri` ports.
        from scipy import stats

        for _ in range(2):
            assert one_sided_z(alpha) == float(stats.norm.ppf(1.0 - alpha))

    def test_matches_ndtri_on_a_dense_grid(self):
        # Bit for bit against the compiled Cephes routine, over all three
        # branches and a few ulps either side of each boundary: the central
        # region's edges exp(-2) and 1 - exp(-2), the tail split at
        # x = sqrt(-2 log y) = 8 (y = exp(-32)), and 0.5.
        from scipy.special import ndtri

        edges = [np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0), 1.0 - np.exp(-32.0), 0.5]
        near = [x for e in edges for x in _ulps_around(e, 4)]
        alphas = np.concatenate([
            np.linspace(0.0, 1.0, 100_001)[1:-1],
            near,
            10.0 ** -np.arange(1.0, 320.0),  # 1 - alpha rounds to 1.0 from 1e-17 on
            1.0 - 10.0 ** -np.arange(1.0, 17.0),
            [5e-324, 1.0 - 2.0**-53],
        ])
        expected = ndtri(1.0 - alphas)
        got = np.array([one_sided_z(float(a)) for a in alphas])
        assert np.array_equal(got, expected)

        # The port itself, at arguments `1 - alpha` cannot reach.
        ys = np.concatenate([
            near,
            10.0 ** np.linspace(-323.0, 0.0, 20_001),
            1.0 - 10.0 ** -np.arange(1.0, 17.0),
            [0.0, 5e-324, 1.0],
        ])
        assert np.array_equal([_ndtri(float(y)) for y in ys], ndtri(ys))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1])
    def test_invalid_alpha_raises_on_every_call(self, alpha):
        for _ in range(2):
            with pytest.raises(ValueError, match="alpha"):
                one_sided_z(alpha)
