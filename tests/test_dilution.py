"""Dilution curve behavior, variant switches, and the least-squares fit."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pooltest import (
    BATEMAN_POOL_SENSITIVITIES,
    DEFAULT_KIT,
    DilutionModel,
    FitConvergenceError,
    SensitivityObservation,
    TestKit,
    bateman_fit_model,
    fit_dilution_model,
    load_observations,
)
from pooltest.dilution import LINEAR_POOL_SIZE, LINEAR_POSITIVES


class TestTestKit:
    def test_accepts_unit_boundary(self):
        kit = TestKit(se_i=1.0, sp=1.0)
        assert kit.se_i == 1.0

    def test_rejects_zero_and_out_of_range(self):
        with pytest.raises(ValueError, match="se_i"):
            TestKit(se_i=0.0, sp=0.99)
        with pytest.raises(ValueError, match="sp"):
            TestKit(se_i=0.99, sp=1.2)


def _row_samples():
    """(n, k) rows up to n = 10,000: every k up to n = 399, then 100 spread
    over 1..n (both ends included) at sizes where the stock curve clamps."""
    for n in (1, 2, 7, 50, 399, 641, 789, 2_500, 10_000):
        yield n, np.unique(np.linspace(1, n, min(n, 100) if n > 399 else n).astype(int))


# A curve printed with (n/k)^a is the k/n curve at alpha = -a: the sign that
# turns a printed exponent into alpha, by the form the curve is printed in.
_FORM_SIGN = {"k-over-n": 1.0, "n-over-k": -1.0}


def _clamped(model, n, k):
    """True where the raw curve leaves [0, 1] at (n, k), so that clamping bites."""
    raw = model.raw_sensitivity(n, k)
    return (raw < 0.0) | (raw > 1.0)


class TestDilutionModel:
    def test_stock_curve_spot_values(self):
        """Single-positive pools at the calibration sizes."""
        model = bateman_fit_model()
        np.testing.assert_allclose(model.sensitivity(1, 1), 0.988745, atol=5e-7)
        np.testing.assert_allclose(model.sensitivity(5, 1), 0.933809, atol=5e-7)
        np.testing.assert_allclose(model.sensitivity(10, 1), 0.906827, atol=5e-7)
        np.testing.assert_allclose(model.sensitivity(50, 1), 0.810308, atol=5e-7)

    def test_undiluted_pool_nearly_matches_kit(self):
        model = bateman_fit_model()
        assert abs(model.sensitivity(1, 1) - DEFAULT_KIT.se_i) < 0.002

    def test_nondecreasing_in_positive_count(self):
        """More positive material in the same pool never hurts detection."""
        model = bateman_fit_model()
        for n in (2, 5, 10, 25, 50):
            values = [model.sensitivity(n, k) for k in range(1, n + 1)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_negative_alpha_reverses_the_trend(self):
        stock = bateman_fit_model()
        flipped = replace(stock, alpha=-stock.alpha)
        values = [flipped.sensitivity(20, k) for k in range(1, 21)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_positives_linear_term_changes_the_curve(self):
        base = bateman_fit_model()
        variant = bateman_fit_model(linear_term=LINEAR_POSITIVES)
        assert variant.sensitivity(10, 1) != base.sensitivity(10, 1)
        # at k = n the two variants coincide by construction
        assert variant.raw_sensitivity(10, 10) == base.raw_sensitivity(10, 10)

    def test_clamping(self):
        kit = TestKit(se_i=0.99, sp=0.99)
        model = DilutionModel(kit=kit, alpha=0.03, beta=-0.05)
        assert model.raw_sensitivity(30, 1) < 0.0
        assert model.sensitivity(30, 1) == 0.0
        assert _clamped(model, 30, 1)
        assert not _clamped(model, 2, 1)

    @pytest.mark.parametrize("exponent, form", [(-1000.0, "k-over-n"), (1000.0, "n-over-k")])
    def test_overflowing_power_clamps(self, exponent, form):
        """(k/n)**-1000, also printed as (n/k)**1000, overflows a float for
        k < n: Se is then the bound the curve runs to, never an OverflowError.
        At k = n the ratio is 1."""
        alpha = _FORM_SIGN[form] * exponent
        model = DilutionModel(kit=DEFAULT_KIT, alpha=alpha, beta=-0.001)
        assert model.raw_sensitivity(10, 1) == math.inf
        assert model.sensitivity(10, 1) == 1.0 and _clamped(model, 10, 1)
        assert model.sensitivity(10, 10) == pytest.approx(0.99 - 0.01)
        below = DilutionModel(kit=TestKit(se_i=0.3, sp=0.3), alpha=alpha)
        assert below.raw_sensitivity(10, 1) == -math.inf
        assert below.sensitivity(10, 1) == 0.0

    def test_opposite_overflows_clamp_to_the_larger_term(self):
        """Where the power term and beta * size overflow to opposite infinities,
        Se is the bound of the term with the larger magnitude, never NaN."""
        kit = TestKit(se_i=0.3, sp=0.3)
        # -0.4 * 10**1000 against 10**309: the power term wins, Se clamps to 0.
        model = DilutionModel(kit=kit, alpha=-1000.0, beta=1e308)
        assert model.raw_sensitivity(10, 1) == -math.inf
        assert _clamped(model, 10, 1) and model.sensitivity(10, 1) == 0.0
        # -0.4 * 10**300 alone does not overflow, so nothing cancels: Se clamps to 1.
        model = DilutionModel(kit=kit, alpha=-300.0, beta=1e308)
        assert model.raw_sensitivity(10, 1) == math.inf
        assert _clamped(model, 10, 1) and model.sensitivity(10, 1) == 1.0
        # 0.98 * 10**310 against -1e308 * n: the power term wins at n = 10 and
        # the linear term at n = 10,000, with the same ratio of 0.1.
        model = DilutionModel(kit=DEFAULT_KIT, alpha=-310.0, beta=-1e308)
        assert model.raw_sensitivity(10, 1) == math.inf
        assert model.sensitivity(10, 1) == 1.0
        assert model.raw_sensitivity(10_000, 1_000) == -math.inf
        assert _clamped(model, 10_000, 1_000) and model.sensitivity(10_000, 1_000) == 0.0

    def test_array_rows_settle_each_clash_on_its_own(self):
        """Along one row only some k overflow, and of those the power term wins
        some and beta * size the others; each element matches its scalar call."""
        # 0.98 * (10000/k)**310 overflows for k <= 1012, against -1e308 * 10000 = -inf;
        # the power term has the larger magnitude for k <= 985.
        model = DilutionModel(kit=DEFAULT_KIT, alpha=-310.0, beta=-1e308)
        k = np.arange(1, 10_001)
        raw = model.raw_sensitivity(10_000, k)
        assert np.all(raw[:985] == math.inf) and np.all(raw[985:] == -math.inf)
        for j in (1, 985, 986, 1012, 1013, 10_000):
            assert raw[j - 1] == model.raw_sensitivity(10_000, j), j
        assert _clamped(model, 10_000, k).all()
        np.testing.assert_array_equal(model.sensitivity(10_000, k), np.where(k <= 985, 1.0, 0.0))
        # Kit 0.3/0.3: -0.4 * (10/k)**1000 overflows for k <= 4 and outweighs
        # 1e308 * 10 = +inf; for k >= 5 it is finite and the linear term wins.
        model = DilutionModel(kit=TestKit(se_i=0.3, sp=0.3), alpha=-1000.0, beta=1e308)
        k = np.arange(1, 11)
        assert model.raw_sensitivity(10, k).tolist() == [-math.inf] * 4 + [math.inf] * 6
        assert model.sensitivity(10, k).tolist() == [0.0] * 4 + [1.0] * 6
        assert [model.raw_sensitivity(10, j) for j in k.tolist()] == [-math.inf] * 4 + [math.inf] * 6

    @pytest.mark.parametrize("form", list(_FORM_SIGN))
    def test_array_power_is_within_one_ulp_of_scalar_pow(self, form):
        """With kit 1/1 and beta = 0 the curve is its power term alone. An array
        of k gives each scalar call's value within one ulp: numpy's vectorised
        pow is not the C library's. The two forms run each exponent at both signs."""
        for exponent in (bateman_fit_model().alpha, -0.7, 3.0):
            model = DilutionModel(kit=TestKit(1.0, 1.0), alpha=_FORM_SIGN[form] * exponent)
            for n, k in _row_samples():
                scalar = [model.raw_sensitivity(n, j) for j in k.tolist()]
                np.testing.assert_array_max_ulp(model.raw_sensitivity(n, k), scalar, maxulp=1)

    @pytest.mark.parametrize("form", list(_FORM_SIGN))
    @pytest.mark.parametrize("linear_term", ["pool-size", LINEAR_POSITIVES])
    def test_array_k_matches_scalar_calls(self, form, linear_term):
        """The whole curve carries that one-ulp power difference, times
        se_i + sp - 1 < 1, through two sums that round again: within 2 eps,
        relative for |Se| above 1. On the stock curve below n = 400, 4,244 of
        79,799 (n, k) pairs differ, by one ulp (2,610) or two (1,634). The
        n-over-k form runs the stock alpha negated."""
        stock = bateman_fit_model(linear_term=linear_term)
        model = replace(stock, alpha=_FORM_SIGN[form] * stock.alpha)
        eps = np.finfo(float).eps
        for n, k in _row_samples():
            for method in (model.raw_sensitivity, model.sensitivity):
                row = method(n, k)
                assert row.shape == k.shape and row.dtype == np.float64
                scalar = [method(n, j) for j in k.tolist()]
                np.testing.assert_allclose(row, scalar, rtol=2 * eps, atol=2 * eps)
        grid = np.array([[1, 2], [3, 10]])
        assert model.sensitivity(10, grid).shape == (2, 2)
        clamped = [[_clamped(model, 10, j) for j in row] for row in grid.tolist()]
        assert _clamped(model, 10, grid).tolist() == clamped

    def test_n_over_k_form_is_the_curve_at_negated_alpha(self):
        """A curve printed with (n/k)^a, written out here as a reference
        expression, is sensitivity at alpha = -a, for either linear term.
        |a| runs from 0.001 to 10 and n from 1 to 10,000, both log-uniform,
        so that most values lie inside (0, 1) rather than at a clamp."""
        rng = np.random.default_rng(20240802)
        interior = total = 0
        for _ in range(500):
            se_i, sp = rng.uniform(0.01, 1.0, size=2)
            a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 1.0)
            beta = rng.uniform(-1e-4, 1e-4)
            n = int(10.0 ** rng.uniform(0.0, 4.0))
            k = np.unique(rng.integers(1, n + 1, size=20))
            for linear_term, size in (("pool-size", n), (LINEAR_POSITIVES, k)):
                reference = np.clip((1.0 - sp) + (se_i + sp - 1.0) * (n / k) ** a + beta * size, 0.0, 1.0)
                model = DilutionModel(kit=TestKit(se_i, sp), alpha=-a, beta=beta, linear_term=linear_term)
                np.testing.assert_allclose(model.sensitivity(n, k), reference, rtol=0, atol=1e-12)
                interior += np.count_nonzero((0.0 < reference) & (reference < 1.0))
                total += k.size
        assert interior > total / 2

    @pytest.mark.parametrize("bad", [0, 6, 2.5, float("nan"), float("inf")])
    def test_array_k_is_validated(self, bad):
        """The k range is checked once per call, over the whole array."""
        model = bateman_fit_model()
        k = np.array([1, 2, bad, 5])
        for method in (model.raw_sensitivity, model.sensitivity, lambda n, k: _clamped(model, n, k)):
            with pytest.raises(ValueError, match=re.escape(f"k must be an integer in [1, 5], got {bad!r}")):
                method(5, k)

    def test_zero_coefficient_adds_no_power_term(self):
        """se_i + sp = 1 leaves Se = 1 - sp + beta * size, even where the power overflows."""
        for se_i, sp in ((0.5, 0.5), (0.25, 0.75)):
            model = DilutionModel(kit=TestKit(se_i=se_i, sp=sp), alpha=-1000.0, beta=-0.001)
            for k in (1, 5, 10):
                assert model.raw_sensitivity(10, k) == pytest.approx(1.0 - sp - 0.01)

    def test_sensitivity_always_a_probability(self):
        rng = np.random.default_rng(321)
        for _ in range(100):
            model = DilutionModel(
                kit=TestKit(se_i=float(rng.uniform(0.5, 1.0)), sp=float(rng.uniform(0.5, 1.0))),
                alpha=float(rng.uniform(-0.2, 0.4)),
                beta=float(rng.uniform(-0.05, 0.05)),
            )
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, n + 1))
            assert 0.0 <= model.sensitivity(n, k) <= 1.0

    def test_domain_validation(self):
        model = bateman_fit_model()
        with pytest.raises(ValueError, match="k must be"):
            model.sensitivity(5, 0)
        with pytest.raises(ValueError, match="k must be"):
            model.sensitivity(5, 6)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="k must be"):
                model.sensitivity(5, bad)
            with pytest.raises(ValueError, match="pool size"):
                model.sensitivity(bad, 1)
        with pytest.raises(ValueError, match="linear_term"):
            DilutionModel(linear_term="quadratic")
        # A NaN coefficient would clamp every Se to 0 without a word.
        for name in ("alpha", "beta"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    DilutionModel(**{name: value})


class TestObservations:
    def test_validation(self):
        obs = SensitivityObservation(n=5, k=1, se_observed=0.93)
        assert obs.n == 5
        with pytest.raises(ValueError, match="k must be"):
            SensitivityObservation(n=5, k=0, se_observed=0.9)
        with pytest.raises(ValueError, match="se_observed"):
            SensitivityObservation(n=5, k=1, se_observed=1.3)

    def test_builtin_calibration_points(self):
        sizes = [obs.n for obs in BATEMAN_POOL_SENSITIVITIES]
        values = [obs.se_observed for obs in BATEMAN_POOL_SENSITIVITIES]
        assert sizes == [1, 5, 10, 50]
        assert values == [0.99, 0.93, 0.91, 0.81]
        assert all(obs.k == 1 for obs in BATEMAN_POOL_SENSITIVITIES)


class TestFit:
    def test_recovers_builtin_coefficients(self):
        """Refitting the calibration points lands on the stock (alpha, beta)."""
        result = fit_dilution_model(BATEMAN_POOL_SENSITIVITIES)
        stock = bateman_fit_model()
        np.testing.assert_allclose(result.model.alpha, stock.alpha, atol=1e-4)
        np.testing.assert_allclose(result.model.beta, stock.beta, atol=1e-4)
        assert result.mse < 1e-4

    def test_synthetic_round_trip(self):
        """Observations generated by a known curve are fit back to it."""
        truth = DilutionModel(kit=DEFAULT_KIT, alpha=0.021, beta=-0.0014)
        observations = [
            SensitivityObservation(n=n, k=1, se_observed=truth.raw_sensitivity(n, 1))
            for n in (1, 4, 8, 16, 32, 50)
        ]
        result = fit_dilution_model(observations)
        np.testing.assert_allclose(result.model.alpha, truth.alpha, atol=1e-8)
        np.testing.assert_allclose(result.model.beta, truth.beta, atol=1e-8)
        assert result.mse < 1e-16

    def test_residuals_and_iterations_reported(self):
        result = fit_dilution_model(BATEMAN_POOL_SENSITIVITIES)
        assert len(result.residuals) == 4
        assert result.iterations > 0
        np.testing.assert_allclose(
            np.mean(np.square(result.residuals)), result.mse, rtol=1e-9
        )

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_dilution_model(BATEMAN_POOL_SENSITIVITIES[:1])

    def test_one_ratio_does_not_identify_alpha(self):
        same_ratio = [
            SensitivityObservation(n=5, k=1, se_observed=0.5),
            SensitivityObservation(n=10, k=2, se_observed=0.9),
        ]
        with pytest.raises(ValueError, match="at least 2 distinct k/n ratios"):
            fit_dilution_model(same_ratio)

    def test_nonconvergence_carries_best_point(self):
        """With se_i + sp = 1 alpha leaves the curve: the profile is flat and
        its least value sits on the grid's edge."""
        kit = TestKit(se_i=0.5, sp=0.5)
        with pytest.raises(FitConvergenceError, match="edge") as info:
            fit_dilution_model(BATEMAN_POOL_SENSITIVITIES, kit)
        error = info.value
        assert error.alpha in (-64.0, 64.0)
        size = np.array([obs.n for obs in BATEMAN_POOL_SENSITIVITIES], dtype=float)
        rest = np.array([obs.se_observed for obs in BATEMAN_POOL_SENSITIVITIES]) - (1.0 - kit.sp)
        np.testing.assert_allclose(error.beta, size @ rest / (size @ size), rtol=1e-12)
        at_edge = DilutionModel(kit=kit, alpha=error.alpha, beta=error.beta)
        np.testing.assert_allclose(error.mse, _raw_mse(at_edge, BATEMAN_POOL_SENSITIVITIES), rtol=1e-12)

    @pytest.mark.parametrize("rate, bound", [(0.3, 0.0144905), (1e-9, 4.6966e-05)])
    def test_reaches_the_least_squares_of_poor_kits(self, rate, bound):
        """A local search from alpha = 0.05 stops at mse 0.137816 and 0.247149 here."""
        result = fit_dilution_model(BATEMAN_POOL_SENSITIVITIES, TestKit(se_i=rate, sp=rate))
        assert result.mse <= bound

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.integers(1, 10_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n), st.floats(0.0, 1.0))),
            min_size=2, max_size=8,
        ),
        st.tuples(st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1.0, exclude_min=True)),
        st.sampled_from([LINEAR_POOL_SIZE, LINEAR_POSITIVES]),
        st.lists(st.tuples(st.floats(-64.0, 64.0), st.floats(-2.0, 2.0)), min_size=1, max_size=20),
    )
    def test_no_sampled_point_beats_the_fit(self, rows, rates, linear_term, candidates):
        """The reported mse is that of the residuals, and no (alpha, beta) in
        the grid's range, nor alpha with its best beta, has a lower raw mse."""
        observations = [SensitivityObservation(n=n, k=k, se_observed=se) for n, k, se in rows]
        kit = TestKit(*rates)
        try:
            result = fit_dilution_model(observations, kit, linear_term=linear_term)
        except (ValueError, FitConvergenceError):
            return
        assert math.isclose(result.mse, np.mean(np.square(result.residuals)), rel_tol=1e-12)
        size = np.array([n if linear_term == LINEAR_POOL_SIZE else k for n, k, _ in rows], dtype=float)
        for alpha, beta in candidates:
            model = DilutionModel(kit=kit, alpha=alpha, beta=beta, linear_term=linear_term)
            rest = [obs.se_observed - model.raw_sensitivity(obs.n, obs.k) + beta * s
                    for obs, s in zip(observations, size)]
            best_beta = float(size @ np.array(rest)) / float(size @ size)
            for candidate in (model, replace(model, beta=best_beta)):
                assert _raw_mse(candidate, observations) >= result.mse * (1.0 - 1e-9) - 1e-15, candidate


def _raw_mse(model, observations):
    """The mean squared residual of the unclamped curve, inf where a square overflows."""
    residuals = [model.raw_sensitivity(obs.n, obs.k) - obs.se_observed for obs in observations]
    return sum(r * r for r in residuals) / len(residuals)


class TestLoadObservations:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("n,k,se\n1,1,0.99\n5,1,0.93\n10,1,0.91\n50,1,0.81\n")
        observations = load_observations(path)
        assert observations == BATEMAN_POOL_SENSITIVITIES

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("pool,k,se\n1,1,0.99\n")
        with pytest.raises(ValueError, match="expected header"):
            load_observations(path)

    @pytest.mark.parametrize("text, where", [
        ("n,k,se\n5,9,0.93\n", "obs.csv:2"),
        ("n,k,se\n5,1,0.93\n10,1,high\n", "obs.csv:3: could not convert string to float: 'high'"),
        pytest.param("n,k,se\n" + "5,1,0.93\n" * 3 + "x,1,0.93\n" + "5,1,0.93\n" * 10 + "5,1\n", "obs.csv:5: invalid literal for int",
                     id="bad-cell-above-a-short-row"),
    ])
    def test_rejects_bad_row(self, tmp_path, text, where):
        path = tmp_path / "obs.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=where):
            load_observations(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("n,k,se\n")
        with pytest.raises(ValueError, match="no observation rows"):
            load_observations(path)
