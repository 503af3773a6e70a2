"""Dilution curve behavior, variant switches, and the least-squares fit."""

import math
import re

import numpy as np
import pytest

import pooltest.dilution as dilution_module
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
from pooltest.dilution import (
    LINEAR_POSITIVES,
    RATIO_N_OVER_K,
)


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

    def test_flipped_ratio_reverses_the_trend(self):
        flipped = bateman_fit_model(ratio_orientation=RATIO_N_OVER_K)
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
        assert model.is_clamped(30, 1)
        assert not model.is_clamped(2, 1)

    @pytest.mark.parametrize("alpha, orientation", [(-1000.0, "k-over-n"), (1000.0, "n-over-k")])
    def test_overflowing_power_clamps(self, alpha, orientation):
        """ratio**alpha overflows a float for k < n: Se is then the bound the
        curve runs to, never an OverflowError. At k = n the ratio is 1."""
        model = DilutionModel(kit=DEFAULT_KIT, alpha=alpha, beta=-0.001, ratio_orientation=orientation)
        assert model.raw_sensitivity(10, 1) == math.inf
        assert model.sensitivity(10, 1) == 1.0 and model.is_clamped(10, 1)
        assert model.sensitivity(10, 10) == pytest.approx(0.99 - 0.01)
        below = DilutionModel(kit=TestKit(se_i=0.3, sp=0.3), alpha=alpha, ratio_orientation=orientation)
        assert below.raw_sensitivity(10, 1) == -math.inf
        assert below.sensitivity(10, 1) == 0.0

    def test_opposite_overflows_clamp_to_the_larger_term(self):
        """Where the power term and beta * size overflow to opposite infinities,
        Se is the bound of the term with the larger magnitude, never NaN."""
        kit = TestKit(se_i=0.3, sp=0.3)
        # -0.4 * 10**1000 against 10**309: the power term wins, Se clamps to 0.
        model = DilutionModel(kit=kit, alpha=-1000.0, beta=1e308)
        assert model.raw_sensitivity(10, 1) == -math.inf
        assert model.is_clamped(10, 1) and model.sensitivity(10, 1) == 0.0
        # -0.4 * 10**300 alone does not overflow, so nothing cancels: Se clamps to 1.
        model = DilutionModel(kit=kit, alpha=-300.0, beta=1e308)
        assert model.raw_sensitivity(10, 1) == math.inf
        assert model.is_clamped(10, 1) and model.sensitivity(10, 1) == 1.0
        # 0.98 * 10**310 against -1e308 * n: the power term wins at n = 10 and
        # the linear term at n = 10,000, with the same ratio of 0.1.
        model = DilutionModel(kit=DEFAULT_KIT, alpha=-310.0, beta=-1e308)
        assert model.raw_sensitivity(10, 1) == math.inf
        assert model.sensitivity(10, 1) == 1.0
        assert model.raw_sensitivity(10_000, 1_000) == -math.inf
        assert model.is_clamped(10_000, 1_000) and model.sensitivity(10_000, 1_000) == 0.0

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
        assert model.is_clamped(10_000, k).all()
        np.testing.assert_array_equal(model.sensitivity(10_000, k), np.where(k <= 985, 1.0, 0.0))
        # Kit 0.3/0.3: -0.4 * (10/k)**1000 overflows for k <= 4 and outweighs
        # 1e308 * 10 = +inf; for k >= 5 it is finite and the linear term wins.
        model = DilutionModel(kit=TestKit(se_i=0.3, sp=0.3), alpha=-1000.0, beta=1e308)
        k = np.arange(1, 11)
        assert model.raw_sensitivity(10, k).tolist() == [-math.inf] * 4 + [math.inf] * 6
        assert model.sensitivity(10, k).tolist() == [0.0] * 4 + [1.0] * 6
        assert [model.raw_sensitivity(10, j) for j in k.tolist()] == [-math.inf] * 4 + [math.inf] * 6

    @pytest.mark.parametrize("orientation", ["k-over-n", RATIO_N_OVER_K])
    def test_array_power_is_within_one_ulp_of_scalar_pow(self, orientation):
        """With kit 1/1 and beta = 0 the curve is its power term alone. An array
        of k gives each scalar call's value within one ulp: numpy's vectorised
        pow is not the C library's."""
        for alpha in (bateman_fit_model().alpha, -0.7, 3.0):
            model = DilutionModel(kit=TestKit(1.0, 1.0), alpha=alpha, ratio_orientation=orientation)
            for n, k in _row_samples():
                scalar = [model.raw_sensitivity(n, j) for j in k.tolist()]
                np.testing.assert_array_max_ulp(model.raw_sensitivity(n, k), scalar, maxulp=1)

    @pytest.mark.parametrize("orientation", ["k-over-n", RATIO_N_OVER_K])
    @pytest.mark.parametrize("linear_term", ["pool-size", LINEAR_POSITIVES])
    def test_array_k_matches_scalar_calls(self, orientation, linear_term):
        """The whole curve carries that one-ulp power difference, times
        se_i + sp - 1 < 1, through two sums that round again: within 2 eps,
        relative for |Se| above 1. On the stock curve below n = 400, 4,244 of
        79,799 (n, k) pairs differ, by one ulp (2,610) or two (1,634)."""
        model = bateman_fit_model(ratio_orientation=orientation, linear_term=linear_term)
        eps = np.finfo(float).eps
        for n, k in _row_samples():
            for method in (model.raw_sensitivity, model.sensitivity):
                row = method(n, k)
                assert row.shape == k.shape and row.dtype == np.float64
                scalar = [method(n, j) for j in k.tolist()]
                np.testing.assert_allclose(row, scalar, rtol=2 * eps, atol=2 * eps)
        grid = np.array([[1, 2], [3, 10]])
        assert model.sensitivity(10, grid).shape == (2, 2)
        assert model.is_clamped(10, grid).tolist() == [[model.is_clamped(10, j) for j in row] for row in grid.tolist()]

    @pytest.mark.parametrize("bad", [0, 6, 2.5, float("nan"), float("inf")])
    def test_array_k_is_validated(self, bad):
        """The k range is checked once per call, over the whole array."""
        model = bateman_fit_model()
        k = np.array([1, 2, bad, 5])
        for method in (model.raw_sensitivity, model.sensitivity, model.is_clamped):
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
        with pytest.raises(ValueError, match="ratio_orientation"):
            DilutionModel(ratio_orientation="sideways")
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

    def test_nonconvergence_carries_best_point(self, monkeypatch):
        class _Stuck:
            success = False
            x = np.array([0.123, -0.004])
            fun = 0.5
            message = "simplex collapsed"
            nit = 17

        monkeypatch.setattr(
            dilution_module.optimize, "minimize", lambda *a, **k: _Stuck()
        )
        with pytest.raises(FitConvergenceError, match="simplex collapsed") as info:
            fit_dilution_model(BATEMAN_POOL_SENSITIVITIES)
        assert info.value.alpha == 0.123
        assert info.value.beta == -0.004
        assert info.value.mse == 0.5


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

    def test_rejects_bad_row(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("n,k,se\n5,9,0.93\n")
        with pytest.raises(ValueError, match="obs.csv:2"):
            load_observations(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("n,k,se\n")
        with pytest.raises(ValueError, match="no observation rows"):
            load_observations(path)
