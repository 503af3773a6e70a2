"""Pool sensitivity under dilution, and the least-squares calibration of it.

A pooled specimen with k positives out of n subjects is detected with
probability

    Se(n, k) = clamp( (1 - Sp) + (Se_I + Sp - 1) * ratio^alpha + beta * size, 0, 1 )

where ratio is k/n by default (the share of positive contributions, so more
dilution means a smaller ratio and lower sensitivity) and size is the pool
size n. Both choices carry a variant switch: ratio can be flipped to n/k and
the linear term can be driven by k instead of n, because both printed forms
circulate and the variants keep them reachable. At n = k = 1 the default
curve reduces to Se_I plus beta, i.e. essentially the individual test kit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import optimize

from .csvio import read_table
from .kernels import check_pool_size, is_whole

__all__ = [
    "RATIO_K_OVER_N",
    "RATIO_N_OVER_K",
    "LINEAR_POOL_SIZE",
    "LINEAR_POSITIVES",
    "TestKit",
    "DEFAULT_KIT",
    "DilutionModel",
    "SensitivityObservation",
    "BATEMAN_POOL_SENSITIVITIES",
    "bateman_fit_model",
    "FitResult",
    "FitConvergenceError",
    "fit_dilution_model",
    "load_observations",
]

RATIO_K_OVER_N = "k-over-n"
RATIO_N_OVER_K = "n-over-k"
RATIO_ORIENTATIONS = frozenset({RATIO_K_OVER_N, RATIO_N_OVER_K})

LINEAR_POOL_SIZE = "pool-size"
LINEAR_POSITIVES = "positives"
LINEAR_TERMS = frozenset({LINEAR_POOL_SIZE, LINEAR_POSITIVES})


@dataclass(frozen=True)
class TestKit:
    """Sensitivity and specificity of the underlying assay on one specimen."""

    # A domain class, not a test container: pytest must not collect it.
    __test__ = False

    se_i: float
    sp: float

    def __post_init__(self) -> None:
        for name in ("se_i", "sp"):
            value = float(getattr(self, name))
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
            object.__setattr__(self, name, value)


DEFAULT_KIT = TestKit(se_i=0.99, sp=0.99)


@dataclass(frozen=True)
class DilutionModel:
    """Dilution curve Se(n, k), parameterized by (alpha, beta) over a TestKit.

    alpha shapes the power-law response to the positive share; beta is a
    small linear drift in pool size (negative in practice: larger pools lose
    a little sensitivity beyond the dilution ratio itself).
    """

    kit: TestKit = DEFAULT_KIT
    alpha: float = 0.0
    beta: float = 0.0
    ratio_orientation: str = RATIO_K_OVER_N
    linear_term: str = LINEAR_POOL_SIZE

    def __post_init__(self) -> None:
        for name, choices in (("ratio_orientation", RATIO_ORIENTATIONS), ("linear_term", LINEAR_TERMS)):
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"{name} must be one of {sorted(choices)}, got {value!r}")
        for name in ("alpha", "beta"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def raw_sensitivity(self, n: int, k):
        """The curve before clamping, for 1 <= k <= n; +-inf where a term overflows.

        An int k gives a float by scalar arithmetic (the C library's pow); an
        integer array gives an array of its shape, where numpy's pow may be an ulp off.
        """
        n = check_pool_size(n)
        k = np.asarray(k)
        coefficient = self.kit.se_i + self.kit.sp - 1.0
        # Overflow gives IEEE +-inf, and Se clamps to the bound the term points at.
        with np.errstate(over="ignore", invalid="ignore"):
            valid = (1 <= k) & (k <= n) & (k % 1 == 0)  # nan and inf fail the range test
            if not valid.all():
                raise ValueError(f"k must be an integer in [1, {n}], got {k[~valid].tolist()[0]!r}")
            ratio = k / n if self.ratio_orientation == RATIO_K_OVER_N else n / k
            size = n if self.linear_term == LINEAR_POOL_SIZE else k
            # A zero coefficient adds no power term, even where the power overflows.
            dilution = coefficient * ratio**self.alpha if coefficient else 0.0
            linear = self.beta * size
            raw = (1.0 - self.kit.sp) + dilution + linear
        clash = np.isnan(raw)  # only opposite infinities sum to NaN
        if clash.any():  # the term with the larger magnitude wins, compared in logs
            dilution_log = math.log(abs(coefficient)) + self.alpha * np.log(ratio)
            linear_log = math.log(abs(self.beta)) + np.log(size)
            raw = np.where(clash, np.where(dilution_log > linear_log, dilution, linear), raw)
        return raw if k.ndim else float(raw)

    def sensitivity(self, n: int, k):
        """Se(n, k), clamped into [0, 1]; a float for an int k, an array for an array k."""
        se = np.minimum(np.maximum(self.raw_sensitivity(n, k), 0.0), 1.0)
        return se if se.ndim else float(se)

    def is_clamped(self, n: int, k):
        """True where the raw curve leaves [0, 1] at (n, k) and clamping bites."""
        raw = self.raw_sensitivity(n, k)
        return (raw < 0.0) | (raw > 1.0)


@dataclass(frozen=True)
class SensitivityObservation:
    """One measured pool sensitivity: a pool of n with k positives read se_observed."""

    n: int
    k: int
    se_observed: float

    def __post_init__(self) -> None:
        n = check_pool_size(self.n)
        object.__setattr__(self, "n", n)
        if not is_whole(self.k) or not 1 <= int(self.k) <= n:
            raise ValueError(f"k must be an integer in [1, {n}], got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
        se = float(self.se_observed)
        if not 0.0 <= se <= 1.0:
            raise ValueError(f"se_observed must lie in [0, 1], got {se!r}")
        object.__setattr__(self, "se_observed", se)


# Single-positive pool sensitivities from the Bateman dilution study, plus the
# kit's own single-specimen point. Fitting (alpha, beta) to these four points
# with the default kit gives alpha = 0.032482, beta = -0.001255.
BATEMAN_POOL_SENSITIVITIES: tuple[SensitivityObservation, ...] = (
    SensitivityObservation(n=1, k=1, se_observed=0.99),
    SensitivityObservation(n=5, k=1, se_observed=0.93),
    SensitivityObservation(n=10, k=1, se_observed=0.91),
    SensitivityObservation(n=50, k=1, se_observed=0.81),
)

BATEMAN_FIT_ALPHA = 0.032482
BATEMAN_FIT_BETA = -0.001255


def bateman_fit_model(
    kit: TestKit = DEFAULT_KIT,
    *,
    ratio_orientation: str = RATIO_K_OVER_N,
    linear_term: str = LINEAR_POOL_SIZE,
) -> DilutionModel:
    """The stock dilution model: frozen coefficients from the Bateman fit."""
    return DilutionModel(
        kit=kit,
        alpha=BATEMAN_FIT_ALPHA,
        beta=BATEMAN_FIT_BETA,
        ratio_orientation=ratio_orientation,
        linear_term=linear_term,
    )


class FitConvergenceError(RuntimeError):
    """Raised when the simplex search gives up; carries the best point seen."""

    def __init__(self, message: str, alpha: float, beta: float, mse: float):
        super().__init__(message)
        self.alpha = alpha
        self.beta = beta
        self.mse = mse


@dataclass(frozen=True)
class FitResult:
    model: DilutionModel
    mse: float
    iterations: int
    residuals: tuple[float, ...] = field(repr=False, default=())


def fit_dilution_model(
    observations: Sequence[SensitivityObservation],
    kit: TestKit = DEFAULT_KIT,
    *,
    ratio_orientation: str = RATIO_K_OVER_N,
    linear_term: str = LINEAR_POOL_SIZE,
) -> FitResult:
    """Least-squares (alpha, beta) for the dilution curve on observed pools.

    Minimizes the mean squared residual of the RAW curve with Nelder-Mead;
    fitting the unclamped values keeps the objective smooth where the clamp
    would flatten it. The returned model clamps as usual when evaluated.
    """
    observations = tuple(observations)
    if len(observations) < 2:
        raise ValueError(f"need at least 2 observations to fit 2 parameters, got {len(observations)}")

    base = DilutionModel(
        kit=kit, ratio_orientation=ratio_orientation, linear_term=linear_term
    )

    def objective(params) -> float:
        model = replace(base, alpha=float(params[0]), beta=float(params[1]))
        total = 0.0
        for obs in observations:
            resid = model.raw_sensitivity(obs.n, obs.k) - obs.se_observed
            total += resid * resid
        return total / len(observations)

    result = optimize.minimize(
        objective,
        x0=[0.05, 0.0],
        method="Nelder-Mead",
        options=dict(xatol=1e-10, fatol=1e-14, maxiter=100_000, maxfev=100_000),
    )
    alpha, beta = float(result.x[0]), float(result.x[1])
    if not result.success:
        raise FitConvergenceError(
            f"dilution fit did not converge: {result.message}",
            alpha=alpha,
            beta=beta,
            mse=float(result.fun),
        )
    model = replace(base, alpha=alpha, beta=beta)
    residuals = tuple(
        model.raw_sensitivity(obs.n, obs.k) - obs.se_observed for obs in observations
    )
    return FitResult(
        model=model,
        mse=float(result.fun),
        iterations=int(result.nit),
        residuals=residuals,
    )


def load_observations(path: str | Path) -> tuple[SensitivityObservation, ...]:
    """Read pool sensitivity observations from a CSV with header n,k,se."""
    observations = read_table(
        path,
        ["n", "k", "se"],
        lambda row: SensitivityObservation(n=int(row[0]), k=int(row[1]), se_observed=float(row[2])),
    )
    if not observations:
        raise ValueError(f"{path}: no observation rows")
    return tuple(observations)
