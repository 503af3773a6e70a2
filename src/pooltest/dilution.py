"""Pool sensitivity under dilution, and its calibration by profile least squares.

A pooled specimen with k positives out of n subjects is detected with
probability

    Se(n, k) = clamp( (1 - Sp) + (Se_I + Sp - 1) * (k/n)^alpha + beta * size, 0, 1 )

where k/n is the share of positive contributions, so more dilution means a
smaller ratio and, for alpha > 0, lower sensitivity, and size is the pool
size n. The linear term can be driven by k instead of n, because both
printed forms circulate. A form printed with (n/k)^a is this curve at
alpha = -a. At n = k = 1 the curve reduces to Se_I plus beta, i.e.
essentially the individual test kit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .csvio import read_columns
from .kernels import check_pool_size, is_whole

__all__ = [
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
    linear_term: str = LINEAR_POOL_SIZE

    def __post_init__(self) -> None:
        if self.linear_term not in LINEAR_TERMS:
            raise ValueError(f"linear_term must be one of {sorted(LINEAR_TERMS)}, got {self.linear_term!r}")
        for name in ("alpha", "beta"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def raw_sensitivity(self, n: int, k):
        """The curve before clamping, for 1 <= k <= n; +-inf where a term overflows.

        An int k gives a float by scalar arithmetic (the C library's pow); an
        integer array gives an array of its shape, where numpy's pow may be an
        ulp off, or one float if se_i + sp = 1 under the pool-size linear term.
        """
        n = check_pool_size(n)
        k = np.asarray(k)
        coefficient = self.kit.se_i + self.kit.sp - 1.0
        # Overflow gives IEEE +-inf, and Se clamps to the bound the term points at.
        with np.errstate(over="ignore", invalid="ignore"):
            # nan and inf fail the range test; an integer array is whole already.
            if k.size and not (1 <= k.min() and k.max() <= n and (k.dtype.kind in "iu" or (k % 1 == 0).all())):
                valid = (1 <= k) & (k <= n) & (k % 1 == 0)
                raise ValueError(f"k must be an integer in [1, {n}], got {k[~valid].tolist()[0]!r}")
            ratio = k / n
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
        """Se(n, k), clamped into [0, 1]; a float for an int k, and as raw_sensitivity for an array k."""
        raw = self.raw_sensitivity(n, k)
        if isinstance(raw, float):
            return min(max(raw, 0.0), 1.0)
        return np.minimum(np.maximum(raw, 0.0, out=raw), 1.0, out=raw)


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


def bateman_fit_model(kit: TestKit = DEFAULT_KIT, *, linear_term: str = LINEAR_POOL_SIZE) -> DilutionModel:
    """The stock dilution model: frozen coefficients from the Bateman fit."""
    return DilutionModel(kit=kit, alpha=BATEMAN_FIT_ALPHA, beta=BATEMAN_FIT_BETA, linear_term=linear_term)


class FitConvergenceError(RuntimeError):
    """Raised when the least squares sit on the alpha grid's edge; carries that point."""

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


# |alpha| < 77 keeps (k/n)^alpha finite for every pool of at most MAX_POOL_SIZE.
ALPHA_GRID = np.arange(-1024, 1025) / 16
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def fit_dilution_model(
    observations: Sequence[SensitivityObservation],
    kit: TestKit = DEFAULT_KIT,
    *,
    linear_term: str = LINEAR_POOL_SIZE,
) -> FitResult:
    """Least-squares (alpha, beta) for the dilution curve on observed pools.

    Minimizes the mean squared residual of the RAW curve, which the clamp
    would flatten. The raw curve is linear in beta, so each alpha has a
    closed-form best beta. The least mean squared residual on ALPHA_GRID is
    narrowed to 1e-12 by golden-section steps (`iterations`) between its two
    grid neighbours; one on the grid's edge raises FitConvergenceError. The
    returned model clamps as usual when evaluated.
    """
    observations = tuple(observations)
    if len({obs.k / obs.n for obs in observations}) < 2:
        raise ValueError(f"need at least 2 distinct k/n ratios to fit alpha, got {len(observations)} observations")
    base = DilutionModel(kit=kit, linear_term=linear_term)
    ratio = np.array([obs.k / obs.n for obs in observations])
    size = np.array([obs.n if linear_term == LINEAR_POOL_SIZE else obs.k for obs in observations], dtype=float)
    offset = np.array([obs.se_observed for obs in observations]) - (1.0 - kit.sp)

    def profile(alpha: float) -> tuple[float, float]:
        """(mse, beta) at alpha and its best beta; squares may overflow to inf."""
        rest = offset - (kit.se_i + kit.sp - 1.0) * ratio**alpha
        beta = float(size @ rest) / float(size @ size)
        resid = rest - beta * size
        return float(resid @ resid) / len(resid), beta

    with np.errstate(over="ignore"):
        best = int(np.argmin([profile(alpha)[0] for alpha in ALPHA_GRID]))
        edge = best in (0, ALPHA_GRID.size - 1)
        lo, hi = map(float, ALPHA_GRID[[best, best] if edge else [best - 1, best + 1]])
        steps = 0
        while hi - lo > 1e-12:  # golden-section steps, taking the profile as unimodal here
            steps += 1
            x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
            lo, hi = (lo, x2) if profile(x1)[0] <= profile(x2)[0] else (x1, hi)
        alpha = (lo + hi) / 2.0
        model = replace(base, alpha=alpha, beta=profile(alpha)[1])
        residuals = tuple(model.raw_sensitivity(obs.n, obs.k) - obs.se_observed for obs in observations)
        mse = float(np.mean(np.square(residuals)))
    if edge:
        message = f"dilution fit did not converge: least squares at the alpha grid's edge, alpha = {alpha:g}"
        raise FitConvergenceError(message, alpha=alpha, beta=model.beta, mse=mse)
    return FitResult(model=model, mse=mse, iterations=steps, residuals=residuals)


def load_observations(path: str | Path) -> tuple[SensitivityObservation, ...]:
    """Read pool sensitivity observations from a CSV with header n,k,se."""
    observations = []
    lines, columns = read_columns(path, ["n", "k", "se"], [int, int, float])
    for line, n, k, se in zip(lines, *columns):
        try:
            observations.append(SensitivityObservation(n=n, k=k, se_observed=se))
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: {exc}") from None
    if not observations:
        raise ValueError(f"{path}: no observation rows")
    return tuple(observations)
