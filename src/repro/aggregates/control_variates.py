"""Control variates and multiple control variates (Section III of the paper).

Single control variate: to estimate ``E[Y]`` with samples ``(Y_i, X_i)``
where ``X`` has (estimated) mean ``mu_X``, use

    Y_cv = mean(Y) - beta * (mean(X) - mu_X),   beta* = Cov(X, Y) / Var(X)

which is unbiased and has variance ``(1 - rho^2) Var(mean(Y))`` where ``rho``
is the correlation between ``X`` and ``Y``.  In this reproduction ``Y_i`` is
the exact (detector-based) per-frame answer and ``X_i`` is the cheap filter's
answer for the same frame, so ``rho`` is large and the variance reduction is
substantial (Table IV).

Multiple control variates: with a vector ``Z`` of controls, ``beta* =
Sigma_ZZ^{-1} Sigma_ZY`` and the variance shrinks by the squared multiple
correlation coefficient ``R^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: A CV variance at or below ``plain_variance`` times this is float residue:
#: a control that explains ``Y`` exactly cancels it only up to rounding
#: (``y - beta * x`` with ``beta`` one ulp off 1), leaving ~1e-34 where the
#: true variance is 0, which would read as a ~1e31-fold reduction.
RESIDUE_RATIO = 1e-12


def _residue_to_zero(cv_variance: float, plain_variance: float) -> float:
    return 0.0 if cv_variance <= plain_variance * RESIDUE_RATIO else cv_variance


@dataclass(frozen=True)
class ControlVariateEstimate:
    """Result of a control-variate (or multiple-CV) estimation."""

    mean: float
    variance: float
    plain_mean: float
    plain_variance: float
    beta: tuple[float, ...]
    correlation: float
    num_samples: int

    @property
    def variance_reduction(self) -> float:
        """Factor by which the CV estimator's variance is smaller than plain sampling."""
        if self.variance <= 0:
            return float("inf") if self.plain_variance > 0 else 1.0
        return self.plain_variance / self.variance

    @property
    def std_error(self) -> float:
        return float(np.sqrt(max(self.variance, 0.0)))


def optimal_beta(y: np.ndarray, x: np.ndarray) -> float:
    """``beta* = Cov(X, Y) / Var(X)`` estimated from samples."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError(f"y and x must be 1-D arrays of equal length: {y.shape}, {x.shape}")
    if y.size < 2:
        raise ValueError("need at least two samples to estimate beta")
    var_x = float(np.var(x, ddof=1))
    if var_x <= 0:
        return 0.0
    cov_xy = float(np.cov(x, y, ddof=1)[0, 1])
    return cov_xy / var_x


def control_variate_estimate(
    y: np.ndarray | list[float],
    x: np.ndarray | list[float],
    control_mean: float | None = None,
) -> ControlVariateEstimate:
    """Single-control-variate estimate of ``E[Y]``.

    ``control_mean`` is ``mu_X``; when ``None`` the sample mean of ``X`` is
    used (in which case the CV correction is zero but the *variance* estimate
    still reflects the reduction the CV would achieve — the paper likewise
    uses the sample mean of the filter output as ``mu_X``).
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError(f"y and x must be 1-D arrays of equal length: {y.shape}, {x.shape}")
    n = y.size
    if n < 2:
        raise ValueError("need at least two samples")
    plain_mean = float(y.mean())
    plain_variance = float(y.var(ddof=1) / n)
    beta = optimal_beta(y, x)
    mu_x = float(x.mean()) if control_mean is None else float(control_mean)
    cv_mean = plain_mean - beta * (float(x.mean()) - mu_x)
    corrected = y - beta * (x - mu_x)
    cv_variance = _residue_to_zero(float(corrected.var(ddof=1) / n), plain_variance)
    std_x = float(x.std(ddof=1))
    std_y = float(y.std(ddof=1))
    if std_x > 0 and std_y > 0:
        correlation = float(np.corrcoef(x, y)[0, 1])
    else:
        correlation = 0.0
    return ControlVariateEstimate(
        mean=cv_mean,
        variance=cv_variance,
        plain_mean=plain_mean,
        plain_variance=plain_variance,
        beta=(beta,),
        correlation=correlation,
        num_samples=n,
    )


def multiple_control_variates_estimate(
    y: np.ndarray | list[float],
    controls: np.ndarray,
    control_means: np.ndarray | list[float] | None = None,
) -> ControlVariateEstimate:
    """Multiple-control-variates estimate of ``E[Y]``.

    ``controls`` has shape ``(num_samples, num_controls)``; ``control_means``
    are the (estimated) expectations ``mu_Z`` of each control (sample means by
    default).  ``beta* = Sigma_ZZ^{-1} Sigma_ZY`` and the reported correlation
    is the multiple correlation coefficient ``R``.
    """
    y = np.asarray(y, dtype=np.float64)
    controls = np.asarray(controls, dtype=np.float64)
    if controls.ndim != 2 or controls.shape[0] != y.shape[0]:
        raise ValueError(
            f"controls must be (num_samples, num_controls): {controls.shape} vs y {y.shape}"
        )
    n, num_controls = controls.shape
    if n < num_controls + 2:
        raise ValueError(
            f"need at least {num_controls + 2} samples for {num_controls} controls, got {n}"
        )
    plain_mean = float(y.mean())
    plain_variance = float(y.var(ddof=1) / n)

    centered = controls - controls.mean(axis=0, keepdims=True)
    sigma_zz = (centered.T @ centered) / (n - 1)
    sigma_zy = (centered.T @ (y - y.mean())) / (n - 1)
    # Regularise in case two controls are (nearly) collinear.
    ridge = 1e-10 * np.eye(num_controls) * max(np.trace(sigma_zz), 1.0)
    beta = np.linalg.solve(sigma_zz + ridge, sigma_zy)

    mu_z = (
        controls.mean(axis=0)
        if control_means is None
        else np.asarray(control_means, dtype=np.float64)
    )
    if mu_z.shape != (num_controls,):
        raise ValueError(f"control_means must have shape ({num_controls},)")
    cv_mean = plain_mean - float(beta @ (controls.mean(axis=0) - mu_z))
    corrected = y - (controls - mu_z) @ beta
    cv_variance = _residue_to_zero(float(corrected.var(ddof=1) / n), plain_variance)

    var_y = float(y.var(ddof=1))
    if var_y > 0:
        r_squared = float(sigma_zy @ beta / var_y)
        r_squared = float(np.clip(r_squared, 0.0, 1.0))
    else:
        r_squared = 0.0
    return ControlVariateEstimate(
        mean=cv_mean,
        variance=cv_variance,
        plain_mean=plain_mean,
        plain_variance=plain_variance,
        beta=tuple(float(b) for b in beta),
        correlation=float(np.sqrt(r_squared)),
        num_samples=n,
    )
