"""Plain sampling-based estimation (the baseline the control variates improve on)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SampleEstimate:
    """A sampling estimate of a mean, with its uncertainty.

    ``confidence_interval`` is computed the first time it (or
    ``half_width``) is read, and cached on the instance.  It is not a
    dataclass field, so ``==``, ``hash``, ``repr``, ``dataclasses.replace``
    and ``dataclasses.asdict`` see the same fields whether or not it was read.
    """

    mean: float
    variance: float
    std_error: float
    num_samples: int
    confidence_level: float = 0.95

    @cached_property
    def confidence_interval(self) -> tuple[float, float]:
        """Student's t interval ``(mean - t * std_error, mean + t * std_error)``
        at ``confidence_level``; ``(mean, mean)`` from one sample or a zero
        standard error."""
        n, mean, std_error = self.num_samples, self.mean, self.std_error
        if n > 1 and std_error > 0:
            # Student's t quantile: ``scipy.stats.t.ppf`` is this call.  Imported
            # here, on the first read, so that neither ``import repro`` nor an
            # estimate whose interval nobody reads loads scipy (~20 MB for
            # ``scipy.special``, ~43 MB more for ``scipy.stats``).
            from scipy import special

            critical = float(special.stdtrit(n - 1, 0.5 + self.confidence_level / 2.0))
            return (mean - critical * std_error, mean + critical * std_error)
        return (mean, mean)

    @property
    def half_width(self) -> float:
        low, high = self.confidence_interval
        return (high - low) / 2.0


def sample_frame_indices(
    num_frames: int, sample_size: int, rng: np.random.Generator, replace: bool = False
) -> np.ndarray:
    """Uniformly sample frame indices from ``[0, num_frames)``.

    When drawing without replacement (the default), ``sample_size`` is
    clamped to ``num_frames``: asking for more samples than there are frames
    yields one exhaustive sample of every frame rather than an error, so
    small windows (e.g. the tail window of a hopping-window spec) estimate
    from their full population.
    """
    if num_frames <= 0:
        raise ValueError(f"num_frames must be positive: {num_frames}")
    if sample_size <= 0:
        raise ValueError(f"sample_size must be positive: {sample_size}")
    if not replace:
        sample_size = min(sample_size, num_frames)
    return np.sort(rng.choice(num_frames, size=sample_size, replace=replace))


def sample_mean_estimate(
    values: np.ndarray | list[float], confidence_level: float = 0.95
) -> SampleEstimate:
    """Mean / variance / standard error of a sample of per-frame values.

    The confidence interval is computed when first read
    (:attr:`SampleEstimate.confidence_interval`).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot estimate from an empty sample")
    if not 0.0 < confidence_level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1): {confidence_level}")
    n = values.size
    mean = float(values.mean())
    variance = float(values.var(ddof=1)) if n > 1 else 0.0
    std_error = float(np.sqrt(variance / n)) if n > 1 else 0.0
    return SampleEstimate(
        mean=mean,
        variance=variance,
        std_error=std_error,
        num_samples=n,
        confidence_level=confidence_level,
    )
