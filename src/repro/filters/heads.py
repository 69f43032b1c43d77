"""Trained estimation heads over frozen backbone features.

The paper's filters are small trainable heads on top of frozen early
convolution layers.  Here the heads are linear models fit in closed form
(ridge regression), which keeps training deterministic and fast on CPU while
preserving exactly the estimation structure of the paper:

* :class:`GridScoringHead` — the analogue of the class-activation map / grid
  branch: a per-class linear scorer over per-cell features whose thresholded
  output is the class location mask;
* :class:`CountCalibration` — the count head: the per-class count is a
  calibrated affine function of the summed cell scores (density-style
  counting), mirroring how the branch's fully connected count output
  aggregates the activation map;
* :class:`PooledCountHead` — the ``OD-COF`` head: a count regressor that only
  sees globally pooled features (no spatial structure), which is why it
  degrades on frames with many objects exactly as the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.spatial.grid import component_counts


#: names of the per-class aggregate features the count head consumes
COUNT_FEATURE_NAMES = ("score_sum", "occupied_cells", "components")


def batch_count_features(planes: np.ndarray, threshold: float) -> np.ndarray:
    """Count features of every frame and class of ``(C, N, g, g)`` score
    planes, as ``(N, C, len(COUNT_FEATURE_NAMES))``.

    The count head regresses each class's object count on three aggregates
    of its thresholded activation map: the summed score mass (density), the
    number of occupied cells (covered area) and the number of connected
    components (distinct blobs).  This mirrors how the paper's count output
    aggregates the regularised activation map through the fully connected
    layer, and is what lets exact counts stay accurate when object sizes vary.

    All ``C * N`` planes go through one occupancy mask, one cell sum and one
    :func:`~repro.spatial.grid.component_counts` (4-connected blobs inside
    each plane).  Each plane's mass sums its own run of the compacted
    occupied scores, which is the sum of ``scores[mask]`` on that plane
    alone, bit for bit (``np.add.reduceat`` would sum sequentially).
    """
    num_classes, n, rows, cols = planes.shape
    flat = planes.reshape(num_classes * n, rows * cols)
    mask = flat >= threshold
    cells = mask.sum(axis=1)
    values = flat[mask]
    ends = np.cumsum(cells)
    features = np.empty((num_classes, n, len(COUNT_FEATURE_NAMES)))
    plane_features = features.reshape(num_classes * n, -1)
    plane_features[:, 0] = [
        values[end - count : end].sum() for end, count in zip(ends.tolist(), cells.tolist())
    ]
    plane_features[:, 1] = cells
    plane_features[:, 2] = component_counts(mask.reshape(num_classes * n, rows, cols))
    return np.ascontiguousarray(features.swapaxes(0, 1))


@dataclass
class RidgeAccumulator:
    """Streaming normal-equation accumulator for ridge regression.

    Solves ``min_w ||X w - y||^2 + alpha ||w||^2`` without materialising
    ``X``: callers feed ``(features, targets)`` batches and the accumulator
    keeps only ``X^T X`` and ``X^T y``.  A bias column is appended
    automatically.
    """

    num_features: int
    num_outputs: int = 1
    alpha: float = 1e-3
    _xtx: np.ndarray = field(init=False)
    _xty: np.ndarray = field(init=False)
    _count: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_features <= 0 or self.num_outputs <= 0:
            raise ValueError("num_features and num_outputs must be positive")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative: {self.alpha}")
        size = self.num_features + 1
        self._xtx = np.zeros((size, size))
        self._xty = np.zeros((size, self.num_outputs))

    def add_batch(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        sample_weights: np.ndarray | None = None,
    ) -> None:
        """Accumulate a batch: ``features (N, F)``, ``targets (N,)`` or ``(N, outputs)``.

        ``sample_weights`` (shape ``(N,)``) re-weights individual rows; this
        is how occupied grid cells — which are rare — are balanced against
        the overwhelming majority of empty cells (the analogue of the
        ``lambda_obj`` / ``lambda_noobj`` terms in the paper's equation 3).
        """
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.num_features:
            raise ValueError(
                f"expected features (N, {self.num_features}), got {features.shape}"
            )
        if targets.ndim == 1:
            targets = targets[:, None]
        if targets.shape != (features.shape[0], self.num_outputs):
            raise ValueError(
                f"expected targets ({features.shape[0]}, {self.num_outputs}), got {targets.shape}"
            )
        augmented = np.concatenate(
            [features, np.ones((features.shape[0], 1))], axis=1
        )
        if sample_weights is None:
            self._xtx += augmented.T @ augmented
            self._xty += augmented.T @ targets
        else:
            weights = np.asarray(sample_weights, dtype=np.float64)
            if weights.shape != (features.shape[0],):
                raise ValueError(
                    f"sample_weights must have shape ({features.shape[0]},), got {weights.shape}"
                )
            if np.any(weights < 0):
                raise ValueError("sample_weights must be non-negative")
            weighted = augmented * weights[:, None]
            self._xtx += weighted.T @ augmented
            self._xty += weighted.T @ targets
        self._count += features.shape[0]

    @property
    def num_samples(self) -> int:
        return self._count

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(weights, bias)`` with shapes ``(F, outputs)`` and ``(outputs,)``."""
        if self._count == 0:
            raise RuntimeError("no samples accumulated")
        size = self.num_features + 1
        regulariser = self.alpha * np.eye(size)
        regulariser[-1, -1] = 0.0  # do not penalise the bias
        solution = np.linalg.solve(self._xtx + regulariser, self._xty)
        return solution[:-1, :], solution[-1, :]


@dataclass
class GridScoringHead:
    """Per-class linear scorer over per-cell features.

    ``weights`` has shape ``(num_classes, F)`` and ``bias`` ``(num_classes,)``;
    scoring a ``(g, g, F)`` feature tensor yields a ``(num_classes, g, g)``
    score tensor in (approximately) ``[0, 1]``.
    """

    class_names: tuple[str, ...]
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        bias = np.asarray(self.bias, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] != len(self.class_names):
            raise ValueError(
                f"weights must be (num_classes, F), got {weights.shape} for "
                f"{len(self.class_names)} classes"
            )
        if bias.shape != (len(self.class_names),):
            raise ValueError(f"bias must be (num_classes,), got {bias.shape}")
        self.weights = weights
        self.bias = bias

    @property
    def num_features(self) -> int:
        return self.weights.shape[1]

    def score(self, cell_features: np.ndarray) -> dict[str, np.ndarray]:
        """Per-class cell scores for a ``(g, g, F)`` feature tensor."""
        features = np.asarray(cell_features, dtype=np.float64)
        if features.ndim != 3 or features.shape[2] != self.num_features:
            raise ValueError(
                f"expected (g, g, {self.num_features}) features, got {features.shape}"
            )
        g_rows, g_cols, _ = features.shape
        flat = features.reshape(-1, self.num_features)
        scores = flat @ self.weights.T + self.bias
        scores = np.clip(scores, 0.0, 1.0)
        scores = scores.reshape(g_rows, g_cols, len(self.class_names))
        return {
            name: scores[:, :, index] for index, name in enumerate(self.class_names)
        }

    def score_batch(self, cell_features: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Unbiased cell scores of a ``(n, g, g, F)`` feature tile, written
        into a contiguous ``out`` of shape ``(n, g, g, C)`` and returned.

        One identically shaped GEMM per frame against a contiguous
        ``weights.T``, so frame ``k`` of ``out`` is bit-identical to
        ``cell_features[k] @ weights.T``, the product :meth:`score` takes.
        :meth:`class_planes` then finishes a whole batch of tiles at once.
        """
        features = np.asarray(cell_features, dtype=np.float64)
        if features.ndim != 4 or features.shape[3] != self.num_features:
            raise ValueError(
                f"expected (n, g, g, {self.num_features}) features, got {features.shape}"
            )
        n, g_rows, g_cols, _ = features.shape
        flat = features.reshape(n, g_rows * g_cols, self.num_features)
        np.matmul(
            flat,
            np.ascontiguousarray(self.weights.T),
            out=out.reshape(n, g_rows * g_cols, len(self.class_names)),
        )
        return out

    def class_planes(self, scores: np.ndarray, threshold: float) -> np.ndarray:
        """Class-major ``(C, N, g, g)`` location scores of ``(N, g, g, C)``
        unbiased :meth:`score_batch` output.

        Bias per class row, clip to ``[0, 1]`` and cross-class suppression,
        in place on one ``(C, N * g * g)`` copy.  The linear heads are
        trained per class, as the paper's per-class activation maps are, so
        a strongly foreground cell can clear the threshold for more than one
        class; where another class scores strictly higher and clears the
        threshold, the losing class's score is zeroed.  Every step is
        elementwise, so each frame's planes are bit-identical to
        :meth:`score` on that frame followed by the same suppression.
        """
        n, g_rows, g_cols, num_classes = scores.shape
        planes = np.empty((num_classes, n * g_rows * g_cols))
        np.add(scores.reshape(-1, num_classes).T, self.bias[:, None], out=planes)
        np.clip(planes, 0.0, 1.0, out=planes)
        best = planes.max(axis=0)
        losing = planes < best
        losing &= best >= threshold
        planes[losing] = 0.0
        return planes.reshape(num_classes, n, g_rows, g_cols)


@dataclass
class CountCalibration:
    """Linear calibration from activation-map aggregates to per-class counts.

    For each class ``c`` the count estimate is
    ``max(0, weights_c . features_c + offset_c)`` where
    :func:`batch_count_features` provides ``features_c`` (score sum,
    occupied cells, blob count).
    """

    class_names: tuple[str, ...]
    weights: np.ndarray  # (num_classes, num_count_features)
    offset: np.ndarray  # (num_classes,)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        offset = np.asarray(self.offset, dtype=np.float64)
        num_classes = len(self.class_names)
        if weights.shape != (num_classes, len(COUNT_FEATURE_NAMES)):
            raise ValueError(
                f"weights must be ({num_classes}, {len(COUNT_FEATURE_NAMES)}), got {weights.shape}"
            )
        if offset.shape != (num_classes,):
            raise ValueError(f"offset must be ({num_classes},), got {offset.shape}")
        self.weights = weights
        self.offset = offset

    def estimate(
        self, per_class_features: dict[str, np.ndarray]
    ) -> tuple[dict[str, float], dict[str, int]]:
        """Return raw (float) and rounded per-class count estimates."""
        raw: dict[str, float] = {}
        rounded: dict[str, int] = {}
        for index, name in enumerate(self.class_names):
            features = np.asarray(
                per_class_features.get(name, np.zeros(len(COUNT_FEATURE_NAMES))),
                dtype=np.float64,
            )
            value = float(self.weights[index] @ features + self.offset[index])
            value = max(value, 0.0)
            raw[name] = value
            rounded[name] = int(round(value))
        return raw, rounded

    @classmethod
    def fit(
        cls,
        class_names: tuple[str, ...],
        feature_tensor: np.ndarray,
        true_counts: np.ndarray,
    ) -> "CountCalibration":
        """Least-squares fit of the per-class count calibration.

        ``feature_tensor`` has shape ``(num_frames, num_classes,
        num_count_features)`` and ``true_counts`` ``(num_frames, num_classes)``.
        """
        feature_tensor = np.asarray(feature_tensor, dtype=np.float64)
        true_counts = np.asarray(true_counts, dtype=np.float64)
        num_classes = len(class_names)
        if feature_tensor.ndim != 3 or feature_tensor.shape[1] != num_classes:
            raise ValueError(
                "feature_tensor must be (num_frames, num_classes, num_count_features), "
                f"got {feature_tensor.shape}"
            )
        if true_counts.shape != feature_tensor.shape[:2]:
            raise ValueError(
                f"true_counts shape {true_counts.shape} does not match features"
            )
        num_features = feature_tensor.shape[2]
        weights = np.zeros((num_classes, num_features))
        offset = np.zeros(num_classes)
        for index in range(num_classes):
            x = feature_tensor[:, index, :]
            y = true_counts[:, index]
            # Guard against a degenerate class that never appears.
            if np.allclose(x, 0.0) or np.allclose(y, 0.0):
                offset[index] = float(np.mean(y))
                continue
            design = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
            coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
            weights[index] = coeffs[:-1]
            offset[index] = float(coeffs[-1])
        return cls(class_names=class_names, weights=weights, offset=offset)


@dataclass
class PooledCountHead:
    """Total-count regressor over globally pooled features (the OD-COF head)."""

    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1:
            raise ValueError(f"weights must be a vector, got shape {weights.shape}")
        self.weights = weights
        self.bias = float(self.bias)

    def estimate(self, pooled_features: np.ndarray) -> float:
        pooled = np.asarray(pooled_features, dtype=np.float64)
        if pooled.shape != self.weights.shape:
            raise ValueError(
                f"expected pooled features of shape {self.weights.shape}, got {pooled.shape}"
            )
        return float(max(pooled @ self.weights + self.bias, 0.0))
