"""Filter training pipelines.

Two implementations are provided, mirroring DESIGN.md:

* :class:`FilterTrainer` — the default pipeline used by the experiments.  It
  annotates the training stream with the reference detector (as the paper
  annotates with Mask R-CNN), fits the per-class grid scoring head in closed
  form (streaming ridge regression over per-cell backbone features) and
  calibrates the count head on the summed cell scores.  Deterministic, runs
  in seconds on CPU, identical estimation structure to the paper's branches.

* :func:`train_neural_filter` — the faithful branch-network implementation on
  the :mod:`repro.nn` framework, trained end to end with the paper's
  multi-task loss and the two-phase alpha/beta schedule (counts first, then
  gradually add the localisation term).  Much slower; used by the unit tests
  and the ``train_branch_network`` example to demonstrate the full training
  path works.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.detection.annotation import AnnotatedFrame, AnnotationSet, annotate_frames
from repro.detection.backbone import (
    FeatureBackbone,
    classification_backbone,
    detection_backbone,
)
from repro.detection.base import Detector
from repro.detection.oracle import ReferenceDetector
from repro.filters.branch import DEFAULT_GRID_THRESHOLD
from repro.filters.heads import (
    COUNT_FEATURE_NAMES,
    CountCalibration,
    GridScoringHead,
    PooledCountHead,
    RidgeAccumulator,
    batch_count_features,
)
from repro.filters.ic import ICFilter
from repro.filters.neural import NeuralBranchFilter, build_branch_network
from repro.filters.od import ODCountClassifier, ODFilter
from repro.nn.losses import MSELoss, SmoothL1Loss
from repro.nn.optim import Adam
from repro.spatial.grid import Grid
from repro.video.prefetch import decode_ahead
from repro.video.stream import Frame, VideoDataset, VideoStream


@dataclass
class FilterTrainer:
    """Trains IC / OD / OD-COF filters for one dataset.

    Parameters
    ----------
    dataset:
        The video dataset (train split is used for fitting, validation for
        threshold calibration if requested).
    annotator:
        The detector that produces training labels; defaults to the reference
        detector (the paper uses Mask R-CNN).
    grid_size:
        Side of the localisation grid ``g`` (56 in the paper).
    positive_cell_balance:
        Controls the per-class sample weight applied to occupied grid cells
        when fitting the grid head.  Occupied cells are rare (objects cover a
        small fraction of the frame, and rare classes appear in few frames),
        so each class's positive cells are up-weighted until their total
        weight is ``positive_cell_balance`` times the weight of the empty
        cells (capped at ``max_positive_weight``).  This plays the role of
        the paper's ``lambda_obj`` / ``lambda_noobj`` balancing terms in
        equation (3) and of the per-class ``weight_c`` in equation (2).
    max_train_frames:
        Cap on the number of training frames (``None`` = use all).
    """

    dataset: VideoDataset
    annotator: Detector | None = None
    grid_size: int = 56
    threshold: float = DEFAULT_GRID_THRESHOLD
    ridge_alpha: float = 1e-3
    positive_cell_balance: float = 0.12
    max_positive_weight: float = 60.0
    cross_class_negative_weight: float = 20.0
    max_train_frames: int | None = None
    background_frames: int = 40
    seed: int = 0

    _annotations: AnnotationSet | None = field(default=None, init=False, repr=False)
    _train_indices: list[int] | None = field(default=None, init=False, repr=False)
    _frames: dict[int, Frame] = field(default_factory=dict, init=False, repr=False)

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------
    @property
    def grid(self) -> Grid:
        return self.dataset.grid(self.grid_size)

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.dataset.class_names

    def _get_annotator(self) -> Detector:
        if self.annotator is None:
            self.annotator = ReferenceDetector(
                class_names=self.class_names, seed=self.seed
            )
        return self.annotator

    def train_indices(self) -> list[int]:
        if self._train_indices is None:
            total = len(self.dataset.train)
            if self.max_train_frames is not None and self.max_train_frames < total:
                # Evenly spaced subset keeps temporal coverage of the stream.
                indices = np.linspace(0, total - 1, self.max_train_frames).astype(int)
                self._train_indices = sorted(set(int(i) for i in indices))
            else:
                self._train_indices = list(range(total))
        return self._train_indices

    def annotations(self) -> AnnotationSet:
        """Training labels produced by the annotating detector (cached)."""
        if self._annotations is None:
            self._annotations = annotate_frames(
                (self._frame(index) for index in self.train_indices()),
                self._get_annotator(),
                self.class_names,
                self.grid,
                self.dataset.train.name,
            )
        return self._annotations

    def _background_indices(self) -> range:
        """The training frames the backbones' background median is fitted on."""
        step = max(len(self.dataset.train) // max(self.background_frames, 1), 1)
        return range(0, len(self.dataset.train), step)[: self.background_frames]

    def _frame(self, index: int) -> Frame:
        """Frame ``index`` of the training split, rendered once per trainer.

        The first call renders every frame the trainer holds in one pass:
        the background picks, then the :meth:`train_indices` not among them,
        rendered ahead on one ``decode-ahead`` thread while this thread
        renders queued frames too.  Holds rendered frames only (37 KB each),
        not their features.
        """
        if not self._frames:
            picks = self._background_indices()
            order = list(picks) + [i for i in self.train_indices() if i not in picks]
            threads = 1 if len(order) > 1 else 0
            with decode_ahead(self.dataset.train, order, 1, threads) as render:
                self._frames = {index: render(index) for index in order}
        return self._frames[index]

    def _prepare_backbone(self, backbone: FeatureBackbone) -> FeatureBackbone:
        backbone.fit_background(
            (self._frame(index) for index in self._background_indices()),
            max_frames=self.background_frames,
        )
        return backbone

    def _tiled_features(
        self, backbone: FeatureBackbone, annotated: Iterable[AnnotatedFrame]
    ) -> Iterator[tuple[list[AnnotatedFrame], np.ndarray]]:
        """The annotated frames one backbone tile at a time, in order, each
        tile with its ``(t, g, g, F)`` features: one kernel call per tile
        (see ``FeatureBackbone.extract_tiled``)."""
        items = list(annotated)
        images = (self._frame(item.frame_index).image for item in items)
        start = 0
        for features in backbone.extract_tiled(images):
            stop = start + len(features)
            yield items[start:stop], features
            start = stop

    def _frame_features(
        self, backbone: FeatureBackbone, annotated: Iterable[AnnotatedFrame]
    ) -> Iterator[tuple[AnnotatedFrame, np.ndarray]]:
        """Each annotated frame with its ``(g, g, F)`` features, in order,
        from :meth:`_tiled_features`."""
        for tile, features in self._tiled_features(backbone, annotated):
            yield from zip(tile, features)

    # ------------------------------------------------------------------
    # Linear branch training
    # ------------------------------------------------------------------
    def _positive_cell_weights(self) -> dict[str, float]:
        """Per-class weight for occupied cells, balancing them against empty cells."""
        annotations = self.annotations()
        grid_cells = self.grid.rows * self.grid.cols
        total_cells = max(len(annotations) * grid_cells, 1)
        weights: dict[str, float] = {}
        for name in self.class_names:
            positives = float(annotations.location_tensor(name).sum())
            if positives <= 0:
                weights[name] = 1.0
                continue
            negatives = total_cells - positives
            weight = self.positive_cell_balance * negatives / positives
            weights[name] = float(np.clip(weight, 1.0, self.max_positive_weight))
        return weights

    def _fit_grid_head(self, backbone: FeatureBackbone) -> GridScoringHead:
        annotations = self.annotations()
        positive_weights = self._positive_cell_weights()
        accumulators = {
            name: RidgeAccumulator(
                num_features=backbone.num_features, num_outputs=1, alpha=self.ridge_alpha
            )
            for name in self.class_names
        }
        for annotated, features in self._frame_features(backbone, annotations):
            flat_features = features.reshape(-1, backbone.num_features)
            all_labels = {
                name: annotated.grid_of(name).reshape(-1).astype(np.float64)
                for name in self.class_names
            }
            for name in self.class_names:
                labels = all_labels[name]
                # Cells occupied by *other* classes are hard negatives: they
                # look like foreground, and without extra weight the head
                # happily scores them as this class too (the cross-class
                # confusion the paper's trained branches avoid).
                other = np.zeros_like(labels, dtype=bool)
                for other_name in self.class_names:
                    if other_name != name:
                        other |= all_labels[other_name] > 0
                other &= labels <= 0
                sample_weights = np.where(
                    labels > 0,
                    positive_weights[name],
                    np.where(other, self.cross_class_negative_weight, 1.0),
                )
                accumulators[name].add_batch(flat_features, labels, sample_weights)
        weights_rows = []
        bias_values = []
        for name in self.class_names:
            weights, bias = accumulators[name].solve()
            weights_rows.append(weights[:, 0])
            bias_values.append(bias[0])
        return GridScoringHead(
            class_names=self.class_names,
            weights=np.stack(weights_rows, axis=0),
            bias=np.array(bias_values),
        )

    def _recalibrate_grid_head(
        self,
        backbone: FeatureBackbone,
        grid_head: GridScoringHead,
        max_frames: int = 120,
        target_negative: float = 0.10,
        target_positive: float = 0.75,
    ) -> GridScoringHead:
        """Affine per-class rescaling of the grid scores.

        Ridge regression minimises squared error, not calibration: depending
        on class frequency the raw scores of empty cells can sit close to the
        occupancy threshold, flooding rare classes with false positives.
        This pass measures the score distribution on training frames and
        rescales each class so that the high quantile of *empty* cells maps
        to ``target_negative`` and the median of *occupied* cells maps to
        ``target_positive`` — the analogue of the output calibration a
        sigmoid + balanced loss gives the paper's branch networks.

        ``max_frames`` is a stride divisor, not a cap: the pass takes every
        ``max(len // max_frames, 1)``-th annotation.  Any set of fewer than
        ``2 * max_frames`` annotations (121-239 at the default) is therefore
        measured in full, and a larger one keeps between ``max_frames`` and
        ``1.5 * max_frames`` of them.
        """
        annotations = self.annotations()
        subset = list(annotations)[:: max(len(annotations) // max_frames, 1)]
        positive_scores: dict[str, list[np.ndarray]] = {n: [] for n in self.class_names}
        negative_scores: dict[str, list[np.ndarray]] = {n: [] for n in self.class_names}
        for annotated, features in self._frame_features(backbone, subset):
            scores = grid_head.score(features)
            for name in self.class_names:
                labels = annotated.grid_of(name)
                class_scores = scores[name]
                if labels.any():
                    positive_scores[name].append(class_scores[labels])
                negative_scores[name].append(class_scores[~labels])

        new_weights = grid_head.weights.copy()
        new_bias = grid_head.bias.copy()
        for index, name in enumerate(self.class_names):
            if not positive_scores[name]:
                continue
            positives = np.concatenate(positive_scores[name])
            negatives = np.concatenate(negative_scores[name])
            positive_mid = float(np.quantile(positives, 0.5))
            negative_high = float(np.quantile(negatives, 0.995))
            spread = positive_mid - negative_high
            if spread <= 1e-6:
                continue
            scale = (target_positive - target_negative) / spread
            shift = target_negative - scale * negative_high
            new_weights[index] *= scale
            new_bias[index] = scale * new_bias[index] + shift
        return GridScoringHead(
            class_names=self.class_names, weights=new_weights, bias=new_bias
        )

    def _fit_count_calibration(
        self, backbone: FeatureBackbone, grid_head: GridScoringHead
    ) -> CountCalibration:
        annotations = self.annotations()
        feature_tensor = np.zeros(
            (len(annotations), len(self.class_names), len(COUNT_FEATURE_NAMES))
        )
        true_counts = annotations.counts_matrix()
        row = 0
        for tile, features in self._tiled_features(backbone, annotations):
            scores = np.empty((*features.shape[:3], len(self.class_names)))
            planes = grid_head.class_planes(
                grid_head.score_batch(features, out=scores), self.threshold
            )
            feature_tensor[row : row + len(tile)] = batch_count_features(
                planes, self.threshold
            )
            row += len(tile)
        return CountCalibration.fit(self.class_names, feature_tensor, true_counts)

    def _train_linear_branch(
        self, backbone: FeatureBackbone
    ) -> tuple[GridScoringHead, CountCalibration]:
        backbone = self._prepare_backbone(backbone)
        grid_head = self._fit_grid_head(backbone)
        grid_head = self._recalibrate_grid_head(backbone, grid_head)
        calibration = self._fit_count_calibration(backbone, grid_head)
        return grid_head, calibration

    # ------------------------------------------------------------------
    # Public training entry points
    # ------------------------------------------------------------------
    def train_ic_filter(self) -> ICFilter:
        """Train the IC filter (classification-style backbone)."""
        backbone = classification_backbone(self.grid_size)
        grid_head, calibration = self._train_linear_branch(backbone)
        return ICFilter(
            grid_head=grid_head,
            count_calibration=calibration,
            grid=self.grid,
            backbone=backbone,
            threshold=self.threshold,
        )

    def train_od_filter(self) -> ODFilter:
        """Train the OD filter (detection-style backbone)."""
        backbone = detection_backbone(self.grid_size)
        grid_head, calibration = self._train_linear_branch(backbone)
        return ODFilter(
            grid_head=grid_head,
            count_calibration=calibration,
            grid=self.grid,
            backbone=backbone,
            threshold=self.threshold,
        )

    def train_od_count_classifier(self) -> ODCountClassifier:
        """Train the OD-COF filter (count-only head on pooled features)."""
        backbone = self._prepare_backbone(detection_backbone(self.grid_size))
        annotations = self.annotations()
        accumulator = RidgeAccumulator(
            num_features=backbone.num_features, num_outputs=1, alpha=self.ridge_alpha
        )
        for annotated, features in self._frame_features(backbone, annotations):
            pooled = features.reshape(-1, backbone.num_features).mean(axis=0)
            accumulator.add_batch(pooled[None, :], np.array([annotated.total_count]))
        weights, bias = accumulator.solve()
        head = PooledCountHead(weights=weights[:, 0], bias=float(bias[0]))
        return ODCountClassifier(
            count_head=head,
            grid=self.grid,
            backbone=backbone,
        )

    def train_all(self) -> dict[str, object]:
        """Train every filter variant; returns ``{"ic": ..., "od": ..., "od_cof": ...}``."""
        return {
            "ic": self.train_ic_filter(),
            "od": self.train_od_filter(),
            "od_cof": self.train_od_count_classifier(),
        }


# ----------------------------------------------------------------------
# Neural (CNN branch network) training
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NeuralTrainingConfig:
    """Hyper-parameters for end-to-end branch-network training.

    The defaults follow the paper: Adam with learning rate 1e-4 and
    exponential decay 5e-4, counts-only warm-up (beta=0) followed by the
    multi-task phase with (alpha, beta) = (1, 10) and beta decayed each epoch.
    """

    image_size: int = 56
    grid_size: int = 14
    epochs: int = 8
    warmup_epochs: int = 2
    batch_size: int = 16
    learning_rate: float = 1e-4
    lr_decay: float = 5e-4
    alpha: float = 1.0
    beta_initial: float = 10.0
    beta_decay: float = 0.7
    base_channels: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.image_size % self.grid_size != 0:
            raise ValueError(
                f"image_size {self.image_size} must be divisible by grid_size {self.grid_size}"
            )
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")


def _training_tensors(
    stream: VideoStream,
    annotations: AnnotationSet,
    neural: NeuralBranchFilter,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (images, counts, grids) tensors for neural training.

    Images go through the filter's own input preparation (float64, the
    training dtype), ``batch_size`` frames at a time so the full-resolution
    float copy of the split never exists at once.
    """
    class_names = neural.class_names
    grid_size = neural.grid.rows
    frame_indices = [annotated.frame_index for annotated in annotations]
    images = [
        neural._prepare_batch(
            [stream.frame(index).image for index in frame_indices[start : start + batch_size]],
            dtype=np.dtype(np.float64),
        )
        for start in range(0, len(frame_indices), batch_size)
    ]
    counts = []
    grids = []
    for annotated in annotations:
        counts.append([annotated.count_of(name) for name in class_names])
        # Down-scale the annotation grid to the network's native grid size.
        fine = annotated.location_grids
        frame_grids = []
        for name in class_names:
            fine_grid = fine.get(name)
            if fine_grid is None:
                frame_grids.append(np.zeros((grid_size, grid_size)))
                continue
            factor = fine_grid.shape[0] // grid_size
            if factor >= 1:
                reduced = fine_grid.reshape(grid_size, factor, grid_size, factor).max(
                    axis=(1, 3)
                )
            else:
                reduced = fine_grid
            frame_grids.append(reduced.astype(np.float64))
        grids.append(np.stack(frame_grids, axis=0))
    return (
        np.concatenate(images, axis=0),
        np.array(counts, dtype=np.float64),
        np.stack(grids, axis=0),
    )


def train_neural_filter(
    stream: VideoStream,
    annotations: AnnotationSet,
    class_names: Sequence[str],
    config: NeuralTrainingConfig | None = None,
    family: str = "OD",
) -> NeuralBranchFilter:
    """Train a CNN branch filter end to end with the paper's multi-task loss.

    Returns a :class:`NeuralBranchFilter` whose family ("IC" or "OD") only
    affects the reported name / latency; the architecture is the same branch
    network in both cases.
    """
    config = config or NeuralTrainingConfig()
    class_names = tuple(class_names)
    network = build_branch_network(
        num_classes=len(class_names),
        image_size=config.image_size,
        grid_size=config.grid_size,
        base_channels=config.base_channels,
        seed=config.seed,
    )
    # Built before training so a malformed architecture fails here, and so
    # training and inference share one input preparation.
    neural = NeuralBranchFilter(
        network=network,
        class_names=class_names,
        image_size=config.image_size,
        grid_size=config.grid_size,
        frame_width=annotations.grid.frame_width,
        frame_height=annotations.grid.frame_height,
        family=family,
    )
    images, counts, grids = _training_tensors(stream, annotations, neural, config.batch_size)
    num_samples = images.shape[0]
    count_loss = SmoothL1Loss()
    grid_loss = MSELoss()
    optimizer = Adam(learning_rate=config.learning_rate, lr_decay=config.lr_decay)
    rng = np.random.default_rng(config.seed)

    # Per-class loss weights: fraction of frames containing the class, as in
    # equation (2) of the paper.
    class_weights = np.array(
        [max((counts[:, i] > 0).mean(), 1e-3) for i in range(len(class_names))]
    )

    beta = 0.0
    for epoch in range(config.epochs):
        if epoch == config.warmup_epochs:
            beta = config.beta_initial
        elif epoch > config.warmup_epochs:
            beta *= config.beta_decay
        order = rng.permutation(num_samples)
        for start in range(0, num_samples, config.batch_size):
            batch = order[start : start + config.batch_size]
            outputs = network.forward(images[batch])
            count_pred = outputs["counts"]
            grid_pred = outputs["grid"]
            batch_counts = counts[batch]
            batch_grids = grids[batch]

            weighted_count_pred = count_pred * class_weights
            weighted_count_true = batch_counts * class_weights
            count_loss.forward(weighted_count_pred, weighted_count_true)
            grad_counts = count_loss.backward() * class_weights * config.alpha

            head_grads = {"counts": grad_counts}
            if beta > 0:
                grid_loss.forward(grid_pred, batch_grids)
                head_grads["grid"] = grid_loss.backward() * beta
            network.zero_grad()
            network.backward(head_grads)
            optimizer.step(network.parameter_groups())

    return neural
