"""Shared experiment context: datasets, trained filters and test annotations.

Training the three filters for one dataset takes ~10 s at the default
experiment scale; the context caches everything per (dataset, scale, seed) so
that the figure/table runners and the pytest benchmarks can share one set of
trained filters instead of re-training for every experiment.  The filters'
test-split accuracy reports are cached too (Figures 7, 11 and 15 read them),
but never the predictions behind them (:meth:`ExperimentContext.count_reports`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repro.detection import ReferenceDetector, annotate_stream
from repro.detection.annotation import AnnotationSet
from repro.filters import BatchPrediction, FilterPrediction, FilterTrainer, FrameFilter, ODFilter
from repro.filters import CountAccuracyReport, LocalizationReport, score_predictions
from repro.query.parallel import DEFAULT_CHUNK_SIZE, partition_chunks
from repro.video import VideoDataset, build_coral, build_detrac, build_jackson
from repro.video.prefetch import decode_ahead
from repro.video.stream import Frame

_BUILDERS = {
    "coral": build_coral,
    "jackson": build_jackson,
    "detrac": build_detrac,
}

DATASET_NAMES = tuple(_BUILDERS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale knobs for the experiment sweep.

    The defaults are sized so that the entire table/figure sweep completes in
    a few minutes on CPU; increase the sizes (or pass ``paper_scale=True`` to
    the dataset builders directly) for a higher-fidelity run.
    """

    train_size: int = 420
    val_size: int = 80
    test_size: int = 240
    max_train_frames: int = 360
    test_stride: int = 2
    grid_size: int = 56
    seed: int = 7

    @property
    def test_indices(self) -> range:
        return range(0, self.test_size, self.test_stride)


class ExperimentContext:
    """Datasets, trained filters and test annotations for one dataset."""

    def __init__(self, dataset_name: str, config: ExperimentConfig) -> None:
        if dataset_name not in _BUILDERS:
            raise KeyError(
                f"unknown dataset {dataset_name!r}; expected one of {sorted(_BUILDERS)}"
            )
        self.dataset_name = dataset_name
        self.config = config
        self._dataset: VideoDataset | None = None
        self._filters: dict[str, object] | None = None
        self._test_annotations: AnnotationSet | None = None
        self._reports: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Lazily built pieces
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> VideoDataset:
        if self._dataset is None:
            self._dataset = _BUILDERS[self.dataset_name](
                train_size=self.config.train_size,
                val_size=self.config.val_size,
                test_size=self.config.test_size,
                seed=self.config.seed,
            )
        return self._dataset

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.dataset.class_names

    def trainer(self) -> FilterTrainer:
        return FilterTrainer(
            dataset=self.dataset,
            grid_size=self.config.grid_size,
            max_train_frames=self.config.max_train_frames,
            seed=self.config.seed,
        )

    @property
    def filters(self) -> dict[str, object]:
        """Trained filters: ``{"ic": ICFilter, "od": ODFilter, "od_cof": ODCountClassifier}``."""
        if self._filters is None:
            self._filters = self.trainer().train_all()
        return self._filters

    @property
    def od_filter(self) -> ODFilter:
        return self.filters["od"]  # type: ignore[return-value]

    def reference_detector(self, seed_offset: int = 100) -> ReferenceDetector:
        """A fresh reference detector (the evaluation / verification detector)."""
        return ReferenceDetector(
            class_names=self.class_names, seed=self.config.seed + seed_offset
        )

    @property
    def test_annotations(self) -> AnnotationSet:
        """Reference-detector annotations of the (strided) test split."""
        if self._test_annotations is None:
            self._test_annotations = annotate_stream(
                self.dataset.test,
                self.reference_detector(),
                self.class_names,
                self.dataset.grid(self.config.grid_size),
                frame_indices=self.config.test_indices,
            )
        return self._test_annotations

    def predicted_chunks(
        self, frame_filter: FrameFilter
    ) -> Iterator[tuple[list[Frame], BatchPrediction]]:
        """One batched prediction pass of ``frame_filter`` over the (strided) test split.

        ``DEFAULT_CHUNK_SIZE`` chunks, rendered ahead on one decode-ahead
        thread as a filtered scan renders them, each handed to one
        ``predict_batch``.  Yields each chunk's frames with their predictions.
        """
        indices = self.config.test_indices
        chunks = partition_chunks(indices, DEFAULT_CHUNK_SIZE)
        threads = 1 if len(chunks) > 1 else 0
        with decode_ahead(self.dataset.test, indices, DEFAULT_CHUNK_SIZE, threads) as render:
            for chunk in chunks:
                frames = [render(index) for index in chunk]
                yield frames, frame_filter.predict_batch(frames)

    def test_predictions(self, frame_filter: FrameFilter) -> Iterator[FilterPrediction]:
        """``frame_filter``'s predictions of :attr:`test_annotations`' frames, in order."""
        for _, batch in self.predicted_chunks(frame_filter):
            yield from batch

    @property
    def count_reports(self) -> dict[str, CountAccuracyReport]:
        """Test-split count accuracy of each filter, keyed like :attr:`filters`."""
        return self._test_reports("count")

    @property
    def localization_reports(self) -> dict[str, LocalizationReport]:
        """Test-split localisation F1 of the class-aware filters (``"ic"``, ``"od"``)."""
        return self._test_reports("localization")

    def _test_reports(self, kind: str) -> dict:
        """Both kinds of report from one pass per filter, whose predictions are
        scored chunk by chunk and dropped (:func:`score_predictions`): holding
        them would cost ~65 KB per frame and filter (the float64 score
        planes), ~0.65 GB per filter at detrac's paper size."""
        if not self._reports:
            counts, localizations = {}, {}
            for key, frame_filter in self.filters.items():
                counts[key], by_threshold = score_predictions(
                    self.test_predictions(frame_filter),
                    self.test_annotations,
                    (None,) if frame_filter.class_aware else (),
                    total_only=not frame_filter.class_aware,
                    dataset_name=self.dataset_name,
                )
                if by_threshold:
                    localizations[key] = by_threshold[None]
            self._reports = {"count": counts, "localization": localizations}
        return self._reports[kind]


@lru_cache(maxsize=8)
def _cached_context(dataset_name: str, config: ExperimentConfig) -> ExperimentContext:
    return ExperimentContext(dataset_name, config)


def get_context(
    dataset_name: str, config: ExperimentConfig | None = None
) -> ExperimentContext:
    """Process-wide cached experiment context for ``dataset_name``."""
    return _cached_context(dataset_name, config or ExperimentConfig())
