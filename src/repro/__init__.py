"""repro — reproduction of "Video Monitoring Queries" (Koudas, Li, Xarchakos, ICDE 2020).

The package implements the paper's approximate frame filters (IC / OD count,
class-count and class-location filters plus the count-optimised OD-COF
classifier), a declarative query layer that uses them as a filter cascade in
front of an expensive reference detector, and Monte-Carlo aggregate
monitoring with (multiple) control variates — together with the substrates
the paper depends on: a synthetic single-camera video workload matching the
paper's dataset statistics, detector simulators with the paper's latency
profile, and a small numpy neural-network framework for the branch networks.

Quickstart::

    from repro import build_jackson, FilterTrainer, QueryBuilder
    from repro.detection import ReferenceDetector
    from repro.query import QueryPlanner, PlannerConfig, StreamingQueryExecutor

    dataset = build_jackson()
    filters = FilterTrainer(dataset=dataset).train_all()
    query = (
        QueryBuilder("one_car_one_person")
        .count("car").equals(1)
        .count("person").equals(1)
        .spatial("car").left_of("person")
        .build()
    )
    planner = QueryPlanner(filters, PlannerConfig(count_tolerance=1, location_dilation=1))
    executor = StreamingQueryExecutor(ReferenceDetector(class_names=dataset.class_names))
    result = executor.execute(query, dataset.test, planner.plan(query))
"""

from repro.cost import (
    IC_BRANCH_MS,
    MASK_RCNN_MS,
    OD_BRANCH_MS,
    YOLO_FULL_MS,
    CostBreakdown,
    SimulatedClock,
)
from repro.video import (
    VideoDataset,
    VideoStream,
    build_coral,
    build_dataset,
    build_detrac,
    build_jackson,
    dataset_profiles,
)
from repro.detection import ReferenceDetector, annotate_stream
from repro.query import (
    PlannerConfig,
    QueryBuilder,
    QueryPlanner,
    StreamingQueryExecutor,
    brute_force_execute,
    parse_query,
)
from repro.filters import (
    FilterTrainer,
    ICFilter,
    ODCountClassifier,
    ODFilter,
    evaluate_count_filter,
    evaluate_localization,
)
from repro.aggregates import AggregateMonitor, AggregateQuerySpec

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SimulatedClock",
    "CostBreakdown",
    "IC_BRANCH_MS",
    "OD_BRANCH_MS",
    "YOLO_FULL_MS",
    "MASK_RCNN_MS",
    "VideoDataset",
    "VideoStream",
    "build_coral",
    "build_jackson",
    "build_detrac",
    "build_dataset",
    "dataset_profiles",
    "ReferenceDetector",
    "annotate_stream",
    "FilterTrainer",
    "ICFilter",
    "ODFilter",
    "ODCountClassifier",
    "evaluate_count_filter",
    "evaluate_localization",
    "QueryBuilder",
    "QueryPlanner",
    "PlannerConfig",
    "StreamingQueryExecutor",
    "brute_force_execute",
    "parse_query",
    "AggregateMonitor",
    "AggregateQuerySpec",
]
