"""Shape/dtype abstract interpreter (NN0xx): golden findings + clean networks.

One golden test per diagnostic code, the engine-integration paths
(``NeuralBranchFilter`` construction and ``lint_plan``), and an "all clean"
sweep pinning that every network the repo actually builds lints without
findings at its declared inference dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.filters.neural import NeuralBranchFilter, build_branch_network
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    GlobalAveragePooling2D,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Sigmoid,
)
from repro.nn.network import MultiHeadNetwork, Sequential
from repro.nn.shapes import TensorSpec, describe_layer, input_spec, lint_network
from repro.query.diagnostics import AnalysisError
from repro.query.planner import CascadeStep, FilterCascade, lint_plan


# ----------------------------------------------------------------------
# Golden findings, one per code
# ----------------------------------------------------------------------
def test_nn001_names_producing_and_consuming_layers():
    net = Sequential([GlobalAveragePooling2D(), Dense(16, 2, seed=0)])
    report = lint_network(net, input_spec(8, channels=4))
    assert report.codes == ("NN001",)
    message = report.diagnostics[0].message
    # The consuming layer and the producing layer are both quoted.
    assert "Dense(16->2)" in message
    assert "GlobalAveragePooling2D" in message
    assert "(N, 4)" in message


def test_nn001_expected_output_mismatch():
    net = Sequential([GlobalAveragePooling2D(), Dense(3, 2, seed=0)])
    report = lint_network(
        net, input_spec(8, channels=3), expected_outputs={"output": ("N", 5)}
    )
    assert report.codes == ("NN001",)
    assert "(N, 5)" in report.diagnostics[0].message


def test_nn002_collapsed_convolution_and_unreachable_tail():
    # 4x4 input, 7x7 kernel, no padding: output extent (4 - 7) // 1 + 1 < 0.
    net = Sequential([Conv2D(3, 8, kernel_size=7, seed=0), ReLU()])
    report = lint_network(net, input_spec(4))
    assert report.codes == ("NN002", "NN004")
    assert "collapses" in report.diagnostics[0].message
    assert "unreachable" in report.diagnostics[1].message
    assert "ReLU" in report.diagnostics[1].message


def test_nn002_indivisible_pool():
    net = Sequential([MaxPool2D(4)])
    report = lint_network(net, input_spec(6))
    assert report.codes == ("NN002",)
    assert "not divisible by pool size 4" in report.diagnostics[0].message


def test_nn003_integer_activations_promote_in_eval():
    net = Sequential([Conv2D(3, 4, kernel_size=3, padding=1, seed=0)])
    report = lint_network(net, input_spec(8, dtype=np.int32))
    assert report.codes == ("NN003",)
    assert "int32" in report.diagnostics[0].message
    assert "float64" in report.diagnostics[0].message


def test_nn003_train_mode_breaks_float32():
    net = Sequential([Conv2D(3, 4, kernel_size=3, padding=1, seed=0)])
    assert lint_network(net, input_spec(8, dtype=np.float32)).ok
    report = lint_network(net, input_spec(8, dtype=np.float32), mode="train")
    assert report.codes == ("NN003",)


def test_nn004_dead_relu_after_sigmoid():
    net = Sequential([Sigmoid(), ReLU()])
    report = lint_network(
        net, TensorSpec(shape=("N", 4), dtype=np.dtype(np.float64))
    )
    assert report.codes == ("NN004",)
    assert "dead" in report.diagnostics[0].message


def test_nn004_flatten_of_flat_tensor():
    net = Sequential([GlobalAveragePooling2D(), Flatten()])
    report = lint_network(net, input_spec(8))
    assert report.codes == ("NN004",)
    assert "no-op" in report.diagnostics[0].message


def test_nn005_opaque_layer_is_informational():
    class Mystery:
        def forward(self, inputs):
            return inputs

    net = Sequential([Mystery(), GlobalAveragePooling2D()])
    report = lint_network(net, input_spec(8))
    assert report.codes == ("NN005",)
    assert report.ok  # info-severity: analysis continues, nothing raises
    assert "Mystery" in report.diagnostics[0].message


def test_custom_layer_declared_output_dtype_drift():
    class Quantize:
        output_dtype = np.int8

        def forward(self, inputs):
            return inputs.astype(np.int8)

    net = Sequential([Quantize()])
    report = lint_network(net, input_spec(8, dtype=np.float32))
    assert report.codes == ("NN003",)


# ----------------------------------------------------------------------
# Interpreter mechanics
# ----------------------------------------------------------------------
def test_symbolic_batch_dim_survives_to_the_heads():
    net = build_branch_network(2, image_size=56, grid_size=14)
    report = lint_network(
        net,
        input_spec(56, dtype=np.float32),
        expected_outputs={"counts": ("N", 2), "grid": ("N", 2, 14, 14)},
    )
    assert report.ok and not report.diagnostics


def test_strict_raises_analysis_error_with_layer_trace():
    net = Sequential([GlobalAveragePooling2D(), Dense(16, 2, seed=0)])
    with pytest.raises(AnalysisError) as excinfo:
        lint_network(net, input_spec(8, channels=4), strict=True)
    assert "NN001" in str(excinfo.value)
    assert "Dense(16->2)" in str(excinfo.value)


def test_trunk_failure_marks_heads_unreachable():
    trunk = Sequential([MaxPool2D(5)])
    heads = {
        "counts": Sequential([GlobalAveragePooling2D()]),
        "grid": Sequential([Sigmoid()]),
    }
    report = lint_network(
        MultiHeadNetwork(trunk=trunk, heads=heads), input_spec(8)
    )
    assert "NN002" in report.codes
    assert any(
        "heads counts, grid are unreachable" in d.message for d in report.diagnostics
    )


def test_describe_layer_tokens():
    assert (
        describe_layer(Conv2D(3, 8, kernel_size=3, padding=1, seed=0))
        == "Conv2D(3->8, k=3, s=1, p=1)"
    )
    assert describe_layer(Dense(16, 2, seed=0)) == "Dense(16->2)"
    assert describe_layer(MaxPool2D(2)) == "MaxPool2D(p=2)"
    assert describe_layer(LeakyReLU(0.1)) == "LeakyReLU(0.1)"


# ----------------------------------------------------------------------
# Engine integration: filter construction and plan()-time rejection
# ----------------------------------------------------------------------
def _branch_filter(network, class_names=("car", "person"), **kwargs):
    return NeuralBranchFilter(
        network,
        class_names=class_names,
        image_size=56,
        grid_size=14,
        frame_width=224,
        frame_height=224,
        **kwargs,
    )


def test_filter_construction_rejects_head_mismatch():
    # Three classes demanded of a two-class network: both heads misshapen.
    net = build_branch_network(2, image_size=56, grid_size=14)
    with pytest.raises(AnalysisError) as excinfo:
        _branch_filter(net, class_names=("car", "person", "bus"))
    assert "NN001" in str(excinfo.value)
    assert "counts output" in str(excinfo.value)


def test_lint_plan_reports_malformed_network_with_filter_name():
    # Construction always lints, so a malformed filter is built valid and
    # broken afterwards: plan-time analysis must still catch it.
    broken = _branch_filter(
        build_branch_network(3, image_size=56, grid_size=14),
        class_names=("car", "person", "bus"),
    )
    broken.network = build_branch_network(2, image_size=56, grid_size=14)
    cascade = FilterCascade(
        steps=[
            CascadeStep(
                name="neural", frame_filter=broken, check=lambda prediction: True
            )
        ]
    )
    report = lint_plan(cascade)
    assert "NN001" in report.codes
    assert any(
        d.message.startswith("filter 'od_neural_branch':") for d in report.diagnostics
    )
    with pytest.raises(AnalysisError):
        lint_plan(cascade, strict=True)


def test_lint_plan_ignores_non_neural_filters(trained_od_filter):
    cascade = FilterCascade(
        steps=[
            CascadeStep(
                name="od", frame_filter=trained_od_filter, check=lambda p: True
            )
        ]
    )
    assert not [c for c in lint_plan(cascade).codes if c.startswith("NN")]


# ----------------------------------------------------------------------
# Golden "all clean": every network the repo builds lints clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "num_classes, image_size, grid_size",
    [(2, 56, 14), (3, 56, 14), (2, 8, 4), (2, 28, 7), (1, 16, 4)],
)
def test_build_branch_network_configs_lint_clean(num_classes, image_size, grid_size):
    net = build_branch_network(num_classes, image_size=image_size, grid_size=grid_size)
    for dtype in (np.float32, np.float64):
        report = lint_network(
            net,
            input_spec(image_size, dtype=dtype),
            expected_outputs={
                "counts": ("N", num_classes),
                "grid": ("N", num_classes, grid_size, grid_size),
            },
        )
        assert report.ok and not report.diagnostics, report.render()


def test_neural_branch_filter_construction_is_clean_by_default():
    net = build_branch_network(2, image_size=8, grid_size=4)
    built = NeuralBranchFilter(
        net,
        class_names=("car", "person"),
        image_size=8,
        grid_size=4,
        frame_width=64,
        frame_height=64,
    )
    assert built.name == "od_neural_branch"
