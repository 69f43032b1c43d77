"""Static shape/dtype abstract interpreter over ``repro.nn`` layer stacks.

The interpreter propagates a symbolic :class:`TensorSpec` — shape dims that
are concrete ints or symbols like ``"N"``, a numpy dtype, and a
``non_negative`` flag — through a :class:`~repro.nn.network.Sequential` or
:class:`~repro.nn.network.MultiHeadNetwork` without running a single numpy
op.  Each built-in layer has a *transfer function* mirroring exactly what
its ``forward`` would do in the requested mode (``"eval"`` by default, since
that is what the inference fast path runs):

* **NN001** (error) — a layer cannot consume its predecessor's output
  (wrong rank, wrong channel/feature count, or a head output that does not
  match the filter's declared expectation).  The message always names the
  producing/consuming layer pair with a ``trunk[i] Conv2D(...)`` trace.
* **NN002** (error) — valid rank but impossible geometry: a convolution
  whose stride/padding collapses the spatial dims to zero, or a max-pool
  whose window does not divide them.  These are the configurations that
  raise raw ``ValueError`` s from :func:`repro.nn.layers._im2col` mid-scan.
* **NN003** (error) — eval-dtype drift: a layer output dtype that differs
  from its input dtype (e.g. integer activations silently promoting to
  float64 at the first parametric layer), which breaks the float32
  inference fast path's end-to-end dtype guarantee.  Custom layers may
  declare a ``output_dtype`` attribute; a declared dtype that differs from
  the incoming activation dtype is the same drift.
* **NN004** (warning) — dead or unreachable layers: a ReLU/LeakyReLU fed
  provably non-negative activations (sigmoid or ReLU output), a
  ``Flatten`` of an already-flat tensor, or every layer after the point
  where propagation failed.
* **NN005** (info) — a layer type the interpreter does not know; shape and
  dtype are assumed preserved so analysis can continue.

``lint_network`` runs in :meth:`NeuralBranchFilter.network_report
<repro.filters.neural.NeuralBranchFilter.network_report>`, which the
filter's constructor and plan-level linting
(:func:`repro.query.planner.lint_plan`) both call, so a malformed network is
rejected when the filter is built or when ``plan()`` runs — not as a numpy
broadcasting error in the middle of a scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence, Union

import numpy as np

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
from repro.query.diagnostics import AnalysisReport, Diagnostic, diag

#: A symbolic dimension: a concrete extent or a symbol such as ``"N"``.
Dim = Union[int, str]


def _fmt_shape(shape: Sequence[Dim]) -> str:
    return "(" + ", ".join(str(dim) for dim in shape) + ")"


@dataclass(frozen=True)
class TensorSpec:
    """Abstract value flowing between layers: shape, dtype, sign knowledge.

    ``shape`` mixes concrete ints with symbols (the batch dim is symbolic in
    every realistic call); ``non_negative`` records that every element is
    provably ``>= 0`` (the output of a ReLU or sigmoid), which is what makes
    a following ReLU provably dead.
    """

    shape: tuple[Dim, ...]
    dtype: np.dtype[Any]
    non_negative: bool = False

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def describe(self) -> str:
        return f"{_fmt_shape(self.shape)} {self.dtype.name}"


def input_spec(
    image_size: int,
    channels: int = 3,
    dtype: Any = np.float64,
    batch: Dim = "N",
    non_negative: bool = True,
) -> TensorSpec:
    """The NCHW input spec of an image network.

    ``non_negative`` defaults to ``True`` because filter inputs are pixels
    scaled to ``[0, 1]`` (see ``NeuralBranchFilter._prepare_input``).
    """
    return TensorSpec(
        shape=(batch, channels, image_size, image_size),
        dtype=np.dtype(dtype),
        non_negative=non_negative,
    )


def describe_layer(layer: object) -> str:
    """Compact one-token description used in diagnostic layer traces."""
    if isinstance(layer, Conv2D):
        return (
            f"Conv2D({layer.in_channels}->{layer.out_channels}, "
            f"k={layer.kernel_size}, s={layer.stride}, p={layer.padding})"
        )
    if isinstance(layer, Dense):
        in_features, out_features = layer.weight.shape
        return f"Dense({in_features}->{out_features})"
    if isinstance(layer, MaxPool2D):
        return f"MaxPool2D(p={layer.pool_size})"
    if isinstance(layer, LeakyReLU):
        return f"LeakyReLU({layer.negative_slope})"
    return type(layer).__name__


def _promoted(spec: TensorSpec, mode: str) -> np.dtype[Any]:
    """Output dtype of a float64-parameter layer (Conv2D / Dense / GAP)."""
    if mode == "eval":
        if np.issubdtype(spec.dtype, np.floating):
            return spec.dtype
        return np.dtype(np.float64)
    return np.promote_types(spec.dtype, np.float64)


def _drift(
    out: list[Diagnostic], label: str, source: str, spec: TensorSpec, result: np.dtype[Any]
) -> None:
    if result != spec.dtype:
        out.append(
            diag(
                "NN003",
                f"{label} promotes the {spec.dtype.name} activations produced by "
                f"{source} to {result.name}; the inference fast path needs the "
                f"activation dtype preserved end to end (declare a floating "
                f"inference dtype)",
            )
        )


def _transfer(
    layer: object,
    spec: TensorSpec,
    label: str,
    source: str,
    mode: str,
    out: list[Diagnostic],
) -> TensorSpec | None:
    """Abstract forward of one layer; ``None`` aborts the chain (shape error)."""
    if isinstance(layer, Conv2D):
        if spec.ndim != 4 or not _dims_match(spec.shape[1], layer.in_channels):
            out.append(
                diag(
                    "NN001",
                    f"{label} expects (N, {layer.in_channels}, H, W) but "
                    f"{source} produces {spec.describe()}",
                )
            )
            return None
        height, width = spec.shape[2], spec.shape[3]
        out_h = _conv_extent(height, layer.kernel_size, layer.stride, layer.padding)
        out_w = _conv_extent(width, layer.kernel_size, layer.stride, layer.padding)
        if (isinstance(out_h, int) and out_h <= 0) or (isinstance(out_w, int) and out_w <= 0):
            out.append(
                diag(
                    "NN002",
                    f"{label} collapses the {height}x{width} spatial dims produced "
                    f"by {source} to {out_h}x{out_w}",
                )
            )
            return None
        dtype = _promoted(spec, mode)
        _drift(out, label, source, spec, dtype)
        return TensorSpec((spec.shape[0], layer.out_channels, out_h, out_w), dtype)
    if isinstance(layer, Dense):
        in_features = int(layer.weight.shape[0])
        out_features = int(layer.weight.shape[1])
        if spec.ndim != 2 or not _dims_match(spec.shape[1], in_features):
            out.append(
                diag(
                    "NN001",
                    f"{label} expects (N, {in_features}) but {source} produces "
                    f"{spec.describe()}",
                )
            )
            return None
        dtype = _promoted(spec, mode)
        _drift(out, label, source, spec, dtype)
        return TensorSpec((spec.shape[0], out_features), dtype)
    if isinstance(layer, MaxPool2D):
        if spec.ndim != 4:
            out.append(
                diag(
                    "NN001",
                    f"{label} expects NCHW input but {source} produces {spec.describe()}",
                )
            )
            return None
        height, width = spec.shape[2], spec.shape[3]
        pool = layer.pool_size
        if (isinstance(height, int) and height % pool != 0) or (
            isinstance(width, int) and width % pool != 0
        ):
            out.append(
                diag(
                    "NN002",
                    f"{label} cannot pool the {height}x{width} spatial dims produced "
                    f"by {source}: not divisible by pool size {pool}",
                )
            )
            return None
        out_h = height // pool if isinstance(height, int) else height
        out_w = width // pool if isinstance(width, int) else width
        return TensorSpec(
            (spec.shape[0], spec.shape[1], out_h, out_w),
            spec.dtype,
            non_negative=spec.non_negative,
        )
    if isinstance(layer, GlobalAveragePooling2D):
        if spec.ndim != 4:
            out.append(
                diag(
                    "NN001",
                    f"{label} expects NCHW input but {source} produces {spec.describe()}",
                )
            )
            return None
        dtype = _promoted(spec, mode)
        _drift(out, label, source, spec, dtype)
        return TensorSpec((spec.shape[0], spec.shape[1]), dtype, non_negative=spec.non_negative)
    if isinstance(layer, Flatten):
        if spec.ndim < 2:
            out.append(
                diag(
                    "NN001",
                    f"{label} expects a batched input but {source} produces "
                    f"{spec.describe()}",
                )
            )
            return None
        if spec.ndim == 2:
            out.append(
                diag(
                    "NN004",
                    f"{label} is a no-op: {source} already produces the flat "
                    f"{spec.describe()}",
                )
            )
            return spec
        return TensorSpec(
            (spec.shape[0], _product(spec.shape[1:])),
            spec.dtype,
            non_negative=spec.non_negative,
        )
    if isinstance(layer, ReLU):
        if spec.non_negative:
            out.append(
                diag(
                    "NN004",
                    f"{label} is dead: {source} already produces provably "
                    f"non-negative activations",
                )
            )
        return TensorSpec(spec.shape, spec.dtype, non_negative=True)
    if isinstance(layer, LeakyReLU):
        if spec.non_negative:
            out.append(
                diag(
                    "NN004",
                    f"{label} is dead: {source} already produces provably "
                    f"non-negative activations (leaky slope only touches x < 0)",
                )
            )
        return TensorSpec(spec.shape, spec.dtype, non_negative=spec.non_negative)
    if isinstance(layer, Sigmoid):
        dtype = (
            spec.dtype if np.issubdtype(spec.dtype, np.floating) else np.dtype(np.float64)
        )
        _drift(out, label, source, spec, dtype)
        return TensorSpec(spec.shape, dtype, non_negative=True)
    if type(layer).__name__ == "_GridReshape":
        num_classes = int(getattr(layer, "num_classes"))
        grid_size = int(getattr(layer, "grid_size"))
        features = num_classes * grid_size * grid_size
        if spec.ndim != 2 or not _dims_match(spec.shape[1], features):
            out.append(
                diag(
                    "NN001",
                    f"{label} expects (N, {features}) but {source} produces "
                    f"{spec.describe()}",
                )
            )
            return None
        return TensorSpec(
            (spec.shape[0], num_classes, grid_size, grid_size),
            spec.dtype,
            non_negative=spec.non_negative,
        )
    declared = getattr(layer, "output_dtype", None)
    if declared is not None:
        dtype = np.dtype(declared)
        _drift(out, label, source, spec, dtype)
        return TensorSpec(spec.shape, dtype)
    out.append(
        diag(
            "NN005",
            f"{label} is opaque to the shape interpreter; assuming it preserves "
            f"{spec.describe()}",
        )
    )
    return TensorSpec(spec.shape, spec.dtype)


def _conv_extent(extent: Dim, kernel: int, stride: int, padding: int) -> Dim:
    if not isinstance(extent, int):
        return extent
    return (extent + 2 * padding - kernel) // stride + 1


def _product(dims: Sequence[Dim]) -> Dim:
    product = 1
    for dim in dims:
        if not isinstance(dim, int):
            return "*"
        product *= dim
    return product


def _dims_match(actual: Dim, expected: Dim) -> bool:
    if isinstance(actual, int) and isinstance(expected, int):
        return actual == expected
    return True


def _shapes_match(actual: Sequence[Dim], expected: Sequence[Dim]) -> bool:
    if len(actual) != len(expected):
        return False
    return all(_dims_match(a, e) for a, e in zip(actual, expected))


def _propagate(
    layers: Sequence[object],
    spec: TensorSpec,
    path: str,
    source: str,
    mode: str,
    out: list[Diagnostic],
) -> TensorSpec | None:
    """Run the abstract interpreter over one layer chain."""
    current: TensorSpec | None = spec
    for position, layer in enumerate(layers):
        label = f"{path}[{position}] {describe_layer(layer)}"
        assert current is not None
        current = _transfer(layer, current, label, source, mode, out)
        if current is None:
            remainder = [
                f"{path}[{index}] {describe_layer(rest)}"
                for index, rest in enumerate(layers[position + 1 :], start=position + 1)
            ]
            if remainder:
                out.append(
                    diag(
                        "NN004",
                        f"unreachable layers after {label}: {', '.join(remainder)}",
                    )
                )
            return None
        source = label
    return current


def lint_network(
    network: Sequential | MultiHeadNetwork,
    spec: TensorSpec,
    *,
    mode: str = "eval",
    strict: bool = False,
    expected_outputs: Mapping[str, tuple[Dim, ...]] | None = None,
) -> AnalysisReport:
    """Abstract-interpret ``network`` from ``spec`` and report NN0xx findings.

    ``expected_outputs`` maps head names (or ``"output"`` for a bare
    :class:`Sequential`) to the shape the caller requires; a reachable final
    shape that does not match is an NN001 naming the head and expectation.
    ``strict=True`` raises :class:`~repro.query.diagnostics.AnalysisError`
    on any error-severity finding.
    """
    if mode not in ("eval", "train"):
        raise ValueError(f"mode must be 'eval' or 'train': {mode!r}")
    expected_outputs = dict(expected_outputs or {})
    findings: list[Diagnostic] = []
    finals: dict[str, TensorSpec | None] = {}
    origin = "the network input"
    if isinstance(network, MultiHeadNetwork):
        trunk_spec = _propagate(network.trunk.layers, spec, "trunk", origin, mode, findings)
        if trunk_spec is None:
            heads = ", ".join(sorted(network.heads))
            findings.append(
                diag(
                    "NN004",
                    f"heads {heads} are unreachable: trunk propagation failed",
                )
            )
        else:
            trunk_source = "the trunk output"
            for name, head in network.heads.items():
                finals[name] = _propagate(
                    head.layers, trunk_spec, f"head.{name}", trunk_source, mode, findings
                )
    elif isinstance(network, Sequential):
        finals["output"] = _propagate(network.layers, spec, "net", origin, mode, findings)
    else:
        raise TypeError(f"cannot lint a {type(network).__name__}: not a network container")
    for name, expected in expected_outputs.items():
        final = finals.get(name)
        if final is None:
            continue
        if not _shapes_match(final.shape, expected):
            findings.append(
                diag(
                    "NN001",
                    f"{name} output {final.describe()} does not match the expected "
                    f"{_fmt_shape(expected)}",
                )
            )
    report = AnalysisReport(diagnostics=tuple(findings))
    if strict:
        report.raise_for_errors(context="network shape analysis")
    return report


__all__ = [
    "Dim",
    "TensorSpec",
    "describe_layer",
    "input_spec",
    "lint_network",
]
