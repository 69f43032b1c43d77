"""A small, from-scratch neural-network framework on numpy.

The paper implements its filters as branch networks grafted onto the early
convolution layers of VGG19 / YOLOv2 in PyTorch.  Neither PyTorch nor
pretrained weights are available in this environment, so this package
provides the minimum deep-learning substrate the filters need:

* layers: ``Conv2D`` (im2col), ``MaxPool2D``, ``GlobalAveragePooling2D``,
  ``Dense``, ``ReLU``, ``LeakyReLU``, ``Sigmoid``;
* losses: ``MSELoss`` and ``SmoothL1Loss`` (the paper's count loss), the
  terms of the multi-task count+location loss the branch network trains on;
* the ``Adam`` optimiser (the paper's optimiser for IC filters) with
  exponential learning-rate decay;
* ``Sequential`` / ``MultiHeadNetwork`` containers and a finite-difference
  gradient checker used by the test suite.

Data layout is NCHW throughout (batch, channels, height, width).
"""

from repro.nn.initializers import he_normal, xavier_uniform, zeros_init
from repro.nn.layers import (
    Conv2D,
    Dense,
    GlobalAveragePooling2D,
    Layer,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Sigmoid,
)
from repro.nn.losses import Loss, MSELoss, SmoothL1Loss
from repro.nn.optim import Adam
from repro.nn.network import MultiHeadNetwork, Sequential, gradient_check

__all__ = [
    "he_normal",
    "xavier_uniform",
    "zeros_init",
    "Layer",
    "Conv2D",
    "MaxPool2D",
    "GlobalAveragePooling2D",
    "Dense",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Loss",
    "MSELoss",
    "SmoothL1Loss",
    "Adam",
    "Sequential",
    "MultiHeadNetwork",
    "gradient_check",
]
