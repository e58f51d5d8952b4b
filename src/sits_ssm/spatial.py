"""Frame-wise convolutional encoding and the classification head.

``ConvBlock`` runs each temporal frame through two 3x3 conv/BN/ReLU
stages with 128 filters (spatial extent preserved). ``ClsHead`` is the
single conv/BN/ReLU stage that maps pooled features to one logit plane
per class. Both operate on (frames, channels, H, W) stacks; batchnorm
statistics are taken over every frame in the stack. The model hands
``ConvBlock`` the valid frames of a batch only, so padded frames never
enter its statistics.

Each stage is one ``autodiff.conv_bn_relu`` op: every conv frame chunk
finishes its own output slice on the package's pool (batchnorm affine,
finiteness check, ReLU), so inference makes no whole-stack pass on the
calling thread. ``nn.Conv2d`` and ``nn.BatchNorm2d`` hold the stage's
parameters and running buffers, which keeps the checkpoint names.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor


def conv_bn_relu(conv: nn.Conv2d, bn: nn.BatchNorm2d, x: Tensor, training: bool) -> Tensor:
    """One conv -> BN -> ReLU stage over the layers' parameters and buffers."""
    return ad.conv_bn_relu(x, conv.weight, conv.bias, bn.gamma, bn.beta, bn.running_mean,
                           bn.running_var, training)


class ConvBlock(nn.Module):
    def __init__(self, in_channels: int, hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.conv1 = nn.Conv2d(in_channels, hidden, 3, rng, dtype=dtype)
        self.bn1 = nn.BatchNorm2d(hidden, dtype=dtype)
        self.conv2 = nn.Conv2d(hidden, hidden, 3, rng, dtype=dtype)
        self.bn2 = nn.BatchNorm2d(hidden, dtype=dtype)

    def __call__(self, frames: Tensor, training: bool) -> Tensor:
        h = conv_bn_relu(self.conv1, self.bn1, frames, training)
        return conv_bn_relu(self.conv2, self.bn2, h, training)


class ClsHead(nn.Module):
    """conv -> BN -> ReLU down to one channel per category.

    The trailing ReLU sits directly before the softmax of the
    cross-entropy; unusual, but it is the designed decoding stage and the
    argmax semantics are unaffected.
    """

    def __init__(self, hidden: int, num_classes: int, rng: np.random.Generator, dtype=np.float32):
        self.conv = nn.Conv2d(hidden, num_classes, 3, rng, dtype=dtype)
        self.bn = nn.BatchNorm2d(num_classes, dtype=dtype)

    def __call__(self, feature: Tensor, training: bool) -> Tensor:
        return conv_bn_relu(self.conv, self.bn, feature, training)
