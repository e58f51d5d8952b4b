"""Frame-wise convolutional encoding and the classification head.

``ConvBlock`` runs each temporal frame through two 3x3 conv/BN/ReLU
stages with 128 filters (spatial extent preserved). ``ClsHead`` is the
single conv/BN/ReLU stage that maps pooled features to one logit plane
per class. Both operate on (frames, channels, H, W) stacks; batchnorm
statistics are taken over every frame in the stack. The model hands
``ConvBlock`` the valid frames of a batch only, so padded frames never
enter its statistics.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor


class ConvBlock(nn.Module):
    def __init__(self, in_channels: int, hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.conv1 = nn.Conv2d(in_channels, hidden, 3, rng, dtype=dtype)
        self.bn1 = nn.BatchNorm2d(hidden, dtype=dtype)
        self.conv2 = nn.Conv2d(hidden, hidden, 3, rng, dtype=dtype)
        self.bn2 = nn.BatchNorm2d(hidden, dtype=dtype)

    def __call__(self, frames: Tensor, training: bool) -> Tensor:
        h = ad.relu(self.bn1(self.conv1(frames), training))
        return ad.relu(self.bn2(self.conv2(h), training))


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
        return ad.relu(self.bn(self.conv(feature), training))
