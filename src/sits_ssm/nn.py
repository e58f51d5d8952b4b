"""Parameterized layers built on the autodiff primitives.

Layers own their parameters as tracked ``Tensor``s plus any non-trainable
buffers (batchnorm running statistics). ``named_params`` / ``named_buffers``
expose flat name->array views used by the optimizer and the checkpoint
writer.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def uniform_init(rng: np.random.Generator, shape, bound: float, dtype) -> Tensor:
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


class Linear:
    """Affine map on the last axis: y = x @ W + b."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True, dtype=np.float32):
        bound = 1.0 / math.sqrt(in_features)
        self.weight = uniform_init(rng, (in_features, out_features), bound, dtype)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = ad.matmul(x, self.weight)
        if self.bias is not None:
            y = ad.add(y, self.bias)
        return y

    def named_params(self, prefix: str):
        yield f"{prefix}.weight", self.weight
        if self.bias is not None:
            yield f"{prefix}.bias", self.bias


class Conv2d:
    """3x3 (or any odd) same-padding convolution, stride 1, with bias.

    He-uniform fan-in initialization; bias starts at zero.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, dtype=np.float32):
        fan_in = in_channels * kernel_size * kernel_size
        bound = math.sqrt(6.0 / fan_in)
        self.weight = uniform_init(
            rng, (out_channels, in_channels, kernel_size, kernel_size), bound, dtype)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias)

    def named_params(self, prefix: str):
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


class BatchNorm2d:
    def __init__(self, channels: int, dtype=np.float32, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return ad.batchnorm(x, self.gamma, self.beta, self.running_mean,
                            self.running_var, training, self.momentum, self.eps)

    def named_params(self, prefix: str):
        yield f"{prefix}.gamma", self.gamma
        yield f"{prefix}.beta", self.beta

    def named_buffers(self, prefix: str):
        yield f"{prefix}.running_mean", self.running_mean
        yield f"{prefix}.running_var", self.running_var


class CausalDepthwiseConv1d:
    """Per-channel causal convolution over (B, L, D) sequences."""

    def __init__(self, channels: int, width: int, rng: np.random.Generator, dtype=np.float32):
        bound = math.sqrt(1.0 / width)
        self.weight = uniform_init(rng, (channels, width), bound, dtype)
        self.bias = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.depthwise_conv1d(x, self.weight, self.bias)

    def named_params(self, prefix: str):
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias

