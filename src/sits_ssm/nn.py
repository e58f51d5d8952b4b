"""Parameterized layers built on the autodiff primitives.

Every layer is a ``Module``. It names its state by walking its own
attributes in assignment order, so a layer declares each array once, in
``__init__``:

* a ``Tensor`` that requires grad is a parameter (trained and saved);
* a numpy array is a buffer (saved, not trained), e.g. batchnorm
  running statistics;
* a ``Module`` is a sublayer, whose names take its attribute path as a
  prefix (``temporal.dt_proj.bias``);
* anything else (``None``, configs, numbers, untracked tensors) holds no
  state.

``named_parameters`` / ``named_buffers`` give the flat name->array views that
the optimizer and the checkpoint writer use. Reassigning an attribute
keeps its place in the order. ``shadow`` copies a layer's structure over
the same arrays, with parameters of its own, so that concurrent passes
keep their gradients apart.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class Module:
    """Base layer: names its state by walking its attributes (see above)."""

    def _walk(self, prefix: str):
        for attr, value in vars(self).items():
            name = f"{prefix}.{attr}" if prefix else attr
            if isinstance(value, Module):
                yield from value._walk(name)
            else:
                yield name, value

    def named_parameters(self, prefix: str = ""):
        """(name, Tensor) for every tracked tensor, in assignment order."""
        for name, value in self._walk(prefix):
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value

    def named_buffers(self):
        """(name, ndarray) for every untrained array, in assignment order."""
        for name, value in self._walk(""):
            if isinstance(value, np.ndarray):
                yield name, value

    def shadow(self) -> "Module":
        """A structural copy whose parameters are fresh leaf tensors on the
        same arrays: gradients taken through it land on the copy's ``grad``,
        so threads running copies never accumulate into a shared one."""
        twin = object.__new__(type(self))
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                value = value.shadow()
            elif isinstance(value, Tensor) and value.requires_grad:
                value = Tensor(value.data, requires_grad=True)
            setattr(twin, attr, value)
        return twin


def uniform_init(rng: np.random.Generator, shape, bound: float, dtype) -> Tensor:
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


class Linear(Module):
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


class Conv2d(Module):
    """Weight and bias of a 3x3 (or any odd) same-padding convolution,
    stride 1, which ``spatial.conv_bn_relu`` applies.

    He-uniform fan-in initialization; bias starts at zero.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, dtype=np.float32):
        fan_in = in_channels * kernel_size * kernel_size
        bound = math.sqrt(6.0 / fan_in)
        self.weight = uniform_init(
            rng, (out_channels, in_channels, kernel_size, kernel_size), bound, dtype)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)


class BatchNorm2d(Module):
    """Batchnorm's affine parameters and running statistics."""

    def __init__(self, channels: int, dtype=np.float32):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)


class CausalDepthwiseConv1d(Module):
    """Per-channel causal convolution over (B, L, D) sequences."""

    def __init__(self, channels: int, width: int, rng: np.random.Generator, dtype=np.float32):
        bound = math.sqrt(1.0 / width)
        self.weight = uniform_init(rng, (channels, width), bound, dtype)
        self.bias = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.depthwise_conv1d(x, self.weight, self.bias)
