"""The attribute walk that names every layer's parameters and buffers."""

from dataclasses import dataclass

import numpy as np

from sits_ssm import nn
from sits_ssm.autodiff import Tensor


@dataclass
class ToyConfig:
    width: int = 2


class Toy(nn.Module):
    def __init__(self):
        self.cfg = ToyConfig()
        self.w = Tensor(np.ones(2), requires_grad=True)
        self.frozen = Tensor(np.ones(2))            # untracked: neither kind
        self.missing = None
        self.stats = np.zeros(2)
        self.inner = nn.BatchNorm2d(2)
        self.b = Tensor(np.zeros(2), requires_grad=True)
        self.w = Tensor(np.full(2, 3.0), requires_grad=True)   # reassigned, keeps its slot


class TestModuleWalk:
    def test_params_in_assignment_order(self):
        toy = Toy()
        names = [name for name, _ in toy.named_parameters()]
        assert names == ["w", "inner.gamma", "inner.beta", "b"]
        assert dict(toy.named_parameters())["w"].data[0] == 3.0

    def test_buffers_in_assignment_order(self):
        toy = Toy()
        assert [name for name, _ in toy.named_buffers()] == [
            "stats", "inner.running_mean", "inner.running_var"]
        assert dict(toy.named_buffers())["inner.running_var"] is toy.inner.running_var

    def test_prefix(self):
        toy = Toy()
        assert [name for name, _ in toy.named_parameters("toy")] == [
            "toy.w", "toy.inner.gamma", "toy.inner.beta", "toy.b"]
