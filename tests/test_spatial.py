"""Conv encoder and classification head contracts."""

import tracemalloc

import numpy as np
import pytest

from sits_ssm import autodiff as ad
from sits_ssm import verify
from sits_ssm.autodiff import Tensor
from sits_ssm.model import ModelConfig, spatial_encoder_parameter_count
from sits_ssm.spatial import ClsHead, ConvBlock
from sits_ssm.verify import gradcheck

from conftest import bitwise_for_any_worker_count

TOL = 1e-4


class TestConvBlock:
    @pytest.mark.parametrize("hw", [8, 16, 32])
    def test_spatial_extent_preserved(self, rng, hw):
        blk = ConvBlock(3, 8, rng)
        x = Tensor(rng.normal(0, 1, (2, 3, hw, hw)).astype(np.float32))
        assert blk(x, training=False).shape == (2, 8, hw, hw)

    def test_channel_mismatch_rejected(self, rng):
        blk = ConvBlock(3, 8, rng)
        with pytest.raises(ad.ShapeError):
            blk(Tensor(np.zeros((2, 4, 8, 8), dtype=np.float32)), training=False)

    def test_zero_input_zero_bias_gives_zero_output(self, rng):
        blk = ConvBlock(2, 4, rng)
        out = blk(Tensor(np.zeros((3, 2, 5, 5), dtype=np.float32)), training=True)
        assert np.array_equal(out.data, np.zeros((3, 4, 5, 5)))

    def test_gradcheck_small_input(self, rng):
        blk = ConvBlock(2, 3, rng, dtype=np.float64)
        x = Tensor(rng.normal(0, 1, (1, 2, 4, 4)), requires_grad=True)
        params = [x] + [t for _, t in blk.named_params("b")]
        f = lambda: ad.mean(ad.mul(blk(x, training=True), 2.0))
        assert gradcheck(f, params, max_components=20, rng=np.random.default_rng(2)) < TOL

    def test_translation_equivariance_inference(self, rng):
        blk = ConvBlock(2, 4, rng, dtype=np.float64)
        # freeze plausible running stats so inference mode is exercised
        blk.bn1.running_mean[:] = rng.normal(0, 0.1, 4)
        blk.bn1.running_var[:] = rng.uniform(0.5, 2.0, 4)
        h = w = 10
        x = rng.normal(0, 1, (1, 2, h, w))
        shifted = np.zeros_like(x)
        shifted[:, :, 1:, :] = x[:, :, :-1, :]
        y = blk(Tensor(x), training=False).data
        y_shift = blk(Tensor(shifted), training=False).data
        # interior rows: receptive field (radius 2) clear of both image
        # borders, the injected top row, and the dropped bottom row
        assert np.array_equal(y_shift[:, :, 3:h - 2, 2:w - 2], y[:, :, 2:h - 3, 2:w - 2])

    def test_parameter_count_formula_c10(self):
        # two 3x3 convs (10->128, 128->128) with biases + two affine BNs
        expected = 10 * 128 * 9 + 128 + 128 * 128 * 9 + 128 + 2 * (2 * 128)
        cfg = ModelConfig(input_channels=10, num_classes=20)
        assert spatial_encoder_parameter_count(cfg) == expected == 159_744


class TestClsHead:
    @pytest.mark.parametrize("k", [2, 18, 20])
    def test_output_channels_match_class_count(self, rng, k):
        head = ClsHead(8, k, rng)
        x = Tensor(rng.normal(0, 1, (2, 8, 6, 6)).astype(np.float32))
        assert head(x, training=False).shape == (2, k, 6, 6)

    def test_relu_output_nonnegative(self, rng):
        head = ClsHead(8, 5, rng)
        out = head(Tensor(rng.normal(0, 1, (2, 8, 6, 6)).astype(np.float32)), training=True)
        assert np.all(out.data >= 0)

    def test_argmax_yields_valid_label(self, rng):
        head = ClsHead(8, 7, rng)
        out = head(Tensor(rng.normal(0, 1, (2, 8, 6, 6)).astype(np.float32)), training=True)
        labels = np.argmax(out.data, axis=1)
        assert labels.min() >= 0 and labels.max() < 7

    def test_gradcheck(self, rng):
        head = ClsHead(3, 4, rng, dtype=np.float64)
        x = Tensor(rng.normal(0, 1, (1, 3, 4, 4)), requires_grad=True)
        params = [x] + [t for _, t in head.named_params("h")]
        f = lambda: ad.mean(head(x, training=True))
        assert gradcheck(f, params, max_components=20, rng=np.random.default_rng(4)) < TOL


def stage_inputs(rng, dtype, frames=7):
    """x, weight, bias, gamma, beta; the running buffers; an output gradient
    for a 3 -> 4 channel stage on 5x5 frames."""
    arrays = [rng.normal(0, 1, (frames, 3, 5, 5)), rng.normal(0, 0.5, (4, 3, 3, 3)),
              rng.normal(0, 0.1, 4), rng.uniform(0.5, 1.5, 4), rng.normal(0, 0.1, 4)]
    buffers = [rng.normal(0, 0.1, 4), rng.uniform(0.5, 2.0, 4)]
    g = rng.normal(0, 1, (frames, 4, 5, 5))
    return [a.astype(dtype) for a in arrays], [b.astype(dtype) for b in buffers], g.astype(dtype)


class TestConvBnRelu:
    # one (3, 5, 5) frame's 3x3 columns are 27 * 25 * 4 = 2700 bytes in
    # float32: a budget of two frames cuts 7 frames into 4 chunks in
    # float32 and 7 in float64
    BUDGET = 2 * 2700

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_the_unfused_ops(self, rng, monkeypatch, dtype, training):
        monkeypatch.setattr(ad, "_CONV_FRAME_BUDGET", self.BUDGET)
        arrays, buffers, g = stage_inputs(rng, dtype)
        fused = verify.conv_bn_relu_pass(ad.conv_bn_relu, arrays, buffers, g, training)
        unfused = verify.conv_bn_relu_pass(verify.unfused_conv_bn_relu, arrays, buffers, g,
                                           training)
        assert len(fused) == len(unfused) == 8      # output, 2 buffers, 5 gradients
        for got, ref in zip(fused, unfused):
            assert got.dtype == ref.dtype == dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    def test_float32_bitwise_equal_for_any_worker_count(self, rng, monkeypatch, training):
        monkeypatch.setattr(ad, "_CONV_FRAME_BUDGET", self.BUDGET)
        arrays, buffers, g = stage_inputs(rng, np.float32)
        bitwise_for_any_worker_count(monkeypatch, lambda: verify.conv_bn_relu_pass(
            ad.conv_bn_relu, arrays, buffers, g, training))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("training", [True, False])
    def test_negative_infinite_conv_output_raises(self, monkeypatch, training):
        """-inf under a positive gamma stays -inf through the affine, and
        the ReLU would turn it into 0: the check must come first."""
        monkeypatch.setattr(ad, "_CONV_FRAME_BUDGET", self.BUDGET)
        x = np.zeros((5, 3, 5, 5), dtype=np.float32)
        x[3, 0, 2, 2] = -1e38                       # 10 * -1e38 overflows to -inf
        w = np.full((4, 3, 3, 3), 10.0, dtype=np.float32)
        zeros, ones = np.zeros(4, dtype=np.float32), np.ones(4, dtype=np.float32)
        running = [zeros.copy(), ones.copy()]
        with pytest.raises(ad.NonFiniteError, match="conv_bn_relu"):
            ad.conv_bn_relu(Tensor(x), Tensor(w), zeros, ones, zeros, *running, training)
        assert np.array_equal(running[0], zeros) and np.array_equal(running[1], ones)

    def test_inference_makes_no_whole_stack_temporary(self, rng, monkeypatch):
        """Unrecorded, the output is the conv output, finished in place by
        one-frame chunks; the unfused ops hold three arrays of its size at
        once (1.7 MB here)."""
        monkeypatch.setattr(ad, "_CONV_FRAME_BUDGET", 3 * 9 * 256 * 4)
        x = Tensor(rng.normal(0, 1, (32, 3, 16, 16)).astype(np.float32))
        w = Tensor(rng.normal(0, 0.5, (16, 3, 3, 3)).astype(np.float32))
        zeros, ones = np.zeros(16, dtype=np.float32), np.ones(16, dtype=np.float32)
        out_bytes = 32 * 16 * 256 * 4
        tracemalloc.start()
        try:
            out = ad.conv_bn_relu(x, w, zeros, ones, zeros, zeros, ones, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (32, 16, 16, 16)
        assert peak < 1.5 * out_bytes
