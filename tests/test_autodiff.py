"""Forward semantics and gradient correctness of every tape primitive."""

import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sits_ssm import autodiff as ad
from sits_ssm import nn
from sits_ssm import pool as pool_mod
from sits_ssm import ssm
from sits_ssm.autodiff import NonFiniteError, ShapeError, Tensor
from sits_ssm.verify import gradcheck

from conftest import bitwise_for_any_worker_count, f64

TOL = 1e-4


def spaced_values(rng, *shape):
    """Distinct values, bounded away from zero, with gaps well above the FD
    step (keeps relu/max probes off their kinks)."""
    n = int(np.prod(shape))
    vals = (np.arange(n) + 1.0) / n * rng.choice([-1.0, 1.0], size=n)
    return Tensor(rng.permutation(vals).reshape(shape), requires_grad=True)


class TestForwardExamples:
    def test_silu_at_zero(self):
        assert ad.silu(Tensor(0.0)).item() == 0.0

    def test_softplus_at_zero(self):
        assert ad.softplus(Tensor(0.0)).item() == pytest.approx(np.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("length", [1, 3, 9])
    def test_max_of_time_constant_sequence(self, length):
        x = Tensor(np.full((4, length, 2), 0.7))
        out = ad.max_over_axis(x, axis=1, mask=np.ones(x.shape, bool))
        assert np.array_equal(out.data, np.full((4, 2), 0.7))

    def test_all_required_op_kinds_registered(self):
        required = {"add", "sub", "mul", "matmul", "conv2d", "depthwise_conv1d",
                    "exp", "softplus", "silu", "relu", "sigmoid", "max_over_axis",
                    "mean", "sum", "reshape", "transpose", "slice", "concat",
                    "softmax", "batchnorm", "conv_bn_relu"}
        assert required <= set(ad.OPS)


class TestActivationKernels:
    X = np.linspace(-100.0, 100.0, 20001)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["softplus", "sigmoid", "silu"])
    def test_match_float64_reference(self, op, dtype):
        """Values and gradients within rounding of float64 references over
        [-100, 100], tails included, with no RuntimeWarning."""
        x = Tensor(self.X.astype(dtype), requires_grad=True)
        x64 = x.data.astype(np.float64)
        s = 1.0 / (1.0 + np.exp(-x64))
        value, grad = {"softplus": (np.logaddexp(0.0, x64), s),
                       "sigmoid": (s, s * (1.0 - s)),
                       "silu": (x64 * s, s * (1.0 + x64 * (1.0 - s)))}[op]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = getattr(ad, op)(x)
            ad.backward(ad.sum_(y))
        info = np.finfo(dtype)
        assert y.dtype == dtype and x.grad.dtype == dtype
        # below 128 * tiny a float32 value counts as 0 (e^-x overflows there)
        assert np.allclose(y.data, value, rtol=4 * info.eps, atol=128 * info.tiny)
        assert np.allclose(x.grad, grad, rtol=0.0, atol=16 * info.eps)

    @pytest.mark.parametrize("op", ["softplus", "sigmoid", "silu"])
    def test_zero_dimensional_input(self, op):
        x = Tensor(np.float32(0.5), requires_grad=True)
        y = getattr(ad, op)(x)
        ad.backward(y)
        assert y.shape == () and np.isfinite(x.grad)


class TestLinearBackward:
    @pytest.mark.parametrize("lead", [(5,), (3, 4)])
    def test_two_gemms_match_the_batched_form(self, rng, lead):
        x = Tensor(rng.normal(0, 1, lead + (7,)), requires_grad=True)
        w = Tensor(rng.normal(0, 1, (7, 6)), requires_grad=True)
        g = rng.normal(0, 1, lead + (6,))
        ad.backward(ad.sum_(ad.mul(ad.matmul(x, w), Tensor(g))))
        gx = np.matmul(g, w.data.T)
        gw = np.matmul(np.swapaxes(x.data, -1, -2), g)
        gw = gw.reshape(-1, 7, 6).sum(axis=0)
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert np.max(np.abs(x.grad - gx)) < 1e-12
        assert np.max(np.abs(w.grad - gw)) < 1e-12


class TestTapeKeepsWhatBackwardNeeds:
    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_sum_frees_its_operands_values(self, rng, op):
        x, w, bias = f64(rng, 4, 5), f64(rng, 5, 3), f64(rng, 3)
        m = ad.matmul(x, w)
        ref = weakref.ref(m.data)
        y = getattr(ad, op)(m, bias)
        del m
        assert ref() is None
        ad.backward(ad.sum_(ad.mul(y, y)))
        sign = 1 if op == "add" else -1
        np.testing.assert_allclose(w.grad, x.data.T @ (2 * y.data), rtol=1e-12)
        np.testing.assert_allclose(bias.grad, sign * 2 * y.data.sum(axis=0), rtol=1e-12)

    def test_linear_matmul_output_dies_before_backward(self, rng, monkeypatch):
        outputs = []
        matmul = ad.matmul

        def spy(a, b):
            out = matmul(a, b)
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(ad, "matmul", spy)
        lin = nn.Linear(5, 3, rng, dtype=np.float64)
        x = f64(rng, 4, 5)
        y = lin(x)
        assert len(outputs) == 1 and outputs[0]() is None
        ad.backward(ad.sum_(y))
        np.testing.assert_allclose(lin.bias.grad, np.full(3, 4.0))

    # ops whose backward needs no values of their input (relu keeps its
    # output, batchnorm its normalized input), on a (2, 3, 4, 5) input
    NO_INPUT_KEPT = {
        "relu": lambda t: ad.relu(t),
        "batchnorm_train": lambda t: ad.batchnorm(t, np.ones(3), np.zeros(3), np.zeros(3),
                                                  np.ones(3), training=True),
        "batchnorm_eval": lambda t: ad.batchnorm(t, np.ones(3), np.zeros(3), np.zeros(3),
                                                 np.ones(3), training=False),
        "sum": lambda t: ad.sum_(t, axis=1),
        "sum_all": lambda t: ad.sum_(t),
        "mean": lambda t: ad.mean(t, axis=(0, 2)),
        "mean_all": lambda t: ad.mean(t),
        "slice": lambda t: ad.slice_(t, (slice(None), 1, slice(1, 3))),
        "max_over_axis": lambda t: ad.max_over_axis(t, axis=3, mask=np.ones(5, bool)),
        "max_over_axis_masked": lambda t: ad.max_over_axis(
            t, axis=2, mask=np.arange(4)[:, None] < 3),
        "gather_rows": lambda t: ad.gather_rows(t, np.array([1])),
    }

    @pytest.mark.parametrize("op", sorted(NO_INPUT_KEPT))
    def test_input_dies_once_only_the_result_lives(self, rng, op):
        x = f64(rng, 6, 20)
        # the input is a reshaped view, so a slice of it holds the array it
        # views, not the input's own array object
        h = ad.reshape(ad.mul(x, x), (2, 3, 4, 5))
        ref = weakref.ref(h.data)
        y = self.NO_INPUT_KEPT[op](h)
        del h
        assert ref() is None
        ad.backward(ad.sum_(ad.mul(y, y)))
        assert x.grad.shape == x.shape and np.all(np.isfinite(x.grad))

    def test_activation_dies_before_an_earlier_ops_backward(self):
        seen = []

        def spy(t):
            # identity whose backward records whether the later activation lives
            def backward_fn(g):
                seen.append(ref())
                return (g,)

            return ad._make(t.data.copy(), (t,), backward_fn, "spy")

        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        a = ad.mul(spy(x), 3.0)
        ref = weakref.ref(a.data)                  # read only by the mul below
        loss = ad.sum_(ad.mul(a, a))
        del a
        ad.backward(loss)
        assert seen == [None]
        np.testing.assert_allclose(x.grad, 18.0 * x.data, rtol=1e-15)

    def test_only_leaves_keep_their_grad(self):
        x = Tensor(np.array([0.5, -1.25, 1.5]), requires_grad=True)
        h = ad.mul(x, x)
        y = ad.exp(h)
        loss = ad.sum_(y)
        ad.backward(loss)
        assert h.grad is None and y.grad is None and loss.grad is None
        e = np.exp(x.data * x.data)
        assert np.array_equal(x.grad, e * x.data + e * x.data)


class TestScalarOperandDtype:
    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_python_scalar_takes_tensor_dtype(self, op, dtype):
        fn = getattr(ad, op)
        x = Tensor(np.array([0.5, -1.5, 2.0], dtype=dtype), requires_grad=True)
        for out in (fn(x, -1.0), fn(x, 3), fn(0.25, x), fn(2, x)):
            assert out.dtype == dtype
        ad.backward(ad.sum_(fn(x, 0.1)))
        assert x.grad.dtype == dtype


class TestBackwardBasics:
    def test_grad_of_sum_is_ones(self, rng):
        x = f64(rng, 3, 4, 5)
        ad.backward(ad.sum_(x))
        assert np.array_equal(x.grad, np.ones((3, 4, 5)))

    def test_grad_of_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        ad.backward(ad.sum_(ad.mul(x, x)))
        assert np.array_equal(x.grad, np.array([2.0, 4.0]))

    def test_backward_rejects_non_scalar(self, rng):
        x = f64(rng, 3)
        with pytest.raises(ValueError):
            ad.backward(ad.mul(x, x))

    def test_backward_twice_rejected(self, rng):
        x = f64(rng, 3)
        loss = ad.sum_(x)
        ad.backward(loss)
        with pytest.raises(RuntimeError):
            ad.backward(loss)

    def test_failed_backward_is_not_retried(self):
        calls = []

        def boom(t):
            # identity whose backward raises the first time it runs
            def backward_fn(g):
                calls.append(g)
                if len(calls) == 1:
                    raise FloatingPointError("boom")
                return (g,)

            return ad._make(t.data.copy(), (t,), backward_fn, "boom")

        x = Tensor(np.array([1.5, 2.5]), requires_grad=True)
        loss = ad.add(ad.sum_(boom(x)), ad.sum_(ad.mul(x, x)))
        with pytest.raises(FloatingPointError):
            ad.backward(loss)
        # a rerun would add the gradients the failed pass already gave again
        with pytest.raises(RuntimeError):
            ad.backward(loss)
        assert len(calls) == 1

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        ad.backward(ad.add(ad.mul(x, x), x))   # d/dx (x^2 + x) = 2x + 1
        assert x.grad == pytest.approx(7.0)

    def test_no_grad_suppresses_tape(self, rng):
        x = f64(rng, 2)
        with ad.no_grad():
            y = ad.sum_(ad.mul(x, x))
        assert not y.requires_grad

    def test_no_grad_is_per_thread(self, rng):
        x = f64(rng, 3)
        held, done = threading.Event(), threading.Event()
        seen = {}

        def inference():
            with ad.no_grad():
                held.set()
                done.wait(timeout=30)
                seen["inference_grad_enabled"] = ad.grad_enabled()

        def training():
            assert held.wait(timeout=30)
            try:
                ad.backward(ad.sum_(ad.mul(x, x)))
                seen["grad"] = x.grad.copy()
            finally:
                done.set()

        threads = [threading.Thread(target=inference), threading.Thread(target=training)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert seen["inference_grad_enabled"] is False
        np.testing.assert_array_equal(seen["grad"], 2 * x.data)
        assert ad.grad_enabled()

    def test_recording_truth_table(self, rng):
        """An op is recorded exactly when grad mode is on in its thread and
        some input is tracked; ops record exactly when ``recording`` says so."""
        tracked, plain = f64(rng, 2), f64(rng, 2, requires_grad=False)
        cases = {(): False, (plain,): False, (tracked,): True,
                 (plain, tracked): True, (tracked, tracked): True}

        def table():
            return {ins: ad.recording(*ins) for ins in cases}

        assert table() == cases
        for ins, want in cases.items():
            if len(ins) == 2:
                assert ad.mul(*ins).requires_grad is want
        with ad.no_grad():
            assert not any(table().values())
            assert not ad.mul(tracked, tracked).requires_grad
            other = {}
            thread = threading.Thread(target=lambda: other.update(table()))
            thread.start()
            thread.join(timeout=30)
            assert other == cases               # another thread keeps grad mode on
        off = {}

        def no_grad_thread():
            with ad.no_grad():
                off.update(table())

        thread = threading.Thread(target=no_grad_thread)
        thread.start()
        thread.join(timeout=30)
        assert not any(off.values()) and table() == cases


def overflowing_conv():
    """A float32 conv2d input, weight and zero bias whose output overflows:
    10 * 1e38."""
    x = np.zeros((1, 1, 3, 3), np.float32)
    x[0, 0, 1, 1] = 1e38
    return (Tensor(x), Tensor(np.full((1, 1, 3, 3), 10.0, np.float32)),
            Tensor(np.zeros(1, np.float32)))


def overflowing_stats():
    """A float32 conv2d input, weight and zero bias whose output is finite
    (at most 2.7e20) but whose batch variance overflows."""
    return (Tensor(np.full((2, 1, 4, 4), 3e19, np.float32)),
            Tensor(np.ones((3, 1, 3, 3), np.float32)), Tensor(np.zeros(3, np.float32)))


def bn_args():
    """gamma, beta and the running mean and variance of 3 float32 channels."""
    return (np.ones(3, np.float32), np.full(3, 0.5, np.float32), np.zeros(3, np.float32),
            np.ones(3, np.float32))


class TestErrors:
    def test_shape_mismatch_matmul(self, rng):
        with pytest.raises(ShapeError):
            ad.matmul(f64(rng, 2, 3), f64(rng, 4, 2))

    @pytest.mark.parametrize("w_shape", [(3,), (2, 3, 4)], ids=["1d", "3d"])
    def test_matmul_weight_must_be_2d(self, rng, w_shape):
        """matmul is x @ W for a (K, N) weight W; no other second operand."""
        with pytest.raises(ShapeError):
            ad.matmul(f64(rng, 2, 3), f64(rng, *w_shape))

    def test_shape_mismatch_add(self, rng):
        with pytest.raises(ShapeError):
            ad.add(f64(rng, 2, 3), f64(rng, 4))

    @pytest.mark.parametrize("mask_shape", [(5,), (2, 3, 4, 1), (1, 2, 3, 4)],
                             ids=["5", "2x3x4x1", "1x2x3x4"])
    def test_max_over_axis_mask_must_broadcast_to_input(self, rng, mask_shape):
        with pytest.raises(ShapeError):
            ad.max_over_axis(f64(rng, 2, 3, 4), axis=1, mask=np.ones(mask_shape, bool))

    def test_non_finite_surfaced_not_propagated(self):
        with pytest.raises(NonFiniteError):
            ad.exp(Tensor(np.array([1000.0], dtype=np.float32)))

    @pytest.mark.parametrize("op", [
        lambda: ad.exp(1000.0),
        lambda: ad.mul(Tensor(np.float32(3e38)), 10),
        lambda: ad.add(Tensor(np.float32(3e38)), 3e38),
        lambda: ad.matmul(Tensor(np.full((1, 1), 3e38, np.float32)),
                          Tensor(np.full((1, 1), 10.0, np.float32))),
        lambda: ad.conv2d(*overflowing_conv()),
        lambda: ad.conv_bn_relu(*overflowing_conv(), np.ones(1, np.float32),
                                np.zeros(1, np.float32), np.zeros(1, np.float32),
                                np.ones(1, np.float32), training=False),
        lambda: ad.batchnorm(ad.conv2d(*overflowing_stats()), *bn_args(), training=True),
        lambda: ad.conv_bn_relu(*overflowing_stats(), *bn_args(), training=True),
        lambda: ad.depthwise_conv1d(Tensor(np.full((1, 3, 2), 3e38, np.float32)),
                                    Tensor(np.full((2, 4), 10.0, np.float32)),
                                    Tensor(np.zeros(2, np.float32))),
        lambda: ad.sum_(Tensor(np.full(2, 3e38, np.float32))),
        lambda: ad.mean(Tensor(np.full(2, 3e38, np.float32))),
        lambda: ad.softmax(Tensor(np.array([[np.inf, 1.0]], np.float32))),
        lambda: ad.cross_entropy_logits(Tensor(np.array([[3e38, -3e38]], np.float32)),
                                        np.array([1])),
        # inference normalizes with the running buffers: gamma * xhat overflows
        lambda: ad.batchnorm(Tensor(np.full((1, 1, 2, 2), 10.0, np.float32)),
                             np.full(1, 3e38, np.float32), np.zeros(1, np.float32),
                             np.zeros(1, np.float32), np.ones(1, np.float32), training=False),
        lambda: ad.conv_bn_relu(Tensor(np.ones((1, 1, 3, 3), np.float32)),
                                Tensor(np.ones((1, 1, 3, 3), np.float32)),
                                Tensor(np.zeros(1, np.float32)),
                                np.full(1, 3e38, np.float32), np.zeros(1, np.float32),
                                np.zeros(1, np.float32), np.ones(1, np.float32),
                                training=False),
        lambda: ssm.selective_scan_fused(*(Tensor(np.full(shape, v, np.float32)) for shape, v in (
            ((1, 2, 1), 3e38), ((1, 2, 1), 0.1), ((1, 1), -1.0), ((1, 2, 1), 1.0),
            ((1, 2, 1), 1.0), ((1,), 10.0)))),
    ], ids=["exp", "mul", "add", "matmul", "conv2d", "conv_bn_relu", "batchnorm_stats",
            "conv_bn_relu_stats", "depthwise_conv1d", "sum", "mean", "softmax",
            "cross_entropy_logits", "batchnorm_inference", "conv_bn_relu_inference_gamma",
            "selective_scan_fused"])
    def test_overflow_raises_only_its_typed_error(self, op):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                op()

    @pytest.mark.parametrize("fused", [False, True])
    def test_overflowing_statistics_leave_the_running_buffers(self, fused):
        gamma, beta, running_mean, running_var = bn_args()
        with pytest.raises(NonFiniteError):
            if fused:
                ad.conv_bn_relu(*overflowing_stats(), gamma, beta, running_mean,
                                running_var, training=True)
            else:
                ad.batchnorm(ad.conv2d(*overflowing_stats()), gamma, beta, running_mean,
                             running_var, training=True)
        assert np.array_equal(running_mean, np.zeros(3))
        assert np.array_equal(running_var, np.ones(3))

    def test_overflowing_gradient_is_inf_without_warning(self):
        """A finite forward (3e9) whose gradient (3e39) overflows float32."""
        x = Tensor(np.float32(1e-30), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = ad.mul(ad.mul(x, 3e38), 10.0)
            ad.backward(y)
        assert np.isfinite(y.item()) and np.isinf(x.grad)

    def test_overflowing_conv2d_gradient_in_pool_tasks(self, monkeypatch):
        """conv2d's backward chunks run as pool tasks, in the caller's context."""
        monkeypatch.setattr(ad, "_CONV_FRAME_BUDGET", 1)       # one frame per chunk
        x = Tensor(np.full((2, 1, 3, 3), 1e-30, np.float32), requires_grad=True)
        w = Tensor(np.full((1, 1, 3, 3), 3e38, np.float32), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = ad.conv2d(x, w, Tensor(np.zeros(1, np.float32)))
            ad.backward(ad.sum_(ad.mul(y, 10.0)))
        assert np.isfinite(y.data).all()
        assert np.isinf(x.grad).all() and np.isfinite(w.grad).all()


class TestMaxWithoutTape:
    """Unrecorded, max_over_axis is a masked np.max with no argmax."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_recorded_max_bitwise(self, rng, dtype, masked):
        x = rng.integers(-3, 4, (6, 5, 4)).astype(dtype)          # many ties
        mask = np.ones((6, 5, 1), bool)
        if masked:
            mask = rng.uniform(size=(6, 5, 1)) < 0.4
            mask[np.arange(6), rng.integers(0, 5, 6)] = True          # no slice empty
        recorded = ad.max_over_axis(Tensor(x, requires_grad=True), 1, mask)
        with ad.no_grad():
            free = ad.max_over_axis(Tensor(x, requires_grad=True), 1, mask)
        assert recorded.requires_grad and not free.requires_grad
        assert free.dtype == recorded.dtype == dtype and free.shape == recorded.shape
        assert free.data.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("recorded", [True, False])
    def test_empty_valid_set_raises(self, rng, recorded):
        x = Tensor(rng.normal(0, 1, (3, 4, 2)), requires_grad=True)
        mask = np.ones((3, 4, 1), dtype=bool)
        mask[1] = False
        with ad._grad_mode(recorded), pytest.raises(ValueError, match="empty valid set"):
            ad.max_over_axis(x, axis=1, mask=mask)


class TestMovedValuesAreNotRechecked:
    """Shape ops only move values; a NaN they move is caught by the first
    op that computes with it."""
    MOVES = {
        "reshape": lambda t: ad.reshape(t, (3, 4)),
        "slice": lambda t: ad.slice_(t, (slice(0, 2), slice(1, 3))),
        "transpose": lambda t: ad.transpose(t, (1, 0)),
        "gather_rows": lambda t: ad.gather_rows(t, np.array([0, 2])),
    }

    @pytest.mark.parametrize("op", sorted(MOVES))
    def test_nan_leaf_caught_by_the_first_computing_op(self, op):
        x = np.arange(12.0).reshape(4, 3)
        x[0, 1] = np.nan
        moved = self.MOVES[op](Tensor(x, requires_grad=True))
        assert np.isnan(moved.data).any()
        with pytest.raises(NonFiniteError, match="'mul'"):
            ad.mul(moved, 2.0)

    @pytest.mark.parametrize("axes", [(0, 3, 4, 1, 2), (2, 0, 1, 4, 3), (4, 3, 2, 1, 0)])
    def test_tiled_transpose_is_a_contiguous_copy(self, rng, axes):
        x = rng.normal(0, 1, (3, 7, 5, 6, 9)).astype(np.float32)
        y = ad.transpose(Tensor(x), axes).data
        assert y.flags.c_contiguous and not np.shares_memory(x, y)
        assert y.tobytes() == np.ascontiguousarray(np.transpose(x, axes)).tobytes()


class TestPrimitiveGradients:
    """Analytic vs central finite differences, 10 random points per primitive."""

    @pytest.mark.parametrize("seed", range(10))
    def test_elementwise_and_reductions(self, seed):
        rng = np.random.default_rng(seed)
        a = f64(rng, 3, 4)
        b = f64(rng, 3, 4)
        c = f64(rng, 4)          # broadcast operand
        checks = [
            lambda: ad.sum_(ad.add(a, c)),
            lambda: ad.sum_(ad.sub(a, b)),
            lambda: ad.sum_(ad.mul(a, c)),
            lambda: ad.sum_(ad.exp(a)),
            lambda: ad.sum_(ad.softplus(a)),
            lambda: ad.sum_(ad.silu(a)),
            lambda: ad.sum_(ad.sigmoid(a)),
            lambda: ad.sum_(ad.mean(ad.mul(a, b), axis=1)),
            lambda: ad.sum_(ad.sum_(ad.mul(a, b), axis=0)),
            lambda: ad.add(ad.sum_(ad.softmax(a, axis=1)),
                           ad.sum_(ad.mul(ad.softmax(a, axis=0), b))),
        ]
        for f in checks:
            assert gradcheck(f, [a, b, c]) < TOL

    @pytest.mark.parametrize("seed", range(10))
    def test_relu_and_max(self, seed):
        rng = np.random.default_rng(seed)
        x = spaced_values(rng, 3, 5)
        assert gradcheck(lambda: ad.sum_(ad.relu(x)), [x]) < TOL
        y = spaced_values(rng, 2, 6, 3)
        assert gradcheck(lambda: ad.sum_(ad.max_over_axis(
            y, axis=1, mask=np.ones((2, 6, 1), bool))), [y]) < TOL
        mask = np.zeros((2, 6, 1), dtype=bool)
        mask[:, :4] = True
        assert gradcheck(lambda: ad.sum_(ad.max_over_axis(y, axis=1, mask=mask)), [y]) < TOL

    @pytest.mark.parametrize("seed", range(10))
    def test_matmul_and_shape_ops(self, seed):
        rng = np.random.default_rng(seed)
        a = f64(rng, 4, 3)
        b = f64(rng, 3, 5)
        s = f64(rng, 2, 3, 4)
        checks = [
            lambda: ad.sum_(ad.matmul(a, b)),
            lambda: ad.sum_(ad.mul(ad.reshape(s, (6, 4)), 0.5)),
            lambda: ad.sum_(ad.mul(ad.transpose(s, (2, 0, 1)), 2.0)),
            lambda: ad.sum_(ad.slice_(s, (slice(None), slice(1, 3), slice(0, 2)))),
            lambda: ad.sum_(ad.mul(ad.concat([s, s], axis=1), 1.5)),
        ]
        for f in checks:
            assert gradcheck(f, [a, b, s]) < TOL

    @pytest.mark.parametrize("seed", range(10))
    def test_batched_matmul(self, seed):
        rng = np.random.default_rng(seed)
        a = f64(rng, 2, 4, 3)
        b = f64(rng, 3, 5)
        assert gradcheck(lambda: ad.sum_(ad.matmul(a, b)), [a, b]) < TOL

    @pytest.mark.parametrize("seed", range(10))
    def test_matmul_vector_operands(self, seed):
        rng = np.random.default_rng(seed)
        m = f64(rng, 4, 3)
        f64(rng, 3)                   # drawn so that v4 keeps its values
        v4 = f64(rng, 4)
        assert gradcheck(lambda: ad.sum_(ad.matmul(v4, m)), [v4, m]) < TOL

    @pytest.mark.parametrize("seed", range(10))
    def test_conv2d(self, seed):
        rng = np.random.default_rng(seed)
        x = f64(rng, 2, 3, 5, 5)
        w = f64(rng, 4, 3, 3, 3)
        b = f64(rng, 4)
        assert gradcheck(lambda: ad.sum_(ad.conv2d(x, w, b)), [x, w, b]) < TOL

    @pytest.mark.parametrize("seed", range(10))
    def test_depthwise_conv1d(self, seed):
        rng = np.random.default_rng(seed)
        x = f64(rng, 2, 7, 3)
        w = f64(rng, 3, 4)
        b = f64(rng, 3)
        assert gradcheck(lambda: ad.sum_(ad.depthwise_conv1d(x, w, b)), [x, w, b]) < TOL

    @pytest.mark.parametrize("k, length", [(1, 1), (1, 6), (4, 2), (4, 4), (4, 9)])
    def test_depthwise_conv1d_matches_the_padded_form(self, rng, k, length):
        x, w, b = f64(rng, 3, length, 5), f64(rng, 5, k), f64(rng, 5)
        g = rng.normal(0, 1, (3, length, 5))
        y = ad.depthwise_conv1d(x, w, b)
        ad.backward(ad.sum_(ad.mul(y, Tensor(g))))
        xp = np.pad(x.data, ((0, 0), (k - 1, 0), (0, 0)))
        ref_y = sum(xp[:, i:i + length] * w.data[:, i] for i in range(k)) + b.data
        gxp = np.zeros_like(xp)
        ref_gw = np.empty_like(w.data)
        for i in range(k):
            ref_gw[:, i] = np.einsum("bld,bld->d", g, xp[:, i:i + length])
            gxp[:, i:i + length] += g * w.data[:, i]
        pairs = [(y.data, ref_y), (x.grad, gxp[:, k - 1:]), (w.grad, ref_gw),
                 (b.grad, g.sum(axis=(0, 1)))]
        for got, ref in pairs:
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm(self, seed, training):
        rng = np.random.default_rng(seed)
        x = f64(rng, 4, 3, 2, 2)
        gamma = f64(rng, 3, lo=0.5, hi=1.5)
        beta = f64(rng, 3)
        rm = rng.normal(0, 1, 3)
        rv = rng.uniform(0.5, 2.0, 3)

        def f():
            return ad.sum_(ad.mul(ad.batchnorm(x, gamma, beta, rm.copy(), rv.copy(),
                                               training=training), 0.5))
        assert gradcheck(f, [x, gamma, beta]) < TOL

    @pytest.mark.parametrize("seed", range(10))
    def test_gather_and_scatter_rows(self, seed):
        rng = np.random.default_rng(seed)
        x = f64(rng, 7, 2, 3)
        v = f64(rng, 4, 2, 3)
        w = f64(rng, 7, 2, 3, requires_grad=False)        # weights make every row count
        rows = np.sort(rng.choice(7, size=4, replace=False))
        assert gradcheck(lambda: ad.sum_(ad.mul(ad.gather_rows(x, rows), v)), [x, v]) < TOL
        assert gradcheck(lambda: ad.sum_(ad.mul(ad.scatter_rows(v, rows, 7), w)), [v]) < TOL

    @pytest.mark.parametrize("seed", range(10))
    def test_cross_entropy_logits(self, seed):
        rng = np.random.default_rng(seed)
        logits = f64(rng, 6, 4)
        labels = rng.integers(0, 4, 6)
        keep = rng.uniform(size=6) > 0.3
        if not keep.any():
            keep[0] = True
        f = lambda: ad.cross_entropy_logits(logits, labels, keep)
        assert gradcheck(f, [logits]) < TOL

    @pytest.mark.parametrize("seed", range(10))
    def test_random_composite(self, seed):
        """Deep chain mixing most primitives against finite differences."""
        rng = np.random.default_rng(100 + seed)
        x = f64(rng, 2, 6)
        w = f64(rng, 6, 6)

        def f():
            h = ad.silu(ad.matmul(x, w))
            h = ad.softmax(ad.add(h, ad.exp(ad.mul(x, 0.3))), axis=1)
            h = ad.reshape(ad.transpose(h, (1, 0)), (3, 4))
            return ad.mean(ad.mul(h, h))
        assert gradcheck(f, [x, w]) < TOL


class TestRowOps:
    ROWS = np.array([0, 2, 3, 6])

    def test_each_op_is_the_others_backward(self, rng):
        x = f64(rng, 7, 3)
        v = f64(rng, 4, 3)
        gathered = ad.gather_rows(x, self.ROWS)
        scattered = ad.scatter_rows(v, self.ROWS, 7)
        assert np.array_equal(gathered.data, x.data[self.ROWS])
        assert np.array_equal(scattered.data[self.ROWS], v.data)
        assert not np.delete(scattered.data, self.ROWS, axis=0).any()
        g7, g4 = rng.normal(0, 1, (7, 3)), rng.normal(0, 1, (4, 3))
        ad.backward(ad.sum_(ad.mul(gathered, Tensor(g4))))
        ad.backward(ad.sum_(ad.mul(scattered, Tensor(g7))))
        assert np.array_equal(x.grad, ad.scatter_rows(Tensor(g4), self.ROWS, 7).data)
        assert np.array_equal(v.grad, ad.gather_rows(Tensor(g7), self.ROWS).data)

    @pytest.mark.parametrize("rows", [[0, 0, 1], [2, 1], [-1, 3], [0, 7], [[0, 1]], [0.0, 1.0]])
    def test_rows_must_be_increasing_indices(self, rng, rows):
        with pytest.raises(ShapeError):
            ad.gather_rows(f64(rng, 7, 3), np.array(rows))
        with pytest.raises(ShapeError):
            ad.scatter_rows(f64(rng, np.size(rows), 3), np.array(rows), 7)

    def test_scatter_wants_one_index_per_row(self, rng):
        with pytest.raises(ShapeError):
            ad.scatter_rows(f64(rng, 3, 3), self.ROWS, 7)


class TestStructuralInvariants:
    def test_reshape_transpose_round_trip(self, rng):
        x = f64(rng, 3, 4, 5)
        y = ad.transpose(ad.reshape(ad.transpose(x, (2, 0, 1)), (5, 3, 4)), (1, 2, 0))
        assert np.array_equal(y.data, x.data)
        ad.backward(ad.sum_(ad.mul(y, y)))
        assert np.allclose(x.grad, 2 * x.data)

    def test_batchnorm_inference_identity(self, rng):
        x = f64(rng, 2, 3, 4, 4, requires_grad=False)
        out = ad.batchnorm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                           np.zeros(3), np.ones(3), training=False, eps=0.0)
        assert np.allclose(out.data, x.data, atol=1e-12)

    def test_batchnorm_updates_running_stats(self, rng):
        """One training step of batchnorm and of conv_bn_relu folds momentum
        0.1 of the batch mean and of the unbiased (torch) batch variance
        into the buffers, here by hand in float64. m = 72 values per
        channel, so a dropped m/(m-1) shows."""
        x = rng.normal(0.5, 2.0, (8, 1, 3, 3))
        w, b = rng.normal(0, 1, (2, 1, 3, 3)), rng.normal(0, 1, 2)
        conv_out = ad.conv2d(x, w, b).data
        per_channel = conv_out.transpose(1, 0, 2, 3).reshape(2, -1)
        m = per_channel.shape[1]
        mean = per_channel.sum(axis=1) / m
        var = ((per_channel - mean[:, None]) ** 2).sum(axis=1) / (m - 1)
        for fused in (False, True):
            rm, rv = np.zeros(2), np.ones(2)
            if fused:
                ad.conv_bn_relu(x, w, b, np.ones(2), np.zeros(2), rm, rv, training=True)
            else:
                ad.batchnorm(conv_out, np.ones(2), np.zeros(2), rm, rv, training=True)
            assert np.allclose(rm, 0.1 * mean, rtol=1e-12, atol=0)
            assert np.allclose(rv, 0.9 + 0.1 * var, rtol=1e-12, atol=0)

    def test_dtype_follows_inputs(self):
        x32 = Tensor(np.ones(3, dtype=np.float32))
        x64 = Tensor(np.ones(3, dtype=np.float64))
        assert ad.add(x32, x32).dtype == np.float32
        assert ad.add(x64, x64).dtype == np.float64


def conv_pass(x, w, b, g):
    """Output and the input, weight and bias gradients of one conv2d pass."""
    ts = [Tensor(v, requires_grad=True) for v in (x, w, b)]
    y = ad.conv2d(*ts)
    ad.backward(ad.sum_(ad.mul(y, Tensor(g))))
    return [y.data] + [t.grad for t in ts]


class TestChunkedConv2d:
    # one (3, 5, 5) frame's 3x3 columns are 27 * 25 * 4 = 2700 bytes in
    # float32, so a 2-frame budget cuts 23 frames into 12 chunks, the last
    # of one frame
    B, C_IN, C_OUT, HW = 23, 3, 4, 5

    def inputs(self, rng, dtype):
        return [rng.normal(0, 1, shape).astype(dtype) for shape in (
            (self.B, self.C_IN, self.HW, self.HW), (self.C_OUT, self.C_IN, 3, 3),
            (self.C_OUT,), (self.B, self.C_OUT, self.HW, self.HW))]

    def test_float32_bitwise_equal_for_any_worker_count(self, rng, monkeypatch):
        monkeypatch.setattr(ad, "_CONV_FRAME_BUDGET", 2 * 2700)
        assert len(pool_mod._chunk_bounds(self.B, 2700, ad._CONV_FRAME_BUDGET)) == 12
        args = self.inputs(rng, np.float32)
        bitwise_for_any_worker_count(monkeypatch, lambda: conv_pass(*args))

    def test_chunked_matches_one_chunk(self, rng, monkeypatch):
        args = self.inputs(rng, np.float64)
        runs = []
        for budget in (0, 2**62):
            monkeypatch.setattr(ad, "_CONV_FRAME_BUDGET", budget)
            runs.append(conv_pass(*args))
        for got, ref in zip(*runs):
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)

    def test_inference_keeps_no_whole_batch_columns(self, rng, monkeypatch):
        """The paper's second conv on 240 frames: its whole-batch im2col
        array would be 240 x 1152 x 256 float32 = 283 MB."""
        x = Tensor(rng.normal(0, 1, (240, 128, 16, 16)).astype(np.float32))
        w = Tensor(rng.normal(0, 0.03, (128, 128, 3, 3)).astype(np.float32))
        columns = 240 * 128 * 9 * 256 * 4
        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(pool_mod, "_POOL", pool)
            tracemalloc.start()
            try:
                with ad.no_grad():
                    y = ad.conv2d(x, w, Tensor(np.zeros(128, np.float32)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert y.shape == (240, 128, 16, 16)
        assert peak < columns / 4

    @pytest.mark.parametrize("frames, channels, chunks", [(60, 128, 60), (40, 16, 6)])
    def test_default_budget_chunks(self, frames, channels, chunks):
        """A paper-width 128-channel frame's 3x3 columns on 16x16 (1.18 MB)
        are a chunk of their own, and 40 frames of 16 channels run as several
        chunks, so on both workers."""
        x = Tensor(np.zeros((frames, channels, 16, 16), np.float32))
        w = Tensor(np.zeros((channels, channels, 3, 3), np.float32))
        assert len(ad._conv_parts(x, w, np.zeros(channels, np.float32))[2]) == chunks


def direct_conv(x, w, b, g):
    """A 'same' conv's output and its input, weight and bias gradients,
    each a plain sum over the kernel taps of the zero-padded input:
    y[n, o, r, q] = b[o] + sum_{c, i, j} w[o, c, i, j] xpad[n, c, r + i, q + j].
    Shares no code with ``autodiff``."""
    _, _, kh, kw = w.shape
    _, _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    y = np.zeros((x.shape[0], w.shape[0], h, wd)) + b[:, None, None]
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i:i + h, j:j + wd]
            y += np.einsum("oc,ncrq->norq", w[:, :, i, j], window)
            gxp[:, :, i:i + h, j:j + wd] += np.einsum("oc,norq->ncrq", w[:, :, i, j], g)
            gw[:, :, i, j] = np.einsum("norq,ncrq->oc", g, window)
    gx = gxp[:, :, kh // 2:kh // 2 + h, kw // 2:kw // 2 + wd]
    return [y, gx, gw, g.sum(axis=(0, 2, 3))]


class TestConvAgainstDirectSum:
    """conv2d against ``direct_conv`` in float64, on frames of 5 rows and 7
    columns, so that a kernel read transposed, or a tap that steps through
    the padded frame by the wrong row length, shows."""

    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (5, 3), (3, 5)],
                             ids=["1x1", "3x3", "5x3", "3x5"])
    @pytest.mark.parametrize("budget, chunks", [(0, 4), (2**62, 1)],
                             ids=["frame_chunks", "one_chunk"])
    def test_output_and_gradients(self, rng, monkeypatch, kernel, budget, chunks):
        monkeypatch.setattr(ad, "_CONV_FRAME_BUDGET", budget)
        x = rng.normal(0, 1, (4, 3, 5, 7))
        w = rng.normal(0, 1, (2, 3) + kernel)
        b, g = rng.normal(0, 1, 2), rng.normal(0, 1, (4, 2, 5, 7))
        assert len(ad._conv_parts(x, w, b)[2]) == chunks
        for got, ref in zip(conv_pass(x, w, b, g), direct_conv(x, w, b, g), strict=True):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def im2col_conv(x, w, b, g):
    """One chunk's conv output and input gradient by the (B, C*kh*kw, H*W)
    im2col columns, one GEMM per frame, and a strided add per tap back
    into the padded frame."""
    n, c, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    cols = np.empty((n, c, kh * kw, h, wd), x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i * kw + j] = xp[:, :, i:i + h, j:j + wd]
    wmat = w.reshape(c_out, -1)
    y = np.matmul(wmat, cols.reshape(n, c * kh * kw, h * wd))
    y += b[:, None]
    gc = np.matmul(wmat.T, g.reshape(n, c_out, h * wd)).reshape(n, c, kh * kw, h, wd)
    gp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gp[:, :, i:i + h, j:j + wd] += gc[:, :, i * kw + j]
    return y.reshape(n, c_out, h, wd), gp[:, :, kh // 2:kh // 2 + h, kw // 2:kw // 2 + wd]


class TestLongRowKernelsKeepBits:
    """The kernels that run along long rows give the bits of the short-row
    forms they replaced, where the additions are the same ones in the
    same order."""

    @pytest.mark.parametrize("frames, c_in, c_out", [
        (7, 16, 16), (28, 4, 16),          # learn_small's second and first conv chunks
        (1, 128, 128), (11, 10, 128)])     # the paper's second and first conv chunks
    def test_conv_output_and_input_gradient(self, rng, frames, c_in, c_out):
        x = rng.normal(0, 1, (frames, c_in, 16, 16)).astype(np.float32)
        w = rng.normal(0, 0.1, (c_out, c_in, 3, 3)).astype(np.float32)
        b = rng.normal(0, 1, c_out).astype(np.float32)
        g = rng.normal(0, 1, (frames, c_out, 16, 16)).astype(np.float32)
        assert len(ad._conv_parts(x, w, b)[2]) == 1
        y, gx, _, _ = conv_pass(x, w, b, g)
        ref_y, ref_gx = im2col_conv(x, w, b, g)
        assert np.array_equal(y, ref_y) and np.array_equal(gx, ref_gx)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (256, 20, 32), (256, 20, 16), (512, 20, 4),      # learn_small's bias gradients
        (16, 30, 256), (16, 30, 128), (512, 30, 10)])    # and the paper's
    def test_leading_axis_sum(self, rng, dtype, shape):
        g = rng.normal(0, 1, shape).astype(dtype)
        assert np.array_equal(ad._lead_sum(g, 2), g.sum(axis=(0, 1)))
        assert np.array_equal(ad._unbroadcast(g, shape[-1:]), g.sum(axis=(0, 1)))
        # a strided gradient keeps numpy's own sum, whose order differs
        gt = g[:, 0].T
        assert np.array_equal(ad._lead_sum(gt, 1), gt.sum(axis=0))

    @pytest.mark.parametrize("k, length", [(4, 20), (4, 30), (4, 2), (1, 5)])
    def test_depthwise_conv1d(self, rng, k, length):
        # x is the first half of a wider array's channels, as in the block
        x = rng.normal(0, 1, (64, length, 64)).astype(np.float32)[:, :, :32]
        g = rng.normal(0, 1, (64, length, 32)).astype(np.float32)
        w, b = rng.normal(0, 1, (32, k)).astype(np.float32), rng.normal(0, 1, 32).astype(np.float32)
        ts = [Tensor(v, requires_grad=True) for v in (x, w, b)]
        y = ad.depthwise_conv1d(*ts)
        ad.backward(ad.sum_(ad.mul(y, Tensor(g))))
        taps = [(i, k - 1 - i) for i in range(k) if k - 1 - i < length]
        ref_y = np.zeros_like(x)
        ref_gx, ref_gw = np.zeros_like(x), np.zeros_like(w)
        for i, s in taps:
            ref_y[:, s:] += x[:, :length - s] * w[:, i]
            ref_gw[:, i] = np.einsum("bld,bld->d", g[:, s:], x[:, :length - s])
            ref_gx[:, :length - s] += g[:, s:] * w[:, i]
        ref_y = ref_y + b
        for got, ref in zip([y.data] + [t.grad for t in ts],
                            [ref_y, ref_gx, ref_gw, g.sum(axis=(0, 1))], strict=True):
            assert np.array_equal(got, ref)
