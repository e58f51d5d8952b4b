"""Forward semantics and gradient correctness of every tape primitive."""

import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sits_ssm import autodiff as ad
from sits_ssm import pool as pool_mod
from sits_ssm.autodiff import NonFiniteError, ShapeError, Tensor
from sits_ssm.verify import gradcheck

from conftest import f64

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
        out = ad.max_over_axis(x, axis=1)
        assert np.array_equal(out.data, np.full((4, 2), 0.7))

    def test_forward_primitive_dispatch(self):
        out = ad.forward_primitive("add", Tensor(1.0), Tensor(2.0))
        assert out.item() == 3.0
        with pytest.raises(KeyError):
            ad.forward_primitive("no_such_op", Tensor(1.0))

    def test_all_required_op_kinds_registered(self):
        required = {"add", "sub", "mul", "matmul", "conv2d", "depthwise_conv1d",
                    "exp", "softplus", "silu", "relu", "sigmoid", "max_over_axis",
                    "mean", "sum", "reshape", "transpose", "slice", "concat",
                    "softmax", "batchnorm"}
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


class TestErrors:
    def test_shape_mismatch_matmul(self, rng):
        with pytest.raises(ShapeError):
            ad.matmul(f64(rng, 2, 3), f64(rng, 4, 2))

    def test_shape_mismatch_add(self, rng):
        with pytest.raises(ShapeError):
            ad.add(f64(rng, 2, 3), f64(rng, 4))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_surfaced_not_propagated(self):
        with pytest.raises(NonFiniteError):
            ad.exp(Tensor(np.array([1000.0], dtype=np.float32)))


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
            lambda: ad.mean(ad.mul(a, b), axis=1).sum(),
            lambda: ad.sum_(ad.mul(a, b), axis=0, keepdims=True).sum(),
            lambda: ad.sum_(ad.softmax(a, axis=1)).sum() + ad.sum_(ad.mul(ad.softmax(a, axis=0), b)),
        ]
        for f in checks:
            assert gradcheck(f, [a, b, c]) < TOL

    @pytest.mark.parametrize("seed", range(10))
    def test_relu_and_max(self, seed):
        rng = np.random.default_rng(seed)
        x = spaced_values(rng, 3, 5)
        assert gradcheck(lambda: ad.sum_(ad.relu(x)), [x]) < TOL
        y = spaced_values(rng, 2, 6, 3)
        assert gradcheck(lambda: ad.sum_(ad.max_over_axis(y, axis=1)), [y]) < TOL
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
        v3 = f64(rng, 3)
        v4 = f64(rng, 4)
        batched = f64(rng, 2, 5, 3)
        assert np.allclose(ad.matmul(m, v3).data, m.data @ v3.data)
        assert gradcheck(lambda: ad.sum_(ad.matmul(m, v3)), [m, v3]) < TOL
        assert gradcheck(lambda: ad.sum_(ad.matmul(v4, m)), [v4, m]) < TOL
        assert gradcheck(lambda: ad.matmul(v3, v3), [v3]) < TOL        # dot product
        assert gradcheck(lambda: ad.sum_(ad.matmul(batched, v3)), [batched, v3]) < TOL

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
        x = f64(rng, 8, 2, 3, 3, requires_grad=False)
        rm, rv = np.zeros(2), np.ones(2)
        ad.batchnorm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True)
        assert not np.allclose(rm, 0.0)

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
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 5):
                with ThreadPoolExecutor(workers) as pool:
                    monkeypatch.setattr(pool_mod, "_POOL", pool)
                    results.append(conv_pass(*args))
        finally:
            sys.setswitchinterval(interval)
        for other in results[1:]:
            for got, ref in zip(other, results[0]):
                assert got.dtype == np.float32 and np.array_equal(got, ref)

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
                    y = ad.conv2d(x, w)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert y.shape == (240, 128, 16, 16)
        assert peak < columns / 4
