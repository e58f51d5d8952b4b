"""Discretization closed forms, scan/kernel equivalence, selectivity, the
single-pass fused scan, and the chunked gated block contracts."""

import decimal
import tracemalloc
import weakref

import numpy as np
import pytest

from sits_ssm import autodiff as ad
from sits_ssm import pool as pool_mod
from sits_ssm import ssm, trainer
from sits_ssm.autodiff import Tensor
from sits_ssm.data import SitsSample, pad_batch
from sits_ssm.losses import LossConfig
from sits_ssm.model import ModelConfig, SitsClassifier
from sits_ssm.ssm import MambaBlock
from sits_ssm.verify import gradcheck, lti_steps, scan_vs_composite

from conftest import bitwise_for_any_worker_count

TOL = 1e-4


class TestDiscretizeZoh:
    """The closed-form cases and the series row are ``verify.suite_zoh``'s."""

    def test_zero_step_limit(self):
        a_bar, b_bar = ssm.discretize_zoh(-1.0, 1.0, 1e-9)
        assert float(a_bar.data) == pytest.approx(1.0, abs=1e-8)
        assert float(b_bar.data) == pytest.approx(1e-9, rel=1e-6)

    def test_rejects_non_positive_delta(self):
        with pytest.raises(ValueError):
            ssm.discretize_zoh(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ssm.discretize_zoh(-1.0, 1.0, np.array([0.1, -0.2]))
        with pytest.raises(ValueError):
            ssm.discretize_zoh(-1.0, 1.0, np.nan)

    def test_elementwise_on_arrays(self, rng):
        a = -rng.uniform(0.5, 3.0, (4, 3))
        b = rng.normal(0, 1, (4, 3))
        delta = rng.uniform(0.01, 0.5, (4, 3))
        a_bar, b_bar = ssm.discretize_zoh(a, b, delta)
        assert np.allclose(a_bar.data, np.exp(delta * a))
        assert np.allclose(b_bar.data, np.expm1(delta * a) / (delta * a) * delta * b)


class TestScanRecurrence:
    """The random time-invariant systems are ``verify.suite_scan_kernel``'s."""

    def test_hand_case(self):
        x = np.array([[1.0], [1.0], [1.0]])
        y = ssm.scan_recurrence(*lti_steps(np.array([[0.5]]), np.array([[1.0]]),
                                           np.array([1.0]), x))
        assert np.allclose(y.data.ravel(), [1.0, 1.5, 1.75], atol=1e-12)

    def test_zero_injection_gives_zero_output(self, rng):
        l, d, n = 5, 2, 3
        y = ssm.scan_recurrence(Tensor(rng.uniform(0.1, 0.9, (1, l, d, n))),
                                Tensor(np.zeros((1, l, d, n))),
                                Tensor(rng.normal(0, 1, (1, l, n))))
        assert np.array_equal(y.data, np.zeros((1, l, d)))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ad.ShapeError):
            ssm.scan_recurrence(Tensor(rng.uniform(0.1, 0.9, (1, 4, 2, 2))),
                                Tensor(rng.normal(0, 1, (1, 5, 2, 2))),
                                Tensor(rng.normal(0, 1, (1, 4, 2))))

    def test_unbatched_input_rejected(self, rng):
        with pytest.raises(ad.ShapeError, match=r"\(B, L, D, N\)"):
            ssm.scan_recurrence(Tensor(rng.uniform(0.1, 0.9, (4, 2, 2))),
                                Tensor(rng.normal(0, 1, (4, 2, 2))),
                                Tensor(rng.normal(0, 1, (4, 2))))

    def test_gradients(self, rng):
        l, d, n = 4, 2, 3
        steps = [Tensor(rng.uniform(0.1, 0.9, (1, l, d, n)), requires_grad=True),
                 Tensor(rng.normal(0, 1, (1, l, d, n)), requires_grad=True),
                 Tensor(rng.normal(0, 1, (1, l, n)), requires_grad=True)]
        x = Tensor(rng.normal(0, 1, (1, l, d)), requires_grad=True)
        d_skip = Tensor(rng.normal(0, 1, d), requires_grad=True)
        f = lambda: ad.sum_(ad.add(ssm.scan_recurrence(*steps), ad.mul(x, d_skip)))
        assert gradcheck(f, [*steps, x, d_skip]) < TOL


class TestKernelConvolve:
    def test_kernel_values(self):
        # impulse response is the kernel itself
        imp = np.zeros((3, 1))
        imp[0] = 1.0
        k = ssm.kernel_convolve(np.array([[0.5]]), np.array([[1.0]]), np.array([1.0]), imp)
        assert np.allclose(k.ravel(), [1.0, 0.5, 0.25], atol=1e-15)

    def test_matches_scan_hand_case(self):
        y = ssm.kernel_convolve(np.array([[0.5]]), np.array([[1.0]]), np.array([1.0]),
                                np.array([[1.0], [1.0], [1.0]]))
        assert np.allclose(y.ravel(), [1.0, 1.5, 1.75], atol=1e-12)

    def test_rejects_time_varying_parameters(self, rng):
        with pytest.raises(ValueError):
            ssm.kernel_convolve(rng.uniform(0.1, 0.9, (5, 2, 2)),
                                np.ones((2, 2)), np.ones(2), rng.normal(0, 1, (5, 2)))


class TestSelectiveScan:
    def test_constant_selectivity_reduces_to_lti_kernel(self, rng):
        b_, l, d, n = 1, 12, 3, 4
        a = -rng.uniform(0.5, 3.0, (d, n))
        delta_val = rng.uniform(0.05, 0.3)
        b_val = rng.normal(0, 1, n)
        c_val = rng.normal(0, 1, n)
        u = rng.normal(0, 1, (b_, l, d))
        y = ssm.selective_scan_fused(
            Tensor(u), Tensor(np.full((b_, l, d), delta_val)), Tensor(a),
            Tensor(np.broadcast_to(b_val, (b_, l, n)).copy()),
            Tensor(np.broadcast_to(c_val, (b_, l, n)).copy()),
            Tensor(np.zeros(d)))
        a_bar, b_bar = ssm.discretize_zoh(a, b_val[None, :], np.full((d, n), delta_val))
        y_kernel = ssm.kernel_convolve(a_bar.data, b_bar.data, c_val, u[0])
        assert np.max(np.abs(y.data[0] - y_kernel)) < 1e-6

    def test_zero_input_gives_zero_output(self, rng):
        blk = MambaBlock(6, 4, rng, dtype=np.float64)
        u = Tensor(np.zeros((2, 5, blk.a_log.shape[0])))
        y = blk.selective_scan(u)
        assert np.array_equal(y.data, np.zeros((2, 5, blk.a_log.shape[0])))

    def test_gradient_wrt_decay_parameters(self, rng):
        blk = MambaBlock(4, 4, rng, dtype=np.float64)
        u = Tensor(rng.normal(0, 1, (2, 5, blk.a_log.shape[0])), requires_grad=True)
        f = lambda: ad.sum_(blk.selective_scan(u))
        assert gradcheck(f, [blk.a_log, u, blk.d_skip], max_components=32,
                         rng=np.random.default_rng(5)) < TOL

    def test_fused_equals_composite(self, rng):
        b_, l, d, n = 2, 6, 3, 4
        u = Tensor(rng.normal(0, 1, (b_, l, d)))
        delta = Tensor(rng.uniform(0.01, 0.3, (b_, l, d)))
        a = Tensor(-rng.uniform(0.3, 4.0, (d, n)))
        b = Tensor(rng.normal(0, 1, (b_, l, n)))
        c = Tensor(rng.normal(0, 1, (b_, l, n)))
        dsk = Tensor(rng.normal(0, 1, d))
        y1 = ssm.selective_scan_fused(u, delta, a, b, c, dsk)
        y2 = ssm.selective_scan_composite(u, delta, a, b, c, dsk)
        assert np.max(np.abs(y1.data - y2.data)) < 1e-12

    def test_composite_discretizes_with_discretize_zoh(self, rng, monkeypatch):
        """The closed-form checks of ``discretize_zoh`` reach the composite."""
        calls = []
        zoh = ssm.discretize_zoh

        def spy(*args):
            calls.append(args)
            return zoh(*args)

        monkeypatch.setattr(ssm, "discretize_zoh", spy)
        args = [Tensor(x) for x in scan_inputs(rng, 2, 5, 3, 4)]
        for n_calls in (1, 2):
            ssm.selective_scan_composite(*args)
            assert len(calls) == n_calls

    def test_rejects_non_positive_delta(self, rng):
        u = Tensor(np.zeros((1, 3, 2)))
        delta = Tensor(np.zeros((1, 3, 2)))
        with pytest.raises(ValueError):
            ssm.selective_scan_fused(u, delta, Tensor(-np.ones((2, 2))),
                                     Tensor(np.zeros((1, 3, 2))),
                                     Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros(2)))

    def test_rejects_zero_entry_of_a(self, rng):
        args = scan_inputs(rng, 1, 3, 2, 2)
        args[2][1, 0] = 0.0
        with pytest.raises(ValueError, match="non-zero"):
            ssm.selective_scan_fused(*(Tensor(x) for x in args))


def scan_inputs(rng, b_, l, d, n, dtype=np.float64):
    return [rng.normal(0, 1, (b_, l, d)).astype(dtype),
            rng.uniform(1e-3, 0.5, (b_, l, d)).astype(dtype),
            -rng.uniform(0.5, 4.0, (d, n)).astype(dtype),
            rng.normal(0, 1, (b_, l, n)).astype(dtype),
            rng.normal(0, 1, (b_, l, n)).astype(dtype),
            rng.normal(0, 1, d).astype(dtype)]


class TestChunkedScan:
    # 37 sequences of D*N = 1024 in one pass; the block's chunking is
    # checked by ``TestBlockNode.test_chunked_matches_one_chunk``
    B, L, D, N = 37, 6, 64, 16

    def test_matches_composite(self, rng):
        args = scan_inputs(rng, self.B, self.L, self.D, self.N)
        g = rng.normal(0, 1, (self.B, self.L, self.D))
        assert scan_vs_composite(args, g) < 1e-12

    @pytest.mark.parametrize("tracked", [False, True])
    def test_inference_keeps_no_state_trajectory(self, rng, tracked):
        b_, l, d, n = 256, 20, 64, 16
        ts = [Tensor(x, requires_grad=tracked) for x in scan_inputs(rng, b_, l, d, n, np.float32)]
        trajectory = b_ * (l + 1) * d * n * 4
        tracemalloc.start()
        try:
            if tracked:
                with ad.no_grad():
                    y = ssm.selective_scan_fused(*ts)
            else:
                y = ssm.selective_scan_fused(*ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not y.requires_grad
        assert peak < trajectory / 2

    def test_single_pass_without_the_pool(self, rng, monkeypatch):
        """Only the block splits sequences: the scan runs forward and
        backward without asking the pool for work."""
        class NoPool:
            def map(self, *args, **kwargs):
                raise AssertionError("selective_scan_fused used the pool")
            submit = map

        monkeypatch.setattr(pool_mod, "_POOL", NoPool())
        ts = [Tensor(x, requires_grad=True)
              for x in scan_inputs(rng, self.B, self.L, self.D, self.N, np.float32)]
        y = ssm.selective_scan_fused(*ts)
        ad.backward(ad.sum_(y))
        assert y.shape == (self.B, self.L, self.D) and y.dtype == np.float32
        assert all(t.grad is not None and t.grad.dtype == np.float32 for t in ts)


class TestStepCounts:
    """The fused scan against the composite at step counts from 1 to 11."""

    @pytest.mark.parametrize("length", [1, 4, 5, 6, 11])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_fused_matches_composite_for_each_step_count(self, rng, length, dtype, tol):
        args = scan_inputs(rng, 7, length, 32, 8, dtype)
        g = rng.normal(0, 1, (7, length, 32)).astype(dtype)
        assert scan_vs_composite(args, g) < tol


class TestTinyDelta:
    """delta in [1e-8, 1e-6] puts every z = delta * a below both series
    switches, where a closed form of phi or phi' without its series
    cancels."""
    B, L, D, N = 6, 12, 32, 16

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_fused_matches_composite(self, seed, dtype, tol):
        rng = np.random.default_rng(seed)
        args = scan_inputs(rng, self.B, self.L, self.D, self.N, dtype)
        args[1] = rng.uniform(1e-8, 1e-6, args[1].shape).astype(dtype)
        args[1][2, 3, 5] = 1e-8
        g = rng.normal(0, 1, (self.B, self.L, self.D)).astype(dtype)
        assert scan_vs_composite(args, g) < tol

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_series_and_closed_form_steps_in_one_call(self, seed, dtype, tol):
        """delta tiny in a few steps of some sequences and in [1e-3, 0.5]
        elsewhere: some steps take a's series, the others only its closed
        form."""
        rng = np.random.default_rng(seed)
        args = scan_inputs(rng, self.B, self.L, self.D, self.N, dtype)
        args[1][1:4, 3:6] = rng.uniform(1e-8, 1e-6, (3, 3, self.D))
        args[1][5, 9] = rng.uniform(1e-8, 1e-6, self.D)
        smallest_z = (args[1] * np.abs(args[2]).min(axis=1)).min(axis=(0, 2))
        series = smallest_z < ssm._GA_SERIES_SWITCH
        assert series.any() and not series.all()
        g = rng.normal(0, 1, (self.B, self.L, self.D)).astype(dtype)
        assert scan_vs_composite(args, g) < tol


class TestFusedScanWithoutPhi:
    """The fused scan forms delta * phi(delta * a) as expm1(delta * a)/a, and
    a's gradient without phi': phi, phi' and their series serve the oracles
    only."""

    @staticmethod
    def train_step_and_predict(rng):
        model = SitsClassifier(ModelConfig(2, 3, hidden=8, d_state=4), rng)
        series = rng.uniform(0, 1, (2, 4, 2, 3, 3)).astype(np.float32)
        batch = pad_batch([SitsSample(s, rng.integers(0, 3, (3, 3)), n)
                           for s, n in zip(series, (4, 3))])
        trainer.train_step(model, batch, LossConfig())
        assert all(t.grad is not None for _, t in model.temporal.named_parameters())
        assert model.predict(batch).shape == (2, 3, 3)

    def test_train_step_and_predict_never_call_phi_prime(self, rng, monkeypatch):
        def phi_prime(z):
            raise AssertionError("the production path called ssm._phi_prime")

        monkeypatch.setattr(ssm, "_phi_prime", phi_prime)
        self.train_step_and_predict(rng)

    @pytest.mark.parametrize("name", ["scan_recurrence", "zoh_phi", "selective_scan_composite",
                                      "discretize_zoh", "kernel_convolve"])
    def test_train_step_and_predict_never_call_an_oracle(self, rng, monkeypatch, name):
        def oracle(*args, **kwargs):
            raise AssertionError(f"the production path called ssm.{name}")

        monkeypatch.setattr(ssm, name, oracle)
        self.train_step_and_predict(rng)


def block_pass(blk, x, g, lengths=None):
    """Output, input gradient and parameter gradients of one block pass."""
    xt = Tensor(x, requires_grad=True)
    params = [t for _, t in blk.named_parameters()]
    for t in params:
        t.zero_grad()
    y = blk(xt, lengths)
    ad.backward(ad.sum_(ad.mul(y, Tensor(g))))
    return [y.data, xt.grad] + [t.grad for t in params]


class TestBlockNode:
    # d_inner 16, d_state 4: one sequence's (D, N) array is 256 bytes in
    # float32, so a 3-sequence budget cuts 200 sequences into 67 chunks
    CFG, B, L = (8, 4), 200, 6

    def test_float32_bitwise_equal_for_any_worker_count(self, rng, monkeypatch):
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", 3 * 16 * 4 * 4)
        assert len(pool_mod._chunk_bounds(self.B, 16 * 4 * 4, ssm._SCAN_VECTOR_BUDGET)) == 67
        blk = MambaBlock(*self.CFG, rng)
        x = rng.normal(0, 1, (self.B, self.L, 8)).astype(np.float32)
        g = rng.normal(0, 1, (self.B, self.L, 8)).astype(np.float32)
        result = bitwise_for_any_worker_count(monkeypatch, lambda: block_pass(blk, x, g))
        assert len(result) == 2 + 10               # output, input and the 10 parameters

    def test_ragged_lengths_bitwise_for_any_worker_count(self, rng, monkeypatch):
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", 3 * 16 * 4 * 4)
        blk = MambaBlock(*self.CFG, rng)
        x = rng.normal(0, 1, (self.B, self.L, 8)).astype(np.float32)
        g = rng.normal(0, 1, (self.B, self.L, 8)).astype(np.float32)
        lengths = rng.integers(1, self.L + 1, self.B)
        lengths[:3] = 2                            # a whole chunk stops at step 2
        full = block_pass(blk, x, g)[0]
        y, gx = bitwise_for_any_worker_count(
            monkeypatch, lambda: block_pass(blk, x, g, lengths))[:2]
        padded = np.arange(self.L) >= lengths[:, None]
        assert not y[padded].any() and not gx[padded].any()
        # causal: the valid steps are the full-length pass's
        assert np.allclose(y[~padded], full[~padded], rtol=1e-5, atol=1e-6)

    def test_chunks_stopping_at_different_steps_bitwise_for_any_worker_count(self, rng,
                                                                            monkeypatch):
        """L = 12 steps and chunks that stop at different steps: one chunk
        at step 4, one at step 12, the others at their longest length."""
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", 3 * 16 * 4 * 4)
        length = 12
        blk = MambaBlock(*self.CFG, rng)
        x = rng.normal(0, 1, (self.B, length, 8)).astype(np.float32)
        g = rng.normal(0, 1, (self.B, length, 8)).astype(np.float32)
        lengths = rng.integers(1, length + 1, self.B)
        lengths[:3] = 4                            # a whole chunk stops at step 4
        lengths[3:6] = length
        full = block_pass(blk, x, g)[0]
        y, gx = bitwise_for_any_worker_count(
            monkeypatch, lambda: block_pass(blk, x, g, lengths))[:2]
        padded = np.arange(length) >= lengths[:, None]
        assert (lengths < 5).sum() > 3
        assert not y[padded].any() and not gx[padded].any()
        assert np.allclose(y[~padded], full[~padded], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("lengths", [[0, 3], [4, 7], [3]])
    def test_lengths_outside_the_sequence_rejected(self, rng, lengths):
        blk = MambaBlock(*self.CFG, rng)
        with pytest.raises(ad.ShapeError):
            blk(Tensor(rng.normal(0, 1, (2, self.L, 8)).astype(np.float32)), np.array(lengths))

    def test_chunked_matches_one_chunk(self, rng, monkeypatch):
        blk = MambaBlock(*self.CFG, rng, dtype=np.float64)
        x = rng.normal(0, 1, (13, self.L, 8))
        g = rng.normal(0, 1, (13, self.L, 8))
        runs = []
        for budget in (0, 2**62):
            monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", budget)
            runs.append(block_pass(blk, x, g))
        for got, ref in zip(*runs):
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)

    def test_node_keeps_neither_its_input_nor_the_chunk_outputs(self, rng, monkeypatch):
        """Three chunks on one worker: two waves, so the chunks replay."""
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", 3 * 16 * 4 * 8)   # 3 float64 sequences
        monkeypatch.setattr(pool_mod, "worker_count", lambda: 1)
        outputs = []
        forward = MambaBlock._forward

        def spy(blk, x):
            out = forward(blk, x)
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(MambaBlock, "_forward", spy)
        blk = MambaBlock(*self.CFG, rng, dtype=np.float64)
        params = [t for _, t in blk.named_parameters()]
        x0 = rng.normal(0, 1, (9, self.L, 8))
        g = rng.normal(0, 1, (9, self.L, 8))
        # every chunk stops short of L, so each chunk's input leaf is a copy,
        # not a view of x
        lengths = np.full(9, self.L - 1)
        leaf = Tensor(x0, requires_grad=True)
        x = ad.mul(leaf, 1.0)
        ref = weakref.ref(x.data)
        y = blk(x, lengths)
        del x
        assert ref() is None
        assert len(outputs) == 3 and all(r() is None for r in outputs)
        ad.backward(ad.sum_(ad.mul(y, Tensor(g))))
        got = [leaf.grad] + [t.grad for t in params]
        want = block_pass(blk, x0, g, lengths)[1:]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_recorded_block_keeps_less_than_its_input(self, rng, monkeypatch):
        """Four chunks on one worker: between forward and backward the
        block keeps each chunk's input (here views of x) and no activation
        of its own."""
        monkeypatch.setattr(pool_mod, "worker_count", lambda: 1)
        blk = MambaBlock(32, 16, rng)
        x = Tensor(rng.normal(0, 1, (256, 20, 32)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            y = blk(x)
            kept = tracemalloc.get_traced_memory()[0] - y.data.nbytes
        finally:
            tracemalloc.stop()
        assert y.requires_grad
        assert kept < x.data.nbytes
        ad.backward(ad.sum_(y))
        assert x.grad is not None and all(t.grad is not None for _, t in blk.named_parameters())

    @pytest.mark.parametrize("recording", [True, False])
    def test_chunks_follow_the_callers_grad_mode(self, rng, monkeypatch, recording):
        """Four chunks on one worker: forward chunks never record; backward
        replays every chunk with the tape on."""
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", 0)
        monkeypatch.setattr(pool_mod, "worker_count", lambda: 1)
        seen = []
        scan = ssm.selective_scan_fused

        def spy(u, *args):
            seen.append((ad.grad_enabled(), u.requires_grad))
            return scan(u, *args)

        monkeypatch.setattr(ssm, "selective_scan_fused", spy)
        blk = MambaBlock(*self.CFG, rng)
        x = Tensor(rng.normal(0, 1, (4, self.L, 8)).astype(np.float32), requires_grad=True)
        if recording:
            y = blk(x)
        else:
            with ad.no_grad():
                y = blk(x)
        assert y.requires_grad == recording
        assert seen == [(False, False)] * 4
        if recording:
            ad.backward(ad.sum_(y))
            assert seen[4:] == [(True, True)] * 4

    @pytest.mark.parametrize("workers, replays", [(4, 0), (3, 4)], ids=["one_wave", "two_waves"])
    def test_one_wave_records_its_chunks_in_forward(self, rng, monkeypatch, workers, replays):
        """Four chunks on as many workers record in forward, and backward
        scans none of them again; on one worker fewer they replay."""
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", 0)
        monkeypatch.setattr(pool_mod, "worker_count", lambda: workers)
        seen = []
        scan = ssm.selective_scan_fused

        def spy(u, *args):
            seen.append((ad.grad_enabled(), u.requires_grad))
            return scan(u, *args)

        monkeypatch.setattr(ssm, "selective_scan_fused", spy)
        blk = MambaBlock(*self.CFG, rng)
        y = blk(Tensor(rng.normal(0, 1, (4, self.L, 8)).astype(np.float32), requires_grad=True))
        assert seen == [(not replays, not replays)] * 4
        ad.backward(ad.sum_(y))
        assert seen[4:] == [(True, True)] * replays

    @pytest.mark.parametrize("lengths", [None, [6, 2, 5, 1, 3, 3, 4, 6, 2]], ids=["full", "ragged"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_wave_matches_the_replay_bitwise(self, rng, monkeypatch, dtype, lengths):
        """Three chunks on one worker replay, on three they keep their
        forward's tape: one scan per chunk instead of two, same bits."""
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", 3 * 16 * 4 * np.dtype(dtype).itemsize)
        scans = []
        scan = ssm.selective_scan_fused

        def spy(*args):
            scans.append(args[0].shape)
            return scan(*args)

        monkeypatch.setattr(ssm, "selective_scan_fused", spy)
        blk = MambaBlock(*self.CFG, rng, dtype=dtype)
        x = rng.normal(0, 1, (9, self.L, 8)).astype(dtype)
        g = rng.normal(0, 1, (9, self.L, 8)).astype(dtype)
        runs, counts = [], []
        for workers in (1, 3):
            monkeypatch.setattr(pool_mod, "worker_count", lambda w=workers: w)
            runs.append(block_pass(blk, x, g, lengths))
            counts.append(len(scans))
            scans.clear()
        assert counts == [6, 3]
        for got, ref in zip(*runs):
            assert got.dtype == dtype and np.array_equal(got, ref)

    def test_one_wave_keeps_the_chunk_tapes_until_backward(self, rng, monkeypatch):
        """Four chunks on four workers: each chunk's twin (and the tape
        through it) lives from forward to backward; its output values are
        copied into the block's output and not kept."""
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", 0)
        monkeypatch.setattr(pool_mod, "worker_count", lambda: 4)
        twins, outputs = [], []
        forward = MambaBlock._forward

        def spy(blk, x):
            out = forward(blk, x)
            twins.append(weakref.ref(blk))
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(MambaBlock, "_forward", spy)
        blk = MambaBlock(*self.CFG, rng)
        y = blk(Tensor(rng.normal(0, 1, (4, self.L, 8)).astype(np.float32), requires_grad=True))
        assert len(twins) == 4 and all(r() is not None for r in twins)
        assert all(r() is None for r in outputs)
        ad.backward(ad.sum_(y))
        assert len(twins) == 4 and all(r() is None for r in twins)

    @pytest.mark.parametrize("budget, workers", [(0, 1), (0, 6), (2**62, 1)],
                             ids=["six_chunks", "six_chunks_one_wave", "one_chunk"])
    def test_backward_under_no_grad_matches_backward_outside_it(self, rng, monkeypatch,
                                                                budget, workers):
        """A backward called under ``no_grad`` gives the same bits: six
        chunks on one worker replay with the tape on whatever the grad mode;
        six on six workers, or one inline, run the tapes kept from forward."""
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", budget)
        monkeypatch.setattr(pool_mod, "worker_count", lambda: workers)
        blk = MambaBlock(*self.CFG, rng)
        x = rng.normal(0, 1, (6, self.L, 8)).astype(np.float32)
        g = rng.normal(0, 1, (6, self.L, 8)).astype(np.float32)
        want = block_pass(blk, x, g)
        xt = Tensor(x, requires_grad=True)
        params = [t for _, t in blk.named_parameters()]
        for t in params:
            t.zero_grad()
        y = blk(xt)
        loss = ad.sum_(ad.mul(y, Tensor(g)))
        with ad.no_grad():
            ad.backward(loss)
        for got, ref in zip([y.data, xt.grad] + [t.grad for t in params], want):
            assert np.array_equal(got, ref)

    def test_one_public_backward_per_train_step(self, rng, monkeypatch):
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", 0)
        model = SitsClassifier(ModelConfig(2, 3, hidden=8, d_state=4), rng)
        series = rng.uniform(0, 1, (2, 4, 2, 3, 3)).astype(np.float32)
        batch = pad_batch([SitsSample(s, rng.integers(0, 3, (3, 3)), 4) for s in series])
        calls = []
        backward = ad.backward
        monkeypatch.setattr(ad, "backward", lambda loss: (calls.append(loss), backward(loss)))
        trainer.train_step(model, batch, LossConfig())
        assert len(calls) == 1
        assert all(t.grad is not None for _, t in model.temporal.named_parameters())


class TestPhiPrime:
    """``ssm._phi_prime`` against (e^z (z - 1) + 1)/z^2 evaluated with 60
    significant digits, where its cancellation costs no float64 digit."""
    Z = -np.logspace(-8, np.log10(20.0), 4001)

    @staticmethod
    def exact(z):
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            d = [decimal.Decimal(float(v)) for v in z]
            return np.array([float((v.exp() * (v - 1) + 1) / (v * v)) for v in d])

    def test_relative_error_over_the_scan_range(self):
        got = ssm._phi_prime(self.Z)
        assert got.dtype == np.float64
        ref = self.exact(self.Z)
        assert np.max(np.abs(got - ref) / ref) <= 1e-14

    def test_scalar_zero_and_positive_arguments(self):
        assert float(ssm._phi_prime(0.0)) == 0.5
        z = np.array([1e-7, 0.05, 0.5, 3.0])
        assert np.max(np.abs(ssm._phi_prime(z) / self.exact(z) - 1)) <= 1e-14


class TestMambaBlock:
    @pytest.mark.parametrize("length", [1, 2, 9])
    def test_output_shape_equals_input_shape(self, rng, length):
        blk = MambaBlock(6, 4, rng)
        x = Tensor(rng.normal(0, 1, (3, length, 6)).astype(np.float32))
        assert blk(x).shape == (3, length, 6)

    def test_wrong_channel_count_rejected(self, rng):
        blk = MambaBlock(6, 4, rng)
        with pytest.raises(ad.ShapeError):
            blk(Tensor(rng.normal(0, 1, (2, 4, 5)).astype(np.float32)))

    def test_forced_zero_gate_leaves_output_bias(self, rng):
        blk = MambaBlock(6, 4, rng, dtype=np.float64)
        d_in = blk.a_log.shape[0]
        blk.in_proj.weight.data[:, d_in:] = 0.0   # gate branch projects to zero
        x = Tensor(rng.normal(0, 1, (2, 4, 6)))
        out = blk(x)
        assert np.allclose(out.data, np.broadcast_to(blk.out_proj.bias.data, out.shape),
                           atol=1e-15)

    def test_causality_exact(self, rng):
        blk = MambaBlock(5, 4, rng, dtype=np.float64)
        x = rng.normal(0, 1, (1, 8, 5))
        with ad.no_grad():
            y_base = blk(Tensor(x)).data.copy()
        for k in [2, 5, 7]:
            xp = x.copy()
            xp[0, k] += rng.normal(0, 1, 5)
            with ad.no_grad():
                y_pert = blk(Tensor(xp)).data
            assert np.array_equal(y_base[:, :k], y_pert[:, :k])
            assert not np.array_equal(y_base[:, k:], y_pert[:, k:])

    def test_full_block_gradcheck_tiny_config(self, rng):
        blk = MambaBlock(4, 4, rng, dtype=np.float64)
        x = Tensor(rng.normal(0, 1, (1, 5, 4)), requires_grad=True)
        params = [x] + [t for _, t in blk.named_parameters("blk")]
        f = lambda: ad.sum_(ad.mul(blk(x), blk(x)))
        assert gradcheck(f, params, max_components=16, rng=np.random.default_rng(3)) < TOL


class TestStability:
    def test_a_bar_in_unit_interval_and_bounded_state(self, rng):
        d, n, l = 3, 4, 200
        a = -rng.uniform(0.2, 5.0, (d, n))
        delta = rng.uniform(0.01, 1.0, (d, n))
        b = rng.normal(0, 1, (d, n))
        a_bar, b_bar = (t.data for t in ssm.discretize_zoh(a, b, delta))
        assert np.all(a_bar > 0) and np.all(a_bar < 1)
        x = rng.uniform(-1, 1, (l, d))
        h = np.zeros((d, n))
        bound = np.max(np.abs(b_bar[None] * x[:, :, None])) / (1.0 - a_bar.max())
        for t in range(l):
            h = a_bar * h + b_bar * x[t][:, None]
            assert np.all(np.abs(h) <= bound + 1e-12)
