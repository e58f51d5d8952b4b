"""Discretization closed forms, scan/kernel equivalence, selectivity, the
single-pass fused scan, and the chunked gated block contracts."""

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
from sits_ssm.ssm import DiscreteStep, MambaBlock
from sits_ssm.verify import gradcheck, phi_prime_reference, scan_vs_composite

from conftest import bitwise_for_any_worker_count

TOL = 1e-4


def lti_steps(a_bar, b_bar, c, x):
    """Broadcast constant parameters into per-step form for scan_recurrence."""
    l, d = x.shape
    n = a_bar.shape[1]
    return DiscreteStep(
        Tensor(np.broadcast_to(a_bar, (l, d, n)).copy()),
        Tensor(np.broadcast_to(b_bar, (l, d, n)) * x[:, :, None]),
        Tensor(np.broadcast_to(c, (l, n)).copy()),
    )


class TestDiscretizeZoh:
    def test_closed_form_negative_a(self):
        a_bar, b_bar = ssm.discretize_zoh(-1.0, 2.0, 1.0)
        assert float(a_bar) == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert float(b_bar) == pytest.approx((1.0 - np.exp(-1.0)) * 2.0, abs=1e-12)

    def test_closed_form_positive_a_diagnostic(self):
        a_bar, b_bar = ssm.discretize_zoh(1.0, 1.0, np.log(2.0))
        assert float(a_bar) == pytest.approx(2.0, abs=1e-12)
        assert float(b_bar) == pytest.approx(1.0, abs=1e-12)

    def test_zero_step_limit(self):
        a_bar, b_bar = ssm.discretize_zoh(-1.0, 1.0, 1e-9)
        assert float(a_bar) == pytest.approx(1.0, abs=1e-8)
        assert float(b_bar) == pytest.approx(1e-9, rel=1e-6)

    def test_series_fallback_matches_exact_formula(self):
        # |delta*a| = 1e-5 sits just above the series switch; exact route
        a, delta, b = -1.0, 1e-5, 1.0
        _, b_bar = ssm.discretize_zoh(a, b, delta)
        exact = (np.expm1(delta * a) / (delta * a)) * delta * b
        assert abs(float(b_bar) - exact) / abs(exact) < 1e-9
        # and the series branch itself agrees with the exact value there
        series = (1.0 + 0.5 * delta * a) * delta * b
        assert abs(series - exact) / abs(exact) < 1e-9

    def test_rejects_non_positive_delta(self):
        with pytest.raises(ValueError):
            ssm.discretize_zoh(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ssm.discretize_zoh(-1.0, 1.0, np.array([0.1, -0.2]))

    def test_elementwise_on_arrays(self, rng):
        a = -rng.uniform(0.5, 3.0, (4, 3))
        b = rng.normal(0, 1, (4, 3))
        delta = rng.uniform(0.01, 0.5, (4, 3))
        a_bar, b_bar = ssm.discretize_zoh(a, b, delta)
        assert np.allclose(a_bar, np.exp(delta * a))
        assert np.allclose(b_bar, np.expm1(delta * a) / (delta * a) * delta * b)


class TestScanRecurrence:
    def test_hand_case(self):
        x = np.array([[1.0], [1.0], [1.0]])
        y = ssm.scan_recurrence(lti_steps(np.array([[0.5]]), np.array([[1.0]]),
                                          np.array([1.0]), x))
        assert np.allclose(y.data.ravel(), [1.0, 1.5, 1.75], atol=1e-12)

    def test_zero_injection_gives_zero_output(self, rng):
        l, d, n = 5, 2, 3
        steps = DiscreteStep(Tensor(rng.uniform(0.1, 0.9, (l, d, n))),
                             Tensor(np.zeros((l, d, n))),
                             Tensor(rng.normal(0, 1, (l, n))))
        assert np.array_equal(ssm.scan_recurrence(steps).data, np.zeros((l, d)))

    def test_length_mismatch_rejected(self, rng):
        steps = DiscreteStep(Tensor(rng.uniform(0.1, 0.9, (4, 2, 2))),
                             Tensor(rng.normal(0, 1, (5, 2, 2))),
                             Tensor(rng.normal(0, 1, (4, 2))))
        with pytest.raises(ad.ShapeError):
            ssm.scan_recurrence(steps)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_kernel_on_random_lti(self, seed):
        rng = np.random.default_rng(seed)
        l = int(rng.integers(4, 33))
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a_bar = rng.uniform(0.05, 0.95, (d, n))
        b_bar = rng.normal(0, 1, (d, n))
        c = rng.normal(0, 1, n)
        x = rng.normal(0, 1, (l, d))
        y_scan = ssm.scan_recurrence(lti_steps(a_bar, b_bar, c, x)).data
        y_kernel = ssm.kernel_convolve(a_bar, b_bar, c, x)
        assert np.max(np.abs(y_scan - y_kernel)) < 1e-6

    def test_gradients(self, rng):
        l, d, n = 4, 2, 3
        steps = DiscreteStep(Tensor(rng.uniform(0.1, 0.9, (l, d, n)), requires_grad=True),
                             Tensor(rng.normal(0, 1, (l, d, n)), requires_grad=True),
                             Tensor(rng.normal(0, 1, (l, n)), requires_grad=True))
        x = Tensor(rng.normal(0, 1, (l, d)), requires_grad=True)
        d_skip = Tensor(rng.normal(0, 1, d), requires_grad=True)
        f = lambda: ad.sum_(ssm.scan_recurrence(steps, x=x, d_skip=d_skip))
        assert gradcheck(f, [steps.a_bar, steps.b_bar_x, steps.c, x, d_skip]) < TOL


class TestKernelConvolve:
    def test_kernel_values(self):
        # impulse response is the kernel itself
        imp = np.zeros(3)
        imp[0] = 1.0
        k = ssm.kernel_convolve(0.5, 1.0, 1.0, imp)
        assert np.allclose(k, [1.0, 0.5, 0.25], atol=1e-15)

    def test_matches_scan_hand_case(self):
        y = ssm.kernel_convolve(0.5, 1.0, 1.0, np.array([1.0, 1.0, 1.0]))
        assert np.allclose(y, [1.0, 1.5, 1.75], atol=1e-12)

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
        y_kernel = ssm.kernel_convolve(a_bar, b_bar, c_val, u[0])
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
    # 37 sequences of D*N = 1024; the scan is one pass, so no budget may
    # change its result
    B, L, D, N = 37, 6, 64, 16

    @pytest.mark.parametrize("budget", [0, 3 * 64 * 16 * 8, ssm._SCAN_VECTOR_BUDGET, 2**62])
    def test_matches_composite_at_every_chunking(self, rng, monkeypatch, budget):
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", budget)
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
        """Only the block splits sequences: even at a one-sequence budget the
        scan runs forward and backward without asking the pool for work."""
        class NoPool:
            def map(self, *args, **kwargs):
                raise AssertionError("selective_scan_fused used the pool")
            submit = map

        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", 0)
        monkeypatch.setattr(pool_mod, "_POOL", NoPool())
        ts = [Tensor(x, requires_grad=True)
              for x in scan_inputs(rng, self.B, self.L, self.D, self.N, np.float32)]
        y = ssm.selective_scan_fused(*ts)
        ad.backward(ad.sum_(y))
        assert y.shape == (self.B, self.L, self.D) and y.dtype == np.float32
        assert all(t.grad is not None and t.grad.dtype == np.float32 for t in ts)


class TestScanSegments:
    """The fused scan against the composite from 1 to 11 steps."""

    @pytest.mark.parametrize("length", [1, 4, 5, 6, 11])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_fused_matches_composite_at_segment_boundaries(self, rng, length, dtype, tol):
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


class TestFusedScanWithoutPhi:
    """The fused scan forms delta * phi(delta * a) as expm1(delta * a)/a:
    phi and its series serve the oracles only."""

    def test_train_step_and_predict_never_call_phi(self, rng, monkeypatch):
        def phi(z):
            raise AssertionError("the production path called ssm._phi")

        monkeypatch.setattr(ssm, "_phi", phi)
        model = SitsClassifier(ModelConfig(2, 3, hidden=8, d_state=4), rng)
        series = rng.uniform(0, 1, (2, 4, 2, 3, 3)).astype(np.float32)
        batch = pad_batch([SitsSample(s, rng.integers(0, 3, (3, 3)), n)
                           for s, n in zip(series, (4, 3))])
        trainer.train_step(model, batch, LossConfig())
        assert all(t.grad is not None for _, t in model.temporal.named_params())
        assert model.predict(batch).shape == (2, 3, 3)


def block_pass(blk, x, g, lengths=None):
    """Output, input gradient and parameter gradients of one block pass."""
    xt = Tensor(x, requires_grad=True)
    params = [t for _, t in blk.named_params()]
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

    def test_ragged_lengths_across_segments_bitwise_for_any_worker_count(self, rng, monkeypatch):
        """L = 12 steps: full-length chunks run all of them, others stop
        below step 5."""
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
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", 3 * 16 * 4 * 8)   # 3 float64 sequences
        outputs = []
        forward = MambaBlock._forward

        def spy(blk, x):
            out = forward(blk, x)
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(MambaBlock, "_forward", spy)
        blk = MambaBlock(*self.CFG, rng, dtype=np.float64)
        params = [t for _, t in blk.named_params()]
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

    def test_recorded_block_keeps_less_than_its_input(self, rng):
        """Between forward and backward the block keeps each chunk's input
        (here views of x) and no activation of its own."""
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
        assert x.grad is not None and all(t.grad is not None for _, t in blk.named_params())

    @pytest.mark.parametrize("recording", [True, False])
    def test_chunks_follow_the_callers_grad_mode(self, rng, monkeypatch, recording):
        """Forward chunks never record; backward replays every chunk with
        the tape on."""
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", 0)
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

    @pytest.mark.parametrize("budget", [0, 2**62], ids=["six_chunks", "one_chunk"])
    def test_backward_under_no_grad_matches_backward_outside_it(self, rng, monkeypatch, budget):
        """Six chunks on the pool, or one inline: backward records the
        replays whatever grad mode it is called under."""
        monkeypatch.setattr(ssm, "_SCAN_VECTOR_BUDGET", budget)
        blk = MambaBlock(*self.CFG, rng)
        x = rng.normal(0, 1, (6, self.L, 8)).astype(np.float32)
        g = rng.normal(0, 1, (6, self.L, 8)).astype(np.float32)
        want = block_pass(blk, x, g)
        xt = Tensor(x, requires_grad=True)
        params = [t for _, t in blk.named_params()]
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
        assert all(t.grad is not None for _, t in model.temporal.named_params())


class TestPhiPrime:
    Z = -np.logspace(-8, np.log10(20.0), 4001)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
    def test_relative_error_over_the_scan_range(self, dtype, tol):
        z = self.Z.astype(dtype)
        got = ssm._phi_prime(z)
        assert got.dtype == dtype
        ref = phi_prime_reference(z.astype(np.float64))
        assert np.max(np.abs(got.astype(np.float64) - ref) / ref) <= tol

    def test_scalar_zero_and_positive_arguments(self):
        assert float(ssm._phi_prime(0.0)) == 0.5
        z = np.array([1e-7, 0.05, 0.5, 3.0])
        assert np.allclose(ssm._phi_prime(z), phi_prime_reference(z), rtol=1e-12)


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
        params = [x] + [t for _, t in blk.named_params("blk")]
        f = lambda: ad.sum_(ad.mul(blk(x), blk(x)))
        assert gradcheck(f, params, max_components=16, rng=np.random.default_rng(3)) < TOL


class TestStability:
    def test_a_bar_in_unit_interval_and_bounded_state(self, rng):
        d, n, l = 3, 4, 200
        a = -rng.uniform(0.2, 5.0, (d, n))
        delta = rng.uniform(0.01, 1.0, (d, n))
        b = rng.normal(0, 1, (d, n))
        a_bar, b_bar = ssm.discretize_zoh(a, b, delta)
        assert np.all(a_bar > 0) and np.all(a_bar < 1)
        x = rng.uniform(-1, 1, (l, d))
        h = np.zeros((d, n))
        bound = np.max(np.abs(b_bar[None] * x[:, :, None])) / (1.0 - a_bar.max())
        for t in range(l):
            h = a_bar * h + b_bar * x[t][:, None]
            assert np.all(np.abs(h) <= bound + 1e-12)
