"""Objective-function algebra: positional weights, branch losses, and the
w0/w1 balancing identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sits_ssm import autodiff as ad
from sits_ssm.autodiff import Tensor
from sits_ssm.losses import (LossConfig, classification_loss, combined_loss,
                             positional_weights, reconstruction_loss)
from sits_ssm.verify import gradcheck


class TestPositionalWeights:
    def test_length_four(self):
        assert np.array_equal(positional_weights(4), [0.25, 0.5, 0.75, 1.0])

    def test_length_one(self):
        assert np.array_equal(positional_weights(1), [1.0])

    @given(st.integers(min_value=1, max_value=200))
    @settings(deadline=None)
    def test_sum_is_arithmetic_series(self, length):
        assert positional_weights(length).sum() == pytest.approx((length + 1) / 2, rel=1e-12)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            positional_weights(0)


class TestReconstructionLoss:
    def test_perfect_reconstruction_is_zero(self, rng):
        x = rng.uniform(0, 1, (2, 3, 2, 4, 4))
        assert reconstruction_loss(x, Tensor(x.copy())).item() == 0.0

    def test_hand_case_pw_on(self):
        # one pixel, one channel, L=2, squared errors [1, 1]
        target = np.zeros((1, 2, 1, 1, 1))
        rec = Tensor(np.ones((1, 2, 1, 1, 1)))
        assert reconstruction_loss(target, rec, use_pw=True).item() == pytest.approx(1.5)

    def test_hand_case_pw_off(self):
        target = np.zeros((1, 2, 1, 1, 1))
        rec = Tensor(np.ones((1, 2, 1, 1, 1)))
        assert reconstruction_loss(target, rec, use_pw=False).item() == pytest.approx(2.0)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ad.ShapeError):
            reconstruction_loss(np.zeros((1, 2, 1, 2, 2)), Tensor(np.zeros((1, 3, 1, 2, 2))))

    def test_all_masked_sample_rejected(self):
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(ValueError):
            reconstruction_loss(np.zeros((2, 2, 1, 1, 1)), Tensor(np.zeros((2, 2, 1, 1, 1))),
                                valid_mask=mask)

    def test_masked_timesteps_contribute_nothing(self, rng):
        target = rng.uniform(0, 1, (1, 4, 2, 3, 3))
        rec = target.copy()
        rec[:, 2:] += 100.0   # huge error only on padded steps
        mask = np.array([[True, True, False, False]])
        loss = reconstruction_loss(target, Tensor(rec), valid_mask=mask)
        assert loss.item() == 0.0

    def test_weights_follow_per_sample_valid_length(self):
        # one valid step -> weight 1/1, not 1/L of the padded length
        target = np.zeros((1, 3, 1, 1, 1))
        rec = np.zeros((1, 3, 1, 1, 1))
        rec[0, 0] = 1.0
        mask = np.array([[True, False, False]])
        loss = reconstruction_loss(target, Tensor(rec), valid_mask=mask, use_pw=True)
        assert loss.item() == pytest.approx(1.0)

    @pytest.mark.parametrize("use_pw", [True, False])
    def test_matches_the_per_sample_weight_loop(self, rng, use_pw):
        n, l = 5, 7
        target = rng.uniform(0, 1, (n, l, 2, 3, 3))
        rec = rng.uniform(0, 1, (n, l, 2, 3, 3))
        mask = rng.random((n, l)) < 0.6
        mask[:, 3] = True                     # every row keeps a step; rows may have holes
        weights = np.zeros((n, l))
        for i in range(n):
            idx = np.flatnonzero(mask[i])
            weights[i, idx] = positional_weights(len(idx)) if use_pw else 1.0
        expected = (((rec - target) ** 2).mean(axis=(2, 3, 4)) * weights).sum(axis=1).mean()
        loss = reconstruction_loss(target, Tensor(rec), valid_mask=mask, use_pw=use_pw)
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_pixel_permutation_invariance(self, rng):
        target = rng.uniform(0, 1, (2, 3, 2, 4, 4))
        rec = rng.uniform(0, 1, (2, 3, 2, 4, 4))
        base = reconstruction_loss(target, Tensor(rec)).item()
        perm = rng.permutation(16)
        t2 = target.reshape(2, 3, 2, 16)[..., perm].reshape(target.shape)
        r2 = rec.reshape(2, 3, 2, 16)[..., perm].reshape(rec.shape)
        assert reconstruction_loss(t2, Tensor(r2)).item() == pytest.approx(base, rel=1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=2, max_size=8))
    @settings(deadline=None, max_examples=40)
    def test_pw_rewards_early_errors_less(self, errs):
        """Equal total squared error concentrated later costs more."""
        l = len(errs)
        asc = np.sort(errs)          # large errors late
        desc = asc[::-1].copy()      # large errors early

        def loss_of(seq):
            rec = np.sqrt(seq).reshape(1, l, 1, 1, 1)
            return reconstruction_loss(np.zeros((1, l, 1, 1, 1)), Tensor(rec),
                                       use_pw=True).item()
        assert loss_of(asc) >= loss_of(desc) - 1e-12

    def test_gradcheck(self, rng):
        target = rng.uniform(0, 1, (2, 3, 2, 2, 2))
        rec = Tensor(rng.uniform(0, 1, (2, 3, 2, 2, 2)), requires_grad=True)
        mask = np.ones((2, 3), dtype=bool)
        mask[1, 2] = False
        f = lambda: reconstruction_loss(target, rec, valid_mask=mask, use_pw=True)
        assert gradcheck(f, [rec]) < 1e-4


class TestClassificationLoss:
    def test_uniform_logits_two_classes(self):
        logits = Tensor(np.zeros((1, 2, 2, 2)))
        labels = np.zeros((1, 2, 2), dtype=int)
        assert classification_loss(logits, labels).item() == pytest.approx(np.log(2.0))

    def test_perfect_prediction_loss_vanishes(self):
        logits = np.zeros((1, 3, 2, 2))
        logits[0, 1] = 50.0
        labels = np.ones((1, 2, 2), dtype=int)
        assert classification_loss(Tensor(logits), labels).item() < 1e-12

    def test_single_scored_pixel_reduction(self):
        # every pixel ignored except one whose true-class probability is p
        k = 4
        logits = np.zeros((1, k, 1, 2))
        logits[0, 0, 0, 1] = 1.3
        labels = np.array([[[3, 0]]])   # pixel 0 has ignored label 3
        p = np.exp(1.3) / (np.exp(1.3) + (k - 1))
        loss = classification_loss(Tensor(logits), labels, ignore_labels={3})
        assert loss.item() == pytest.approx(-np.log(p), rel=1e-12)

    def test_all_ignored_rejected(self):
        logits = Tensor(np.zeros((1, 2, 1, 1)))
        with pytest.raises(ValueError):
            classification_loss(logits, np.array([[[1]]]), ignore_labels={1})

    def test_out_of_range_label_rejected(self):
        logits = Tensor(np.zeros((1, 2, 1, 1)))
        with pytest.raises(ValueError):
            classification_loss(logits, np.array([[[5]]]))

    def test_pixel_permutation_invariance(self, rng):
        logits = rng.normal(0, 1, (1, 5, 1, 12))
        labels = rng.integers(0, 5, (1, 1, 12))
        base = classification_loss(Tensor(logits), labels).item()
        perm = rng.permutation(12)
        assert classification_loss(Tensor(logits[..., perm]),
                                   labels[..., perm]).item() == pytest.approx(base, rel=1e-12)

    def test_gradcheck(self, rng):
        logits = Tensor(rng.normal(0, 1, (2, 3, 2, 2)), requires_grad=True)
        labels = rng.integers(0, 3, (2, 2, 2))
        f = lambda: classification_loss(logits, labels)
        assert gradcheck(f, [logits]) < 1e-4


class TestCombinedLoss:
    def test_hand_arithmetic(self):
        # total = 0.8 + 0.03*2*0.4 = 0.8*(1 + 0.03) = 0.824
        total, w1 = combined_loss(Tensor(np.float64(0.8)), Tensor(np.float64(0.4)),
                                  LossConfig(w0=0.03))
        assert w1 == pytest.approx(2.0)
        assert total.item() == pytest.approx(0.824, rel=1e-12)

    def test_w0_zero_disables_reconstruction_term(self):
        total, w1 = combined_loss(Tensor(np.float64(1.7)), Tensor(np.float64(0.4)),
                                  LossConfig(w0=0.0))
        assert w1 == 1.0 and total.item() == 1.7

    def test_without_w1(self):
        total, w1 = combined_loss(Tensor(np.float64(1.0)), Tensor(np.float64(10.0)),
                                  LossConfig(w0=0.03, use_w1=False))
        assert w1 == 1.0
        assert total.item() == pytest.approx(1.3, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_value_identity_one_plus_w0(self, seed):
        rng = np.random.default_rng(seed)
        l_cls = Tensor(np.float64(rng.uniform(0.1, 5.0)))
        l_tp = Tensor(np.float64(rng.uniform(0.01, 3.0)))
        total, _ = combined_loss(l_cls, l_tp, LossConfig(w0=0.03))
        assert abs(total.item() - 1.03 * l_cls.item()) / (1.03 * l_cls.item()) < 1e-12

    def test_total_keeps_float32(self):
        total, _ = combined_loss(Tensor(np.float32(0.8)), Tensor(np.float32(0.4)),
                                 LossConfig(w0=0.03))
        assert total.dtype == np.float32

    def test_zero_l_tp_clamped_and_logged(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="sits_ssm.losses"):
            total, w1 = combined_loss(Tensor(np.float64(1.0)), Tensor(np.float64(0.0)),
                                      LossConfig(w0=0.03))
        assert np.isfinite(w1) and w1 == pytest.approx(1e8)
        assert any("clamping" in r.message for r in caplog.records)

    def test_gradient_stopped_w1_keeps_rbranch_gradient_alive(self, rng):
        """The balancing ratio must not cancel the reconstruction gradient."""
        theta = Tensor(rng.normal(0, 1, (4,)), requires_grad=True)   # rbranch-only stand-in
        x = Tensor(rng.normal(0, 1, (4,)))
        l_cls = Tensor(np.float64(0.9), requires_grad=False)
        diff = ad.sub(theta, x)
        l_tp = ad.mean(ad.mul(diff, diff))
        total, w1 = combined_loss(l_cls, l_tp, LossConfig(w0=0.03))
        ad.backward(total)
        assert theta.grad is not None and np.any(theta.grad != 0)
        # analytic check: grad = w0 * w1 * dl_tp/dtheta
        expected = 0.03 * w1 * 2 * (theta.data - x.data) / 4
        assert np.allclose(theta.grad, expected, rtol=1e-10)
