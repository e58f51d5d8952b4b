"""End-to-end model contracts: shapes, locality, masking, prediction, and
parameter accounting."""

import numpy as np
import pytest

from sits_ssm import autodiff as ad
from sits_ssm.autodiff import Tensor
from sits_ssm.data import SitsBatch
from sits_ssm.model import ModelConfig, SitsClassifier, count_parameters
from sits_ssm.verify import gradcheck, padding_shift


def tiny_model(channels=3, classes=4, hidden=8, seed=0, **kw):
    cfg = ModelConfig(input_channels=channels, num_classes=classes, hidden=hidden,
                      d_state=4, **kw)
    return SitsClassifier(cfg, np.random.default_rng(seed))


def random_batch(rng, n=2, t=5, c=3, h=6, w=6, classes=4):
    series = rng.uniform(0, 1, (n, t, c, h, w)).astype(np.float32)
    mask = np.ones((n, t), dtype=bool)
    labels = rng.integers(0, classes, (n, h, w))
    return SitsBatch(series, mask, labels)


class TestForwardShapes:
    def test_contract_shapes(self, rng):
        model = tiny_model(channels=10, classes=20)
        batch = random_batch(rng, n=2, t=5, c=10, h=8, w=8, classes=20)
        out = model.forward(batch, training=True)
        assert out.class_logits.shape == (2, 20, 8, 8)
        assert out.reconstruction.shape == (2, 5, 10, 8, 8)

    def test_reconstruction_length_always_matches_input(self, rng):
        model = tiny_model()
        for t in (1, 3, 9):
            out = model.forward(random_batch(rng, t=t), training=False)
            assert out.reconstruction.shape[1] == t

    def test_single_timestep_degenerate_sequence(self, rng):
        model = tiny_model()
        out = model.forward(random_batch(rng, t=1), training=False)
        assert np.isfinite(out.class_logits.data).all()

    def test_wrong_channel_count_rejected(self, rng):
        model = tiny_model(channels=3)
        with pytest.raises(ad.ShapeError):
            model.forward(random_batch(rng, c=4))

    def test_non_finite_input_rejected(self, rng):
        model = tiny_model()
        batch = random_batch(rng)
        batch.series[0, 0, 0, 0, 0] = np.nan
        with pytest.raises(ad.NonFiniteError):
            model.forward(batch)


class TestLocality:
    def test_pixel_perturbation_stays_within_receptive_field(self, rng):
        """Touching one pixel's series moves logits only near that pixel."""
        model = tiny_model(hidden=8)
        h = w = 12
        batch = random_batch(rng, n=1, t=4, h=h, w=w)
        base = model.predict_logits(batch)
        pert = SitsBatch(batch.series.copy(), batch.valid_mask, batch.labels)
        pert.series[0, :, :, 2, 2] = rng.uniform(0, 1, (4, 3)).astype(np.float32)
        moved = model.predict_logits(pert)
        yy, xx = np.mgrid[0:h, 0:w]
        far = np.maximum(np.abs(yy - 2), np.abs(xx - 2)) > 4
        assert np.array_equal(base[0][:, far], moved[0][:, far])
        assert not np.array_equal(base[0][:, 2, 2], moved[0][:, 2, 2])

    def test_batch_permutation_permutes_outputs(self, rng):
        model = tiny_model()
        batch = random_batch(rng, n=3)
        logits = model.predict_logits(batch)
        perm = np.array([2, 0, 1])
        permuted = SitsBatch(batch.series[perm], batch.valid_mask[perm], batch.labels[perm])
        logits_p = model.predict_logits(permuted)
        assert np.array_equal(logits_p, logits[perm])


class TestMasking:
    def test_padding_invariance_of_logits(self, rng):
        """A sample scored alone or inside a padded batch gets identical logits."""
        model = tiny_model()
        short = random_batch(rng, n=1, t=5)
        long_series = rng.uniform(0, 1, (1, 8, 3, 6, 6)).astype(np.float32)
        padded_series = np.zeros((2, 8, 3, 6, 6), dtype=np.float32)
        padded_series[0, :5] = short.series[0]
        padded_series[1] = long_series[0]
        mask = np.zeros((2, 8), dtype=bool)
        mask[0, :5] = True
        mask[1, :] = True
        labels = np.zeros((2, 6, 6), dtype=int)
        batch = SitsBatch(padded_series, mask, labels)
        alone = model.predict_logits(short)
        together = model.predict_logits(batch)
        assert np.array_equal(together[0], alone[0])

    def test_train_mode_padding_invariance(self, rng):
        """Padded frames are never computed, so appending padded timesteps
        changes no logit, loss or gradient of a training step, batchnorm
        statistics included."""
        config = ModelConfig(input_channels=3, num_classes=4, hidden=8, d_state=4,
                             dtype="float64")
        mask = np.arange(6) < np.array([[6], [4], [1]])
        batch = SitsBatch(rng.uniform(0, 1, (3, 6, 3, 5, 5)) * mask[:, :, None, None, None],
                          mask, rng.integers(0, 4, (3, 5, 5)))
        assert padding_shift(config, batch, 4) <= 1e-10

    @pytest.mark.parametrize("row", [[True, False, True, True, False],
                                     [False, True, True, True, True],
                                     [False] * 5])
    def test_mask_rows_must_be_non_empty_prefixes(self, rng, monkeypatch, row):
        model = tiny_model()
        batch = random_batch(rng, n=2, t=5)
        batch.valid_mask[1] = row
        monkeypatch.setattr(model, "spatial", lambda *args: pytest.fail("computed"))
        with pytest.raises(ad.ShapeError):
            model.forward(batch, training=True)

    def test_temporal_maxpool_examples(self, rng):
        model = tiny_model(hidden=4)
        # constant over time -> that constant
        const = Tensor(np.tile(rng.normal(0, 1, (3, 1, 4)), (1, 5, 1)))
        out = model.temporal_maxpool(const, np.ones((3, 5), dtype=bool), (1, 1))
        assert np.allclose(out.data, const.data[:, 0])
        # hand case [1, 3, 2]
        seq = Tensor(np.array([1.0, 3.0, 2.0]).reshape(1, 3, 1))
        assert model.temporal_maxpool(seq, np.ones((1, 3), bool), (1, 1)).data[0, 0] == 3.0
        # single valid timestep -> that timestep
        seq2 = Tensor(rng.normal(0, 1, (1, 3, 4)))
        only1 = np.array([[False, True, False]])
        out2 = model.temporal_maxpool(seq2, only1, (1, 1))
        assert np.array_equal(out2.data[0], seq2.data[0, 1])

    def test_maxpool_empty_valid_set_rejected(self, rng):
        model = tiny_model(hidden=4)
        seq = Tensor(rng.normal(0, 1, (1, 3, 4)))
        with pytest.raises(ValueError):
            model.temporal_maxpool(seq, np.zeros((1, 3), bool), (1, 1))


class TestRBranch:
    def test_zero_weights_constant_bias(self, rng):
        model = tiny_model()
        model.rbranch.weight.data[:] = 0.0
        model.rbranch.bias.data[:] = np.arange(3, dtype=np.float32)
        enc = Tensor(rng.normal(0, 1, (4, 5, 8)).astype(np.float32))
        out = model.rbranch(enc)
        assert np.allclose(out.data, np.broadcast_to(np.arange(3), (4, 5, 3)))

    def test_time_constant_encoding_gives_time_constant_output(self, rng):
        model = tiny_model()
        enc = Tensor(np.tile(rng.normal(0, 1, (2, 1, 8)).astype(np.float32), (1, 6, 1)))
        out = model.rbranch(enc).data
        assert np.allclose(out, out[:, :1])

    def test_gradcheck(self, rng):
        model = tiny_model()
        model.rbranch.weight = Tensor(rng.normal(0, 1, (8, 3)), requires_grad=True)
        model.rbranch.bias = Tensor(rng.normal(0, 1, 3), requires_grad=True)
        enc = Tensor(rng.normal(0, 1, (2, 4, 8)), requires_grad=True)
        f = lambda: ad.mean(ad.mul(model.rbranch(enc), 2.0))
        assert gradcheck(f, [enc, model.rbranch.weight, model.rbranch.bias]) < 1e-4


class TestPredict:
    def test_valid_labels_and_determinism(self, rng):
        model = tiny_model()
        batch = random_batch(rng)
        p1, p2 = model.predict(batch), model.predict(batch)
        assert np.array_equal(p1, p2)
        assert p1.min() >= 0 and p1.max() < 4

    def test_tied_logits_choose_lowest_index(self, rng):
        model = tiny_model()
        # zero the head entirely: every class logit becomes identical
        model.cls_head.conv.weight.data[:] = 0.0
        model.cls_head.conv.bias.data[:] = 0.0
        model.cls_head.bn.gamma.data[:] = 0.0
        assert (model.predict(random_batch(rng)) == 0).all()

    def test_rbranch_deletion_leaves_predict_bit_identical(self, rng, tmp_path):
        model = tiny_model(seed=3)
        batch = random_batch(rng)
        base = model.predict_logits(batch)
        path = tmp_path / "full.ckpt"
        model.save(path)
        from sits_ssm.checkpoint import load_checkpoint, save_checkpoint
        state = {k: v for k, v in load_checkpoint(path).items()
                 if not k.startswith("rbranch.")}
        save_checkpoint(state, tmp_path / "norb.ckpt")
        other = tiny_model(seed=99)    # different init everywhere
        other.load(tmp_path / "norb.ckpt")
        assert np.array_equal(other.predict_logits(batch), base)


class TestPrecision:
    def test_float32_model_scans_in_float32(self, rng, monkeypatch):
        from sits_ssm import ssm
        seen = []
        scan = ssm.selective_scan_fused

        def spy(*tensors):
            seen.append([t.dtype for t in tensors])
            return scan(*tensors)

        monkeypatch.setattr(ssm, "selective_scan_fused", spy)
        model = tiny_model()
        out = model.forward(random_batch(rng), training=True)
        assert seen == [[np.dtype(np.float32)] * 6]      # u, delta, a, b, c, d_skip
        assert out.class_logits.dtype == np.float32


class TestParameterAccounting:
    def test_rbranch_linear_count(self):
        cfg = ModelConfig(input_channels=10, num_classes=20)
        model = SitsClassifier(cfg)
        n = sum(t.size for _, t in model.rbranch.named_parameters("r"))
        assert n == 128 * 10 + 10 == 1290

    def test_full_reference_config_within_band(self):
        # 10-channel, 20-class configuration with the stock block settings
        n = count_parameters(ModelConfig(input_channels=10, num_classes=20))
        assert abs(n - 250_000) / 250_000 <= 0.30
        assert n == 300_742   # frozen exact composition for regression

    def test_count_matches_named_parameters(self):
        cfg = ModelConfig(input_channels=3, num_classes=4, hidden=8, d_state=4)
        model = SitsClassifier(cfg)
        assert model.count_parameters() == sum(t.size for _, t in model.named_parameters())


class TestStateRoundTrip:
    def test_entry_names_and_order(self):
        # checkpoint entries: every parameter, then every batchnorm buffer
        names = list(SitsClassifier(ModelConfig(10, 20)).state_arrays())
        assert names == [
            "spatial.conv1.weight", "spatial.conv1.bias", "spatial.bn1.gamma",
            "spatial.bn1.beta", "spatial.conv2.weight", "spatial.conv2.bias",
            "spatial.bn2.gamma", "spatial.bn2.beta", "temporal.in_proj.weight",
            "temporal.conv.weight", "temporal.conv.bias", "temporal.x_proj.weight",
            "temporal.dt_proj.weight", "temporal.dt_proj.bias", "temporal.a_log",
            "temporal.d_skip", "temporal.out_proj.weight", "temporal.out_proj.bias",
            "cls_head.conv.weight", "cls_head.conv.bias", "cls_head.bn.gamma",
            "cls_head.bn.beta", "rbranch.weight", "rbranch.bias",
            "spatial.bn1.running_mean", "spatial.bn1.running_var",
            "spatial.bn2.running_mean", "spatial.bn2.running_var",
            "cls_head.bn.running_mean", "cls_head.bn.running_var"]

    def test_save_load_evaluate_bit_exact(self, rng, tmp_path):
        model = tiny_model(seed=11)
        batch = random_batch(rng)
        base = model.predict_logits(batch)
        path = tmp_path / "m.ckpt"
        model.save(path)
        clone = tiny_model(seed=77)
        clone.load(path)
        assert np.array_equal(clone.predict_logits(batch), base)

    def test_strict_load_rejects_missing(self, tmp_path):
        model = tiny_model()
        model.save(tmp_path / "m.ckpt")
        from sits_ssm.checkpoint import load_checkpoint
        state = load_checkpoint(tmp_path / "m.ckpt")
        state.pop("rbranch.weight")
        with pytest.raises(KeyError):
            model.load_state(state, strict=True)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        state = model.state_arrays()
        state["rbranch.weight"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ad.ShapeError):
            model.load_state(state)
