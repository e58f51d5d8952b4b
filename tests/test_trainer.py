"""Adam update math, training-loop determinism, ablation switches, and
checkpoint round trips."""

import hashlib
import logging
import warnings

import numpy as np
import pytest

from sits_ssm import trainer as trainer_mod
from sits_ssm.autodiff import NonFiniteError, Tensor
from sits_ssm.checkpoint import load_checkpoint
from sits_ssm.data import generate_synthetic, pad_batch  # noqa: F401
from sits_ssm.losses import LossConfig
from sits_ssm.metrics import Scores
from sits_ssm.model import ModelConfig, SitsClassifier
from sits_ssm.trainer import Adam, TrainConfig, evaluate, train, train_step


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def tiny_task(noise=0.0, n=8, seed=3):
    ds = generate_synthetic(seed=seed, n_samples=n, num_classes=3, timesteps=6,
                            channels=2, height=6, width=6, noise_sigma=noise)
    cfg = ModelConfig(input_channels=2, num_classes=3, hidden=8, d_state=4)
    return ds, cfg


class TestAdam:
    def test_zero_gradient_leaves_parameters_and_decays_moments(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.array([1.0, 1.0])
        opt.step()
        m_after_first = opt.m[0].copy()
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt.step()
        # moments shrink by beta toward zero, parameters barely move
        assert np.all(np.abs(opt.m[0]) < np.abs(m_after_first))
        assert np.allclose(p.data, before, atol=0.11)   # one more lr-bounded nudge
        p.grad = None
        opt.step()
        third = opt.m[0].copy()
        assert np.all(np.abs(third) < np.abs(opt.m[0]) + 1e-12)

    def test_overflowing_update_is_applied_without_warning(self):
        """The float64 update 1e39 overflows float32 in the cast to the
        parameter's dtype: the parameter becomes -inf, and no numpy warning."""
        p = Tensor(np.ones(2, np.float32), requires_grad=True)
        opt = Adam([("p", p)], lr=1e39)
        p.grad = np.ones(2, np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert opt.step()
        assert np.isneginf(p.data).all()

    def test_single_step_hand_oracle(self):
        # from zero state: m_hat = g, v_hat = g^2, step = lr*g/(|g|+eps)
        g = np.array([0.3, -1.7, 0.002])
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([("p", p)], lr=0.05)
        p.grad = g.copy()
        opt.step()
        expected = -0.05 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p.data, expected, rtol=1e-10)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=1e-3)
        prev = p.data.copy()
        for _ in range(500):
            p.grad = np.array([2.5])
            prev = p.data.copy()
            opt.step()
        assert abs(abs(float(p.data[0] - prev[0])) - 1e-3) < 1e-6

    def test_generator_of_parameters_is_stepped(self):
        _, cfg = tiny_task()
        model = SitsClassifier(cfg, np.random.default_rng(0))
        opt = Adam(model.named_parameters(), lr=0.1)      # a generator
        before = {name: t.data.copy() for name, t in model.named_parameters()}
        for _, t in model.named_parameters():
            t.grad = np.ones_like(t.data)
        assert opt.step()
        for name, t in model.named_parameters():
            assert not np.array_equal(t.data, before[name]), name

    def test_non_finite_gradient_skips_step_and_logs(self, caplog):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.array([np.inf])
        with caplog.at_level(logging.WARNING, logger="sits_ssm.trainer"):
            applied = opt.step()
        assert applied is False
        assert p.data[0] == 1.0 and opt.step_count == 0
        assert any("skipped" in r.message for r in caplog.records)


class TestTrainingLoop:
    def test_loss_decreases_on_fixed_batch(self):
        ds, cfg = tiny_task(noise=0.0)
        model = SitsClassifier(cfg, np.random.default_rng(0))
        batch = pad_batch(ds.samples[:4])
        opt = Adam(list(model.named_parameters()), lr=1e-3)
        losses = []
        for _ in range(20):
            opt.zero_grad()
            losses.append(train_step(model, batch, LossConfig()).total)
            opt.step()
        assert losses[-1] < losses[0]

    def test_w0_zero_equals_rbranch_disabled(self, tmp_path):
        ds, cfg = tiny_task()
        runs = {}
        for tag, loss_cfg in (("w0zero", LossConfig(w0=0.0)),
                              ("norb", LossConfig(use_rbranch=False))):
            model = SitsClassifier(cfg, np.random.default_rng(7))
            tc = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=4, seed=7,
                             loss=loss_cfg)
            res = train(model, ds, None, tc, tmp_path / tag)
            runs[tag] = sha(res.final_checkpoint)
        assert runs["w0zero"] == runs["norb"]

    def test_equal_seed_runs_are_checksum_identical(self, tmp_path):
        ds, cfg = tiny_task(noise=0.02)
        sums = []
        for tag in ("a", "b"):
            model = SitsClassifier(cfg, np.random.default_rng(5))
            tc = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=4, seed=5,
                             loss=LossConfig())
            res = train(model, ds, ds, tc, tmp_path / tag)
            sums.append((sha(res.final_checkpoint), sha(res.best_checkpoint),
                         sha(res.log_path), sha(res.epoch_log_path)))
        assert sums[0] == sums[1]

    def test_divergence_aborts_with_diagnostic(self, tmp_path):
        ds, cfg = tiny_task()
        model = SitsClassifier(cfg, np.random.default_rng(0))
        model.spatial.conv1.weight.data[:] = 3e38   # overflows in f32 forward
        tc = TrainConfig(epochs=1, learning_rate=1e-3, batch_size=4, seed=0,
                         loss=LossConfig())
        with pytest.raises(RuntimeError, match="diverged"):
            train(model, ds, None, tc, tmp_path / "div")

    def test_skipped_steps_are_counted_and_logged(self, tmp_path, monkeypatch, caplog):
        """Adam skips a step whose gradients are not finite; the trainer
        counts it, logs each epoch's count, and keeps its log rows."""
        ds, cfg = tiny_task()
        model = SitsClassifier(cfg, np.random.default_rng(0))
        steps = []

        def poisoned_step(model_, batch, loss_cfg):
            report = train_step(model_, batch, loss_cfg)
            steps.append(report)
            if len(steps) % 2:                      # the first step of each epoch
                model_.cls_head.bn.beta.grad[0] = np.nan
            return report

        monkeypatch.setattr(trainer_mod, "train_step", poisoned_step)
        tc = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=4, seed=0,
                         loss=LossConfig())
        with caplog.at_level(logging.INFO, logger="sits_ssm.trainer"):
            res = train(model, ds, None, tc, tmp_path / "skip")
        assert len(steps) == 4                      # 8 samples, batches of 4, 2 epochs
        assert res.skipped_steps == 2
        assert res.history == steps
        assert len(open(res.log_path).readlines()) == 1 + 4
        counts = [r.getMessage() for r in caplog.records if "steps skipped" in r.getMessage()]
        assert counts == [f"epoch {e}: 1 optimizer steps skipped for non-finite gradients"
                          for e in (0, 1)]

    def test_one_strike_is_counted_without_a_log_row(self, tmp_path, monkeypatch):
        """A step whose forward raises NonFiniteError once is skipped: it is
        counted, like an all-ignored batch, and gets no log row."""
        ds, cfg = tiny_task(n=4)
        model = SitsClassifier(cfg, np.random.default_rng(0))
        calls = []

        def striking_step(model_, batch, loss_cfg):
            calls.append(batch)
            if len(calls) == 2:
                raise NonFiniteError("conv_bn_relu produced non-finite values")
            return train_step(model_, batch, loss_cfg)

        monkeypatch.setattr(trainer_mod, "train_step", striking_step)
        tc = TrainConfig(epochs=1, learning_rate=1e-3, batch_size=1, seed=0,
                         loss=LossConfig())
        res = train(model, ds, None, tc, tmp_path / "strike")
        assert len(calls) == 4                      # 4 samples, batches of 1
        assert res.skipped_steps == 1 and len(res.history) == 3
        assert len(open(res.log_path).readlines()) == 1 + 3

    def test_batch_with_no_scored_pixel_is_skipped(self, tmp_path, caplog):
        """A batch whose every label is ignored never reaches train_step: it
        is logged, counted as skipped and gets no log row."""
        ds, cfg = tiny_task(n=4)
        ds.samples[1].label_map[:] = 2
        model = SitsClassifier(cfg, np.random.default_rng(0))
        tc = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=1, seed=0,
                         loss=LossConfig(ignore_labels={2}))
        with caplog.at_level(logging.INFO, logger="sits_ssm.trainer"):
            res = train(model, ds, None, tc, tmp_path / "ignored")
        assert res.skipped_steps == 2 and len(res.history) == 6
        assert len(open(res.log_path).readlines()) == 1 + 6
        warned = [r for r in caplog.records if "every pixel of the batch is ignored" in r.message]
        assert len(warned) == 2 and all(r.levelno == logging.WARNING for r in warned)

    def test_training_log_schema(self, tmp_path):
        ds, cfg = tiny_task()
        model = SitsClassifier(cfg, np.random.default_rng(1))
        tc = TrainConfig(epochs=1, learning_rate=1e-3, batch_size=4, seed=1,
                         loss=LossConfig())
        res = train(model, ds, ds, tc, tmp_path / "log")
        header = open(res.log_path).readline().strip()
        assert header == "epoch,step,l_cls,l_tp,w1,total"
        assert open(res.epoch_log_path).readline().startswith("epoch,val_oa")
        # recorded identity: total = l_cls + w0*w1*l_tp
        for rep in res.history:
            assert rep.total == pytest.approx(rep.l_cls + 0.03 * rep.w1 * rep.l_tp,
                                              rel=1e-5)

    def test_sample30_mode_runs(self, tmp_path):
        ds = generate_synthetic(seed=2, n_samples=6, num_classes=3, timesteps=34,
                                channels=2, height=4, width=4)
        cfg = ModelConfig(input_channels=2, num_classes=3, hidden=8, d_state=4)
        model = SitsClassifier(cfg, np.random.default_rng(0))
        tc = TrainConfig(epochs=1, learning_rate=1e-3, batch_size=3, seed=0,
                         loss=LossConfig(), temporal_mode="sample30")
        res = train(model, ds, ds, tc, tmp_path / "s30")
        assert res.final_checkpoint.exists()

    def test_sample30_short_series_warn_once_per_epoch(self, tmp_path, caplog):
        ds = generate_synthetic(seed=2, n_samples=6, num_classes=3, timesteps=8,
                                channels=2, height=4, width=4)
        cfg = ModelConfig(input_channels=2, num_classes=3, hidden=8, d_state=4)
        model = SitsClassifier(cfg, np.random.default_rng(0))
        tc = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=3, seed=0,
                         loss=LossConfig(), temporal_mode="sample30")
        with caplog.at_level(logging.WARNING, logger="sits_ssm.data"):
            train(model, ds, ds, tc, tmp_path / "s30")
        assert caplog.messages == [
            "batches: 6 of 6 series are shorter than 30 steps, sampling with replacement"] * 2

    def test_each_epoch_sees_a_fresh_permutation(self, tmp_path, monkeypatch):
        """Every epoch hands ``data.batches`` the whole training set, each
        in its own order."""
        ds, cfg = tiny_task()
        orders = []
        batches = trainer_mod.data_mod.batches

        def recording(samples, *args):
            orders.append([s.sample_id for s in samples])
            return batches(samples, *args)

        monkeypatch.setattr(trainer_mod.data_mod, "batches", recording)
        tc = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=4, seed=0,
                         loss=LossConfig())
        train(SitsClassifier(cfg, np.random.default_rng(0)), ds, None, tc, tmp_path / "order")
        assert len(orders) == 2
        assert all(sorted(o) == [s.sample_id for s in ds.samples] for o in orders)
        assert orders[0] != orders[1]

    def test_first_of_tied_epochs_is_best(self, tmp_path, monkeypatch):
        """Two epochs that score the same mF1: ``best.ckpt`` holds the first."""
        ds, cfg = tiny_task()
        weights = []

        def tied(model_, *args, **kwargs):
            weights.append({k: v.copy() for k, v in model_.state_arrays().items()})
            return Scores(oa=0.5, iou=np.full(3, 0.5), f1=np.full(3, 0.5), miou=0.5,
                          mf1=0.5, present=np.ones(3, bool))

        monkeypatch.setattr(trainer_mod, "evaluate", tied)
        tc = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=4, seed=0,
                         loss=LossConfig())
        res = train(SitsClassifier(cfg, np.random.default_rng(0)), ds, ds, tc, tmp_path / "tie")
        assert res.best_epoch == 0 and len(weights) == 2
        best = load_checkpoint(res.best_checkpoint)
        assert all(np.array_equal(best[k], w) for k, w in weights[0].items())
        assert not all(np.array_equal(best[k], w) for k, w in weights[1].items())

    def test_best_checkpoint_tracks_validation_mf1(self, tmp_path):
        ds, cfg = tiny_task(noise=0.0, n=10)
        model = SitsClassifier(cfg, np.random.default_rng(2))
        tc = TrainConfig(epochs=3, learning_rate=3e-3, batch_size=5, seed=2,
                         loss=LossConfig())
        res = train(model, ds, ds, tc, tmp_path / "best")
        assert res.best_checkpoint.exists() and res.best_mf1 >= 0


class TestAblationSwitchCoverage:
    def test_all_four_reference_configurations_expressible(self):
        """full / no-PW / no-w1 / no-RBranch all come from LossConfig alone."""
        configs = {
            "full": LossConfig(w0=0.03),
            "no_pw": LossConfig(w0=0.03, use_pw=False),
            "no_w1": LossConfig(w0=0.03, use_w1=False),
            "no_rbranch": LossConfig(use_rbranch=False),
        }
        ds, mcfg = tiny_task()
        model = SitsClassifier(mcfg, np.random.default_rng(0))
        batch = pad_batch(ds.samples[:2])
        for name, lc in configs.items():
            rep = train_step(model, batch, lc)
            for _, t in model.named_parameters():
                t.grad = None
            assert np.isfinite(rep.total), name
        assert configs["no_w1"].use_w1 is False
        assert configs["no_rbranch"].use_rbranch is False


class TestCheckpointContainer:
    def test_magic_and_payload_round_trip(self, tmp_path):
        from sits_ssm.checkpoint import load_checkpoint, save_checkpoint
        arrays = {"a.weight": np.arange(6, dtype=np.float32).reshape(2, 3),
                  "b": np.float32([1.5])}
        path = tmp_path / "x.ckpt"
        save_checkpoint(arrays, path)
        assert path.read_bytes()[:8] == b"SITSMB01"
        back = load_checkpoint(path)
        assert set(back) == {"a.weight", "b"}
        assert np.array_equal(back["a.weight"], arrays["a.weight"])

    def test_corrupt_magic_rejected(self, tmp_path):
        from sits_ssm.checkpoint import CheckpointFormatError, save_checkpoint, \
            load_checkpoint
        path = tmp_path / "x.ckpt"
        save_checkpoint({"w": np.zeros(2, np.float32)}, path)
        raw = bytearray(path.read_bytes())
        raw[3] ^= 0x55
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        from sits_ssm.checkpoint import CheckpointFormatError, save_checkpoint, \
            load_checkpoint
        path = tmp_path / "x.ckpt"
        save_checkpoint({"w": np.zeros(8, np.float32)}, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_float64_params_stored_as_f32(self, tmp_path):
        from sits_ssm.checkpoint import load_checkpoint, save_checkpoint
        path = tmp_path / "x.ckpt"
        save_checkpoint({"w": np.array([1.0, 2.0])}, path)
        assert load_checkpoint(path)["w"].dtype == np.float32


class TestCheckpointEvaluationRoundTrip:
    def test_save_load_evaluate_bit_exact(self, tmp_path):
        ds, cfg = tiny_task(noise=0.02)
        model = SitsClassifier(cfg, np.random.default_rng(4))
        tc = TrainConfig(epochs=1, learning_rate=1e-3, batch_size=4, seed=4,
                         loss=LossConfig())
        train(model, ds, None, tc, tmp_path / "rt")
        in_memory = evaluate(model, ds, LossConfig())
        clone = SitsClassifier(cfg, np.random.default_rng(123))
        clone.load(tmp_path / "rt" / "final.ckpt")
        from_disk = evaluate(clone, ds, LossConfig())
        assert from_disk.oa == in_memory.oa
        assert from_disk.mf1 == in_memory.mf1
        assert np.array_equal(
            np.nan_to_num(from_disk.iou), np.nan_to_num(in_memory.iou))
