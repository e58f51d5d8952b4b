"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity next to its threshold.

Run with `pytest tests/test_acceptance.py -v -s`. The learnability and
ablation experiments train real models and together take several minutes
on one core; everything else is seconds.
"""

import hashlib
import time
from fractions import Fraction

import numpy as np

from sits_ssm import autodiff as ad
from sits_ssm.autodiff import Tensor
from sits_ssm.cli import main
from sits_ssm.data import generate_synthetic, pad_batch
from sits_ssm.losses import (LossConfig, classification_loss, combined_loss,
                             positional_weights, reconstruction_loss)
from sits_ssm.metrics import ConfusionMatrix, scores
from sits_ssm.model import ModelConfig, SitsClassifier, count_parameters, \
    spatial_encoder_parameter_count
from sits_ssm.spatial import ClsHead, ConvBlock
from sits_ssm.ssm import MambaBlock
from sits_ssm.trainer import TrainConfig, evaluate, train
from sits_ssm.verify import (VerifyReport, brute_force_scores, gradcheck, suite_scan_kernel,
                             suite_zoh)


def report(name: str, passed: bool, detail: str):
    print(f"[ACCEPTANCE] {name}: {'PASS' if passed else 'FAIL'}  ({detail})")
    assert passed, f"{name}: {detail}"


def _loss_on(model, batch, loss_cfg: LossConfig, w1_frozen: float | None = None):
    out = model.forward(batch, training=True, with_reconstruction=True)
    l_cls = classification_loss(out.class_logits, batch.labels, loss_cfg.ignore_labels)
    l_tp = reconstruction_loss(batch.series, out.reconstruction, batch.valid_mask,
                               use_pw=loss_cfg.use_pw)
    if w1_frozen is None:
        return combined_loss(l_cls, l_tp, loss_cfg)[0]
    return ad.add(l_cls, ad.mul(l_tp, loss_cfg.w0 * w1_frozen))


class TestCriterion1Gradients:
    def test_gradient_correctness_everywhere(self):
        t0 = time.time()
        worst = {}

        # every primitive, 10 random points each (relu/max probed off kinks)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
            b = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
            v = Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
            m1 = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
            m2 = Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
            n = 12
            sp = Tensor((rng.permutation(n) + 1.0).reshape(3, 4) / n
                        * rng.choice([-1.0, 1.0], (3, 4)), requires_grad=True)
            xc = Tensor(rng.uniform(-1, 1, (2, 3, 5, 5)), requires_grad=True)
            wc = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)), requires_grad=True)
            xd = Tensor(rng.uniform(-1, 1, (2, 6, 3)), requires_grad=True)
            wd = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
            gmm = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
            bta = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
            x4 = Tensor(rng.uniform(-1, 1, (4, 3, 2, 2)), requires_grad=True)
            cases = {
                "add": (lambda: ad.sum_(ad.add(a, v)), [a, v]),
                "sub": (lambda: ad.sum_(ad.sub(a, b)), [a, b]),
                "mul": (lambda: ad.sum_(ad.mul(a, v)), [a, v]),
                "matmul": (lambda: ad.sum_(ad.matmul(m1, m2)), [m1, m2]),
                "conv2d": (lambda: ad.sum_(ad.conv2d(xc, wc)), [xc, wc]),
                "depthwise_conv1d": (lambda: ad.sum_(ad.depthwise_conv1d(xd, wd)), [xd, wd]),
                "exp": (lambda: ad.sum_(ad.exp(a)), [a]),
                "softplus": (lambda: ad.sum_(ad.softplus(a)), [a]),
                "silu": (lambda: ad.sum_(ad.silu(a)), [a]),
                "relu": (lambda: ad.sum_(ad.relu(sp)), [sp]),
                "sigmoid": (lambda: ad.sum_(ad.sigmoid(a)), [a]),
                "max_over_axis": (lambda: ad.sum_(ad.max_over_axis(sp, axis=1)), [sp]),
                "mean": (lambda: ad.sum_(ad.mean(ad.mul(a, b), axis=0)), [a, b]),
                "sum": (lambda: ad.sum_(ad.sum_(ad.mul(a, b), axis=1)), [a, b]),
                "reshape": (lambda: ad.sum_(ad.mul(ad.reshape(a, (4, 3)), 2.0)), [a]),
                "transpose": (lambda: ad.sum_(ad.mul(ad.transpose(a, (1, 0)), 2.0)), [a]),
                "slice": (lambda: ad.sum_(ad.slice_(a, (slice(0, 2), slice(1, 4)))), [a]),
                "concat": (lambda: ad.sum_(ad.mul(ad.concat([a, b], axis=0), 1.5)), [a, b]),
                "softmax": (lambda: ad.sum_(ad.mul(ad.softmax(a, axis=1), b)), [a, b]),
                "batchnorm_train": (
                    lambda: ad.sum_(ad.mul(ad.batchnorm(
                        x4, gmm, bta, np.zeros(3), np.ones(3), training=True), 0.5)),
                    [x4, gmm, bta]),
                "batchnorm_infer": (
                    lambda: ad.sum_(ad.batchnorm(
                        x4, gmm, bta, np.zeros(3), np.ones(3), training=False)),
                    [x4, gmm, bta]),
            }
            for name, (f, params) in cases.items():
                err = gradcheck(f, params)
                worst[name] = max(worst.get(name, 0.0), err)

        # full gated block, conv encoder, both heads, composite objective;
        # 10 random points each as well
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            blk = MambaBlock(4, 4, rng, dtype=np.float64)
            seq = Tensor(rng.normal(0, 1, (2, 5, 4)), requires_grad=True)
            err = gradcheck(lambda: ad.sum_(blk(seq)),
                            [seq] + [t for _, t in blk.named_parameters("m")],
                            max_components=8, rng=rng)
            worst["mamba_block"] = max(worst.get("mamba_block", 0.0), err)

            enc = ConvBlock(2, 3, rng, dtype=np.float64)
            xe = Tensor(rng.normal(0, 1, (1, 2, 4, 4)), requires_grad=True)
            err = gradcheck(lambda: ad.mean(ad.mul(enc(xe, training=True), 2.0)),
                            [xe] + [t for _, t in enc.named_parameters("e")],
                            max_components=8, rng=rng)
            worst["conv_block"] = max(worst.get("conv_block", 0.0), err)

            head = ClsHead(3, 4, rng, dtype=np.float64)
            xh = Tensor(rng.normal(0, 1, (1, 3, 4, 4)), requires_grad=True)
            err = gradcheck(lambda: ad.mean(head(xh, training=True)),
                            [xh] + [t for _, t in head.named_parameters("h")],
                            max_components=8, rng=rng)
            worst["cls_head"] = max(worst.get("cls_head", 0.0), err)

            import sits_ssm.nn as nn_mod
            rb = nn_mod.Linear(6, 2, rng, bias=True, dtype=np.float64)
            xr = Tensor(rng.normal(0, 1, (3, 4, 6)), requires_grad=True)
            err = gradcheck(lambda: ad.mean(ad.mul(rb(xr), rb(xr))),
                            [xr, rb.weight, rb.bias])
            worst["rbranch_head"] = max(worst.get("rbranch_head", 0.0), err)

        # composite objective through the whole model at 10 random points;
        # the dynamic branch ratio is a gradient-stopped constant, so it is
        # frozen at each evaluation point for both tape and differences
        loss_cfg = LossConfig(w0=0.03)
        for seed in range(10):
            cfg = ModelConfig(input_channels=2, num_classes=3, hidden=6, d_state=2,
                              dtype="float64")
            model = SitsClassifier(cfg, np.random.default_rng(2000 + seed))
            ds = generate_synthetic(seed=3000 + seed, n_samples=2, num_classes=3,
                                    timesteps=4, channels=2, height=4, width=4,
                                    noise_sigma=0.05)
            batch = pad_batch(ds.samples)
            out = model.forward(batch, training=True, with_reconstruction=True)
            l_cls = classification_loss(out.class_logits, batch.labels)
            l_tp = reconstruction_loss(batch.series, out.reconstruction, batch.valid_mask)
            w1_frozen = l_cls.item() / l_tp.item()
            params = [t for _, t in model.named_parameters()]
            err = gradcheck(lambda: _loss_on(model, batch, loss_cfg, w1_frozen=w1_frozen),
                            params, max_components=4, rng=np.random.default_rng(seed))
            worst["combined_loss"] = max(worst.get("combined_loss", 0.0), err)

        elapsed = time.time() - t0
        bad = {k: v for k, v in worst.items() if v >= 1e-4}
        report("1 gradient correctness",
               not bad and elapsed < 120,
               f"max rel err {max(worst.values()):.3e} < 1e-4 over {len(worst)} targets, "
               f"{elapsed:.1f}s < 120s" + (f", failing: {bad}" if bad else ""))


class TestCriterion2ScanKernel:
    def test_scan_matches_kernel(self):
        t0 = time.time()
        rows = VerifyReport()
        suite_scan_kernel(rows)
        elapsed = time.time() - t0
        (row,) = rows.rows
        report("2 scan vs kernel", rows.ok() and elapsed < 10,
               f"max abs dev {row.value:.3e} < {row.threshold:.0e} over 10 LTI systems, "
               f"{elapsed:.1f}s < 10s")


class TestCriterion3Zoh:
    def test_closed_forms_and_series(self):
        t0 = time.time()
        rows = VerifyReport()
        suite_zoh(rows)
        closed = [r for r in rows.rows if r.name.startswith("closed_form_")]
        (series_row,) = [r for r in rows.rows if r.name.startswith("series_")]
        # the series branch itself against the exact value at |delta*a| = 1e-5
        exact = np.expm1(-1e-5) / (-1e-5) * 1e-5
        series = (1.0 + 0.5 * -1e-5) * 1e-5
        series_err = max(series_row.value, abs(series - exact) / abs(exact))
        elapsed = time.time() - t0
        report("3 zoh closed forms",
               rows.ok() and series_err < series_row.threshold and elapsed < 1,
               f"closed-form err {max(r.value for r in closed):.2e} < "
               f"{max(r.threshold for r in closed):.0e}, series err {series_err:.2e} "
               f"< {series_row.threshold:.0e}, {elapsed:.2f}s < 1s")


class TestCriterion4Causality:
    def test_future_perturbations_invisible(self):
        t0 = time.time()
        rng = np.random.default_rng(11)
        blk = MambaBlock(6, 8, rng, dtype=np.float64)
        x = rng.normal(0, 1, (2, 12, 6))
        with ad.no_grad():
            base = blk(Tensor(x)).data.copy()
        ok = True
        for k in range(1, 12):
            xp = x.copy()
            xp[:, k] += rng.normal(0, 1, (2, 6))
            with ad.no_grad():
                pert = blk(Tensor(xp)).data
            ok &= np.array_equal(base[:, :k], pert[:, :k])
        elapsed = time.time() - t0
        report("4 causality", ok and elapsed < 10,
               f"outputs before every perturbed step bit-identical (f64), "
               f"{elapsed:.1f}s < 10s")


class TestCriterion5LossAlgebra:
    def test_identity_gradient_stop_and_pw(self):
        t0 = time.time()
        cfg = ModelConfig(input_channels=2, num_classes=3, hidden=6, d_state=2,
                          dtype="float64")
        model = SitsClassifier(cfg, np.random.default_rng(5))
        ds = generate_synthetic(seed=9, n_samples=2, num_classes=3, timesteps=4,
                                channels=2, height=4, width=4, noise_sigma=0.05)
        batch = pad_batch(ds.samples)
        out = model.forward(batch, training=True, with_reconstruction=True)
        l_cls = classification_loss(out.class_logits, batch.labels)
        l_tp = reconstruction_loss(batch.series, out.reconstruction, batch.valid_mask)
        total, w1 = combined_loss(l_cls, l_tp, LossConfig(w0=0.03))
        identity_err = abs(total.item() - 1.03 * l_cls.item()) / (1.03 * l_cls.item())
        ad.backward(total)
        rb_grad = model.rbranch.weight.grad
        grad_alive = rb_grad is not None and np.any(rb_grad != 0)
        pw_exact = np.array_equal(positional_weights(4), [0.25, 0.5, 0.75, 1.0])
        elapsed = time.time() - t0
        report("5 loss algebra",
               identity_err < 1e-12 and grad_alive and pw_exact and elapsed < 1,
               f"total==(1+w0)*l_cls rel err {identity_err:.2e} < 1e-12, "
               f"rbranch grad nonzero={grad_alive}, PW(4) exact={pw_exact}, "
               f"{elapsed:.2f}s < 1s")


class TestCriterion6Metrics:
    def test_brute_force_oracle_and_hand_case(self):
        t0 = time.time()
        rng = np.random.default_rng(123)
        exact = True
        for _ in range(100):
            k = int(rng.integers(2, 8))
            labels = rng.integers(0, k, int(rng.integers(1, 300)))
            preds = rng.integers(0, k, labels.size)
            cm = ConfusionMatrix(k).accumulate(labels, preds)
            bf_cm, oa, iou, f1, miou, mf1 = brute_force_scores(labels, preds, k)
            s = scores(cm)
            exact &= np.array_equal(cm.counts, bf_cm)
            exact &= s.oa == float(oa)
            exact &= all(s.iou[kk] == float(v) for kk, v in iou.items())
            exact &= all(s.f1[kk] == float(v) for kk, v in f1.items())
            exact &= abs(s.miou - float(miou)) < 1e-12
            exact &= abs(s.mf1 - float(mf1)) < 1e-12
        cm = ConfusionMatrix(2)
        cm.counts = np.array([[2, 1], [0, 3]], dtype=np.int64)
        s = scores(cm)
        hand_ok = (abs(s.oa - float(Fraction(5, 6))) < 1e-12
                   and abs(s.mf1 - float(Fraction(29, 35))) < 1e-6)
        elapsed = time.time() - t0
        report("6 metrics oracle", exact and hand_ok and elapsed < 10,
               f"100 random pairs exact={exact}, hand case OA=5/6 mF1~0.8286 "
               f"ok={hand_ok}, {elapsed:.1f}s < 10s")


class TestCriterion7Learnability:
    def test_synthetic_task_reaches_target(self, tmp_path):
        """K=6, C=4, T=20, 16x16, 200 train / 50 test, sigma=0.02; defaults
        lr=1e-4, w0=0.03, at most 100 epochs. The model width is reduced
        (hidden 16, state 8) to fit the single-core numpy budget; all
        pinned hyperparameters are kept exactly."""
        t0 = time.time()
        common = dict(n_samples=200, num_classes=6, timesteps=20, channels=4,
                      height=16, width=16, noise_sigma=0.02, world_seed=100)
        train_ds = generate_synthetic(seed=100, **common)
        valid_ds = generate_synthetic(seed=101, **{**common, "n_samples": 30})
        test_ds = generate_synthetic(seed=102, **{**common, "n_samples": 50})
        cfg = ModelConfig(input_channels=4, num_classes=6, hidden=16, d_state=8)
        model = SitsClassifier(cfg, np.random.default_rng(0))
        tc = TrainConfig(epochs=100, learning_rate=1e-4, batch_size=2, seed=0,
                         loss=LossConfig(w0=0.03),
                         early_stop=lambda s: s.oa >= 0.96 and s.mf1 >= 0.93)
        train(model, train_ds, valid_ds, tc, tmp_path / "learnability")
        s = evaluate(model, test_ds, LossConfig(), batch_size=8)
        elapsed = time.time() - t0
        report("7 learnability",
               s.oa >= 0.95 and s.mf1 >= 0.90 and elapsed < 1800,
               f"test OA {s.oa:.4f} >= 0.95, mF1 {s.mf1:.4f} >= 0.90, "
               f"{elapsed:.0f}s < 1800s")


class TestCriterion8AblationDirection:
    def test_ordering_report_only(self, tmp_path):
        """Three seeds on a sigma=0.08 task, full vs no-PW vs no-RBranch.
        Report-only: the orderings are printed; small effect sizes at desk
        scale mean a violated ordering is reported, not failed."""
        t0 = time.time()
        variants = {
            "full": LossConfig(w0=0.03),
            "no_pw": LossConfig(w0=0.03, use_pw=False),
            "no_rbranch": LossConfig(use_rbranch=False),
        }
        results = {name: [] for name in variants}
        common = dict(num_classes=5, timesteps=12, channels=3, height=8, width=8,
                      noise_sigma=0.08, world_seed=500)
        train_ds = generate_synthetic(seed=500, n_samples=48, **common)
        test_ds = generate_synthetic(seed=501, n_samples=24, **common)
        for seed in (1, 2, 3):
            for name, loss_cfg in variants.items():
                cfg = ModelConfig(input_channels=3, num_classes=5, hidden=12, d_state=8)
                model = SitsClassifier(cfg, np.random.default_rng(seed))
                tc = TrainConfig(epochs=6, learning_rate=5e-4, batch_size=2, seed=seed,
                                 loss=loss_cfg)
                train(model, train_ds, None, tc, tmp_path / f"abl_{name}_{seed}")
                results[name].append(evaluate(model, test_ds, LossConfig()).mf1)
        means = {name: float(np.mean(v)) for name, v in results.items()}
        print("\n  seed-wise mF1 table:")
        print(f"  {'variant':<12} " + " ".join(f"seed{s:<2}" for s in (1, 2, 3)) + "  mean")
        for name, vals in results.items():
            row = " ".join(f"{v:.4f}" for v in vals)
            print(f"  {name:<12} {row}  {means[name]:.4f}")
        ok_pw = means["full"] >= means["no_pw"]
        ok_rb = means["full"] >= means["no_rbranch"]
        print(f"  ordering full>=no_pw: {ok_pw}, full>=no_rbranch: {ok_rb} "
              f"(report-only gate)")
        elapsed = time.time() - t0
        report("8 ablation direction (soft)", True,
               f"full={means['full']:.4f} no_pw={means['no_pw']:.4f} "
               f"no_rbranch={means['no_rbranch']:.4f}; orderings reported above, "
               f"{elapsed:.0f}s")


class TestCriterion9ParameterCount:
    def test_counts(self):
        t0 = time.time()
        cfg = ModelConfig(input_channels=10, num_classes=20)   # hidden 128, stock block
        total = count_parameters(cfg)
        rel = abs(total - 250_000) / 250_000
        # two 3x3 convs (10->128, 128->128) with biases plus two affine BNs
        expected_spatial = 10 * 128 * 9 + 128 + 128 * 128 * 9 + 128 + 2 * (2 * 128)
        sub = spatial_encoder_parameter_count(cfg)
        elapsed = time.time() - t0
        report("9 parameter count",
               rel <= 0.30 and sub == expected_spatial and elapsed < 1,
               f"total {total} within +/-30% of 250000 (dev {rel:.1%}), spatial "
               f"subcount {sub} == formula {expected_spatial}, {elapsed:.2f}s < 1s")


class TestCriterion10Determinism:
    def test_end_to_end_checksums(self, tmp_path):
        t0 = time.time()

        def run(tag):
            root = tmp_path / tag
            data, out, ev = root / "data", root / "run", root / "eval"
            args = ["--classes", "3", "--channels", "2", "--hidden", "8",
                    "--d-state", "4", "--batch-size", "2"]
            assert main(["gen-data", "--out", str(data), "--seed", "21",
                         "--timesteps", "6", "--height", "6", "--width", "6",
                         "--train-samples", "6", "--valid-samples", "3",
                         "--test-samples", "3", *args[:4]]) == 0
            assert main(["train", "--data", str(data), "--out", str(out),
                         "--seed", "21", "--epochs", "2", "--lr", "0.001", *args]) == 0
            assert main(["eval", "--data", str(data / "test.sits"),
                         "--checkpoint", str(out / "final.ckpt"),
                         "--out", str(ev), "--seed", "21", *args]) == 0
            digest = {}
            for f in ("run/final.ckpt", "run/best.ckpt", "run/train_log.csv",
                      "run/epoch_log.csv", "eval/metrics.csv"):
                digest[f] = hashlib.sha256((root / f).read_bytes()).hexdigest()
            return digest

        first, second = run("a"), run("b")
        same = first == second
        elapsed = time.time() - t0
        report("10 determinism", same,
               f"checkpoints/logs/metrics checksum-identical across runs={same}, "
               f"{elapsed:.0f}s")
