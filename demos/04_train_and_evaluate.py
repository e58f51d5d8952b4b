"""A small end-to-end run: train the dual-branch model on an easy synthetic
task, watch the combined loss, and score the held-out patches.

The objective is  total = l_cls + w0 * w1 * l_tp  where l_cls is pixel
cross-entropy from the classification branch, l_tp the positionally
weighted reconstruction error from the auxiliary branch, w0 = 0.03, and
w1 = l_cls / l_tp recomputed each step as a gradient-stopped constant.
Takes a minute or two on one core.
"""

import tempfile

import numpy as np

from sits_ssm.data import generate_synthetic
from sits_ssm.losses import LossConfig
from sits_ssm.model import ModelConfig, SitsClassifier
from sits_ssm.trainer import TrainConfig, evaluate, train

common = dict(num_classes=4, timesteps=12, channels=3, height=10, width=10,
              noise_sigma=0.02, world_seed=42)
train_ds = generate_synthetic(seed=42, n_samples=40, **common)
valid_ds = generate_synthetic(seed=43, n_samples=12, **common)
test_ds = generate_synthetic(seed=44, n_samples=16, **common)

cfg = ModelConfig(input_channels=3, num_classes=4, hidden=12, d_state=8)
model = SitsClassifier(cfg, np.random.default_rng(0))
print(f"model: hidden {cfg.hidden}, {model.count_parameters()} trainable scalars")

with tempfile.TemporaryDirectory() as out:
    tc = TrainConfig(epochs=8, learning_rate=1e-3, batch_size=2, seed=0,
                     loss=LossConfig(w0=0.03))
    result = train(model, train_ds, valid_ds, tc, out)
    h = result.history
    print(f"\ntrained {tc.epochs} epochs ({len(h)} steps)")
    print(f"  combined loss: {h[0].total:.4f} -> {h[-1].total:.4f}")
    print(f"  first step:  l_cls={h[0].l_cls:.4f} l_tp={h[0].l_tp:.4f} w1={h[0].w1:.2f}")
    print(f"  last step:   l_cls={h[-1].l_cls:.4f} l_tp={h[-1].l_tp:.4f} w1={h[-1].w1:.2f}")
    print(f"  best validation mF1 {result.best_mf1:.4f} at epoch {result.best_epoch}")

    scores = evaluate(model, test_ds, LossConfig())
    print("\nheld-out metrics:")
    print("  " + scores.render().replace("\n", "\n  "))

    print("\nablation switches (same seed, one epoch each):")
    for name, loss_cfg in (("full", LossConfig(w0=0.03)),
                           ("no positional weight", LossConfig(w0=0.03, use_pw=False)),
                           ("no dynamic w1", LossConfig(w0=0.03, use_w1=False)),
                           ("no reconstruction", LossConfig(use_rbranch=False))):
        m = SitsClassifier(cfg, np.random.default_rng(1))
        r = train(m, train_ds, None,
                  TrainConfig(epochs=1, learning_rate=1e-3, batch_size=2, seed=1,
                              loss=loss_cfg), out)
        print(f"  {name:<22} end loss {r.history[-1].total:.4f} "
              f"(w1 {r.history[-1].w1:.2f})")
