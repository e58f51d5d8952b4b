"""Training loop: Adam updates, per-epoch shuffling, CSV logging,
best/final checkpointing, and the ablation switches.

Runs are deterministic for a fixed seed and configuration: one seeded
generator drives initialization, shuffling, and temporal sampling, and no
wall-clock content enters the logs or checkpoints.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from .autodiff import NonFiniteError, Tensor
from .losses import LossConfig, LossReport, classification_loss, combined_loss, reconstruction_loss
from .metrics import ConfusionMatrix, Scores, scores
from .model import SitsClassifier

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-4
    batch_size: int = 8
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    temporal_mode: str = "pad"   # "pad" | "sample30"
    eval_class_set: tuple | None = None  # classes entering validation mIoU/mF1
    early_stop: Callable | None = None   # callable(Scores) -> bool, checked per epoch

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.temporal_mode not in data_mod.TEMPORAL_MODES:
            raise ValueError(f"temporal_mode must be one of {data_mod.TEMPORAL_MODES}")


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8    # the reference recipe's Adam settings


class TrainingDivergedError(RuntimeError):
    """The model's values went non-finite: two train steps in a row, or a
    validation forward."""


class Adam:
    """Bias-corrected Adam. Steps with non-finite gradients are skipped."""

    def __init__(self, params: Iterable[tuple[str, Tensor]], lr: float):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(t.data, dtype=np.float64) for _, t in self.params]
        self.v = [np.zeros_like(t.data, dtype=np.float64) for _, t in self.params]

    @ad._quiet
    def step(self):
        for (name, t) in self.params:
            if t.grad is not None and not np.all(np.isfinite(t.grad)):
                log.warning("adam: non-finite gradient on %s, step skipped", name)
                return False
        self.step_count += 1
        k = self.step_count
        for i, (_, t) in enumerate(self.params):
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            self.m[i] = BETA1 * self.m[i] + (1 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1 - BETA2) * (g * g)
            m_hat = self.m[i] / (1 - BETA1 ** k)
            v_hat = self.v[i] / (1 - BETA2 ** k)
            t.data -= (self.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(t.data.dtype)
        return True

    def zero_grad(self):
        for _, t in self.params:
            t.grad = None


@dataclass
class TrainResult:
    best_mf1: float
    best_epoch: int
    final_checkpoint: Path
    best_checkpoint: Path
    log_path: Path
    epoch_log_path: Path
    history: list[LossReport] = field(default_factory=list)
    # batches with no scored pixel, which never reach train_step, steps whose
    # forward raised NonFiniteError (a strike the run went on past), and the
    # steps whose non-finite gradients Adam did not apply
    skipped_steps: int = 0


def evaluate(model: SitsClassifier, dataset, loss_cfg: LossConfig,
             batch_size: int = 8, temporal_mode: str = "pad",
             eval_class_set=None) -> Scores:
    """Inference-mode metrics over a dataset."""
    cm = ConfusionMatrix(model.config.num_classes, eval_class_set)
    for _, batch in data_mod.batches(dataset, batch_size, temporal_mode):
        preds = model.predict(batch)
        cm.accumulate(batch.labels, preds, ignore_labels=loss_cfg.ignore_labels)
    return scores(cm)


def train_step(model: SitsClassifier, batch, loss_cfg: LossConfig) -> LossReport:
    """One forward/backward pass; gradients are left on the parameters."""
    out = model.forward(batch, training=True, with_reconstruction=loss_cfg.use_rbranch)
    l_cls = classification_loss(out.class_logits, batch.labels, loss_cfg.ignore_labels)
    l_tp = None
    if loss_cfg.use_rbranch:
        l_tp = reconstruction_loss(batch.series, out.reconstruction,
                                   batch.valid_mask, use_pw=loss_cfg.use_pw)
    total, w1 = combined_loss(l_cls, l_tp, loss_cfg)
    report = LossReport(l_cls=l_cls.item(),
                        l_tp=l_tp.item() if l_tp is not None else 0.0,
                        w1=w1, total=total.item())
    ad.backward(total)
    return report


def train(model: SitsClassifier, train_set, valid_set, cfg: TrainConfig,
          out_dir) -> TrainResult:
    """Train with Adam for ``cfg.epochs`` epochs, each over the training set
    in a fresh seeded shuffle, writing logs and checkpoints to ``out_dir``.

    After each epoch the model is scored on ``valid_set``, if given, and
    saved as ``best.ckpt`` when its mF1 beats every earlier epoch's: of
    epochs that tie on the highest mF1, the first wins. ``final.ckpt``
    holds the last epoch's weights (and ``best.ckpt`` too when no
    validation ran).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    optim = Adam(list(model.named_parameters()), cfg.learning_rate)
    log_path = out_dir / "train_log.csv"
    epoch_log_path = out_dir / "epoch_log.csv"
    best_path = out_dir / "best.ckpt"
    final_path = out_dir / "final.ckpt"
    best_mf1, best_epoch = -1.0, -1
    consecutive_bad = skipped_steps = 0
    ignored = list(cfg.loss.ignore_labels)
    history: list[LossReport] = []

    with open(log_path, "w", newline="") as fh_step, open(epoch_log_path, "w", newline="") as fh_ep:
        step_csv = csv.writer(fh_step)
        step_csv.writerow(["epoch", "step", "l_cls", "l_tp", "w1", "total"])
        epoch_csv = csv.writer(fh_ep)
        epoch_csv.writerow(["epoch", "val_oa", "val_miou", "val_mf1", "best"])
        step_idx = 0
        for epoch in range(cfg.epochs):
            adam_skipped = 0
            shuffled = [train_set[i] for i in rng.permutation(len(train_set))]
            for _, batch in data_mod.batches(shuffled, cfg.batch_size, cfg.temporal_mode, rng):
                if np.isin(batch.labels, ignored).all():
                    # nothing for the classification loss to average over
                    log.warning("epoch %d step %d: every pixel of the batch is ignored, "
                                "step skipped", epoch, step_idx)
                    skipped_steps += 1
                    step_idx += 1
                    continue
                optim.zero_grad()
                try:
                    report = train_step(model, batch, cfg.loss)
                except NonFiniteError as e:
                    consecutive_bad += 1
                    # info, like the epoch's skip count: a second strike's error repeats the cause
                    log.info("epoch %d step %d: %s (strike %d)", epoch, step_idx, e,
                             consecutive_bad)
                    if consecutive_bad >= 2:
                        raise TrainingDivergedError(
                            f"training diverged: non-finite loss twice in a row "
                            f"(epoch {epoch}, step {step_idx}): {e}") from e
                    skipped_steps += 1
                    step_idx += 1
                    continue
                consecutive_bad = 0
                # a skipped step keeps its row in the logs, which count batches
                adam_skipped += not optim.step()
                history.append(report)
                step_csv.writerow([epoch, step_idx, repr(report.l_cls), repr(report.l_tp),
                                   repr(report.w1), repr(report.total)])
                step_idx += 1
            log.info("epoch %d: %d optimizer steps skipped for non-finite gradients", epoch,
                     adam_skipped)
            skipped_steps += adam_skipped
            if valid_set is not None and len(valid_set):
                try:
                    s = evaluate(model, valid_set, cfg.loss, cfg.batch_size, cfg.temporal_mode,
                                 eval_class_set=cfg.eval_class_set)
                except NonFiniteError as e:
                    raise TrainingDivergedError(
                        f"training diverged: validation after epoch {epoch}: {e}") from e
                improved = s.mf1 > best_mf1
                if improved:
                    best_mf1, best_epoch = s.mf1, epoch
                    model.save(best_path)
                epoch_csv.writerow([epoch, repr(s.oa), repr(s.miou), repr(s.mf1),
                                    int(improved)])
                if cfg.early_stop is not None and cfg.early_stop(s):
                    break
    model.save(final_path)
    if best_epoch < 0:
        model.save(best_path)
    return TrainResult(best_mf1=best_mf1, best_epoch=best_epoch,
                       final_checkpoint=final_path, best_checkpoint=best_path,
                       log_path=log_path, epoch_log_path=epoch_log_path,
                       history=history, skipped_steps=skipped_steps)
