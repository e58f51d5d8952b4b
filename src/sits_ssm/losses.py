"""Multi-task objective: pixel cross-entropy plus a positionally weighted
series-reconstruction term.

The combined loss is  total = l_cls + w0 * w1 * l_tp  with fixed w0
(default 0.03) and dynamic w1 = l_cls / l_tp. w1 is recomputed every step
as a gradient-stopped constant: the total then *evaluates* to
(1 + w0) * l_cls, but its gradient keeps a genuine reconstruction
component  grad(l_cls) + w0 * (l_cls/l_tp) * grad(l_tp),  which is what
lets the reconstruction branch shape the shared encoder. If w1 carried
gradients the reconstruction term would cancel out of the gradient
entirely and the auxiliary branch would be inert.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

log = logging.getLogger(__name__)

W1_EPS = 1e-8


@dataclass
class LossConfig:
    w0: float = 0.03
    use_pw: bool = True
    use_w1: bool = True
    use_rbranch: bool = True
    ignore_labels: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if not (np.isfinite(self.w0) and self.w0 >= 0):
            raise ValueError(f"w0 must be finite and non-negative, got {self.w0}")
        self.ignore_labels = frozenset(self.ignore_labels)


@dataclass
class LossReport:
    """Per-step scalar record; ``total == l_cls + w0*w1*l_tp`` by construction."""
    l_cls: float
    l_tp: float
    w1: float
    total: float


def positional_weights(length: int) -> np.ndarray:
    """Per-timestep weights 1/L, 2/L, ..., L/L emphasizing later steps."""
    if length < 1:
        raise ValueError("positional_weights: length must be >= 1")
    return np.arange(1, length + 1, dtype=np.float64) / length


def classification_loss(logits: Tensor, labels: np.ndarray, ignore_labels=()) -> Tensor:
    """Softmax cross-entropy over the class axis, averaged over all
    non-ignored pixels in the batch.

    logits: (N, K, H, W); labels: int (N, H, W).
    """
    logits = ad.as_tensor(logits)
    labels = np.asarray(labels)
    if logits.ndim != 4 or labels.shape != (logits.shape[0],) + logits.shape[2:]:
        raise ShapeError(f"classification_loss: logits {logits.shape} vs labels {labels.shape}")
    k = logits.shape[1]
    flat = ad.reshape(ad.transpose(logits, (0, 2, 3, 1)), (-1, k))
    lab = labels.reshape(-1)
    keep = ~np.isin(lab, list(ignore_labels)) if ignore_labels else None
    return ad.cross_entropy_logits(flat, lab, keep)


def reconstruction_loss(target, reconstruction: Tensor, valid_mask: np.ndarray | None = None,
                        use_pw: bool = True) -> Tensor:
    """Weighted squared-error between the input series and its reconstruction.

    Both arguments are (N, L, C, H, W). Per (sample, timestep) the squared
    error is averaged over channels and pixels; timesteps are weighted by
    the positional ramp over each sample's valid length (or uniformly when
    ``use_pw`` is off), summed over valid timesteps, and averaged over the
    batch. Padded timesteps contribute nothing.
    """
    reconstruction = ad.as_tensor(reconstruction)
    target = ad.as_tensor(target)
    if target.shape != reconstruction.shape or reconstruction.ndim != 5:
        raise ShapeError(
            f"reconstruction_loss: target {target.shape} vs reconstruction {reconstruction.shape}")
    n, l = reconstruction.shape[:2]
    if valid_mask is None:
        valid_mask = np.ones((n, l), dtype=bool)
    valid_mask = np.asarray(valid_mask, dtype=bool)
    if valid_mask.shape != (n, l):
        raise ShapeError(f"reconstruction_loss: mask {valid_mask.shape} != {(n, l)}")
    counts = valid_mask.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("reconstruction_loss: sample with no valid timestep")

    # the positional ramp 1/cnt, ..., cnt/cnt over each sample's valid steps
    ramp = np.cumsum(valid_mask, axis=1) / counts[:, None] if use_pw else 1.0
    weights = np.where(valid_mask, ramp, 0.0)

    diff = ad.sub(reconstruction, target)
    per_step = ad.mean(ad.mul(diff, diff), axis=(2, 3, 4))  # (N, L)
    weighted = ad.mul(per_step, Tensor(weights.astype(reconstruction.dtype)))
    return ad.mean(ad.sum_(weighted, axis=1))


def combined_loss(l_cls: Tensor, l_tp: Tensor | None, config: LossConfig):
    """Balance the two branch losses; returns (total, w1_value).

    w1 is a plain float (no tape participation). With the reconstruction
    branch disabled or w0 == 0 the total is the classification loss alone.
    """
    if l_tp is None or config.w0 == 0.0 or not config.use_rbranch:
        return l_cls, 1.0
    if config.use_w1:
        tp_val = l_tp.item()
        if tp_val <= 0.0:
            log.warning("combined_loss: l_tp=%g, clamping w1 denominator with eps=%g",
                        tp_val, W1_EPS)
            tp_val = tp_val + W1_EPS
        w1 = l_cls.item() / tp_val
    else:
        w1 = 1.0
    total = ad.add(l_cls, ad.mul(l_tp, float(config.w0 * w1)))
    return total, w1
