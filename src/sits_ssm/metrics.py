"""Confusion-matrix accumulation and segmentation scores.

Rows are true classes, columns predicted. OA is trace/total over every
scored pixel; per class k, TP = cm[k][k], FP = column sum - TP,
FN = row sum - TP, IoU = TP/(TP+FP+FN), F1 = 2TP/(2TP+FP+FN). mIoU/mF1
average the per-class values with equal class weight over
``eval_class_set``; classes with TP+FP+FN == 0 are reported absent (NaN)
and excluded from the means.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


def eval_classes(num_classes: int, classes=None) -> tuple:
    """The sorted class set entering mIoU/mF1, every class when ``classes``
    is None. An empty set, or a class outside [0, num_classes), raises
    ``ValueError``."""
    chosen = tuple(range(num_classes)) if classes is None else tuple(sorted(classes))
    if not chosen or chosen[0] < 0 or chosen[-1] >= num_classes:
        raise ValueError(f"eval classes {list(chosen)} are not a non-empty subset of "
                         f"[0, {num_classes})")
    return chosen


class ConfusionMatrix:
    def __init__(self, num_classes: int, eval_class_set=None):
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        self.eval_class_set = eval_classes(num_classes, eval_class_set)

    def accumulate(self, labels: np.ndarray, predictions: np.ndarray, ignore_labels=()):
        """Count each non-ignored pixel into cm[true][pred]. Returns self."""
        labels = np.asarray(labels).reshape(-1)
        predictions = np.asarray(predictions).reshape(-1)
        if labels.shape != predictions.shape:
            raise ValueError("labels and predictions differ in shape")
        if ignore_labels:
            keep = ~np.isin(labels, list(ignore_labels))
            labels, predictions = labels[keep], predictions[keep]
        if labels.size == 0:
            return self
        k = self.num_classes
        if labels.min() < 0 or labels.max() >= k or predictions.min() < 0 or predictions.max() >= k:
            raise ValueError(f"class index outside [0, {k})")
        self.counts += np.bincount(
            labels.astype(np.int64) * k + predictions.astype(np.int64),
            minlength=k * k).reshape(k, k)
        return self


@dataclass
class Scores:
    oa: float
    iou: np.ndarray       # per class, NaN where absent
    f1: np.ndarray
    miou: float
    mf1: float
    present: np.ndarray   # bool per class: TP+FP+FN > 0

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["class", "name", "iou", "f1", "present"])
            for k in range(len(self.iou)):
                w.writerow([k, f"class_{k}",
                            "" if np.isnan(self.iou[k]) else repr(float(self.iou[k])),
                            "" if np.isnan(self.f1[k]) else repr(float(self.f1[k])),
                            int(self.present[k])])
            w.writerow(["OA", "", repr(self.oa), "", ""])
            w.writerow(["mIoU", "", repr(self.miou), "", ""])
            w.writerow(["mF1", "", "", repr(self.mf1), ""])

    def render(self, eval_class_set=None) -> str:
        lines = [f"{'class':>6} {'IoU':>10} {'F1':>10}"]
        for k in range(len(self.iou)):
            if np.isnan(self.iou[k]):
                lines.append(f"{k:>6} {'absent':>10} {'absent':>10}")
            else:
                lines.append(f"{k:>6} {self.iou[k]:>10.4f} {self.f1[k]:>10.4f}")
        lines.append(f"OA={self.oa:.4f}  mIoU={self.miou:.4f}  mF1={self.mf1:.4f}")
        if eval_class_set is not None:
            lines.append(f"(means over classes {list(eval_class_set)})")
        return "\n".join(lines)


def scores(cm: ConfusionMatrix) -> Scores:
    counts = cm.counts
    total = int(counts.sum())
    if total == 0:
        raise ValueError("scores: confusion matrix has no scored pixels")
    k = cm.num_classes
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0).astype(np.float64) - tp
    fn = counts.sum(axis=1).astype(np.float64) - tp
    denom_iou = tp + fp + fn
    present = denom_iou > 0
    iou = np.full(k, np.nan)
    f1 = np.full(k, np.nan)
    iou[present] = tp[present] / denom_iou[present]
    f1[present] = 2.0 * tp[present] / (2.0 * tp[present] + fp[present] + fn[present])
    eval_mask = np.zeros(k, dtype=bool)
    eval_mask[list(cm.eval_class_set)] = True
    scored = eval_mask & present
    miou = float(iou[scored].sum() / scored.sum()) if scored.any() else float("nan")
    mf1 = float(f1[scored].sum() / scored.sum()) if scored.any() else float("nan")
    return Scores(oa=float(tp.sum() / total), iou=iou, f1=f1,
                  miou=miou, mf1=mf1, present=present)
