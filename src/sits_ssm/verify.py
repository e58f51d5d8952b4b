"""Independent oracles and the self-check suites behind ``sits-ssm verify``.

Each suite re-derives expected values along a second route: central
finite differences for gradients, the convolutional-kernel form for the
recurrence, closed-form scalars for the discretization, the tape-composite
scan for the fused scan, a long float64 series for phi', the three unfused
ops for the fused conv -> batchnorm -> ReLU stage, exact rational
arithmetic for the segmentation scores, plain arithmetic for the loss
identities, and the unpadded batch for the same batch with padded
timesteps appended.

Two of these routes share code with what they check, so a defect in the
shared part can hit both sides alike. What still catches it:

- ``unfused_conv_bn_relu`` runs ``conv2d`` and ``batchnorm``, which share
  ``_conv_parts`` (im2col, GEMM and its backward) and the ``_bn_*``
  helpers with ``conv_bn_relu``. The acceptance tests' finite-difference
  checks (criterion 1) over ``conv2d``, ``batchnorm`` and
  ``spatial.ConvBlock`` cover the shared code.
- The composite scan differentiates ``zoh_phi`` with ``_phi_prime``, which
  the fused backward also uses for ``a``'s gradient. The fused scan forms
  delta's gradient without phi', so a phi' defect still shows there: a
  float64 phi' scaled by 1.001 fails ``fused_vs_composite`` at 4.8e-4.
  The acceptance tests' finite-difference check through
  ``ssm.MambaBlock`` covers the fused path, phi' included.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import autodiff as ad
from . import ssm
from .autodiff import Tensor


def finite_difference_grad(f, tensors: list[Tensor], h: float = 1e-5,
                           max_components: int | None = None,
                           rng: np.random.Generator | None = None):
    """Central-difference gradient of scalar ``f()`` w.r.t. each tensor.

    ``f`` must read the current ``.data`` of the tensors on every call.
    Returns one array per tensor, NaN at components that were not probed
    (when ``max_components`` subsamples large tensors).
    """
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        idx = np.arange(flat.size)
        if max_components is not None and flat.size > max_components:
            if rng is None:
                rng = np.random.default_rng(0)
            idx = rng.choice(flat.size, size=max_components, replace=False)
        g = np.full(flat.size, np.nan)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            fp = f().item()
            flat[i] = orig - h
            fm = f().item()
            flat[i] = orig
            g[i] = (fp - fm) / (2 * h)
        grads.append(g.reshape(t.shape))
    return grads


def gradcheck(f, tensors: list[Tensor], h: float = 1e-5,
              max_components: int | None = None,
              rng: np.random.Generator | None = None) -> float:
    """Max relative error between tape gradients and finite differences.

    Error per component is |a - n| / max(1, |a|, |n|), so tiny gradients
    are compared absolutely and large ones relatively.
    """
    for t in tensors:
        t.zero_grad()
    loss = f()
    ad.backward(loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    numeric = finite_difference_grad(f, tensors, h=h, max_components=max_components, rng=rng)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        probed = ~np.isnan(n)
        if not probed.any():
            continue
        a, n = a[probed], n[probed]
        err = np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(err.max()))
    return worst


def phi_prime_reference(z) -> np.ndarray:
    """float64 d/dz[(e^z - 1)/z]: 30 series terms below |z| = 0.5, the closed
    form (e^z (z - 1) + 1)/z^2 above, where it loses at most one digit."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    near = np.abs(z) < 0.5
    zn = z[near]
    acc = np.zeros_like(zn)
    for k in range(29, -1, -1):
        acc = acc * zn + (k + 1) / math.factorial(k + 2)
    out[near] = acc
    zf = z[~near]
    out[~near] = (np.exp(zf) * (zf - 1.0) + 1.0) / (zf * zf)
    return out


def scan_vs_composite(args, g, scan_fn=None) -> float:
    """Largest difference between a fused scan and ``selective_scan_composite``
    over the output and all six input gradients (loss = sum(y * g)), each
    relative to the composite array's largest magnitude. The fused scan
    runs in the inputs' dtype, the composite in float64."""
    scan = scan_fn or ssm.selective_scan_fused

    def run(fn, dtype):
        ts = [Tensor(np.array(x, dtype=dtype), requires_grad=True) for x in args]
        y = fn(*ts)
        ad.backward(ad.sum_(ad.mul(y, Tensor(np.asarray(g, dtype=dtype)))))
        return [y.data] + [t.grad for t in ts]

    worst = 0.0
    pairs = zip(run(scan, np.result_type(*args)), run(ssm.selective_scan_composite, np.float64))
    for got, ref in pairs:
        if got is None or got.shape != ref.shape:
            return math.inf
        scale = max(float(np.abs(ref).max()), np.finfo(np.float64).tiny)
        worst = max(worst, float(np.abs(got - ref).max()) / scale)
    return worst


def unfused_conv_bn_relu(x, weight, bias, gamma, beta, running_mean, running_var,
                         training: bool) -> Tensor:
    """The route ``autodiff.conv_bn_relu`` fuses: conv2d, batchnorm, relu."""
    h = ad.conv2d(x, weight, bias)
    return ad.relu(ad.batchnorm(h, gamma, beta, running_mean, running_var, training))


def conv_bn_relu_pass(fn, arrays, buffers, g, training: bool) -> list:
    """Output, running buffers, and the gradients of x, weight, bias, gamma
    and beta (loss = sum(out * g)) of one pass of a conv -> BN -> ReLU stage
    ``fn``, on fresh tensors over copies of ``arrays`` and ``buffers``."""
    ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    running = [b.copy() for b in buffers]
    out = fn(*ts, *running, training)
    ad.backward(ad.sum_(ad.mul(out, Tensor(g))))
    return [out.data, *running] + [t.grad for t in ts]


def padding_shift(config, batch, extra: int) -> float:
    """Largest change that appending ``extra`` padded timesteps to ``batch``
    makes to a training step: over the logits, the loss and every parameter
    gradient, each relative to its unpadded array's largest magnitude. Both
    steps run on a fresh model from the same seed."""
    from .data import SitsBatch
    from .losses import LossConfig, classification_loss, combined_loss, reconstruction_loss
    from .model import SitsClassifier
    n, t = batch.valid_mask.shape
    tail = np.zeros((n, extra) + batch.series.shape[2:], dtype=batch.series.dtype)
    padded = SitsBatch(np.concatenate([batch.series, tail], axis=1),
                       np.pad(batch.valid_mask, ((0, 0), (0, extra))), batch.labels)

    def step(b):
        model = SitsClassifier(config, 0)
        out = model.forward(b, training=True)
        l_tp = reconstruction_loss(b.series, out.reconstruction, b.valid_mask)
        total, _ = combined_loss(classification_loss(out.class_logits, b.labels), l_tp,
                                 LossConfig())
        ad.backward(total)
        return [out.class_logits.data, total.data] + [p.grad for _, p in model.named_params()]

    worst = 0.0
    for got, ref in zip(step(padded), step(batch)):
        if got is None or ref is None:
            return math.inf
        scale = max(float(np.abs(ref).max()), np.finfo(np.float64).tiny)
        worst = max(worst, float(np.abs(got - ref).max()) / scale)
    return worst


# ---------------------------------------------------------------------------
# brute-force segmentation-score oracle (exact rational arithmetic)

def brute_force_scores(labels: np.ndarray, predictions: np.ndarray, num_classes: int,
                       ignore_labels=(), eval_class_set=None):
    """Triple-loop confusion counting and Fraction-exact score formulas.

    Returns (cm, oa, iou, f1, miou, mf1) where cm is an int matrix, oa a
    Fraction, iou/f1 dicts class->Fraction (absent classes omitted), and
    miou/mf1 Fractions over the evaluated present classes.
    """
    labels = np.asarray(labels).reshape(-1)
    predictions = np.asarray(predictions).reshape(-1)
    ignore = set(ignore_labels)
    cm = [[0] * num_classes for _ in range(num_classes)]
    for t, p in zip(labels.tolist(), predictions.tolist()):
        if t in ignore:
            continue
        cm[t][p] += 1
    total = sum(sum(row) for row in cm)
    if total == 0:
        raise ValueError("no scored pixels")
    oa = Fraction(sum(cm[k][k] for k in range(num_classes)), total)
    if eval_class_set is None:
        eval_class_set = range(num_classes)
    iou, f1 = {}, {}
    for k in eval_class_set:
        tp = cm[k][k]
        fp = sum(cm[i][k] for i in range(num_classes)) - tp
        fn = sum(cm[k]) - tp
        if tp + fp + fn == 0:
            continue
        iou[k] = Fraction(tp, tp + fp + fn)
        f1[k] = Fraction(2 * tp, 2 * tp + fp + fn)
    miou = sum(iou.values()) / len(iou) if iou else None
    mf1 = sum(f1.values()) / len(f1) if f1 else None
    return np.array(cm), oa, iou, f1, miou, mf1


# ---------------------------------------------------------------------------
# generator separability oracle

def centroid_accuracy(dataset) -> float:
    """1-nearest-centroid accuracy on per-pixel temporal profiles.

    Fits one mean profile (T*C values) per class over all pixels, then
    classifies every pixel by the nearest centroid. On noise-free data
    with distinct class curves this must reach 1.0; it degrades with
    noise, which is what makes it a generator-quality probe.
    """
    profiles, labels = [], []
    for s in dataset.samples:
        v = s.valid_length
        flat = s.series[:v].reshape(v * s.series.shape[1], -1).T    # (H*W, T*C)
        profiles.append(flat.astype(np.float64))
        labels.append(s.label_map.reshape(-1))
    x = np.concatenate(profiles)
    y = np.concatenate(labels)
    k = dataset.num_classes
    present = [c for c in range(k) if (y == c).any()]
    centroids = np.stack([x[y == c].mean(axis=0) for c in present])
    d2 = ((x ** 2).sum(axis=1)[:, None] - 2.0 * x @ centroids.T
          + (centroids ** 2).sum(axis=1)[None])
    pred = np.asarray(present)[np.argmin(d2, axis=1)]
    return float((pred == y).mean())


# ---------------------------------------------------------------------------
# verification suites

@dataclass
class CheckRow:
    suite: str
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass
class VerifyReport:
    rows: list[CheckRow] = field(default_factory=list)
    elapsed: float = 0.0

    def add(self, suite, name, value, threshold):
        self.rows.append(CheckRow(suite, name, float(value), float(threshold),
                                  bool(value < threshold)))

    def ok(self) -> bool:
        return all(r.passed for r in self.rows)

    def render(self) -> str:
        lines = [f"{'suite':<12} {'check':<44} {'value':>12} {'limit':>10} result"]
        for r in self.rows:
            lines.append(f"{r.suite:<12} {r.name:<44} {r.value:>12.3e} "
                         f"{r.threshold:>10.1e} {'PASS' if r.passed else 'FAIL'}")
        return "\n".join(lines)


def suite_zoh(report: VerifyReport, zoh_fn=None):
    """Closed-form scalar checks of the zero-order-hold discretization."""
    fn = zoh_fn or ssm.discretize_zoh
    cases = [
        # (a, delta, b, expected_a_bar, expected_b_bar)
        (-1.0, 1.0, 2.0, np.exp(-1.0), (1.0 - np.exp(-1.0)) * 2.0),
        (1.0, np.log(2.0), 1.0, 2.0, 1.0),
        (-1.0, 1e-9, 1.0, np.exp(-1e-9), 1e-9 * (1.0 - 0.5e-9)),
    ]
    for i, (a, d, b, ea, eb) in enumerate(cases):
        ab, bb = fn(np.float64(a), np.float64(b), np.float64(d))
        report.add("zoh", f"closed_form_{i}_a_bar", abs(float(ab) - ea), 1e-12)
        report.add("zoh", f"closed_form_{i}_b_bar", abs(float(bb) - eb), 1e-12)
    # series fallback continuity: exact formula vs series at |delta*a| = 1e-5
    a, d, b = -1.0, 1e-5, 1.0
    _, bb = fn(np.float64(a), np.float64(b), np.float64(d))
    exact = (np.expm1(d * a) / (d * a)) * d * b
    report.add("zoh", "series_vs_exact_at_1e-5", abs(float(bb) - exact) / abs(exact), 1e-9)


def suite_scan_kernel(report: VerifyReport, scan_fn=None, n_seeds: int = 10):
    """Recurrence vs convolutional-kernel equivalence on random LTI systems."""
    scan = scan_fn or ssm.scan_recurrence
    worst = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        l = int(rng.integers(4, 33))
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a_bar = rng.uniform(0.05, 0.95, (d, n))
        b_bar = rng.normal(0, 1, (d, n))
        c = rng.normal(0, 1, n)  # readout shared across channels
        x = rng.normal(0, 1, (l, d))
        steps = ssm.DiscreteStep(
            Tensor(np.broadcast_to(a_bar, (l, d, n)).copy()),
            Tensor(np.broadcast_to(b_bar, (l, d, n)) * x[:, :, None]),
            Tensor(np.broadcast_to(c, (l, n)).copy()),
        )
        y_scan = scan(steps).data
        y_kernel = ssm.kernel_convolve(a_bar, b_bar, c, x)
        worst = max(worst, float(np.max(np.abs(y_scan - y_kernel))))
    report.add("scan", "lti_scan_vs_kernel_max_abs", worst, 1e-6)


def suite_fused_scan(report: VerifyReport, scan_fn=None):
    """The production scan against the tape-composite route, in float64, on
    33 sequences with delta in [1e-3, 0.5] and again with delta in
    [1e-8, 1e-6], far below the series switches of phi and phi'; again on
    9 sequences of 13 steps; plus phi' in float32 against the float64
    reference."""
    rng = np.random.default_rng(11)

    def scan_args(b, l, d, n):
        return [rng.normal(0, 1, (b, l, d)), rng.uniform(1e-3, 0.5, (b, l, d)),
                -rng.uniform(0.5, 4.0, (d, n)), rng.normal(0, 1, (b, l, n)),
                rng.normal(0, 1, (b, l, n)), rng.normal(0, 1, d)], rng.normal(0, 1, (b, l, d))

    args, g = scan_args(33, 5, 64, 16)
    report.add("fused", "fused_vs_composite", scan_vs_composite(args, g, scan_fn), 1e-10)
    args[1] = rng.uniform(1e-8, 1e-6, args[1].shape)
    report.add("fused", "fused_vs_composite_tiny_delta",
               scan_vs_composite(args, g, scan_fn), 1e-10)
    args, g = scan_args(9, 13, 32, 8)
    report.add("fused", "fused_vs_composite_long", scan_vs_composite(args, g, scan_fn), 1e-10)
    z = -np.logspace(-8, np.log10(20.0), 2001)
    ref = phi_prime_reference(z)
    got = ssm._phi_prime(z.astype(np.float32)).astype(np.float64)
    report.add("fused", "phi_prime_float32_max_rel", float(np.max(np.abs(got - ref) / ref)), 1e-5)


def suite_spatial(report: VerifyReport, fused_fn=None):
    """The fused conv -> BN -> ReLU stage against the three unfused ops, in
    float64, in training and inference mode, over 5 frames of 128 channels
    (two conv frame chunks): output, running buffers and every gradient
    must be the same bits."""
    fn = fused_fn or ad.conv_bn_relu
    rng = np.random.default_rng(13)
    arrays = [rng.normal(0, 1, (5, 128, 16, 16)), rng.normal(0, 0.03, (6, 128, 3, 3)),
              rng.normal(0, 0.1, 6), rng.uniform(0.5, 1.5, 6), rng.normal(0, 0.1, 6)]
    buffers = [rng.normal(0, 0.1, 6), rng.uniform(0.5, 2.0, 6)]
    g = rng.normal(0, 1, (5, 6, 16, 16))
    worst = 0.0
    for training in (True, False):
        pairs = zip(conv_bn_relu_pass(fn, arrays, buffers, g, training),
                    conv_bn_relu_pass(unfused_conv_bn_relu, arrays, buffers, g, training))
        for got, ref in pairs:
            if got is None or got.shape != ref.shape:
                worst = math.inf
            else:
                worst = max(worst, float(np.max(np.abs(got - ref))))
    # exact: only a zero difference is below the smallest subnormal
    report.add("spatial", "conv_bn_relu_vs_unfused", worst,
               np.finfo(np.float64).smallest_subnormal)


def suite_gradients(report: VerifyReport):
    """Spot finite-difference checks on the core differentiable pieces."""
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(0, 1, (3, 4)).astype(np.float64), requires_grad=True)
    report.add("grad", "softplus_silu_chain",
               gradcheck(lambda: ad.sum_(ad.silu(ad.softplus(x))), [x]), 1e-4)
    blk = ssm.MambaBlock(4, 4, rng, dtype=np.float64)
    seq = Tensor(rng.normal(0, 1, (2, 5, 4)).astype(np.float64), requires_grad=True)
    params = [seq, blk.a_log, blk.dt_proj.bias, blk.x_proj.weight]
    report.add("grad", "mamba_block_fd",
               gradcheck(lambda: ad.sum_(blk(seq)), params, max_components=24,
                         rng=np.random.default_rng(1)), 1e-4)


def suite_padding(report: VerifyReport):
    """A training step on a tiny float64 model is unchanged by padding
    appended to its ragged batch: padded frames are never computed."""
    from .data import SitsBatch
    from .model import ModelConfig
    rng = np.random.default_rng(5)
    config = ModelConfig(input_channels=2, num_classes=3, hidden=8, d_state=4, dtype="float64")
    mask = np.arange(5) < np.array([[5], [3], [2]])
    batch = SitsBatch(rng.uniform(0, 1, (3, 5, 2, 4, 4)) * mask[:, :, None, None, None], mask,
                      rng.integers(0, 3, (3, 4, 4)))
    report.add("padding", "train_step_append_padding_max_rel", padding_shift(config, batch, 3),
               1e-10)


def suite_metrics(report: VerifyReport):
    """Vectorized scores vs the rational brute-force oracle."""
    from . import metrics
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 7))
        labels = rng.integers(0, k, size=64)
        preds = rng.integers(0, k, size=64)
        cm = metrics.ConfusionMatrix(k)
        cm.accumulate(labels, preds)
        s = metrics.scores(cm)
        _, oa, iou, f1, miou, mf1 = brute_force_scores(labels, preds, k)
        worst = max(worst, abs(s.oa - float(oa)))
        for kk, v in iou.items():
            worst = max(worst, abs(s.iou[kk] - float(v)))
        worst = max(worst, abs(s.miou - float(miou)), abs(s.mf1 - float(mf1)))
    report.add("metrics", "vectorized_vs_rational_oracle", worst, 1e-12)
    cm = metrics.ConfusionMatrix(2)
    cm.counts = np.array([[2, 1], [0, 3]], dtype=np.int64)
    s = metrics.scores(cm)
    report.add("metrics", "hand_case_oa", abs(s.oa - 5 / 6), 1e-12)
    report.add("metrics", "hand_case_mf1", abs(s.mf1 - 29 / 35), 1e-6)


def suite_losses(report: VerifyReport):
    """Weighting identities of the combined objective."""
    from . import losses
    pw = losses.positional_weights(4)
    report.add("loss", "pw_L4", float(np.abs(pw - np.array([0.25, 0.5, 0.75, 1.0])).max()), 1e-15)
    l_cls = Tensor(np.float64(0.8), requires_grad=False)
    l_tp = Tensor(np.float64(0.4), requires_grad=False)
    cfg = losses.LossConfig(w0=0.03)
    total, w1 = losses.combined_loss(l_cls, l_tp, cfg)
    report.add("loss", "w1_ratio", abs(w1 - 2.0), 1e-12)
    report.add("loss", "total_equals_1p_w0_times_cls",
               abs(total.item() - 1.03 * 0.8) / (1.03 * 0.8), 1e-12)


def run_all(zoh_fn=None, scan_fn=None, fused_fn=None) -> VerifyReport:
    """Run every suite; injectable hooks exist so tests can prove the
    suites actually catch defects."""
    report = VerifyReport()
    t0 = time.time()
    suite_zoh(report, zoh_fn=zoh_fn)
    suite_scan_kernel(report, scan_fn=scan_fn)
    suite_fused_scan(report, scan_fn=fused_fn)
    suite_spatial(report)
    suite_gradients(report)
    suite_padding(report)
    suite_metrics(report)
    suite_losses(report)
    report.elapsed = time.time() - t0
    return report
