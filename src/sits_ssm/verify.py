"""Independent oracles and the self-check suites behind ``sits-ssm verify``.

Each suite re-derives expected values along a second route: central
finite differences for gradients, the convolutional-kernel form for the
recurrence, closed-form scalars for the discretization that the
tape-composite scan runs (``ssm.discretize_zoh``), the tape-composite
scan for the fused scan, the three unfused ops for the fused
conv -> batchnorm -> ReLU stage, exact rational
arithmetic for the segmentation scores (also under ignore and eval class
sets), plain arithmetic for the loss identities, and the unpadded batch
for the same batch with padded timesteps appended. ``lti_steps`` lays out
the one time-invariant system ``ssm.kernel_convolve`` takes as the
recurrence's inputs. Each suite looks the route it checks up on its module
when it runs, so tests substitute a broken route with ``monkeypatch``.

One of these routes shares code with what it checks, so a defect in the
shared part can hit both sides alike. What still catches it:

- ``unfused_conv_bn_relu`` runs ``conv2d`` and ``batchnorm``, which share
  ``_conv_parts`` (columns, GEMM and its backward) and the ``_bn_*``
  helpers with ``conv_bn_relu``. The acceptance tests' finite-difference
  checks (criterion 1) over ``conv2d``, ``batchnorm`` and
  ``spatial.ConvBlock`` cover the shared code, and a test checks
  ``conv2d`` against a plain sum over its kernel taps, which also fails a
  kernel read transposed or a tap at the wrong offset: those are linear
  maps whose backward matches their forward, so finite differences pass.

The fused scan and the composite share no phi': the composite
differentiates ``zoh_phi`` with ``ssm._phi_prime``, the package's one phi',
while the fused backward needs none and forms ``a``'s gradient from e^z
and expm1(z)/a, with its own series below |z| = 1e-3. So a defect in
phi' or in either route's ``a`` gradient shows in the
``fused_vs_composite*`` rows.
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

FD_STEP = 1e-5      # central-difference step of ``finite_difference_grad``


def finite_difference_grad(f, tensors: list[Tensor], max_components: int | None = None,
                           rng: np.random.Generator | None = None):
    """Central-difference gradient of scalar ``f()`` w.r.t. each tensor,
    with step ``FD_STEP``.

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
            flat[i] = orig + FD_STEP
            fp = f().item()
            flat[i] = orig - FD_STEP
            fm = f().item()
            flat[i] = orig
            g[i] = (fp - fm) / (2 * FD_STEP)
        grads.append(g.reshape(t.shape))
    return grads


def gradcheck(f, tensors: list[Tensor], max_components: int | None = None,
              rng: np.random.Generator | None = None) -> float:
    """Max relative error between tape gradients and finite differences.

    Error per component is |a - n| / max(1, |a|, |n|), so tiny gradients
    are compared absolutely and large ones relatively; inf if a probed
    component is not finite on either side.
    """
    for t in tensors:
        t.zero_grad()
    loss = f()
    ad.backward(loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    numeric = finite_difference_grad(f, tensors, max_components=max_components, rng=rng)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        probed = ~np.isnan(n)
        if not probed.any():
            continue
        a, n = a[probed], n[probed]
        if not (np.isfinite(a).all() and np.isfinite(n).all()):
            return math.inf
        err = np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(err.max()))
    return worst


def lti_steps(a_bar, b_bar, c, x) -> tuple[Tensor, Tensor, Tensor]:
    """``ssm.scan_recurrence``'s (1, L, D, N), (1, L, D, N) and (1, L, N)
    inputs for one time-invariant system, the one ``ssm.kernel_convolve``
    takes: (D, N) ``a_bar`` and ``b_bar``, an (N,) ``c`` and (L, D) ``x``."""
    l = len(x)
    return (Tensor(np.broadcast_to(a_bar, (1, l) + a_bar.shape).copy()),
            Tensor((b_bar * x[:, :, None])[None]),
            Tensor(np.broadcast_to(c, (1, l) + c.shape).copy()))


def max_rel_diff(gots, refs) -> float:
    """Largest difference between paired arrays, each relative to its
    reference's largest magnitude; inf if an array is missing, the two
    differ in shape or either holds a value that is not finite."""
    worst = 0.0
    for got, ref in zip(gots, refs, strict=True):
        if (got is None or ref is None or got.shape != ref.shape
                or not (np.isfinite(got).all() and np.isfinite(ref).all())):
            return math.inf
        scale = max(float(np.abs(ref).max()), np.finfo(np.float64).tiny)
        worst = max(worst, float(np.abs(got - ref).max()) / scale)
    return worst


def vjp(fn, arrays, g, *rest) -> list:
    """``fn``'s output and the gradients of loss = sum(out * g) w.r.t. each
    of ``arrays``, on fresh tensors over copies of them; ``rest`` follows
    the tensors into ``fn`` as it is."""
    ts = [Tensor(np.array(a), requires_grad=True) for a in arrays]
    out = fn(*ts, *rest)
    ad.backward(ad.sum_(ad.mul(out, Tensor(g, dtype=out.dtype))))
    return [out.data] + [t.grad for t in ts]


def scan_vs_composite(args, g) -> float:
    """``max_rel_diff`` of the output and all six input gradients (``vjp``)
    of ``ssm.selective_scan_fused``, run in the inputs' dtype, against
    ``selective_scan_composite``, run in float64."""
    dtype = np.result_type(*args)
    return max_rel_diff(vjp(ssm.selective_scan_fused, [np.asarray(a, dtype) for a in args], g),
                        vjp(ssm.selective_scan_composite,
                            [np.asarray(a, np.float64) for a in args], g))


def unfused_conv_bn_relu(x, weight, bias, gamma, beta, running_mean, running_var,
                         training: bool) -> Tensor:
    """The route ``autodiff.conv_bn_relu`` fuses: conv2d, batchnorm, relu."""
    h = ad.conv2d(x, weight, bias)
    return ad.relu(ad.batchnorm(h, gamma, beta, running_mean, running_var, training))


def conv_bn_relu_pass(fn, arrays, buffers, g, training: bool) -> list:
    """Output, running buffers, and the gradients of x, weight, bias, gamma
    and beta (``vjp``) of one pass of a conv -> BN -> ReLU stage ``fn``, on
    copies of ``arrays`` and ``buffers``."""
    running = [b.copy() for b in buffers]
    out, *grads = vjp(fn, arrays, g, *running, training)
    return [out, *running, *grads]


def padding_shift(config, batch, extra: int) -> float:
    """Largest change that appending ``extra`` padded timesteps to ``batch``
    makes to a training step: over the logits, the loss and every parameter
    gradient, each relative to its unpadded array's largest magnitude
    (``max_rel_diff``). Both steps run on a fresh model from the same seed."""
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
        return [out.class_logits.data, total.data] + [p.grad for _, p in model.named_parameters()]

    return max_rel_diff(step(padded), step(batch))


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


def suite_zoh(report: VerifyReport):
    """Closed-form scalar checks of ``ssm.discretize_zoh``, the zero-order
    hold that the composite scan, the fused scan's oracle, runs."""
    cases = [
        # (a, delta, b, expected_a_bar, expected_b_bar)
        (-1.0, 1.0, 2.0, np.exp(-1.0), (1.0 - np.exp(-1.0)) * 2.0),
        (1.0, np.log(2.0), 1.0, 2.0, 1.0),
        (-1.0, 1e-9, 1.0, np.exp(-1e-9), 1e-9 * (1.0 - 0.5e-9)),
    ]
    for i, (a, d, b, ea, eb) in enumerate(cases):
        ab, bb = ssm.discretize_zoh(np.float64(a), np.float64(b), np.float64(d))
        report.add("zoh", f"closed_form_{i}_a_bar", abs(ab.item() - ea), 1e-12)
        report.add("zoh", f"closed_form_{i}_b_bar", abs(bb.item() - eb), 1e-12)
    # series fallback continuity: exact formula vs series at |delta*a| = 1e-5
    a, d, b = -1.0, 1e-5, 1.0
    _, bb = ssm.discretize_zoh(np.float64(a), np.float64(b), np.float64(d))
    exact = (np.expm1(d * a) / (d * a)) * d * b
    report.add("zoh", "series_vs_exact_at_1e-5", abs(bb.item() - exact) / abs(exact), 1e-9)


def suite_scan_kernel(report: VerifyReport):
    """Recurrence vs convolutional-kernel equivalence on 10 random LTI systems."""
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        l = int(rng.integers(4, 33))
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        a_bar = rng.uniform(0.05, 0.95, (d, n))
        b_bar = rng.normal(0, 1, (d, n))
        c = rng.normal(0, 1, n)  # readout shared across channels
        x = rng.normal(0, 1, (l, d))
        y_scan = ssm.scan_recurrence(*lti_steps(a_bar, b_bar, c, x)).data[0]
        y_kernel = ssm.kernel_convolve(a_bar, b_bar, c, x)
        worst = max(worst, float(np.max(np.abs(y_scan - y_kernel))))
    report.add("scan", "lti_scan_vs_kernel_max_abs", worst, 1e-6)


def suite_fused_scan(report: VerifyReport):
    """The production scan against the tape-composite route, in float64, on
    33 sequences with delta in [1e-3, 0.5] and again with delta in
    [1e-8, 1e-6], which puts z = delta a on both sides of phi's series
    switch and below those of phi' and a's gradient; again on 9 sequences of 13 steps, and on those with delta in
    [1e-8, 1e-6] in a few steps of some sequences, so that one call takes
    a's series in some steps and only its closed form in others. The
    composite's gradients go through ``ssm._phi_prime``, so these rows
    check phi' too."""
    rng = np.random.default_rng(11)

    def scan_args(b, l, d, n):
        return [rng.normal(0, 1, (b, l, d)), rng.uniform(1e-3, 0.5, (b, l, d)),
                -rng.uniform(0.5, 4.0, (d, n)), rng.normal(0, 1, (b, l, n)),
                rng.normal(0, 1, (b, l, n)), rng.normal(0, 1, d)], rng.normal(0, 1, (b, l, d))

    args, g = scan_args(33, 5, 64, 16)
    report.add("fused", "fused_vs_composite", scan_vs_composite(args, g), 1e-10)
    args[1] = rng.uniform(1e-8, 1e-6, args[1].shape)
    report.add("fused", "fused_vs_composite_tiny_delta", scan_vs_composite(args, g), 1e-10)
    args, g = scan_args(9, 13, 32, 8)
    report.add("fused", "fused_vs_composite_long", scan_vs_composite(args, g), 1e-10)
    args[1][2:5, 4:7] = rng.uniform(1e-8, 1e-6, (3, 3, 32))
    args[1][7, 10] = rng.uniform(1e-8, 1e-6, 32)
    report.add("fused", "fused_vs_composite_mixed_delta", scan_vs_composite(args, g), 1e-10)


def suite_spatial(report: VerifyReport):
    """``ad.conv_bn_relu`` against the three unfused ops, in float64, in
    training and inference mode, over 5 frames of 128 channels (five conv
    frame chunks): output, running buffers and every gradient must be the
    same bits."""
    rng = np.random.default_rng(13)
    arrays = [rng.normal(0, 1, (5, 128, 16, 16)), rng.normal(0, 0.03, (6, 128, 3, 3)),
              rng.normal(0, 0.1, 6), rng.uniform(0.5, 1.5, 6), rng.normal(0, 0.1, 6)]
    buffers = [rng.normal(0, 0.1, 6), rng.uniform(0.5, 2.0, 6)]
    g = rng.normal(0, 1, (5, 6, 16, 16))
    worst = max(max_rel_diff(*(conv_bn_relu_pass(fn, arrays, buffers, g, training)
                               for fn in (ad.conv_bn_relu, unfused_conv_bn_relu)))
                for training in (True, False))
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
    """Vectorized scores vs the rational brute-force oracle on 20 random pairs,
    then on 20 with a random ignore set and eval set each, skipping a draw
    that leaves no scored pixel or no present eval class."""
    from . import metrics
    rng = np.random.default_rng(3)

    def worst_deviation(with_sets: bool) -> float:
        worst = 0.0
        for _ in range(20):
            k = int(rng.integers(2, 7))
            labels = rng.integers(0, k, size=64)
            preds = rng.integers(0, k, size=64)
            ignore, eval_set = set(), None
            if with_sets:
                ignore = set(np.flatnonzero(rng.uniform(size=k) < 0.25).tolist())
                eval_set = np.flatnonzero(rng.uniform(size=k) < 0.6).tolist() or [k - 1]
                if np.isin(labels, list(ignore)).all():
                    continue
            _, oa, iou, f1, miou, mf1 = brute_force_scores(labels, preds, k, ignore, eval_set)
            if miou is None:
                continue
            cm = metrics.ConfusionMatrix(k, eval_set)
            s = metrics.scores(cm.accumulate(labels, preds, ignore))
            worst = max(worst, abs(s.oa - float(oa)), abs(s.miou - float(miou)),
                        abs(s.mf1 - float(mf1)),
                        *(abs(s.iou[kk] - float(v)) for kk, v in iou.items()),
                        *(abs(s.f1[kk] - float(v)) for kk, v in f1.items()))
        return worst

    report.add("metrics", "vectorized_vs_rational_oracle", worst_deviation(False), 1e-12)
    report.add("metrics", "vectorized_vs_rational_oracle_ignore_eval", worst_deviation(True),
               1e-12)
    cm = metrics.ConfusionMatrix(2)
    cm.counts = np.array([[2, 1], [0, 3]], dtype=np.int64)
    s = metrics.scores(cm)
    report.add("metrics", "hand_case_oa", abs(s.oa - 5 / 6), 1e-12)
    report.add("metrics", "hand_case_mf1", abs(s.mf1 - 29 / 35), 1e-6)


def suite_losses(report: VerifyReport):
    """Weighting identities of the combined objective, and the positional
    ramp that ``reconstruction_loss`` builds over ragged valid lengths."""
    from . import losses
    pw = losses.positional_weights(4)
    report.add("loss", "pw_L4", float(np.abs(pw - np.array([0.25, 0.5, 0.75, 1.0])).max()), 1e-15)
    rng = np.random.default_rng(17)
    target, recon = rng.normal(0, 1, (2, 2, 4, 3, 2, 2))
    mask = np.array([[True, True, True, True], [True, True, False, False]])
    per_step = ((recon - target) ** 2).mean(axis=(2, 3, 4))
    by_hand = (0.25 * per_step[0, 0] + 0.5 * per_step[0, 1] + 0.75 * per_step[0, 2]
               + 1.0 * per_step[0, 3] + 0.5 * per_step[1, 0] + 1.0 * per_step[1, 1]) / 2
    got = losses.reconstruction_loss(Tensor(target), Tensor(recon), mask).item()
    report.add("loss", "reconstruction_ramp_ragged", abs(got - by_hand) / by_hand, 1e-12)
    l_cls = Tensor(np.float64(0.8), requires_grad=False)
    l_tp = Tensor(np.float64(0.4), requires_grad=False)
    cfg = losses.LossConfig(w0=0.03)
    total, w1 = losses.combined_loss(l_cls, l_tp, cfg)
    report.add("loss", "w1_ratio", abs(w1 - 2.0), 1e-12)
    report.add("loss", "total_equals_1p_w0_times_cls",
               abs(total.item() - 1.03 * 0.8) / (1.03 * 0.8), 1e-12)


def run_all() -> VerifyReport:
    """Run every suite (tests substitute a route with ``monkeypatch``)."""
    report = VerifyReport()
    t0 = time.time()
    suite_zoh(report)
    suite_scan_kernel(report)
    suite_fused_scan(report)
    suite_spatial(report)
    suite_gradients(report)
    suite_padding(report)
    suite_metrics(report)
    suite_losses(report)
    report.elapsed = time.time() - t0
    return report
