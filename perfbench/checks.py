"""Correctness gate, run outside the timed region of every workload.

* Scan: on a fixed slice of the pixel sequences captured at the boundary of
  ``ssm.selective_scan_fused``, the fused op's output and all six input
  gradients match ``ssm.selective_scan_composite`` in float64, on both of
  the fused op's paths: ``ssm._SCAN_VECTOR_BUDGET`` is forced so that the
  slice takes the stream path once and the stash path once, whichever path
  the full-size call took. Pixel
  sequences are independent, so a slice is a valid sub-problem. Both routes
  evaluate the same ZOH formulas, so only summation order separates them:
  the tolerance is relative 1e-8 of each array's largest magnitude.
* Predict: each sample's logits from a padded batch match its logits when
  it is predicted alone, within float32 tolerance (relative 1e-4 of the
  batch's largest logit magnitude).
* Loss: every reported loss is finite and ``total == l_cls + w0*w1*l_tp``
  within float32 rounding (relative 1e-5).
"""

from __future__ import annotations

import math

import numpy as np

SCAN_SLICE = 16
SCAN_RTOL = 1e-8
LOGIT_RTOL = 1e-4
LOSS_RTOL = 1e-5
# values of ssm._SCAN_VECTOR_BUDGET that force each path of the fused scan
SCAN_BUDGETS = {"stream": 0, "stash": 2**62}


def close(x, ref, rtol: float) -> bool:
    x, ref = np.asarray(x, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape or not np.all(np.isfinite(x)):
        return False
    scale = max(float(np.max(np.abs(ref), initial=0.0)), np.finfo(np.float64).tiny)
    return float(np.max(np.abs(x - ref), initial=0.0)) <= rtol * scale


def capture_scan(lib, store: list):
    """Wrapper for ``ssm.selective_scan_fused`` that copies its inputs.

    Keeps the first ``SCAN_SLICE`` pixel sequences of the batched inputs
    and the whole of ``a`` and ``d_skip``, plus the full scan shape.
    """
    fused = lib.ssm.selective_scan_fused

    def capturing(u, delta, a, b, c, d_skip):
        if not store:
            s = slice(0, SCAN_SLICE)
            store.append({
                "shape": (*u.shape, a.shape[1]),
                "itemsize": u.data.dtype.itemsize,
                "args": [u.data[s].copy(), delta.data[s].copy(), a.data.copy(),
                         b.data[s].copy(), c.data[s].copy(), d_skip.data.copy()],
            })
        return fused(u, delta, a, b, c, d_skip)

    return capturing


def scan_mismatches(lib, args, scan=None, seed: int = 0) -> list[str]:
    """Paths on which the fused scan (or ``scan``) differs from the composite
    oracle in float64; empty when it matches on every path."""
    ad, ssm = lib.autodiff, lib.ssm
    scan = scan or ssm.selective_scan_fused
    g = np.random.default_rng(seed).standard_normal(args[0].shape)

    def run(fn):
        ts = [ad.Tensor(np.asarray(x, dtype=np.float64), requires_grad=True) for x in args]
        y = fn(*ts)
        ad.backward(ad.sum_(ad.mul(y, ad.Tensor(g))))
        return [y.data] + [t.grad for t in ts]

    ref = run(ssm.selective_scan_composite)
    budget = ssm._SCAN_VECTOR_BUDGET
    bad = []
    for path, forced in SCAN_BUDGETS.items():
        ssm._SCAN_VECTOR_BUDGET = forced
        try:
            got = run(scan)
        finally:
            ssm._SCAN_VECTOR_BUDGET = budget
        if not all(x is not None and close(x, r, SCAN_RTOL) for x, r in zip(got, ref)):
            bad.append(path)
    return bad


def loss_ok(report, w0: float) -> bool:
    parts = (report.l_cls, report.l_tp, report.w1, report.total)
    if not all(math.isfinite(v) for v in parts):
        return False
    return math.isclose(report.total, report.l_cls + w0 * report.w1 * report.l_tp,
                        rel_tol=LOSS_RTOL)


def predict_invariant(lib, model, samples):
    """Batched logits, and one verdict per sample: they equal its solo logits."""
    pad_batch = lib.data.pad_batch
    batched = model.predict_logits(pad_batch(samples))
    scale_ref = np.abs(batched).max()
    verdicts = []
    for i, s in enumerate(samples):
        solo = model.predict_logits(pad_batch([s]))[0]
        verdicts.append(solo.shape == batched[i].shape and bool(
            np.all(np.isfinite(solo))
            and np.max(np.abs(solo - batched[i])) <= LOGIT_RTOL * max(scale_ref, 1.0)))
    return batched, verdicts
