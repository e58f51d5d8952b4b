"""Spans recorded from outside the library, by wrapping its public callables.

Each wrapper is installed where the caller looks the callable up, so the
library runs unmodified: ``trainer`` binds ``classification_loss`` by name,
``MambaBlock.selective_scan`` reads ``ssm.selective_scan_fused`` as a module
global, ``SitsClassifier.save`` calls ``model.save_checkpoint``, and the
model reaches its layers through ``__call__`` on their classes.

A span is ``[name, start, end, parent, step, ops, attrs]``: ``parent`` is
the index of the enclosing span (-1 for none), ``step`` the closed-loop
iteration it belongs to, ``ops`` the public autodiff op calls made while it
was the innermost open span, and ``attrs`` a dict of values recorded at the
boundary (shapes, byte counts). Spans stay in memory until the run ends.
The recording is single-threaded, like the training loop it observes.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

NAME, START, END, PARENT, STEP, OPS, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.step = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # recording

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.step, 0, {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def count_op(self):
        if self._stack:
            self.spans[self._stack[-1]][OPS] += 1

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(span, args, result)`` runs on return."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer.spans[idx], args, out)
            return out

        return traced

    # ------------------------------------------------------------------
    # installation

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, lib):
        """Wrap the library's public callables for the duration of the block."""
        self.install(lib)
        try:
            yield self
        finally:
            self.unpatch()

    def install(self, lib):
        ad, ssm, spatial, data = lib.autodiff, lib.ssm, lib.spatial, lib.data
        trainer, metrics, model = lib.trainer, lib.metrics, lib.model
        tracer = self

        def counted(fn):
            @functools.wraps(fn)
            def op(*args, **kwargs):
                tracer.count_op()
                return fn(*args, **kwargs)
            return op

        op_names = [n for n, v in vars(ad).items()
                    if any(v is f for f in ad.OPS.values())]
        if hasattr(ad, "cross_entropy_logits"):
            op_names.append("cross_entropy_logits")
        for n in op_names:
            self.patch(ad, n, counted(getattr(ad, n)))

        def scan_after(span, args, out):
            u, a = args[0], args[2]
            b, l, d = u.shape
            span[ATTRS]["shape"] = (b, l, d, a.shape[1], u.data.dtype.itemsize)
            if getattr(out, "_backward_fn", None) is not None:
                span[ATTRS]["differentiated"] = True
                out._backward_fn = tracer.wrap(out._backward_fn, "ssm.selective_scan.bwd")

        scan = self.wrap(ssm.selective_scan_fused, "ssm.selective_scan.fwd", scan_after)
        self.patch(ssm, "selective_scan_fused", counted(scan))

        def pad_after(span, args, batch):
            span[ATTRS]["valid"] = int(batch.valid_mask.sum())
            span[ATTRS]["computed"] = int(batch.valid_mask.size)

        def save_after(span, args, out):
            span[ATTRS]["bytes"] = os.path.getsize(args[1])

        for owner, attr, name, after in (
                (ad, "backward", "autodiff.backward", None),
                (ssm.MambaBlock, "__call__", "ssm.MambaBlock.fwd", None),
                (spatial.ConvBlock, "__call__", "spatial.ConvBlock.fwd", None),
                (spatial.ClsHead, "__call__", "spatial.ClsHead.fwd", None),
                (data, "pad_batch", "data.pad_batch", pad_after),
                (data, "load_dataset", "data.load_dataset", None),
                (trainer, "classification_loss", "losses.classification", None),
                (trainer, "reconstruction_loss", "losses.reconstruction", None),
                (trainer, "train_step", "trainer.train_step", None),
                (trainer.Adam, "step", "trainer.Adam.step", None),
                (trainer, "evaluate", "trainer.evaluate", None),
                (metrics.ConfusionMatrix, "accumulate", "metrics.accumulate", None),
                (model, "save_checkpoint", "checkpoint.save", save_after),
                (model.SitsClassifier, "predict", "model.SitsClassifier.predict", None)):
            self.patch(owner, attr, self.wrap(getattr(owner, attr), name, after))

    # ------------------------------------------------------------------
    # summaries

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the part of it that its child
        spans cover; children of one span never overlap here, so that part
        is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0 and s[END] is not None:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if s[END] is None:
                continue
            row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += s[END] - s[START] - child[i]
        return out

    def inclusive_ops(self) -> list[int]:
        """Op calls made inside each span, its descendants included."""
        total = [s[OPS] for s in self.spans]
        for i in range(len(self.spans) - 1, -1, -1):
            p = self.spans[i][PARENT]
            if p >= 0:
                total[p] += total[i]
        return total

    def to_json(self) -> list[dict]:
        return [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                 "step": s[STEP], "ops": s[OPS], **s[ATTRS]} for s in self.spans]
