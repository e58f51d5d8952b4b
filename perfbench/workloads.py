"""The benchmark's workloads: set-up, correctness gate and closed loop.

Load is closed-loop from one process: the next train step or predict batch
starts only when the previous one has returned. Every input is generated
from the workload seed; the library only sees the generated data, read
back from its ``.sits`` container.

* ``train_paper``: the paper-width model under ``train_step`` + ``Adam``.
  The scan state (B=512, L=30, D=256, N=16) is on the stream side of the
  scan's stash/stream choice, and the scan's backward dominates the step.
* ``predict_paper``: the same model under ``SitsClassifier.predict`` at
  batch 8 with ragged valid lengths. Forward only: no backward, no loss,
  no optimizer, so a change to those must leave it unchanged.
* ``learn_small``: the whole ``trainer.train`` loop (validation every
  epoch, best/final checkpoints) at the learnability shape, where the scan
  takes its stash path and fixed per-op cost weighs most.
"""

from __future__ import annotations

import csv
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from tracer import ATTRS, END, NAME, START, STEP, Tracer

SETUP_REPEATS = 9   # set-up runs per benchmark run; setup_s is their median
MIN_ITERS = 3       # closed-loop iterations run even when --seconds is shorter
VAL_EPOCH = 2       # learn_small reports validation mF1 after this many epochs
MAX_EPOCHS = 10_000


@dataclass(frozen=True)
class Spec:
    mode: str                 # "train" | "predict" | "learn"
    classes: int
    channels: int
    timesteps: int
    size: int                 # patch height = width
    hidden: int
    d_state: int
    batch: int
    samples: int              # loop dataset; a multiple of ``batch``
    valid_samples: int = 0    # learn only
    min_valid_length: int | None = None
    lr: float = 1e-4
    w0: float = 0.03


WORKLOADS = {
    "train_paper": Spec("train", 20, 10, 30, 16, 128, 16, batch=2, samples=4),
    "predict_paper": Spec("predict", 20, 10, 30, 16, 128, 16, batch=8, samples=16,
                          min_valid_length=15),
    "learn_small": Spec("learn", 6, 4, 20, 16, 16, 8, batch=2, samples=24, valid_samples=8),
}


@dataclass
class Prepared:
    train: object
    valid: object
    model: object
    ckpt: Path


@dataclass
class Outcome:
    """What one run measured.

    ``metrics`` maps name -> (value, unit) for the result line; ``report``
    maps name -> (value, unit, sample count or None) for extra figures.
    """
    metrics: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    step_samples: int = 0
    tracer: Tracer | None = None

    def tally(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


@contextmanager
def patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def model_config(lib, spec: Spec):
    return lib.model.ModelConfig(spec.channels, spec.classes, hidden=spec.hidden,
                                 d_state=spec.d_state)


def setup(lib, spec: Spec, seed: int, work: Path) -> Prepared:
    """Data generation, container write/read, model and checkpoint round trip."""
    data = lib.data
    gen = dict(num_classes=spec.classes, timesteps=spec.timesteps, channels=spec.channels,
               height=spec.size, width=spec.size, min_valid_length=spec.min_valid_length,
               world_seed=seed)
    sets = []
    for i, n in enumerate((spec.samples, spec.valid_samples)):
        if not n:
            sets.append(None)
            continue
        split = data.generate_synthetic(seed + i, n, **gen)
        if spec.min_valid_length is not None:
            # a full-length series leads every batch, so each batch computes
            # all T timesteps whatever the seed; the others stay ragged
            full = data.generate_synthetic(seed + 2, n // spec.batch,
                                           **{**gen, "min_valid_length": None})
            split.samples[::spec.batch] = full.samples
        path = work / f"split{i}.sits"
        data.save_dataset(split, path)
        sets.append(data.load_dataset(path))
    model = lib.model.SitsClassifier(model_config(lib, spec), rng=seed)
    ckpt = work / "init.ckpt"
    model.save(ckpt)
    model.load(ckpt, strict=True)
    return Prepared(sets[0], sets[1], model, ckpt)


def pixseq(spec: Spec, n_samples: int) -> int:
    return n_samples * spec.size * spec.size


# ---------------------------------------------------------------------------
# scan cost model, computed from shapes

# float operations per (B, L, D, N) element, counted from selective_scan_fused:
# forward z, exp, expm1 and divide for phi, delta*b, *phi, a_bar*h, b_bar*u, +,
# and the C readout multiply-add; backward the two einsum readouts, the
# adjoint update, phi'(z) (6), the chain rule through z, delta and b, and the
# a/delta/b reductions. The stream path recomputes exp and phi in backward.
SCAN_FWD_FLOPS = 11
SCAN_BWD_FLOPS = 31
SCAN_RECOMPUTE_FLOPS = 3


def scan_cost(lib, shape, itemsize: int, differentiated: bool) -> dict:
    """State bytes, stash/stream side, FLOPs and bytes of one scan call.

    Bytes count each (B, L, D, N) array the op keeps once per write and once
    per read: the state trajectory, plus the three discretised arrays when
    they are stashed; backward reads the trajectory twice and the stashed
    a_bar and phi once.
    """
    b, l, d, n = shape
    state = b * (l + 1) * d * n * itemsize
    budget = getattr(lib.ssm, "_SCAN_VECTOR_BUDGET", None)
    stash = budget is not None and 4 * state <= budget
    elems = b * l * d * n
    flops = SCAN_FWD_FLOPS * elems
    traffic = 2 * (1 + 3 * stash)
    if differentiated:
        flops += (SCAN_BWD_FLOPS + SCAN_RECOMPUTE_FLOPS * (not stash)) * elems
        traffic += 2 + 2 * stash
    return {"state_bytes": state, "path": "stash" if stash else "stream",
            "flops": flops, "bytes": traffic * elems * itemsize}


# ---------------------------------------------------------------------------
# correctness gate

def gate(lib, spec: Spec, prep: Prepared, seed: int, out: Outcome):
    """Runs outside the timed region; also warms the process up.

    Returns the batched logits of the first predict batch (predict mode).
    """
    store: list = []
    capture = checks.capture_scan(lib, store)
    batched = None
    with patched(lib.ssm, "selective_scan_fused", capture):
        if spec.mode == "predict":
            samples = prep.train.samples[:spec.batch]
            batched, verdicts = checks.predict_invariant(lib, prep.model, samples)
            for i, ok in enumerate(verdicts):
                out.tally(ok, f"sample {i} logits differ when predicted alone")
        else:
            copy = lib.model.SitsClassifier(model_config(lib, spec), rng=seed)
            copy.load(prep.ckpt, strict=True)
            optim = lib.trainer.Adam(list(copy.named_parameters()), spec.lr)
            batch = lib.data.pad_batch(prep.train.samples[:spec.batch])
            report = lib.trainer.train_step(copy, batch, lib.losses.LossConfig(w0=spec.w0))
            out.tally(optim.step(), "gate step skipped as non-finite")
            out.tally(checks.loss_ok(report, spec.w0), f"gate step loss {report}")
    cap = store[0]
    bad = checks.scan_mismatches(lib, cap["args"], seed=seed)
    out.tally(not bad, f"fused scan differs from the composite oracle on path {bad}")
    cost = scan_cost(lib, cap["shape"], cap["itemsize"], spec.mode != "predict")
    out.env["scan_shape_BLDN"] = list(cap["shape"])
    out.env["scan_state_bytes"] = cost["state_bytes"]
    out.env["scan_path"] = cost["path"]
    return batched


# ---------------------------------------------------------------------------
# closed loops

def closed_loop(lib, step, seconds: float, out: Outcome):
    """Run ``step(i)`` until ``seconds`` have passed and MIN_ITERS are done.

    With a tracer, odd iterations are traced and even ones are not, so the
    untraced iterations of the same run give the tracing overhead; the first
    iteration, which runs slowest, is untraced. Returns
    per-iteration wall times and whether each was traced.
    """
    tracer = out.tracer
    times, traced = [], []
    start = time.perf_counter()
    i = 0
    while i < MIN_ITERS or time.perf_counter() - start < seconds:
        on = tracer is not None and i % 2 == 1
        with tracer.installed(lib) if on else nullcontext():
            if on:
                tracer.step = i
            t0 = time.perf_counter()
            try:
                ok = step(i)
            except Exception:   # a failed operation is counted, not fatal
                traceback.print_exc()
                ok = False
            t1 = time.perf_counter()
        out.tally(ok, f"iteration {i}")
        times.append(t1 - t0)
        traced.append(on)
        i += 1
    return times, traced


def run_train(lib, spec: Spec, prep: Prepared, seconds: float, out: Outcome):
    model, samples = prep.model, prep.train.samples
    optim = lib.trainer.Adam(list(model.named_parameters()), spec.lr)
    loss_cfg = lib.losses.LossConfig(w0=spec.w0)
    reports = []

    def step(i):
        start = (i * spec.batch) % len(samples)
        batch = lib.data.pad_batch(samples[start:start + spec.batch])
        optim.zero_grad()
        reports.append(lib.trainer.train_step(model, batch, loss_cfg))
        return optim.step()

    times, traced = closed_loop(lib, step, seconds, out)
    for r in reports:
        out.tally(checks.loss_ok(r, spec.w0), f"loss {r}")
    return times, traced


def run_predict(lib, spec: Spec, prep: Prepared, seconds: float, out: Outcome, batched0):
    model, samples = prep.model, prep.train.samples
    first = []
    valid = computed = 0

    def step(i):
        nonlocal valid, computed
        start = (i * spec.batch) % len(samples)
        batch = lib.data.pad_batch(samples[start:start + spec.batch])
        labels = model.predict(batch)
        valid += int(batch.valid_mask.sum())
        computed += batch.valid_mask.size
        if i == 0:
            first.append(labels)
        return (labels.shape == (len(batch.labels), spec.size, spec.size)
                and labels.min() >= 0 and labels.max() < spec.classes)

    times, traced = closed_loop(lib, step, seconds, out)
    out.tally(np.array_equal(first[0], np.argmax(batched0, axis=1)),
              "first batch's labels differ from the gate's logits")
    out.report["valid_timestep_frac"] = (valid / computed, "ratio", None)
    return times, traced


def run_learn(lib, spec: Spec, prep: Prepared, seconds: float, out: Outcome, work: Path):
    """``trainer.train`` with an epoch-end hook that ends it after ``seconds``.

    The hook is the trainer's public ``early_stop`` callback, which runs
    once per epoch after validation. In the untraced run, a timestamp at
    each ``train_step`` entry gives the step times; in the traced run,
    epochs alternate between untraced and traced.
    """
    trainer, tracer = lib.trainer, out.tracer
    ends, entries = [], []
    n_steps = math.ceil(spec.samples / spec.batch)

    def stop(scores):
        now = time.perf_counter()
        ends.append(now)
        if tracer is not None:
            if len(ends) % 2:
                tracer.step = len(ends)
                tracer.install(lib)
            else:
                tracer.unpatch()
        return len(ends) >= max(MIN_ITERS, VAL_EPOCH) and now - start >= seconds

    train_step = trainer.train_step

    def stamped(*args, **kwargs):
        entries.append(time.perf_counter())
        return train_step(*args, **kwargs)

    cfg = trainer.TrainConfig(epochs=MAX_EPOCHS, learning_rate=spec.lr, batch_size=spec.batch,
                              seed=0, loss=lib.losses.LossConfig(w0=spec.w0), early_stop=stop)
    run_dir = work / "train"
    try:
        with patched(trainer, "train_step", stamped) if tracer is None else nullcontext():
            start = time.perf_counter()
            result = trainer.train(prep.model, prep.train, prep.valid, cfg, run_dir)
            finish = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.unpatch()

    epochs = len(ends)
    out.tally(len(result.history) == epochs * n_steps,
              f"{epochs * n_steps - len(result.history)} train steps skipped")
    for r in result.history:
        out.tally(checks.loss_ok(r, spec.w0), f"loss {r}")
    saved = lib.checkpoint.load_checkpoint(result.final_checkpoint)
    state = prep.model.state_arrays()
    out.tally(saved.keys() == state.keys() and all(
        np.array_equal(saved[k], np.asarray(state[k], dtype=np.float32)) for k in state),
        "final checkpoint differs from the trained model")
    with open(result.epoch_log_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    val_mf1 = float(rows[VAL_EPOCH - 1]["val_mf1"])
    out.tally(0.0 <= val_mf1 <= 1.0, f"val mF1 {val_mf1}")

    epoch_times = np.diff([start] + ends).tolist()
    # a step is the interval between consecutive train_step entries of one epoch
    steps = [b - a for a, b in zip(entries, entries[1:])
             if not any(a < e < b for e in ends)]
    if steps:
        out.report["train_pixseq_per_s"] = (pixseq(spec, spec.batch) / float(np.median(steps)),
                                            "1/s", None)
    out.report["epoch_s"] = (float(np.median(epoch_times)), "s", len(epoch_times))
    out.report[f"val_mf1_after_{VAL_EPOCH}_epochs"] = (val_mf1, "1", None)
    out.metrics["pixseq_per_s"] = (pixseq(spec, spec.samples) * epochs / (finish - start), "1/s")
    traced = [tracer is not None and i % 2 == 1 for i in range(epochs)]
    return epoch_times, traced, steps


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced run

PER_CALL_MS = ("ssm.selective_scan.fwd", "ssm.selective_scan.bwd", "ssm.MambaBlock.fwd",
               "spatial.ConvBlock.fwd", "spatial.ClsHead.fwd", "autodiff.backward",
               "data.pad_batch", "losses.classification", "losses.reconstruction",
               "trainer.Adam.step", "metrics.accumulate", "checkpoint.save")
PER_CALL_S = ("data.load_dataset", "trainer.evaluate")


def probe(lib, spec: Spec, prep: Prepared, tracer: Tracer):
    """Calls, once each, the layers the workload's loop never reached.

    predict_paper never trains and train_paper never evaluates; their traced
    runs time those layers on one sample here, so every per-layer metric
    holds a measured value. These spans carry step "probe".
    """
    seen = {s[NAME] for s in tracer.spans}
    sample = prep.train.samples[:1]
    tracer.step = "probe"
    with tracer.installed(lib):
        if "trainer.train_step" not in seen:
            optim = lib.trainer.Adam(list(prep.model.named_parameters()), spec.lr)
            lib.trainer.train_step(prep.model, lib.data.pad_batch(sample),
                                   lib.losses.LossConfig(w0=spec.w0))
            optim.step()
        if "trainer.evaluate" not in seen:
            lib.trainer.evaluate(prep.model, lib.data.SitsDataset(sample, spec.classes),
                                 lib.losses.LossConfig(), batch_size=1)


def layer_metrics(lib, tracer: Tracer, times, traced) -> dict:
    """Per span name, the median call; loop spans first, then set-up, then probe."""
    phases: dict[str, dict[str, list]] = {}
    ops = tracer.inclusive_ops()
    for i, s in enumerate(tracer.spans):
        phase = "probe" if s[STEP] == "probe" else "setup" if s[STEP] == "setup" else "loop"
        phases.setdefault(s[NAME], {}).setdefault(phase, []).append((s, ops[i]))

    def pick(name):
        by_phase = phases.get(name, {})
        for phase in ("loop", "setup", "probe"):
            if by_phase.get(phase):
                return by_phase[phase]
        return []

    def median_dur(name):
        spans = pick(name)
        return float(np.median([s[END] - s[START] for s, _ in spans])) if spans else math.nan

    m = {}
    for name in PER_CALL_MS:
        m[f"{name}_ms"] = (1000 * median_dur(name), "ms")
    for name in PER_CALL_S:
        m[f"{name}_s"] = (median_dur(name), "s")
    saves = pick("checkpoint.save")
    m["checkpoint.bytes"] = (float(np.median([s[ATTRS]["bytes"] for s, _ in saves])), "bytes")
    pads = pick("data.pad_batch")
    m["data.pad_ratio"] = (sum(s[ATTRS]["valid"] for s, _ in pads)
                           / sum(s[ATTRS]["computed"] for s, _ in pads), "ratio")
    step_spans = (phases.get("trainer.train_step", {}).get("loop")
                  or phases.get("model.SitsClassifier.predict", {}).get("loop", []))
    m["autodiff.op_calls"] = (float(np.median([n for _, n in step_spans])), "count")
    costs = [scan_cost(lib, s[ATTRS]["shape"][:4], s[ATTRS]["shape"][4],
                       s[ATTRS].get("differentiated", False))
             for s, _ in pick("ssm.selective_scan.fwd")]
    for key in ("state_bytes", "flops", "bytes"):
        unit = "flop" if key == "flops" else "bytes"
        m[f"ssm.selective_scan.{key}"] = (float(np.median([c[key] for c in costs])), unit)
    on = [t for t, flag in zip(times, traced) if flag]
    off = [t for t, flag in zip(times, traced) if not flag]
    m["trace.overhead_frac"] = (float(np.median(on) / np.median(off) - 1.0), "ratio")
    return m


# ---------------------------------------------------------------------------

def run(lib, name: str, spec: Spec, seed: int, seconds: float, trace: bool,
        work: Path) -> Outcome:
    out = Outcome(tracer=Tracer() if trace else None)
    out.env.update(workload=name, seed=seed, mode=spec.mode)
    durations = []
    for _ in range(SETUP_REPEATS):
        if trace:
            out.tracer.step = "setup"
        with out.tracer.installed(lib) if trace else nullcontext():
            t0 = time.perf_counter()
            prep = setup(lib, spec, seed, work)
            durations.append(time.perf_counter() - t0)
    out.metrics["setup_s"] = (statistics.median(durations), "s")

    batched0 = gate(lib, spec, prep, seed, out)
    if spec.mode == "learn":
        times, traced, step_times = run_learn(lib, spec, prep, seconds, out, work)
    else:
        if spec.mode == "train":
            times, traced = run_train(lib, spec, prep, seconds, out)
        else:
            times, traced = run_predict(lib, spec, prep, seconds, out, batched0)
        step_times = [t for t, on in zip(times, traced) if not on]
        out.metrics["pixseq_per_s"] = (pixseq(spec, spec.batch) * len(step_times)
                                       / sum(step_times), "1/s")
    out.metrics["step_ms_p50"] = (1000.0 * float(np.median(step_times)) if step_times
                                  else float("nan"), "ms")
    out.step_samples = len(step_times)
    out.env["iteration_s"] = times
    out.env["setup_runs_s"] = durations
    out.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
    if trace:
        probe(lib, spec, prep, out.tracer)
        out.metrics = layer_metrics(lib, out.tracer, times, traced)
    return out
