"""Dataset container, synthetic generator, and temporal batching.

Samples are image time series (T, C, H, W) with a per-pixel class map and
a valid length (trailing timesteps beyond it are zero padding). The
on-disk container is deliberately primitive so any language can parse it:

    magic  "SITSDS01"
    u32    sample count
    per sample:
        u32 T, C, H, W, valid_length
        f32[T*C*H*W]  series, C-order, little endian
        u16[H*W]      label map

The synthetic generator partitions each patch into Voronoi parcels,
assigns each parcel a class, and renders every class as a distinct
double-logistic seasonal curve per channel (class-specific onset, peak
amplitude, and offset), plus per-sample temporal jitter and optional
Gaussian noise. Everything is drawn from one seeded generator, so equal
seeds give bit-identical datasets.
"""

from __future__ import annotations

import csv
import logging
import os
import struct
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

MAGIC = b"SITSDS01"
MAX_LABEL = 2**16 - 1  # labels are stored as u16
TEMPORAL_MODES = ("pad", "sample30")
SAMPLE_STEPS = 30     # timesteps per series in "sample30" mode
PARCELS = (4, 9)      # Voronoi parcels per synthetic patch, inclusive range
JITTER = 0.5          # per-sample temporal shift of the season, in timesteps


class DatasetFormatError(ValueError):
    """Container is corrupt: bad magic, truncation, or extent mismatch."""


@dataclass
class SitsSample:
    series: np.ndarray        # (T, C, H, W) float32 in [0, 1]
    label_map: np.ndarray     # (H, W) int
    valid_length: int
    sample_id: int = 0

    def __post_init__(self):
        if self.series.ndim != 4:
            raise ValueError("series must be (T, C, H, W)")
        if self.label_map.shape != self.series.shape[2:]:
            raise ValueError("label map extent mismatch")
        if not 1 <= self.valid_length <= self.series.shape[0]:
            raise ValueError("valid_length outside [1, T]")


@dataclass
class SitsDataset:
    samples: list[SitsSample] = field(default_factory=list)
    num_classes: int = 0

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]


@dataclass
class SitsBatch:
    series: np.ndarray       # (N, T_max, C, H, W)
    valid_mask: np.ndarray   # (N, T_max) bool
    labels: np.ndarray       # (N, H, W)


def _double_logistic(tau: np.ndarray, onset: float, offset: float,
                     g_up: float, g_down: float) -> np.ndarray:
    rise = 1.0 / (1.0 + np.exp(-g_up * (tau - onset)))
    fall = 1.0 / (1.0 + np.exp(-g_down * (offset - tau)))
    return rise + fall - 1.0


def _class_curves(rng: np.random.Generator, num_classes: int, channels: int):
    """Per-class, per-channel seasonal curve parameters.

    Onsets are spread deterministically across the season so no two
    classes collapse onto the same curve; the remaining parameters are
    drawn randomly.
    """
    params = []
    for k in range(num_classes):
        onset = 0.10 + 0.55 * k / max(num_classes - 1, 1) + rng.uniform(-0.02, 0.02)
        duration = rng.uniform(0.25, 0.45)
        g_up = rng.uniform(12.0, 24.0)
        g_down = rng.uniform(12.0, 24.0)
        base = rng.uniform(0.05, 0.18, size=channels)
        amp = rng.uniform(0.25, 0.70, size=channels)
        params.append((onset, onset + duration, g_up, g_down, base, amp))
    return params


def _voronoi_labels(rng: np.random.Generator, num_classes: int, height: int, width: int,
                    n_parcels: int) -> np.ndarray:
    pts = rng.uniform(0, [height, width], size=(n_parcels, 2))
    yy, xx = np.mgrid[0:height, 0:width]
    d2 = (yy[..., None] - pts[:, 0]) ** 2 + (xx[..., None] - pts[:, 1]) ** 2
    parcel = np.argmin(d2, axis=-1)
    parcel_class = rng.integers(0, num_classes, size=n_parcels)
    return parcel_class[parcel].astype(np.int64)


def generate_synthetic(seed: int, n_samples: int, num_classes: int, timesteps: int,
                       channels: int, height: int, width: int,
                       noise_sigma: float = 0.02,
                       min_valid_length: int | None = None,
                       world_seed: int | None = None) -> SitsDataset:
    """Voronoi-parcel patches with class-specific double-logistic phenology.

    ``world_seed`` fixes the class curve definitions; splits of one task
    must share it (defaults to ``seed``) while varying ``seed`` so their
    parcels, jitter, and noise differ. Given ``min_valid_length`` (in
    [1, timesteps]), each valid length is drawn from [min_valid_length,
    timesteps]; without it every series is full length. ``noise_sigma``
    (finite, >= 0) is the standard deviation of the added Gaussian noise.
    """
    if num_classes < 2 or timesteps < 4:
        raise ValueError("need num_classes >= 2 and timesteps >= 4")
    if min_valid_length is not None and not 1 <= min_valid_length <= timesteps:
        raise ValueError(f"min_valid_length {min_valid_length} outside [1, timesteps = "
                         f"{timesteps}]")
    if height < 2 or width < 2 or channels < 1 or n_samples < 1:
        raise ValueError("degenerate extents")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma {noise_sigma} must be finite and >= 0")
    rng = np.random.default_rng(seed)
    curves = _class_curves(np.random.default_rng(seed if world_seed is None else world_seed),
                           num_classes, channels)
    samples = []
    for i in range(n_samples):
        labels = _voronoi_labels(rng, num_classes,
                                 height, width,
                                 int(rng.integers(PARCELS[0], PARCELS[1] + 1)))
        jit = rng.uniform(-JITTER, JITTER)
        tau = (np.arange(timesteps) + 0.5 + jit) / timesteps
        profile = np.empty((num_classes, timesteps, channels), dtype=np.float64)
        for k, (onset, offset, g_up, g_down, base, amp) in enumerate(curves):
            season = _double_logistic(tau, onset, offset, g_up, g_down)
            profile[k] = base + np.outer(season, amp)
        series = profile[labels]                       # (H, W, T, C)
        series = series.transpose(2, 3, 0, 1)          # (T, C, H, W)
        if noise_sigma > 0:
            series = series + rng.normal(0, noise_sigma, size=series.shape)
        series = np.clip(series, 0.0, 1.0).astype(np.float32)
        if min_valid_length is not None and min_valid_length < timesteps:
            valid = int(rng.integers(min_valid_length, timesteps + 1))
            series[valid:] = 0.0
        else:
            valid = timesteps
        samples.append(SitsSample(series, labels, valid, sample_id=i))
    return SitsDataset(samples, num_classes)


# ---------------------------------------------------------------------------
# batching

def pad_batch(samples: list[SitsSample]) -> SitsBatch:
    """Stack samples, zero-padding series to the longest valid length."""
    if not samples:
        raise ValueError("pad_batch: empty sample list")
    t_max = max(s.valid_length for s in samples)
    ref = samples[0].series.shape[1:]
    n = len(samples)
    series = np.zeros((n, t_max) + ref, dtype=np.float32)
    mask = np.zeros((n, t_max), dtype=bool)
    labels = np.empty((n,) + ref[1:], dtype=np.int64)
    for i, s in enumerate(samples):
        if s.series.shape[1:] != ref:
            raise ValueError("pad_batch: samples disagree on (C, H, W)")
        v = s.valid_length
        series[i, :v] = s.series[:v]
        mask[i, :v] = True
        labels[i] = s.label_map
    return SitsBatch(series, mask, labels)


def sample_timesteps(sample: SitsSample, rng: np.random.Generator | None = None) -> SitsSample:
    """Reduce a series to exactly ``SAMPLE_STEPS`` timesteps.

    Deterministic evenly spaced indices when ``rng`` is None (evaluation);
    otherwise uniform random without replacement, sorted (training). A
    series shorter than ``SAMPLE_STEPS`` falls back to sampling with
    replacement.
    """
    v, count = sample.valid_length, SAMPLE_STEPS
    if rng is None:
        idx = (np.arange(count) * v) // count
    elif v < count:
        log.warning("sample_timesteps: valid length %d < %d, sampling with replacement", v, count)
        idx = np.sort(rng.integers(0, v, size=count))
    else:
        idx = np.sort(rng.choice(v, size=count, replace=False))
    return SitsSample(sample.series[idx], sample.label_map, count, sample.sample_id)


def batches(samples, batch_size: int, temporal_mode: str = "pad",
            rng: np.random.Generator | None = None):
    """Yield (samples batched, SitsBatch) over ``samples`` in order.

    "sample30" first reduces every series to 30 timesteps with
    ``sample_timesteps`` (random when ``rng`` is given, evenly spaced
    otherwise); "pad" batches the series as they are.
    """
    if temporal_mode not in TEMPORAL_MODES:
        raise ValueError(f"temporal_mode must be one of {TEMPORAL_MODES}, got {temporal_mode!r}")
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        if temporal_mode == "sample30":
            chunk = [sample_timesteps(s, rng) for s in chunk]
        yield chunk, pad_batch(chunk)


# ---------------------------------------------------------------------------
# container I/O

def save_dataset(dataset: SitsDataset, path):
    """Write a ``.sits`` container; a label u16 cannot hold raises first."""
    for s in dataset.samples:
        if s.label_map.min() < 0 or s.label_map.max() > MAX_LABEL:
            raise ValueError(f"sample {s.sample_id}: a label outside u16's [0, {MAX_LABEL}]")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(dataset.samples)))
        for s in dataset.samples:
            t, c, h, w = s.series.shape
            fh.write(struct.pack("<5I", t, c, h, w, s.valid_length))
            fh.write(np.ascontiguousarray(s.series, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(s.label_map, dtype="<u2").tobytes())


def _read_exact(fh, n: int, what: str, error=DatasetFormatError) -> bytes:
    """Read exactly ``n`` bytes or raise ``error``; ``n`` is checked against
    the bytes left first, so a corrupt size cannot cause a huge allocation."""
    fits = n <= os.fstat(fh.fileno()).st_size - fh.tell()
    buf = fh.read(n) if fits else b""
    if len(buf) != n:
        raise error(f"truncated container while reading {what}")
    return buf


def load_dataset(path) -> SitsDataset:
    samples = []
    with open(path, "rb") as fh:
        if _read_exact(fh, len(MAGIC), "magic") != MAGIC:
            raise DatasetFormatError(f"bad magic, expected {MAGIC!r}")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "sample count"))
        for i in range(count):
            t, c, h, w, valid = struct.unpack("<5I", _read_exact(fh, 20, f"sample {i} header"))
            if not (1 <= valid <= t) or min(t, c, h, w) < 1:
                raise DatasetFormatError(f"sample {i}: bad extents {(t, c, h, w, valid)}")
            series = np.frombuffer(
                _read_exact(fh, 4 * t * c * h * w, f"sample {i} series"), dtype="<f4"
            ).reshape(t, c, h, w).copy()
            labels = np.frombuffer(
                _read_exact(fh, 2 * h * w, f"sample {i} labels"), dtype="<u2"
            ).reshape(h, w).astype(np.int64)
            samples.append(SitsSample(series, labels, valid, sample_id=i))
        if fh.read(1):
            raise DatasetFormatError("trailing bytes after last sample")
    k = 1 + max((int(s.label_map.max()) for s in samples), default=-1)
    return SitsDataset(samples, k)


# ---------------------------------------------------------------------------
# prediction export

def export_pgm(labels: np.ndarray, path):
    """Write a label map as binary 8-bit PGM, class index as gray level."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("export_pgm expects a 2-D label map")
    if labels.min() < 0 or labels.max() > 255:
        raise ValueError("labels must fit in 8 bits")
    h, w = labels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(labels.astype(np.uint8).tobytes())


def export_legend(num_classes: int, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gray_level", "class"])
        for k in range(num_classes):
            w.writerow([k, f"class_{k}"])
