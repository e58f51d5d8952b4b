"""End-to-end model: spatial conv encoder, selective-SSM temporal encoder,
and the two decoding branches.

Forward data flow for a batch (N, T, C, H, W) whose valid mask marks
V of the N*T frames, each sample's a non-empty prefix (``pad_batch``):

    valid frames (V, C, H, W) -> ConvBlock -> (V, C1, H, W)
    -> scattered back, zeros at padded steps -> (N*T, C1, H, W)
    -> pixel sequences (N*H*W, T, C1) -> Mamba block (same shape), each
       sequence run up to its valid length, zeros after it
    classification branch: valid-masked max over T -> (N, C1, H, W)
                           -> ClsHead -> logits (N, K, H, W)
    reconstruction branch: shared affine map C1 -> C per timestep
                           -> (N, T, C, H, W)

Padded frames are never computed: the spatial stage (and its training-mode
batchnorm statistics) sees the valid frames only, and the block is causal,
so a valid output does not depend on how its batch is padded. The
reconstruction branch exists only for training supervision; ``predict``
runs the classification branch alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import ShapeError, Tensor
from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .data import SitsBatch
from .spatial import ClsHead, ConvBlock
from .ssm import MambaBlock


@dataclass
class ModelConfig:
    input_channels: int
    num_classes: int
    hidden: int = 128
    d_state: int = 16
    dtype: str = "float32"

    def __post_init__(self):
        if min(self.input_channels, self.num_classes, self.hidden, self.d_state) < 1:
            raise ValueError(f"extents must be positive: input_channels={self.input_channels}, "
                             f"num_classes={self.num_classes}, hidden={self.hidden}, "
                             f"d_state={self.d_state}")

    @property
    def np_dtype(self):
        return {"float32": np.float32, "float64": np.float64}[self.dtype]


@dataclass
class ModelOutput:
    """What ``forward`` returns: the class logits, and the reconstruction
    unless the forward ran without the reconstruction branch."""
    class_logits: Tensor                 # (N, K, H, W)
    reconstruction: Tensor | None        # (N, L, C, H, W)


class SitsClassifier(nn.Module):
    def __init__(self, config: ModelConfig, rng: np.random.Generator | int = 0):
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        self.config = config
        dtype = config.np_dtype
        self.spatial = ConvBlock(config.input_channels, config.hidden, rng, dtype=dtype)
        self.temporal = MambaBlock(config.hidden, config.d_state, rng, dtype=dtype)
        self.cls_head = ClsHead(config.hidden, config.num_classes, rng, dtype=dtype)
        self.rbranch = nn.Linear(config.hidden, config.input_channels, rng, bias=True, dtype=dtype)

    # ------------------------------------------------------------------
    def named_parameters(self):
        return self.named_params()

    def count_parameters(self) -> int:
        return sum(int(t.size) for _, t in self.named_parameters())

    # ------------------------------------------------------------------
    def forward(self, batch: SitsBatch, training: bool = False,
                with_reconstruction: bool = True) -> ModelOutput:
        series = np.asarray(batch.series)
        if series.ndim != 5 or series.shape[2] != self.config.input_channels:
            raise ShapeError(f"forward: series shape {series.shape}")
        n, t, c, h, w = series.shape
        mask = np.asarray(batch.valid_mask, dtype=bool)
        if mask.shape != (n, t):
            raise ShapeError(f"forward: valid mask shape {mask.shape} != {(n, t)}")
        lengths = mask.sum(axis=1)
        if not lengths.all() or not np.array_equal(mask, np.arange(t) < lengths[:, None]):
            raise ShapeError("forward: each valid mask row must be a non-empty prefix")
        if not np.isfinite(series).all():
            raise ad.NonFiniteError("forward: input series contains non-finite values")

        x = Tensor(series.astype(self.config.np_dtype, copy=False))
        rows = np.flatnonzero(mask)                                 # valid frames of N*T
        frames = ad.gather_rows(ad.reshape(x, (n * t, c, h, w)), rows)
        feat = self.spatial(frames, training)                       # (V, C1, H, W)
        c1 = self.config.hidden
        feat = ad.reshape(ad.scatter_rows(feat, rows, n * t), (n, t, c1, h, w))
        seq = ad.reshape(ad.transpose(feat, (0, 3, 4, 1, 2)), (n * h * w, t, c1))
        encoded = self.temporal(seq, np.repeat(lengths, h * w))    # (N*H*W, T, C1)

        pooled = self.temporal_maxpool(encoded, mask, (h, w))       # (N*H*W, C1)
        grid = ad.transpose(ad.reshape(pooled, (n, h, w, c1)), (0, 3, 1, 2))
        logits = self.cls_head(grid, training)                      # (N, K, H, W)

        reconstruction = None
        if with_reconstruction:
            rec = self.rbranch(encoded)                             # (N*H*W, T, C)
            rec = ad.reshape(rec, (n, h, w, t, c))
            reconstruction = ad.transpose(rec, (0, 3, 4, 1, 2))     # (N, T, C, H, W)

        return ModelOutput(class_logits=logits, reconstruction=reconstruction)

    def temporal_maxpool(self, encoded: Tensor, valid_mask: np.ndarray,
                         spatial: tuple[int, int]) -> Tensor:
        """Channelwise max over valid timesteps only; padded steps never win."""
        h, w = spatial
        n = valid_mask.shape[0]
        pixel_mask = np.repeat(valid_mask, h * w, axis=0)[:, :, None]
        if encoded.shape[0] != n * h * w:
            raise ShapeError("temporal_maxpool: pixel count mismatch")
        return ad.max_over_axis(encoded, axis=1, mask=pixel_mask)

    def predict_logits(self, batch: SitsBatch) -> np.ndarray:
        """Inference-mode class logits (N, K, H, W), classification branch only."""
        with ad.no_grad():
            out = self.forward(batch, training=False, with_reconstruction=False)
        return out.class_logits.data

    def predict(self, batch: SitsBatch) -> np.ndarray:
        """Per-pixel argmax label map (N, H, W); ties go to the lowest index."""
        return np.argmax(self.predict_logits(batch), axis=1)

    # ------------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every array the checkpoint holds: parameters, then buffers."""
        state = {name: t.data for name, t in self.named_params()}
        state.update(self.named_buffers())
        return state

    def save(self, path):
        save_checkpoint(self.state_arrays(), path)

    def load_state(self, state: dict[str, np.ndarray], strict: bool = False):
        """Copy ``state`` into the model's arrays in place, checking shapes.

        Strict loading wants exactly the model's entries (``KeyError``).
        Otherwise extra entries are ignored and only the training-only
        reconstruction branch may be missing; any other missing entry
        raises ``CheckpointFormatError``.
        """
        own = self.state_arrays()
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if strict and (missing or extra):
            raise KeyError(f"state mismatch: missing={missing} extra={extra}")
        required = [name for name in missing if not name.startswith("rbranch.")]
        if required:
            raise CheckpointFormatError(f"checkpoint lacks entries {required}")
        for name, dst in own.items():
            if name not in state:
                continue
            if tuple(state[name].shape) != dst.shape:
                raise ShapeError(f"{name}: checkpoint shape {state[name].shape} != {dst.shape}")
            dst[...] = state[name]

    def load(self, path, strict: bool = False):
        self.load_state(load_checkpoint(path), strict=strict)


def count_parameters(config: ModelConfig) -> int:
    """Exact trainable-scalar count for a configuration."""
    return SitsClassifier(config).count_parameters()


def spatial_encoder_parameter_count(config: ModelConfig) -> int:
    model = SitsClassifier(config)
    return sum(int(t.size) for _, t in model.spatial.named_params())
