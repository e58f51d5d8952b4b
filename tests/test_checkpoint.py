"""Checkpoint container: round trip and damaged or hostile files."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sits_ssm.checkpoint import MAGIC, CheckpointFormatError, load_checkpoint, save_checkpoint


def entry(name: bytes, shape, payload=b"") -> bytes:
    return (struct.pack("<Q", len(name)) + name + struct.pack("<Q", len(shape))
            + struct.pack(f"<{len(shape)}Q", *shape) + payload)


TINY = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "bn.mean": np.ones(4),
        "scale": np.float32(0.5)}


def test_round_trip(tmp_path):
    save_checkpoint(TINY, tmp_path / "m.ckpt")
    back = load_checkpoint(tmp_path / "m.ckpt")
    assert back.keys() == TINY.keys()
    for k, v in TINY.items():
        assert back[k].dtype == np.float32 and np.array_equal(back[k], v)


@pytest.mark.parametrize("body", [
    entry(b"w", (2**21, 2**21), b"\0" * 16),      # 16 TiB declared, 16 bytes present
    entry(b"w", (2**63, 0)),                        # zero elements, extents numpy cannot hold
    entry(b"w", (1,) * 65, b"\0" * 4),              # rank above numpy's limit
    struct.pack("<Q", 2**62) + b"w",                # name longer than the file
    struct.pack("<Q", 1) + b"w" + struct.pack("<Q", 2**61),  # rank longer than the file
    entry(b"\xff\xfe", (1,), b"\0" * 4),            # name is not UTF-8
    entry(b"w", (1,), b"\0" * 4) + entry(b"w", (1,), b"\1" * 4),   # one name twice
], ids=["huge_extents", "huge_extent_beside_zero", "rank_65", "huge_name", "huge_rank",
        "bad_utf8", "repeated_name"])
def test_hostile_header_raises_format_error(tmp_path, body):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + body)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


@given(cut=st.integers(0, 2**16), flips=st.lists(st.integers(0, 2**16), max_size=4))
@settings(deadline=None, max_examples=150)
def test_truncated_or_bit_flipped_checkpoint(cut, flips):
    """A damaged checkpoint loads or raises CheckpointFormatError, nothing else."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(TINY, path)
        raw = bytearray(path.read_bytes())
        for bit in flips:
            raw[bit // 8 % len(raw)] ^= 1 << bit % 8
        path.write_bytes(bytes(raw[:cut % (len(raw) + 1)]))
        try:
            load_checkpoint(path)
        except CheckpointFormatError:
            pass
