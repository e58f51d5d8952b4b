"""Flat named-array checkpoint container.

Layout (all integers u64 little endian):

    magic "SITSMB01"
    per entry, until EOF:
        u64           name length in bytes
        bytes         UTF-8 name
        u64           rank
        u64[rank]     extents
        f32[prod]     payload, little endian

Values are always stored as float32 regardless of the in-memory dtype.
A damaged or hostile file raises ``CheckpointFormatError``: each declared
size is checked against the bytes left in the file before it is read, and
an entry name may appear only once.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from .data import _read_exact

MAGIC = b"SITSMB01"


class CheckpointFormatError(ValueError):
    pass


def save_checkpoint(arrays: dict[str, np.ndarray], path):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


_read = functools.partial(_read_exact, error=CheckpointFormatError)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        if _read(fh, len(MAGIC), "magic") != MAGIC:
            raise CheckpointFormatError(f"bad magic, expected {MAGIC!r}")
        while True:
            head = fh.read(8)
            if not head:
                break
            if len(head) != 8:
                raise CheckpointFormatError("truncated entry header")
            (name_len,) = struct.unpack("<Q", head)
            try:
                name = _read(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointFormatError(f"entry name is not UTF-8: {e}") from None
            if name in out:
                raise CheckpointFormatError(f"entry {name!r} appears twice")
            (rank,) = struct.unpack("<Q", _read(fh, 8, "rank"))
            shape = struct.unpack(f"<{rank}Q", _read(fh, 8 * rank, "extents"))
            payload = _read(fh, 4 * math.prod(shape), f"payload of {name}")
            try:
                out[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
            except ValueError as e:     # e.g. rank > 64, or a huge extent beside a 0
                raise CheckpointFormatError(f"{name}: extents {shape}: {e}") from None
    return out
