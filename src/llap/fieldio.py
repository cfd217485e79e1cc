"""Binary field dumps and atomic file writes.

Dump layout (all little-endian):

    magic   4 bytes  b"LLAP"
    version u32      currently 1
    d       u32
    n       u32
    L       f64
    payload n^d f64  row-major samples
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .grid import RealField, make_grid

MAGIC = b"LLAP"
VERSION = 1
_HEADER = struct.Struct("<4sIIId")

__all__ = [
    "MAGIC",
    "VERSION",
    "dump_field",
    "load_field",
    "atomic_write_bytes",
    "atomic_write_text",
]


def atomic_write_bytes(path: str | Path, data: bytes | list) -> None:
    """Write data, or a list of buffers in turn, via a temp file beside path, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in data if isinstance(data, list) else [data]:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def dump_field(f: RealField, path: str | Path) -> None:
    g = f.grid
    header = _HEADER.pack(MAGIC, VERSION, g.d, g.n, g.L)
    # The samples' own array: no copy where doubles are already little-endian.
    atomic_write_bytes(path, [header, np.ascontiguousarray(f.values, dtype="<f8")])


def load_field(path: str | Path) -> RealField:
    """The field in a dump, read straight into the one array it keeps."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated field dump")
        magic, version, d, n, L = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        grid = make_grid(d, L, n)
        expected = _HEADER.size + 8 * grid.npoints
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(
                f"{path}: payload size mismatch, expected {expected} bytes, got {size}"
            )
        values = np.empty(grid.shape, dtype="<f8")
        if fh.readinto(memoryview(values).cast("B")) != values.nbytes:
            raise ValueError(f"{path}: truncated field dump")
    if not np.isfinite(values).all():
        raise ValueError("field contains non-finite entries")
    return RealField._adopt(values.astype(float, copy=False), grid)
