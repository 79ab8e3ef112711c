"""Weakly supervised disease-pattern localization mining toolkit, and its shared file formats."""

import json
import os
import re
from pathlib import Path

import numpy as np

__version__ = "0.1.0"

_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def atomic_write_bytes(path, payload):
    """Write `payload` to a temp file beside `path` (mode 0o666 less umask), then rename it."""
    tmp = f"{path}.{os.getpid()}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileExistsError:  # left behind by a killed process that had our pid
        os.unlink(tmp)
        fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_pgm(path, unit, maxval):
    """Binary (P5) PGM of values in [0, 1] quantized to 0..maxval."""
    q = np.round(np.clip(unit, 0.0, 1.0) * maxval).astype(_pgm_dtype(maxval))
    atomic_write_bytes(path, f"P5\n{q.shape[1]} {q.shape[0]}\n{maxval}\n".encode() + q.tobytes())


def read_pgm(path):
    """The samples of a binary (P5) PGM as float64 values in [0, 1]."""
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if not header:
        raise ValueError(f"{path}: not a binary PGM")
    cols, rows, maxval = map(int, header.groups())
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: PGM maxval {maxval} is outside 1..65535")
    dtype = np.dtype(_pgm_dtype(maxval))
    samples = data[header.end():]
    if len(samples) != rows * cols * dtype.itemsize:
        raise ValueError(
            f"{path}: PGM has {len(samples)} sample bytes, its {cols}x{rows} header"
            f" needs {rows * cols * dtype.itemsize}"
        )
    q = np.frombuffer(samples, dtype).reshape(rows, cols)
    if q.max(initial=0) > maxval:
        raise ValueError(f"{path}: PGM sample {q.max()} exceeds maxval {maxval}")
    return q.astype(np.float64) / maxval


def _pgm_dtype(maxval):
    # one byte a sample up to maxval 255, two big-endian bytes above
    return ">u2" if maxval > 255 else "u1"


def write_jsonl(path, records):
    atomic_write_bytes(path, "".join(json.dumps(rec) + "\n" for rec in records).encode())


def read_jsonl(path, what, parse):
    """``parse(record)`` of each non-blank line; a bad line raises ValueError naming it."""
    out = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                out.append(parse(json.loads(line)))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: bad {what} record: {exc}") from None
    return out
