"""Weakly supervised disease-pattern localization mining toolkit."""

import os
import tempfile
from pathlib import Path

__version__ = "0.1.0"


def atomic_write_bytes(path, payload):
    """Write `payload` to a temp file beside `path`, then rename it into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
