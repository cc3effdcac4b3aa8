"""Atomic file writes: interrupted runs never leave partial outputs."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path, blob: bytes) -> None:
    """Write blob to a temporary file beside path, then rename it to path.

    The temporary file never outlives the call.  An OSError after it is
    made names path alone, so a failed write gives the same message on
    every run.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
