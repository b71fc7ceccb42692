"""The one durable-file writer: temp file, fsync, rename; never a partial final file."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path

TEMP_PREFIX = ".resync.tmp-"  # reserved (``source.RESERVED_PREFIX``): no URI maps onto it


@contextmanager
def atomic_file(path: Path, temp_dir: Path | None = None):
    """Yield a binary temp file in ``temp_dir`` (default: ``path``'s parent,
    created if missing) that a clean exit fsyncs and renames onto ``path``,
    creating its parent; on any exception it is removed, ``path`` untouched."""
    path = Path(path)
    if temp_dir is None:
        temp_dir = path.parent
        temp_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=temp_dir, prefix=TEMP_PREFIX)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write bytes so the file at ``path`` is either complete or absent/old."""
    with atomic_file(path) as fh:
        fh.write(data)
