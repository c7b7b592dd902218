"""Atomic file-write helpers.

Every JSON/JSONL artifact the library produces (manifests, metrics
exports, sweep reports, checkpoints, benchmark reports) is written
through these helpers: the payload goes to a temporary file in the
target directory, is flushed and fsynced, then renamed over the final
path with :func:`os.replace`.  A crash mid-write can therefore never
leave a torn file — readers see either the old content or the new,
complete content.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import Any, BinaryIO, Iterator


@contextmanager
def atomic_open(path: str) -> Iterator[BinaryIO]:
    """Open a temp file next to ``path`` for binary writing; on a clean
    exit flush, fsync and ``os.replace`` it over ``path``.

    An exception inside the block removes the temp file and leaves
    ``path`` as it was, so callers can stream content of any size
    without holding it in memory.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``)."""
    with atomic_open(path) as handle:
        handle.write(data)


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: str, payload: Any, indent: int = 2) -> None:
    """Serialize ``payload`` as sorted-key JSON and write it atomically."""
    atomic_write_text(
        path, json.dumps(payload, indent=indent, sort_keys=True) + "\n"
    )
