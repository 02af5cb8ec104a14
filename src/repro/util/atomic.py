"""Crash-safe file replacement for every on-disk record: result-cache
entries, sweep-queue shards, leases and fragments, and run manifests."""

from __future__ import annotations

import os
import tempfile
from typing import Union


def atomic_write(path: Union[str, "os.PathLike"], data: bytes) -> str:
    """Replace ``path`` with ``data`` atomically; returns the path.

    The bytes go to a same-directory ``.tmp`` file, are fsynced, and are
    then renamed over ``path``: a writer killed midway leaves at worst an
    orphaned ``.tmp`` (``ResultCache.clear`` reaps old ones), never a
    truncated ``path``.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
