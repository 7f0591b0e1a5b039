"""Shared on-disk plumbing for content-addressed object directories.

Both persistent stores — the synthesis result cache
(:mod:`repro.evaluation.cache`, ``objects/*.pkl``) and the compiled scheme
store (:mod:`repro.store`, ``schemes/*.json``) — keep hex-keyed files in a
two-level fan-out under a shared root, write them atomically and durably
(:func:`atomic_write`, also behind every checkpoint file), and support
the same maintenance verbs (``repro cache stats|clear|gc``).  This helper
owns that machinery once so the two stores cannot drift apart.

All maintenance I/O is best-effort: unreadable or vanishing entries are
skipped, never fatal — the conservative behaviour for caches on shared or
read-only file systems.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Iterator


def fsync_dir(directory) -> None:
    """Best-effort fsync of a directory (persists a rename in its entry
    table).  Platforms that cannot open directories for fsync (Windows)
    simply skip it — the file contents are already durable either way."""
    try:
        fd = os.open(directory, getattr(os, "O_DIRECTORY", os.O_RDONLY))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path, data: str | bytes) -> None:
    """Write ``data`` (text is UTF-8 encoded) to ``path`` atomically and
    durably: a uniquely named temp file in the same directory, fsync,
    ``os.replace``, then fsync the directory.

    Readers see either the previous complete file or the new complete
    one, never a torn write — for a serve checkpoint that is the only
    thing standing between a crashed worker and replaying the stream from
    zero.  The temp file lives next to the target (``os.replace`` must not
    cross filesystems), is created exclusively under a random name (so
    concurrent writers of one target never share it), and is removed if
    the write itself fails.  The final directory fsync persists the rename
    itself: without it a power loss shortly after ``os.replace`` can roll
    the directory entry back to the old file even though the new contents
    were fsynced.
    """
    target = Path(path)
    payload = data.encode("utf-8") if isinstance(data, str) else data
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    handle = open(tmp, "xb")
    try:
        with handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(target.parent)


class ObjectDirectory:
    """A ``<root>/<subdir>/<key[:2]>/<key><suffix>`` file tree."""

    def __init__(self, root: Path, subdir: str, suffix: str) -> None:
        self.root = root
        self.subdir = subdir
        self.suffix = suffix

    def path(self, key: str) -> Path:
        # Two-level fan-out so a full run never piles thousands of entries
        # into one directory.
        return self.root / self.subdir / key[:2] / f"{key}{self.suffix}"

    def entries(self) -> Iterator[Path]:
        base = self.root / self.subdir
        if base.is_dir():
            yield from base.glob(f"*/*{self.suffix}")

    def write_atomic(self, key: str, data: str | bytes) -> None:
        """Create parents and write ``data`` under ``key`` with
        :func:`atomic_write`, so readers and Ctrl-C never observe a torn
        entry.  OSError propagates to the caller, which decides whether an
        unwritable store is fatal (it never is)."""
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, data)

    # -- maintenance (the ``repro cache`` subcommand) ---------------------

    def entry_stats(self) -> tuple[int, int]:
        """``(entry count, total bytes)`` currently on disk."""
        count = size = 0
        for path in self.entries():
            try:
                size += path.stat().st_size
                count += 1
            except OSError:
                pass
        return count, size

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def gc(self, max_age_s: float) -> int:
        """Delete entries older than ``max_age_s`` seconds (by mtime);
        returns the number removed."""
        cutoff = time.time() - max_age_s
        removed = 0
        for path in self.entries():
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed
