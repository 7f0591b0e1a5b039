"""Persistent, content-addressed cache of synthesis results.

Re-running the evaluation after touching only docs (or only one suite) should
be near-instant, so every (solver, benchmark, config) task result can be
persisted on disk and replayed on the next run.

Cache key
    ``sha256`` over the benchmark source hash
    (:meth:`repro.suites.registry.Benchmark.source_fingerprint`), the solver
    name, the config fingerprint
    (:meth:`repro.core.config.SynthesisConfig.fingerprint`), the package
    version, and the synthesizer implementation digest
    (:func:`repro.fingerprint.implementation_digest` — a source-tree hash of
    ``repro.core``/``repro.algebra``/``repro.ir``/``repro.frontend``).  Any
    change to the task, the knobs, the release, or the synthesizer's own
    code invalidates the entry automatically; editing docs, the harness, or
    the runtime does not.

On-disk layout
    ``<root>/objects/<key[:2]>/<key>.pkl`` — two-level fan-out so a full
    matrix run (51 benchmarks x 5 solvers) never piles thousands of entries
    into one directory.  Each entry is a pickled ``(timeout_s, report)``
    pair, written atomically and durably (:func:`repro.diskstore.atomic_write`)
    so parallel suite runs and Ctrl-C never leave a torn entry behind.

Budget semantics
    Successful reports are budget-independent (the budget decides whether
    the search finishes, not what it finds — the RNG is seeded) and always
    hit.  Failed reports hit only when they were produced with *at least* the
    requested budget: a failure under 600 s implies a failure under 10 s, but
    not vice versa.

The root defaults to ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``,
else ``~/.cache/repro``.  Setting ``REPRO_CACHE=0`` disables caching in the
benchmark harness and the CLI (equivalent to ``--no-cache``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path

from ..core.config import SynthesisConfig
from ..core.report import SynthesisReport
from ..diskstore import ObjectDirectory
from ..suites.registry import Benchmark

#: Root directory override for the on-disk cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Master switch: "0" / "false" / "no" / "off" disables caching everywhere
#: the harness would otherwise enable it by default.
CACHE_ENV = "REPRO_CACHE"


def default_cache_dir() -> Path:
    """Resolve the cache root from the environment (without creating it)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def cache_enabled() -> bool:
    """``REPRO_CACHE`` master switch (defaults to on)."""
    return os.environ.get(CACHE_ENV, "1").strip().lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


def resolve_cache(
    enabled: bool | None = None, directory: str | os.PathLike | None = None
) -> "ResultCache | None":
    """Build the cache the harness should use, honouring the env knobs.

    ``enabled=None`` defers to :func:`cache_enabled`; an explicit ``False``
    (e.g. the CLI's ``--no-cache``) always wins.
    """
    if enabled is None:
        enabled = cache_enabled()
    if not enabled:
        return None
    return ResultCache(directory)


class ResultCache:
    """Content-addressed store of :class:`SynthesisReport` pickles.

    All I/O is best-effort: an unwritable or corrupted cache degrades to
    misses instead of failing the run (the conservative behaviour for an
    evaluation harness on read-only or shared file systems).
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._objects = ObjectDirectory(self.root, "objects", ".pkl")
        self.hits = 0
        self.misses = 0

    # -- keys ------------------------------------------------------------

    @staticmethod
    def task_key(solver_name: str, benchmark: Benchmark, config: SynthesisConfig) -> str:
        from .. import __version__, fingerprint

        blob = "\n".join(
            (
                benchmark.source_fingerprint(),
                solver_name,
                config.fingerprint(),
                __version__,
                fingerprint.implementation_digest(),
            )
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self._objects.path(key)

    # -- store -----------------------------------------------------------

    def get(self, key: str, timeout_s: float) -> SynthesisReport | None:
        """Return the cached report, or ``None`` on miss.

        A cached *failure* only counts when it was given at least
        ``timeout_s`` of budget (see module docstring); a cached success
        always counts.
        """
        try:
            with open(self._path(key), "rb") as handle:
                entry = pickle.load(handle)
        except Exception:  # any malformed/foreign/legacy entry is a miss
            self.misses += 1
            return None
        if (
            not isinstance(entry, tuple)
            or len(entry) != 2
            or not isinstance(entry[0], (int, float))
            or not isinstance(entry[1], SynthesisReport)
        ):
            self.misses += 1
            return None
        stored_timeout, report = entry
        if not report.success and stored_timeout < timeout_s:
            self.misses += 1  # a larger budget might succeed: retry
            return None
        self.hits += 1
        return report

    def put(self, key: str, timeout_s: float, report: SynthesisReport) -> None:
        try:
            data = pickle.dumps((float(timeout_s), report), protocol=pickle.HIGHEST_PROTOCOL)
            self._objects.write_atomic(key, data)
        except (OSError, pickle.PicklingError):
            pass  # best-effort: an unwritable cache is just a slow cache

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        return self._objects.clear()

    def entry_stats(self) -> tuple[int, int]:
        """``(entry count, total bytes)`` currently on disk (for
        ``repro cache stats``)."""
        return self._objects.entry_stats()

    def gc(self, max_age_s: float) -> int:
        """Delete entries older than ``max_age_s`` seconds (by mtime);
        returns the number removed (for ``repro cache gc``)."""
        return self._objects.gc(max_age_s)

    def stats_line(self) -> str:
        return f"cache: {self.hits} hits, {self.misses} misses ({self.root})"
