"""Spans recorded from outside the program: wrappers around public names.

The program under test has no instrumentation of its own, so the traced run
replaces chosen public functions and methods with timing wrappers, patched
into every module that imported the name (``from x import f`` copies the
binding, so patching only the defining module would miss those callers).
Wrappers are installed only for the traced pass and removed afterwards.

Each wrapped call opens a span (name, start, end, parent, run id).  Spans
are kept in memory and written as JSON lines when the benchmark ends.  Self
time is computed as a span's duration minus the time of the spans it
directly encloses, so the self times of all layers add up to the duration
of the root spans.  Very frequent leaf calls (``leaf=True``) are not stored
as spans; their time and call count are still charged to the layer, and
subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path


class _Frame:
    __slots__ = ("index", "child_s")

    def __init__(self, index: int):
        self.index = index
        self.child_s = 0.0


class Tracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self):
        self.spans: list[list] = []  #: [name, start, end, parent index, run]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.run = ""
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        parent = self._stack[-1].index if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run])
        frame = _Frame(len(self.spans) - 1)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame, name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[frame.index]
        span[0], span[2] = name, end
        duration = end - span[1]
        self._charge(name, duration, duration - frame.child_s)

    def _charge(self, name: str, duration: float, self_time: float) -> None:
        if self._stack:
            self._stack[-1].child_s += duration
        self.self_s[name] = self.self_s.get(name, 0.0) + self_time
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def _timed(self, fn, name, leaf: bool, on_return=None):
        """``fn`` timed as layer ``name``; a callable ``name`` gets the first
        argument (the instance) after the call, for layers split by state."""
        tracer = self

        if leaf:
            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = time.perf_counter() - start
                    tracer._charge(name, duration, duration)

            return leaf_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open("")
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(frame, name(args[0]) if callable(name) else name)
                if on_return is not None:
                    on_return(args, kwargs, result)

        return wrapper

    def wrap_function(self, modules, attr: str, name: str, *, on_return=None,
                      make=None) -> None:
        """Replace the function ``attr`` in its defining module
        ``modules[0]`` and in each importer in ``modules[1:]``.

        ``make(fn)`` may return a replacement to time instead of ``fn``
        (used to inject arguments such as the enumerator's ``stats``).
        An importer that no longer binds the function is an error: its
        calls would silently count towards the enclosing layer."""
        original = getattr(modules[0], attr)
        unbound = [m.__name__ for m in modules[1:] if getattr(m, attr, None) is not original]
        if unbound:
            raise RuntimeError(f"spans: {', '.join(unbound)} no longer bind "
                               f"{modules[0].__name__}.{attr}; update the layer map")
        target = make(original) if make is not None else original
        wrapper = self._timed(target, name, False, on_return)
        for module in modules:
            self._undo.append((module, attr, original))
            setattr(module, attr, wrapper)

    def wrap_method(self, cls, attr: str, name, *, leaf=False, on_return=None) -> None:
        """Replace a method on its class (``name`` as in :meth:`_timed`)."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._timed(original, name, leaf, on_return))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def root_total_s(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def absorb(self, other: dict) -> None:
        """Merge a tracer's :meth:`export` (e.g. from a child process)."""
        offset = len(self.spans)
        for name, start, end, parent, run in other["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, run])
        for key, value in other["self_s"].items():
            self.self_s[key] = self.self_s.get(key, 0.0) + value
        for key, value in other["calls"].items():
            self.calls[key] = self.calls.get(key, 0) + value
        for key, value in other["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    def export(self) -> dict:
        return {"spans": self.spans, "self_s": self.self_s, "calls": self.calls,
                "counts": self.counts}

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                      "parent": parent, "run": run}) + "\n")
