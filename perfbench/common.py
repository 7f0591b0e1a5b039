"""Helpers shared by every workload: paths, result line, memory, medians."""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def require_program() -> None:
    """Put the checkout's ``src`` on the path, or exit non-zero without a
    result when the program's sources are absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def freeze_inputs() -> None:
    """Move everything allocated so far (imports, generated inputs) out of
    the collector's view, so collections during the measurement do not
    rescan it.  Cuts run-to-run spread of allocation-heavy phases."""
    gc.collect()
    gc.freeze()


#: Per-layer metrics of every traced run: the reference loop's measured
#: time, and the tracing overhead.
TRACE_METRICS = ("host.ref_ms", "trace.overhead_s", "trace.overhead_ratio", "trace.spans")


def reset_peak_rss() -> None:
    """Restart this process's peak resident set from its current size, so
    that memory used while preparing inputs does not mask the measured
    job's.  Needs Linux's ``/proc/self/clear_refs``; without it the peak
    covers the whole process lifetime (said on standard error)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as out:
            out.write("5")
    except OSError as exc:
        print(f"perfbench: peak RSS not reset ({exc}); it includes input "
              "preparation", file=sys.stderr)


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process since :func:`reset_peak_rss`, plus,
    with ``children``, that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if children else 0
    return (own + child) / 1024.0


#: Nominal time of :func:`reference_s`.  Reported times are scaled by
#: ``REF_S`` over the reference's time measured next to them, i.e. given as
#: seconds on a host that runs the reference in exactly ``REF_S``.
REF_S = 0.005


def reference_s() -> float:
    """Seconds of one run of a fixed pure-Python loop (exact-rational
    arithmetic, dict grouping, list appends: the operations the program
    spends its time in).  The host's speed drifts by up to 1.6x in spells
    of seconds to tens of seconds; timing this loop next to each measured
    unit lets that drift be divided out."""
    collecting = gc.isenabled()
    gc.disable()  # a collection would scan the program's heap, not time the host
    try:
        start = time.perf_counter()
        groups: dict = {}
        acc = Fraction(0)
        for i in range(1500):
            x = Fraction(i % 97, 1 + i % 13)
            groups.setdefault(i * 7919 % 613, []).append(x)
            acc += x * x
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def factors(refs) -> list[float]:
    """Scale factors from measured to nominal seconds for the units timed
    between consecutive reference samples: unit ``i`` ran between
    ``refs[i]`` and ``refs[i + 1]``."""
    return [2 * REF_S / (before + after) for before, after in zip(refs, refs[1:])]


def sum_of_medians(passes) -> float:
    """One pass's total, as the sum over units of each unit's median across
    passes (``passes[p][u]`` is unit ``u``'s time in pass ``p``): a slow
    spell of the machine during a few units of one pass does not move it."""
    return sum(median(unit) for unit in zip(*passes))


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Outcome:
    """What a workload run produces: checked operations and metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def emit(outcome: Outcome, names: list[str]) -> None:
    """Print the human-readable lines, then the result object as the last
    line of standard output (only the metrics listed in ``names``)."""
    for error in outcome.errors:
        print(f"FAILED: {error}")
    share = ratio(outcome.failed, outcome.attempted)
    print(f"operations: {outcome.attempted} attempted, {outcome.failed} failed "
          f"({share:.2%})")
    for name in sorted(outcome.metrics):
        value, unit = outcome.metrics[name]
        print(f"  {name:<40} {value:>16.6g} {unit}")
    missing = [name for name in names if name not in outcome.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
            for name in names
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
