"""Experiment runner: executes solvers over benchmark suites and collects
per-task reports (the machinery behind Tables 1-2 and Figures 11-13).

Timeouts: the paper gives every task 10 minutes on an M1 Pro.  This harness
keeps the budget configurable (``timeout_s``) so the full evaluation can be
regenerated in minutes; the CDF *shape* — who solves what, in which order —
is budget-stable because successful tasks finish orders of magnitude below
any reasonable budget, while failing ones consume whatever they are given.

Execution modes (both produce identical :class:`SuiteResult` contents,
modulo ``elapsed_s``):

* ``workers=1`` — in-process sequential execution, budgets enforced
  cooperatively by the solver polling ``config.expired()``;
* ``workers>1`` — the :mod:`repro.evaluation.parallel` process pool: tasks
  are sharded across worker processes, budgets are enforced by killing
  runaway workers, and the final report dict is assembled in benchmark
  order regardless of completion order.

Either mode consults an optional :class:`repro.evaluation.cache.ResultCache`
before running a task and persists fresh reports afterwards, so re-running a
table or figure only re-synthesizes what actually changed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from ..core.config import SynthesisConfig
from ..core.report import SynthesisReport
from ..suites.registry import Benchmark
from .cache import ResultCache
from .parallel import Task, default_workers, execute_tasks

#: Environment knob for scaling per-task budgets in the benchmark harness.
TIMEOUT_ENV = "REPRO_BENCH_TIMEOUT"

__all__ = [
    "SuiteResult",
    "TIMEOUT_ENV",
    "default_timeout",
    "default_workers",
    "run_matrix",
    "run_suite",
]


def default_timeout(fallback: float = 10.0) -> float:
    """Per-task budget from ``REPRO_BENCH_TIMEOUT``, validated.

    Rejects non-numeric, non-finite, zero and negative values with an error
    naming the offending variable instead of an uncaught ``ValueError`` from
    ``float()`` deep inside a benchmark run.
    """
    value = os.environ.get(TIMEOUT_ENV)
    if value is None:
        return fallback
    try:
        parsed = float(value)
    except ValueError:
        raise ValueError(f"{TIMEOUT_ENV} must be a number of seconds, got {value!r}") from None
    if not math.isfinite(parsed) or parsed <= 0:
        raise ValueError(
            f"{TIMEOUT_ENV} must be a positive finite number of seconds, "
            f"got {value!r}"
        )
    return parsed


@dataclass
class SuiteResult:
    """All reports of one solver over one benchmark list."""

    solver: str
    reports: dict[str, SynthesisReport] = field(default_factory=dict)

    def solved(self) -> list[SynthesisReport]:
        return [r for r in self.reports.values() if r.success]

    def percent_solved(self) -> float:
        if not self.reports:
            return 0.0
        return 100.0 * len(self.solved()) / len(self.reports)

    def average_time(self, solved_only: bool = True, default: float = float("nan")) -> float:
        """Mean ``elapsed_s``; ``default`` is returned for an empty pool so
        renderers can opt into ``0.0`` instead of propagating ``nan``."""
        pool = self.solved() if solved_only else list(self.reports.values())
        if not pool:
            return default
        return sum(r.elapsed_s for r in pool) / len(pool)

    def times_sorted(self) -> list[float]:
        return sorted(r.elapsed_s for r in self.solved())

    @classmethod
    def merged(cls, solver: str, suites: Iterable["SuiteResult"]) -> "SuiteResult":
        """Union of several runs of the same solver (e.g. across domains)."""
        result = cls(solver=solver)
        for suite in suites:
            result.reports.update(suite.reports)
        return result


def _task_config(base: SynthesisConfig, bench: Benchmark) -> SynthesisConfig:
    return replace(base, element_arity=bench.element_arity)


def _cacheable(report: SynthesisReport) -> bool:
    """Crashed/errored workers are environment failures, not task outcomes;
    persisting them would replay e.g. an OOM kill on every later run."""
    reason = report.failure_reason or ""
    return report.success or not reason.startswith(("WorkerCrashed", "WorkerError"))


def run_suite(
    solver,
    benchmarks: list[Benchmark],
    config: SynthesisConfig | None = None,
    verbose: bool = False,
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    on_result: Callable[[SynthesisReport], None] | None = None,
) -> SuiteResult:
    """Run one solver over the given benchmarks.

    ``workers`` selects sequential (1) or process-pool execution (>1);
    ``cache`` short-circuits tasks whose result is already on disk;
    ``on_result`` observes reports incrementally, in completion order
    (cached results first).  The returned ``SuiteResult`` lists reports in
    benchmark order in both modes.
    """
    base = config or SynthesisConfig(timeout_s=default_timeout())
    result = SuiteResult(solver=solver.name)

    def emit(report: SynthesisReport) -> None:
        if verbose:
            print(report.summary_line(), flush=True)
        if on_result is not None:
            on_result(report)

    fresh: list[tuple[Benchmark, SynthesisConfig, str | None]] = []
    collected: dict[str, SynthesisReport] = {}
    for bench in benchmarks:
        task_config = _task_config(base, bench)
        key = None
        if cache is not None:
            key = cache.task_key(solver.name, bench, task_config)
            hit = cache.get(key, task_config.timeout_s)
            if hit is not None:
                collected[bench.name] = hit
                emit(hit)
                continue
        fresh.append((bench, task_config, key))

    if workers <= 1 or not fresh:
        for bench, task_config, key in fresh:
            report = solver.synthesize(bench.program, task_config, bench.name)
            collected[bench.name] = report
            if cache is not None and key is not None and _cacheable(report):
                cache.put(key, task_config.timeout_s, report)
            emit(report)
    else:
        tasks = [
            Task(index=i, solver=solver, benchmark=bench, config=task_config)
            for i, (bench, task_config, _) in enumerate(fresh)
        ]
        keys = {task.index: key for task, (_, _, key) in zip(tasks, fresh)}
        for task, report in execute_tasks(tasks, workers=workers):
            collected[task.name] = report
            key = keys[task.index]
            if cache is not None and key is not None and _cacheable(report):
                cache.put(key, task.config.timeout_s, report)
            emit(report)

    # Deterministic final ordering: benchmark order, not completion order.
    for bench in benchmarks:
        if bench.name in collected:
            result.reports[bench.name] = collected[bench.name]
    return result


def run_matrix(
    solvers,
    benchmarks: list[Benchmark],
    config: SynthesisConfig | None = None,
    verbose: bool = False,
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> dict[str, SuiteResult]:
    """Run several solvers over the same benchmarks."""
    return {
        solver.name: run_suite(
            solver,
            benchmarks,
            config,
            verbose,
            workers=workers,
            cache=cache,
        )
        for solver in solvers
    }
