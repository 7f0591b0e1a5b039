"""Process-pool task execution with hard wall-clock timeouts.

The sequential runner relies on the solver *cooperatively* polling
``config.expired()``; one runaway enumeration (or a pathological algebra
call that never reaches a poll point) stalls the whole suite.  This module
executes each (solver, benchmark) task in its own worker process so the
supervisor can enforce the budget from the outside:

* tasks are sharded across at most ``workers`` concurrent processes;
* a task that exceeds ``timeout_s`` (plus a small grace period, giving the
  solver's own cooperative timeout a chance to produce its richer failure
  report) is **killed** — SIGKILL, not a poll — and recorded as a timeout
  failure, while sibling workers keep running undisturbed;
* results stream back incrementally (``execute_tasks`` is a generator
  yielding in completion order), and the caller re-orders them into the
  deterministic benchmark order of the final
  :class:`~repro.evaluation.runner.SuiteResult`.

The spawn/reap/deadline core lives in :class:`repro.supervisor.
ProcessSupervisor`; this module only maps its generic job results onto
:class:`~repro.core.report.SynthesisReport`.

Workers are forked where available (Linux; solver and program reach the
child by inheritance) and spawned elsewhere, in which case task payloads
must be picklable — which :class:`~repro.core.config.SynthesisConfig`,
:class:`~repro.suites.registry.Benchmark` and the registered solvers all
guarantee.  One process per task keeps the kill path trivial (no pool
state to repair) and is cheap relative to a synthesis call.  Task workers
are daemonic, so a dying harness cannot leak them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

from ..core.config import SynthesisConfig
from ..core.report import SynthesisReport
from ..suites.registry import Benchmark
from ..supervisor import KILL_GRACE_S, Job, ProcessSupervisor

#: Environment knob for the default worker count of the benchmark harness.
WORKERS_ENV = "REPRO_BENCH_WORKERS"

__all__ = [
    "KILL_GRACE_S",
    "Task",
    "WORKERS_ENV",
    "default_workers",
    "execute_tasks",
]


def _positive_int_env(name: str, fallback: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return fallback
    try:
        parsed = int(value)
    except ValueError:
        raise ValueError(f"{name} must be a positive integer, got {value!r}") from None
    if parsed < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return parsed


def default_workers(fallback: int = 1) -> int:
    """Worker count from ``REPRO_BENCH_WORKERS``, validated like a budget."""
    return _positive_int_env(WORKERS_ENV, fallback)


@dataclass(frozen=True)
class Task:
    """One (solver, benchmark) cell of the evaluation matrix."""

    index: int
    solver: object
    benchmark: Benchmark
    config: SynthesisConfig

    @property
    def name(self) -> str:
        return self.benchmark.name


def _run_solver(solver, program, config, task_name: str) -> SynthesisReport:
    """Worker payload: one synthesis task (exceptions become error results
    at the supervisor layer, then failed reports here)."""
    return solver.synthesize(program, config, task_name)


def _timeout_report(task: Task, elapsed: float) -> SynthesisReport:
    budget = task.config.timeout_s
    return SynthesisReport(
        task=task.name,
        success=False,
        elapsed_s=budget,
        failure_reason=(
            f"SynthesisTimeout: worker killed at the {budget:g}s "
            f"wall-clock budget (ran {elapsed:.1f}s)"
        ),
    )


def _crash_report(task: Task, exitcode: int | None) -> SynthesisReport:
    return SynthesisReport(
        task=task.name,
        success=False,
        elapsed_s=0.0,
        failure_reason=f"WorkerCrashed: exit code {exitcode}",
    )


def execute_tasks(
    tasks: list[Task],
    workers: int,
    kill_grace_s: float = KILL_GRACE_S,
) -> Iterator[tuple[Task, SynthesisReport]]:
    """Run tasks across a pool of worker processes; yield in completion order.

    Hard-timeout guarantee: no yielded report arrives later than
    ``timeout_s + kill_grace_s`` after its task started, regardless of what
    the solver does — the supervisor kills the worker outright.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    supervisor = ProcessSupervisor(workers, kill_grace_s=kill_grace_s)
    jobs = [
        Job(
            key=task,
            fn=_run_solver,
            args=(task.solver, task.benchmark.program, task.config, task.name),
            timeout_s=task.config.timeout_s,
        )
        for task in tasks
    ]
    for result in supervisor.run(jobs):
        task = result.job.key
        if result.kind == "ok":
            report = result.value
        elif result.kind == "error":
            report = SynthesisReport(
                task=task.name,
                success=False,
                elapsed_s=0.0,
                failure_reason=f"WorkerError: {result.message}",
            )
        elif result.kind == "timeout":
            report = _timeout_report(task, result.elapsed_s)
        else:
            report = _crash_report(task, result.exitcode)
        yield task, report
