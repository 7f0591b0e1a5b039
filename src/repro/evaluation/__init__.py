"""Evaluation harness: runners and table/figure regenerators (Section 7).

The suite runner executes sequentially or across a process pool with hard
wall-clock kills (:mod:`repro.evaluation.parallel`), backed by a persistent
content-addressed result cache (:mod:`repro.evaluation.cache`); see
``run_suite(workers=..., cache=...)`` and the ``--workers`` / ``--no-cache``
flags of ``python -m repro bench``.

One harness rides along: ``repro chaos`` runs seeded fault-injection
trials against the serve runtime (:mod:`repro.evaluation.chaos`).
Performance of synthesis, the runtime and serve is measured by the
repository benchmark under ``perfbench/``.
"""

from .cache import ResultCache, cache_enabled, default_cache_dir, resolve_cache
from .cdf import ascii_cdf, cdf_series
from .export import (
    bench_metadata,
    matrix_to_csv,
    matrix_to_json,
    suite_to_records,
    write_artifacts,
)
from .parallel import Task, default_workers, execute_tasks
from .runner import SuiteResult, default_timeout, run_matrix, run_suite
from .tables import qualitative, table1, table2

__all__ = [
    "ResultCache",
    "SuiteResult",
    "Task",
    "ascii_cdf",
    "bench_metadata",
    "cache_enabled",
    "cdf_series",
    "default_cache_dir",
    "default_timeout",
    "default_workers",
    "execute_tasks",
    "matrix_to_csv",
    "matrix_to_json",
    "qualitative",
    "resolve_cache",
    "run_matrix",
    "run_suite",
    "suite_to_records",
    "table1",
    "table2",
    "write_artifacts",
]
