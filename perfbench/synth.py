"""Synthesis workloads: cold ``repro.api.compile`` of suite tasks.

Each pass runs in a fresh interpreter (this file run as a script), so every
compile is cold: no in-process caches survive from an earlier pass.  The
parent process generates the check inputs before the clock starts, runs
passes until the run's time is used, and checks every compiled scheme
against its offline program on its own seeded lists, which are longer than
the at most 7 elements of the synthesizer's own acceptance test
(Definition 3.3).

* ``synth-suite``: all 51 tasks with the full synthesizer.  The 50 solvable
  tasks form one pass; ``kurtosis``, the expected failure, runs once per run
  in its own interpreter, since its time is bound by the per-task budget.
* ``synth-enum``: the Opera-NoSymbolic ablation (``use_symbolic=False``) on
  the tasks it solves well inside the budget, so nearly all time is
  enumeration.  Tasks whose time would measure the budget are left out.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from common import (REF_S, TRACE_METRICS, Outcome, freeze_inputs, median, peak_rss_mb,
                    percentile, ratio, reference_s, require_program, reset_peak_rss,
                    sum_of_medians)
from spans import Tracer

#: Per-task budget (seconds).  ``kurtosis`` runs to this limit (58 s at the
#: default 60 s), so the budget is fixed here.  Every other task finishes in
#: well under half of it even when the machine runs at half speed: the
#: slowest, ``skewness`` (suite) and ``q_avg_revenue`` (NoSymbolic), take
#: about 2 s and 3.3 s.
BUDGET_S = {"synth-suite": 10.0, "synth-enum": 20.0}
EXPECTED_FAILURE = "kurtosis"
#: Tasks Opera-NoSymbolic solves by enumeration in at most ~3.5 s.
ENUM_TASKS = (
    "q_avg_revenue",
    "q_max_revenue",
    "q_revenue",
    "variance_onepass",
    "harmonic_mean",
    "rms",
    "sum_of_squares",
    "geometric_mean",
)
#: Check lists per task, and their length range.
CHECK_LISTS = 12
CHECK_MIN_LEN, CHECK_MAX_LEN = 8, 24
#: A child that runs longer than this is killed (a pass takes ~6-9 s).
CHILD_TIMEOUT_S = 150.0
#: Set-up-only interpreters started before each pass: a pass takes seconds,
#: so a run has only 3 or 4 of them, too few set-ups for a steady median.
EXTRA_SETUPS = 2
#: Seconds between reference samples taken during a task (see RefSampler).
SAMPLE_PERIOD_S = 0.25


# -- tracing layer map ------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the synthesizer's phases where their callers import them."""
    import importlib

    from repro.core.enumerative import EnumStats
    from repro.core.scheme import OnlineScheme

    # By module path: ``repro.core.synthesize`` the attribute is the function.
    linsolve, enumerative, equivalence, implicate, mining, rfs, synth, templates = (
        importlib.import_module(name) for name in (
            "repro.algebra.linsolve", "repro.core.enumerative", "repro.core.equivalence",
            "repro.core.implicate", "repro.core.mining", "repro.core.rfs",
            "repro.core.synthesize", "repro.core.templates"))

    def hit(name):
        def on_return(args, kwargs, result):
            tracer.count(name + ".calls")
            if result is not None and result is not False:
                tracer.count(name + ".hits")
        return on_return

    def with_stats(fn):
        def run(*args, **kwargs):
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = EnumStats()
            before = (stats.generated, stats.kept, stats.pruned, stats.checked)
            try:
                return fn(*args, **kwargs)
            finally:
                after = (stats.generated, stats.kept, stats.pruned, stats.checked)
                for field, old, new in zip(("generated", "kept", "pruned", "checked"),
                                           before, after):
                    tracer.count("core.enumerative." + field, new - old)
        return run

    tracer.wrap_function([rfs, synth], "construct_rfs", "core.rfs")
    tracer.wrap_function([implicate, synth], "find_implicates", "core.implicate")
    tracer.wrap_function([mining, synth], "mine_expressions", "core.mining",
                         on_return=hit("core.mining"))
    tracer.wrap_function([templates, synth], "solve_template", "core.templates",
                         on_return=hit("core.templates"))
    tracer.wrap_function([enumerative, synth], "enumerate_expression", "core.enumerative",
                         make=with_stats)
    tracer.wrap_function([equivalence, synth, templates, enumerative],
                         "check_expr_equivalence", "core.equivalence.check_expr",
                         on_return=hit("core.equivalence.check_expr"))
    tracer.wrap_function([equivalence, synth], "check_scheme_equivalence",
                         "core.equivalence.check_scheme")
    tracer.wrap_function([equivalence, templates, enumerative], "rfs_environment",
                         "core.equivalence.rfs_environment")
    tracer.wrap_function([linsolve, templates], "nullspace", "algebra.linsolve.nullspace")
    tracer.wrap_method(OnlineScheme, "analyze", "ir.analysis")


# -- child: one cold pass ---------------------------------------------------


class RefSampler:
    """Reference samples (``common.reference_s``) taken between the units of
    a pass and, from a timer signal, every ``period`` seconds while one runs.

    A NoSymbolic enumeration runs for seconds, and the host's speed drifts
    within it; samples taken only around it tracked that drift worse than
    the raw time did (spread of 10 ``synth-enum`` passes: 0.18 bracketed,
    0.05 sampled during the tasks, 0.32 raw).  The handler runs between two
    bytecodes of the program, which uses no signals itself; its time is
    taken out of the unit's."""

    def __init__(self, period: float):
        self.period = period
        self.samples: list[tuple[float, float]] = []  #: (start, seconds)
        self._sampling = False

    def __enter__(self) -> "RefSampler":
        signal.signal(signal.SIGALRM, lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> None:
        if self._sampling:  # the timer fired during a sample
            return
        self._sampling = True
        try:
            self.samples.append((time.perf_counter(), reference_s()))
        finally:
            self._sampling = False

    def unit(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, scale factor) of the unit run from ``start`` to ``end``
        between two calls of :meth:`take`: its time without the samples
        taken during it, and ``REF_S`` over the mean of those samples and
        the two around it."""
        inside = [s for t, s in self.samples if start <= t < end]
        around = ([s for t, s in self.samples if t < start][-1:]
                  + [s for t, s in self.samples if t >= end][:1])
        return end - start - sum(inside), REF_S / statistics.mean(inside + around)


def child_main(spec: dict) -> None:
    """Set up, then compile each task, under a :class:`RefSampler`."""
    with RefSampler(SAMPLE_PERIOD_S) as sampler:
        sampler.take()
        start = time.perf_counter()
        require_program()
        from repro.api import CompileError, compile
        from repro.core.config import SynthesisConfig
        from repro.suites import get_benchmark

        benches = [get_benchmark(name) for name in spec["tasks"]]
        end = time.perf_counter()
        sampler.take()
        setup_s, setup_factor = sampler.unit(start, end)
        tracer = None
        if spec["trace"]:
            tracer = Tracer()
            install(tracer)
        results = []
        for bench in benches:
            config = SynthesisConfig(timeout_s=spec["budget"],
                                     element_arity=bench.element_arity,
                                     use_symbolic=spec["symbolic"])
            scheme, error = None, ""
            if tracer is not None:
                tracer.run = bench.name
            start = time.perf_counter()
            with tracer.span("synth.task") if tracer is not None else contextlib.nullcontext():
                try:
                    scheme = compile(bench.program, config=config, store=None,
                                     name=bench.name).scheme
                except CompileError as exc:
                    error = str(exc)
            end = time.perf_counter()
            sampler.take()
            seconds, factor = sampler.unit(start, end)
            results.append({"name": bench.name, "seconds": seconds, "factor": factor,
                            "error": error,
                            "scheme": scheme.dumps(indent=None) if scheme is not None else None})
    if tracer is not None:
        tracer.uninstall()
    print(json.dumps({"setup_s": setup_s, "setup_factor": setup_factor, "tasks": results,
                      "ref_s": [s for _, s in sampler.samples],
                      "trace": tracer.export() if tracer else None}))


def run_child(tasks, *, symbolic: bool, trace: bool, budget: float) -> dict:
    spec = {"tasks": list(tasks), "symbolic": symbolic, "budget": budget, "trace": trace}
    proc = subprocess.run([sys.executable, __file__, json.dumps(spec)], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"synthesis pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- correctness gate -------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    roll = rng.random()
    if roll < 0.25:
        return Fraction(rng.choice((-2, -1, 0, 1, 2)))
    if roll < 0.7:
        return Fraction(rng.randint(-9, 15))
    return Fraction(rng.randint(-30, 30), rng.randint(1, 7))


def check_inputs(benches, seed: int) -> dict:
    """Per task: seeded (list, extras) pairs, longer than Definition 3.3's."""
    inputs = {}
    for bench in benches:
        rng = random.Random(f"{seed}:{bench.name}")
        cases = []
        for _ in range(CHECK_LISTS):
            length = rng.randint(CHECK_MIN_LEN, CHECK_MAX_LEN)
            if bench.element_arity <= 1:
                xs = [_rational(rng) for _ in range(length)]
            else:
                xs = [tuple(_rational(rng) for _ in range(bench.element_arity))
                      for _ in range(length)]
            extras = {name: Fraction(rng.randint(-2, 9)) for name in bench.program.extra_params}
            cases.append((xs, extras))
        inputs[bench.name] = cases
    return inputs


def same_value(got, want) -> bool:
    """Exact equality, except that a float on either side is compared with
    the synthesizer's own oracle tolerance."""
    if isinstance(got, tuple) and isinstance(want, tuple):
        return len(got) == len(want) and all(same_value(a, b) for a, b in zip(got, want))
    if isinstance(got, float) or isinstance(want, float):
        try:
            a, b = float(got), float(want)
        except (TypeError, OverflowError):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=1e-7, abs_tol=1e-9)
    return got == want


def scheme_matches(bench, scheme_text: str, cases) -> str:
    """Empty string when the scheme equals the offline program on every
    case, else a description of the first disagreement."""
    from repro.core.scheme import OnlineScheme
    from repro.ir.evaluator import run_offline

    scheme = OnlineScheme.loads(scheme_text)
    for xs, extras in cases:
        try:
            want = ("ok", run_offline(bench.program, xs, extras))
        except (ArithmeticError, ValueError, TypeError, RuntimeError) as exc:
            want = ("raised", type(exc).__name__)
        try:
            got = ("ok", scheme.final(xs, extras))
        except (ArithmeticError, ValueError, TypeError, RuntimeError) as exc:
            got = ("raised", type(exc).__name__)
        if got[0] != want[0] or (got[0] == "ok" and not same_value(got[1], want[1])):
            return f"{bench.name}: online {got} != offline {want} on {len(xs)} elements"
    return ""


def gate(outcome: Outcome, benches, inputs, results: list[dict], verdicts: dict) -> None:
    """One checked operation per task compile; each distinct scheme text
    is checked once against the offline program (``verdicts`` caches)."""
    by_name = {bench.name: bench for bench in benches}
    for result in results:
        bench = by_name[result["name"]]
        text = result["scheme"]
        if text is None:
            outcome.check(bench.name == EXPECTED_FAILURE,
                          f"{bench.name}: compile failed: {result['error']}")
            continue
        key = (bench.name, text)
        if key not in verdicts:
            verdicts[key] = scheme_matches(bench, text, inputs[bench.name])
        outcome.check(not verdicts[key], verdicts[key])


# -- parent: the workload ---------------------------------------------------


def _pass_seconds(child: dict) -> float:
    return sum(task["seconds"] for task in child["tasks"])


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Outcome, Tracer | None]:
    require_program()
    from repro.suites import all_benchmarks, get_benchmark

    if workload == "synth-suite":
        solved = [b for b in all_benchmarks() if b.name != EXPECTED_FAILURE]
        failing = [get_benchmark(EXPECTED_FAILURE)]
        symbolic = True
    else:
        solved = [get_benchmark(name) for name in ENUM_TASKS]
        failing = []
        symbolic = False
    benches = solved + failing
    budget = BUDGET_S[workload]
    inputs = check_inputs(benches, seed)
    names = [b.name for b in solved]
    freeze_inputs()
    reset_peak_rss()

    def cold_pass(tasks, traced=False):
        return run_child(tasks, symbolic=symbolic, trace=traced, budget=budget)

    outcome = Outcome()
    children: list[dict] = []
    setups: list[dict] = []
    fails: list[dict] = []
    traced = traced_fail = None
    tracer = None
    if trace:
        tracer = Tracer()
        children.append(cold_pass(names))
        traced = cold_pass(names, traced=True)
        tracer.absorb(traced["trace"])
        if failing:
            fails.append(cold_pass([EXPECTED_FAILURE]))
            traced_fail = cold_pass([EXPECTED_FAILURE], traced=True)
            tracer.absorb(traced_fail["trace"])
    else:
        # The expected failure only measures the budget, so it runs in the
        # traced run alone (reported as fail_s).  Passes take seconds: one
        # more starts only if it should end within half a pass of the time.
        started = time.perf_counter()
        elapsed = 0.0
        while not children or elapsed + elapsed / len(children) / 2 < seconds:
            setups.extend(cold_pass([]) for _ in range(EXTRA_SETUPS))
            children.append(cold_pass(names))
            elapsed = time.perf_counter() - started

    verdicts: dict[tuple[str, str], str] = {}
    for child in children + fails + [c for c in (traced, traced_fail) if c is not None]:
        gate(outcome, benches, inputs, child["tasks"], verdicts)

    work = sum_of_medians(_scaled(child) for child in children)
    outcome.put("work_s", work, "s")
    outcome.put("setup_s", median(child["setup_s"] * child["setup_factor"]
                                  for child in children + setups + fails), "s")
    outcome.put("peak_rss_mb", peak_rss_mb(children=True), "MB")
    outcome.put("compile_s", work, "s")
    if fails:
        # Bound by the budget, a wall-clock deadline: not scaled.
        outcome.put("fail_s", median(_pass_seconds(child) for child in fails), "s")
    print(f"{workload}: {len(children)} pass(es) of {len(names)} tasks, pass times "
          f"{[round(_pass_seconds(c), 3) for c in children]} s, scaled "
          f"{[round(sum(_scaled(c)), 3) for c in children]} s")
    if trace:
        _layer_metrics(outcome, tracer, children[0], traced, traced_fail)
    return outcome, tracer


def _scaled(child: dict) -> list[float]:
    """The pass's task times in nominal seconds (see ``common.REF_S``)."""
    return [task["seconds"] * task["factor"] for task in child["tasks"]]


#: Per-layer self-time metrics and the span name each reads.
SELF_TIMES = {
    "core.rfs.self_s": "core.rfs",
    "core.implicate.self_s": "core.implicate",
    "core.mining.self_s": "core.mining",
    "core.templates.self_s": "core.templates",
    "core.enumerative.self_s": "core.enumerative",
    "ir.analysis.self_s": "ir.analysis",
    "synth.task.self_s": "synth.task",
    "core.equivalence.rfs_environment_s": "core.equivalence.rfs_environment",
    "core.equivalence.check_expr_s": "core.equivalence.check_expr",
    "core.equivalence.check_scheme_s": "core.equivalence.check_scheme",
    "algebra.linsolve.nullspace_s": "algebra.linsolve.nullspace",
}
#: Hit-ratio metrics and the counter prefix each reads.
RATIOS = {
    "core.templates.solved_ratio": "core.templates",
    "core.mining.hit_ratio": "core.mining",
    "core.equivalence.accept_ratio": "core.equivalence.check_expr",
}
_COMMON = (*SELF_TIMES, *RATIOS, "core.enumerative.generated", "core.enumerative.kept",
           "core.enumerative.pruned", "core.enumerative.checked", "synth.task_p50_ms",
           "synth.task_max_ms", "compile_s", *TRACE_METRICS)
#: Per-layer metrics each workload's traced run measures.
LAYER_METRICS = {
    "synth-suite": frozenset(_COMMON + ("fail_s", "core.enumerative.fail_generated_per_s")),
    "synth-enum": frozenset(_COMMON),
}


def _layer_metrics(outcome: Outcome, tracer: Tracer, plain: dict, traced: dict,
                   traced_fail: dict | None) -> None:
    """Per-layer numbers from the traced pass over the solvable tasks (self
    times, counters), the traced expected failure (enumeration rate), and
    the untraced pass of the same run (task latencies, overhead)."""
    put = outcome.put
    self_s, counts = traced["trace"]["self_s"], traced["trace"]["counts"]
    for metric, layer in SELF_TIMES.items():
        put(metric, self_s.get(layer, 0.0), "s")
    for metric, prefix in RATIOS.items():
        put(metric, ratio(counts.get(prefix + ".hits", 0), counts.get(prefix + ".calls", 0)),
            "ratio")
    for field in ("generated", "kept", "pruned", "checked"):
        put("core.enumerative." + field, counts.get("core.enumerative." + field, 0), "count")
    if traced_fail is not None:
        put("core.enumerative.fail_generated_per_s",
            ratio(traced_fail["trace"]["counts"].get("core.enumerative.generated", 0),
                  _pass_seconds(traced_fail)), "1/s")
    times_ms = [task["seconds"] * 1000.0 for task in plain["tasks"]]
    put("synth.task_p50_ms", percentile(times_ms, 0.5), "ms")
    put("synth.task_max_ms", max(times_ms), "ms")
    put("host.ref_ms", median(plain["ref_s"]) * 1000.0, "ms")
    untraced = sum(_scaled(plain))
    overhead = sum(_scaled(traced)) - untraced
    put("trace.overhead_s", overhead, "s")
    put("trace.overhead_ratio", ratio(overhead, untraced), "ratio")
    put("trace.spans", len(tracer.spans), "count")


if __name__ == "__main__":
    child_main(json.loads(sys.argv[1]))
