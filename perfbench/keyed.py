"""``keyed-wide``: six per-key queries over a high-cardinality Zipf stream.

One process feeds ``KeyedOperator.push_many`` in 4096-element batches with
``backend="auto"``, so certified int64 queries may run on the NumPy
columnar kernel and everything else on the exact kernel.  The queries are
the schemes the synthesizer emits for six suite tasks, compiled before the
clock starts:

* the certified-int64 group ``count``, ``sum_of_squares``, ``max``;
* the exact-only group ``mean``, ``variance``, ``skewness``.

Keys are drawn from ~10k keys, so each batch touches ~850 keys, most of
them once: per-call and grouping overhead dominate and the columnar kernel
runs on one-element slices, where it is slower than the exact kernel.  The
traced run of ``keyed-hot`` folds the same queries over 50 keys, where
slices are long and the columnar kernel pays off, so an optimisation of
per-key slices shows on one and not the other.

A pass sets the six queries up afresh (timed as set-up) and folds the
whole stream; every key's final value of every query is then compared with
the hand-written ``Fraction`` reference below, which does not use the
program.  The reference loop of ``common.reference_s`` runs before the
set-up, between queries and after the last, and each query's times are
scaled by the samples around it.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from common import (TRACE_METRICS, Outcome, factors, freeze_inputs, median, peak_rss_mb,
                    percentile, ratio, reference_s, require_program, reset_peak_rss,
                    sum_of_medians)
from spans import Tracer

INT_QUERIES = ("count", "sum_of_squares", "max")
RATIONAL_QUERIES = ("mean", "variance", "skewness")
QUERIES = INT_QUERIES + RATIONAL_QUERIES
BATCH = 4096
#: Values are uniform integers in [1, 1000] (``zipf_keys`` defaults).
VALUE_LO, VALUE_HI = 1, 1000
KEYS = 10_000
ELEMENTS = 2 * BATCH
#: Per-layer metrics of the traced fold (:meth:`Fold.traced`).
FOLD_METRICS = (
    *(f"stream.{query}_eps" for query in QUERIES), "stream_int_eps", "stream_rational_eps",
    "runtime.keyed.self_s", "runtime.keyed.keys_per_batch_p50", "runtime.stream.exact_s",
    "runtime.stream.columnar_s", "runtime.stream.calls", "runtime.stream.slice_p50",
    "ir.compile.kernel_s", "ir.vectorize.columns_s", "ir.vectorize.admitted",
)
#: Per-layer metrics each workload's traced run measures.
LAYER_METRICS = {"keyed-wide": frozenset(FOLD_METRICS + TRACE_METRICS)}


# -- hand-written reference -------------------------------------------------


def reference(stream) -> dict[str, dict]:
    """Final value per key of each query, in exact rationals (skewness,
    whose definition takes a 3/2 power, as the nearest float)."""
    per_key: dict = {}
    for value, key in stream:
        per_key.setdefault(key, []).append(Fraction(value))
    out: dict[str, dict] = {query: {} for query in QUERIES}
    for key, xs in per_key.items():
        n = len(xs)
        mean = sum(xs) / n
        m2 = sum((x - mean) ** 2 for x in xs) / n
        m3 = sum((x - mean) ** 3 for x in xs) / n
        out["count"][key] = n
        out["sum_of_squares"][key] = sum(x * x for x in xs)
        out["max"][key] = max(xs)
        out["mean"][key] = mean
        out["variance"][key] = m2
        out["skewness"][key] = 0 if m2 == 0 else float(m3) / float(m2) ** 1.5
    return out


def matches(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-12)
    return got == want


# -- workload ---------------------------------------------------------------


def compile_queries() -> dict[str, str]:
    """Synthesize the six queries (input preparation, not timed), in a child
    process so that synthesis does not set this process's peak memory."""
    import synth

    child = synth.run_child(QUERIES, symbolic=True, trace=False, budget=60.0)
    failed = [task["name"] for task in child["tasks"] if task["scheme"] is None]
    if failed:
        raise RuntimeError(f"queries not synthesized: {failed}")
    return {task["name"]: task["scheme"] for task in child["tasks"]}


def stream_bounds(elements: int):
    from repro.ir.analysis import AnalysisBounds, FieldBounds

    return AnalysisBounds(element=(FieldBounds(lo=VALUE_LO, hi=VALUE_HI, integral=True),),
                          max_elements=elements, source="perfbench zipf_keys")


def _key(element):
    return element[1]


def _value(element):
    return element[0]


def set_up(texts: dict[str, str], bounds) -> dict:
    """Load each scheme afresh (cold kernel caches) and build its keyed
    operator; the first partition compiles the exact and columnar kernels."""
    from repro.core.scheme import OnlineScheme
    from repro.runtime.keyed import KeyedOperator

    operators = {}
    for query, text in texts.items():
        op = KeyedOperator(OnlineScheme.loads(text), _key, value_fn=_value, name=query,
                           backend="auto", bounds=bounds)
        op.operator(None)
        operators[query] = op
    return operators


def fold(operators: dict, batches, refs: list | None = None) -> dict[str, list[float]]:
    """One pass: every query from empty over the whole stream; seconds per
    query and batch (operator reset excluded).  With ``refs``, a reference
    sample is appended to it before each query."""
    times = {}
    clock = time.perf_counter
    for query, op in operators.items():
        if refs is not None:
            refs.append(reference_s())
        op.reset()
        laps = []
        for batch in batches:
            start = clock()
            op.push_many(batch)
            laps.append(clock() - start)
        times[query] = laps
    return times


def typical_s(passes: list[dict], queries=QUERIES) -> float:
    """Seconds of one pass over ``queries``, each (query, batch) a unit."""
    return sum_of_medians([lap for q in queries for lap in p[q]] for p in passes)


def gate(outcome: Outcome, operators: dict, ref: dict) -> None:
    for query, op in operators.items():
        want = ref[query]
        outcome.check(len(op) == len(want),
                      f"{query}: {len(op)} keys, reference has {len(want)}")
        for key, value in want.items():
            got = op.value(key)
            outcome.check(matches(got, value), f"{query}[{key}]: {got!r} != {value!r}")


def install(tracer: Tracer, slices: list[int]) -> None:
    from repro.core.scheme import OnlineScheme
    from repro.runtime.keyed import KeyedOperator
    from repro.runtime.stream import OnlineOperator

    def record_slice(args, kwargs, result):
        slices.append(len(args[1]))

    tracer.wrap_method(KeyedOperator, "push_many", "runtime.keyed")
    tracer.wrap_method(OnlineOperator, "push_many",
                       lambda op: "runtime.stream." + op.backend_in_use,
                       on_return=record_slice)
    # Called again, as cache hits, by every new partition: no span each.
    tracer.wrap_method(OnlineScheme, "compiled_kernel", "ir.compile.kernel", leaf=True)
    tracer.wrap_method(OnlineScheme, "compiled_columns", "ir.vectorize.columns", leaf=True)


class Fold:
    """The six-query fold over one seeded stream: inputs, reference, and
    passes that each set the queries up afresh and fold the whole stream."""

    def __init__(self, keys: int, elements: int, seed: int):
        from repro.ir.vectorize import numpy_or_none
        from repro.runtime import sources

        self.elements = elements
        self.texts = compile_queries()
        stream = list(sources.zipf_keys(elements, keys=keys, seed=seed,
                                        low=VALUE_LO, high=VALUE_HI))
        self.batches = [stream[i:i + BATCH] for i in range(0, elements, BATCH)]
        self.ref = reference(stream)
        self.bounds = stream_bounds(elements)
        numpy_or_none()  # one-time import, not part of any set-up
        operators = set_up(self.texts, self.bounds)  # warms lazy imports in the program
        self.backends = {q: op.partitions[None].backend_in_use for q, op in operators.items()}

    def passes(self, outcome: Outcome, budget: float, tracer: Tracer | None = None,
               setup_layers: dict | None = None):
        """Passes until ``budget`` seconds are used; returns (per-pass
        seconds per query and batch, set-up seconds per pass), in nominal
        seconds (``common.REF_S``), and the reference samples.  Set-ups are
        spread over the run so that they sample the same machine states as
        the passes.  Under ``tracer``, the layers' self time spent in
        set-ups is added to ``setup_layers``."""
        passes, setups, samples = [], [], []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < budget:
            refs = [reference_s()]
            if tracer is None:
                start = time.perf_counter()
                operators = set_up(self.texts, self.bounds)
                setup = time.perf_counter() - start
                laps = fold(operators, self.batches, refs)
            else:
                before = dict(tracer.self_s)
                start = time.perf_counter()
                with tracer.span("perfbench.setup"):
                    operators = set_up(self.texts, self.bounds)
                setup = time.perf_counter() - start
                for layer, value in tracer.self_s.items():
                    setup_layers[layer] = (setup_layers.get(layer, 0.0) + value
                                           - before.get(layer, 0.0))
                with tracer.span("perfbench.pass"):
                    laps = fold(operators, self.batches, refs)
            refs.append(reference_s())
            scale = factors(refs)
            setups.append(setup * scale[0])
            passes.append({q: [lap * f for lap in t] for f, (q, t) in zip(scale[1:], laps.items())})
            samples.extend(refs)
            gate(outcome, operators, self.ref)
        return passes, setups, samples

    def report_backends(self, workload: str) -> None:
        print(f"{workload}: backend_in_use "
              + " ".join(f"{q}={b}" for q, b in self.backends.items()))

    def traced(self, outcome: Outcome, plain: list, budget: float, tracer: Tracer) -> list:
        """Trace further passes and put the runtime's per-layer metrics
        (rates from the untraced ``plain`` passes); returns the traced
        passes."""
        slices: list[int] = []
        install(tracer, slices)
        first_span = len(tracer.spans)
        before = dict(tracer.self_s)
        in_setup: dict[str, float] = {}
        try:
            tracer.run = "fold"
            traced, _, _ = self.passes(outcome, budget, tracer, in_setup)
        finally:
            tracer.uninstall()
        in_fold = {layer: value - before.get(layer, 0.0) - in_setup.get(layer, 0.0)
                   for layer, value in tracer.self_s.items()}
        put = outcome.put
        n = len(traced)
        for query in QUERIES:
            put(f"stream.{query}_eps", self.elements / typical_s(plain, (query,)), "1/s")
        put("stream_int_eps", self.elements / typical_s(plain, INT_QUERIES), "1/s")
        put("stream_rational_eps", self.elements / typical_s(plain, RATIONAL_QUERIES), "1/s")
        put("runtime.keyed.self_s", in_fold.get("runtime.keyed", 0.0) / n, "s")
        put("runtime.stream.exact_s", in_fold.get("runtime.stream.exact", 0.0) / n, "s")
        put("runtime.stream.columnar_s", in_fold.get("runtime.stream.columnar", 0.0) / n, "s")
        put("runtime.stream.calls", len(slices) / n, "count")
        put("runtime.stream.slice_p50", percentile(slices, 0.5), "count")
        per_batch: dict[int, int] = {}
        for index in range(first_span, len(tracer.spans)):
            name, _, _, parent, _ = tracer.spans[index]
            if name == "runtime.keyed":
                per_batch[index] = 0
            elif name.startswith("runtime.stream.") and parent in per_batch:
                per_batch[parent] += 1
        put("runtime.keyed.keys_per_batch_p50", percentile(per_batch.values(), 0.5), "count")
        put("ir.compile.kernel_s", in_setup.get("ir.compile.kernel", 0.0) / n, "s")
        put("ir.vectorize.columns_s", in_setup.get("ir.vectorize.columns", 0.0) / n, "s")
        put("ir.vectorize.admitted", sum(b == "columnar" for b in self.backends.values()),
            "count")
        return traced


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Outcome, Tracer | None]:
    require_program()
    bench = Fold(KEYS, ELEMENTS, seed)
    freeze_inputs()
    reset_peak_rss()
    bench.report_backends(workload)

    outcome = Outcome()
    passes, setups, refs = bench.passes(outcome, seconds / 2 if trace else seconds)
    work = typical_s(passes)
    outcome.put("work_s", work, "s")
    outcome.put("setup_s", median(setups), "s")
    outcome.put("peak_rss_mb", peak_rss_mb(children=False), "MB")
    print(f"{workload}: {len(passes)} pass(es) of {bench.elements} elements x "
          f"{len(QUERIES)} queries, scaled pass times "
          f"{[round(sum(map(sum, p.values())), 4) for p in passes]}")
    tracer = None
    if trace:
        tracer = Tracer()
        traced = bench.traced(outcome, passes, seconds / 2, tracer)
        overhead = typical_s(traced) - work
        outcome.put("trace.overhead_s", overhead, "s")
        outcome.put("trace.overhead_ratio", ratio(overhead, work), "ratio")
        outcome.put("trace.spans", len(tracer.spans), "count")
        outcome.put("host.ref_ms", median(refs) * 1000.0, "ms")
    return outcome, tracer
