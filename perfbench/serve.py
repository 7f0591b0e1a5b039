"""``keyed-hot``: a 50-key Zipf stream, served by ``StreamServer``.

The synthesized ``mean`` scheme is deployed on 2 shard worker processes
(shard 0 receives ~73% of the elements).  The measured job is the closed
loop: push the whole stream as fast as backpressure allows, then
``drain()``, repeated until the run's time is used; its median wall time is
the workload's ``work_s``.  Set-up (scheme load, kernel compile,
``StreamServer.start()`` forking the workers) is timed separately and never
counted as throughput.  Every served run's merged states must equal the
single-process exact run's, with no worker restarts.  The reference loop
of ``common.reference_s`` runs before and after each served run, and the
run's times are scaled by it.

The traced run adds the per-layer views of the same stream shape:

* the six queries of ``keyed-wide`` folded in one process over a 50-key
  stream, where long per-key slices make the columnar kernel pay off;
* the single-process baseline of the served stream;
* an open loop: a generator pushes at fixed offered rates on a schedule that
  does not slow down when the server does, and records how late it ran;
* closed loops with the hash ring's ``shard_for`` traced.
"""

from __future__ import annotations

import os
import resource
import shutil
import time
from pathlib import Path

import keyed
from common import (OUT_DIR, TRACE_METRICS, Outcome, factors, freeze_inputs, median,
                    peak_rss_mb, percentile, ratio, reference_s, require_program,
                    reset_peak_rss)
from spans import Tracer

KEYS = 50
SHARDS = 2
ELEMENTS = 60_000
BATCH = 256
CHECKPOINT_EVERY = 5000
MAX_INFLIGHT = 8
#: Offered rates (elements/s) of the open loop, each held for RATE_SECONDS.
RATES = (40_000, 80_000, 120_000, 160_000, 200_000, 240_000)
RATE_SECONDS = 1.0
#: The rate whose ack latency is reported as ``serve_ack_p99_ms``.
MIDDLE_RATE = 120_000
#: A rate is sustained when the generator's p99 lag and its lag at the end
#: of the schedule both stay under this limit.
LAG_LIMIT_S = 0.05
#: Per-layer metrics of the traced run: the six-query fold, then serving.
LAYER_METRICS = {"keyed-hot": frozenset(keyed.FOLD_METRICS + TRACE_METRICS + (
    "serve_eps", "serve_ack_p99_ms", "serve.ack_samples", "serve_sustained_eps",
    *(f"serve.gen.lag_p99_ms.r{rate // 1000}k" for rate in RATES),
    "serve.single_process_eps", "serve.overhead_x", "serve.server.cpu_s",
    "serve.server.blocked_s", "serve.worker.cpu_s", "serve.hashring.shard_for_s",
    "serve.hashring.calls", "serve.drain_s", "serve.shard_skew",
    "serve.checkpoint.generations", "serve.checkpoint.bytes", "serve.batches",
    "serve.restarts"))}


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _checkpoint_stats(directory) -> tuple[int, int]:
    """(generations written, summed over shards; bytes of those retained)."""
    from repro.runtime.checkpoint import list_generations

    generations = size = 0
    for sid in range(SHARDS):
        lineage = list_generations(Path(directory) / f"shard-{sid:02d}")
        if lineage:
            generations += lineage[-1][0]
            size += sum(path.stat().st_size for _, path in lineage)
    return generations, size


class Deployment:
    """One served run: set-up, feed, drain, check, tear down."""

    def __init__(self, text: str, directory):
        from repro.core.scheme import OnlineScheme
        from repro.serve import StreamServer

        started = time.perf_counter()
        scheme = OnlineScheme.loads(text)
        scheme.compiled_kernel()  # compiled before the fork, so workers inherit it
        self.directory = directory
        self.server = StreamServer(scheme, shards=SHARDS, checkpoint_dir=directory,
                                   key_field=1, value_field=0,
                                   checkpoint_every=CHECKPOINT_EVERY, batch_size=BATCH,
                                   max_inflight=MAX_INFLIGHT, fresh=True)
        self.server.start()
        self.setup_s = time.perf_counter() - started

    def drain(self):
        start = time.perf_counter()
        result = self.server.drain()
        return result, time.perf_counter() - start

    def close(self) -> None:
        self.server.close()

    def check(self, outcome: Outcome, result, oracle: dict, elements: int) -> dict:
        """Check the merged states against the single-process run, remove
        the checkpoints, and return the run's telemetry."""
        self.close()
        generations, size = _checkpoint_stats(self.directory)
        shutil.rmtree(self.directory, ignore_errors=True)
        outcome.check(result.states == oracle and result.count == elements,
                      f"serve: merged states differ from the single-process run "
                      f"({result.count} of {elements} elements applied)")
        outcome.check(result.restarts == 0, f"serve: {result.restarts} worker restarts")
        counts = list(result.shard_counts.values())
        return {"latencies": result.latencies_s, "restarts": result.restarts,
                "skew": max(counts) / (sum(counts) / len(counts)),
                "generations": generations, "bytes": size, "batches": len(result.latencies_s)}


def closed_loop(text, stream, oracle, outcome, directory, tracer=None) -> dict:
    """Push the whole stream under backpressure, then drain."""
    refs = [reference_s(), reference_s()]
    cpu_children = _children_cpu_s()
    deployment = Deployment(text, directory)
    try:
        cpu = time.process_time()
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("serve.cycle"):
                with tracer.span("serve.push"):
                    deployment.server.push_many(stream)
                with tracer.span("serve.drain"):
                    result, drain_s = deployment.drain()
        else:
            deployment.server.push_many(stream)
            result, drain_s = deployment.drain()
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu
    finally:
        deployment.close()
    info = deployment.check(outcome, result, oracle, len(stream))
    refs += [reference_s(), reference_s()]
    factor = factors([median(refs[:2]), median(refs[2:])])[0]
    info.update(wall_s=wall_s, cpu_s=cpu_s, drain_s=drain_s, setup_s=deployment.setup_s,
                worker_cpu_s=_children_cpu_s() - cpu_children, refs=refs,
                scaled_wall_s=wall_s * factor, scaled_setup_s=deployment.setup_s * factor)
    return info


def open_loop(text, stream, oracle, rate, outcome, directory) -> dict:
    """Push ``stream`` on a fixed schedule (element i due at i/rate) that
    does not wait for the server, recording how late each push ran."""
    deployment = Deployment(text, directory)
    server = deployment.server
    n = len(stream)
    lags = []
    sent = 0
    try:
        t0 = time.perf_counter()
        while sent < n:
            now = time.perf_counter()
            due = min(n, int((now - t0) * rate) + 1)
            if due <= sent:
                time.sleep(max(0.0, t0 + sent / rate - now))
                continue
            lags.append(now - (t0 + sent / rate))
            server.push_many(stream[sent:due])
            sent = due
        end_lag = time.perf_counter() - (t0 + (n - 1) / rate)
        result, _ = deployment.drain()
    finally:
        deployment.close()
    info = deployment.check(outcome, result, oracle, n)
    info.update(lag_p99_s=percentile(lags, 0.99), end_lag_s=max(0.0, end_lag),
                setup_s=deployment.setup_s)
    return info


def _oracle(scheme_text, stream) -> tuple[dict, float]:
    from repro.core.scheme import OnlineScheme
    from repro.runtime.keyed import KeyedOperator

    op = KeyedOperator(OnlineScheme.loads(scheme_text), lambda e: e[1], value_fn=lambda e: e[0],
                       backend="exact")
    start = time.perf_counter()
    op.push_many(stream)
    seconds = time.perf_counter() - start
    return {key: part.state for key, part in op.partitions.items()}, seconds


def _cycles(text, stream, oracle, outcome, directory, budget, tracer=None) -> list[dict]:
    cycles = []
    started = time.perf_counter()
    while len(cycles) < 3 or time.perf_counter() - started < budget:
        if tracer is not None:
            tracer.run = f"cycle-{len(cycles)}"
        cycles.append(closed_loop(text, stream, oracle, outcome, directory, tracer))
    return cycles


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Outcome, Tracer | None]:
    require_program()
    from repro.api import compile
    from repro.runtime import sources
    from repro.suites import get_benchmark

    text = compile(get_benchmark("mean").program, store=None, name="mean").scheme.dumps(indent=None)
    stream = list(sources.zipf_keys(ELEMENTS, keys=KEYS, seed=seed))
    oracle, _ = _oracle(text, stream)
    directory = OUT_DIR / f"serve-{os.getpid()}"
    if not trace:
        freeze_inputs()
        reset_peak_rss()
        outcome = Outcome()
        cycles = _cycles(text, stream, oracle, outcome, directory, seconds)
        _put_end_to_end(outcome, workload, cycles)
        return outcome, None

    # The traced run adds the per-layer views: the six-query single-process
    # fold of this stream shape, the open loop, and traced closed loops.
    fold = keyed.Fold(KEYS, keyed.ELEMENTS, seed)
    single = [_oracle(text, stream)[1] for _ in range(3)]
    rate_streams = {
        rate: list(sources.zipf_keys(int(rate * RATE_SECONDS), keys=KEYS, seed=seed * 7919 + i))
        for i, rate in enumerate(RATES)
    }
    rate_oracles = {rate: _oracle(text, s)[0] for rate, s in rate_streams.items()}
    freeze_inputs()
    fold.report_backends(workload)
    outcome = Outcome()
    tracer = Tracer()
    plain, _, _ = fold.passes(outcome, seconds / 6)
    fold.traced(outcome, plain, seconds / 6, tracer)
    rates = {rate: open_loop(text, rate_streams[rate], rate_oracles[rate], rate, outcome,
                             directory)
             for rate in RATES}
    cycles = _cycles(text, stream, oracle, outcome, directory, seconds / 4)
    _put_end_to_end(outcome, workload, cycles)
    from repro.serve.hashring import HashRing

    tracer.wrap_method(HashRing, "shard_for", "serve.hashring.shard_for", leaf=True)
    try:
        traced = _cycles(text, stream, oracle, outcome, directory, seconds / 8, tracer)
    finally:
        tracer.uninstall()
    _put_layers(outcome, tracer, cycles, traced, rates, single)
    return outcome, tracer


def _put_end_to_end(outcome: Outcome, workload: str, cycles: list[dict]) -> None:
    work = median(c["scaled_wall_s"] for c in cycles)
    outcome.put("work_s", work, "s")
    outcome.put("setup_s", median(c["scaled_setup_s"] for c in cycles), "s")
    outcome.put("peak_rss_mb", peak_rss_mb(children=True), "MB")
    outcome.put("serve_eps", ELEMENTS / work, "1/s")
    print(f"{workload}: {len(cycles)} closed-loop cycle(s) of {ELEMENTS} elements on "
          f"{SHARDS} shards, times {[round(c['wall_s'], 4) for c in cycles]} s, scaled "
          f"{[round(c['scaled_wall_s'], 4) for c in cycles]} s")


def _put_layers(outcome: Outcome, tracer: Tracer, cycles, traced, rates, single) -> None:
    put = outcome.put
    for rate, info in rates.items():
        print(f"  open loop {rate} eps: lag p99 {info['lag_p99_s'] * 1000:.1f} ms, "
              f"end lag {info['end_lag_s'] * 1000:.1f} ms, ack p99 "
              f"{percentile(info['latencies'], 0.99) * 1000:.1f} ms "
              f"over {len(info['latencies'])} batches")
        put(f"serve.gen.lag_p99_ms.r{rate // 1000}k", info["lag_p99_s"] * 1000.0, "ms")
    middle = rates[MIDDLE_RATE]
    put("serve_ack_p99_ms", percentile(middle["latencies"], 0.99) * 1000.0, "ms")
    put("serve.ack_samples", len(middle["latencies"]), "count")
    sustained = [rate for rate, info in rates.items()
                 if info["lag_p99_s"] <= LAG_LIMIT_S and info["end_lag_s"] <= LAG_LIMIT_S]
    put("serve_sustained_eps", max(sustained, default=0), "1/s")
    walls = [c["wall_s"] for c in cycles]
    put("serve.single_process_eps", ELEMENTS / median(single), "1/s")
    put("serve.overhead_x", median(walls) / median(single), "x")
    put("serve.server.cpu_s", median(c["cpu_s"] for c in cycles), "s")
    put("serve.server.blocked_s", median(c["wall_s"] - c["cpu_s"] for c in cycles), "s")
    put("serve.worker.cpu_s", median(c["worker_cpu_s"] for c in cycles), "s")
    put("serve.drain_s", median(c["drain_s"] for c in cycles), "s")
    put("serve.shard_skew", cycles[0]["skew"], "ratio")
    put("serve.checkpoint.generations", cycles[0]["generations"], "count")
    put("serve.checkpoint.bytes", cycles[0]["bytes"], "bytes")
    put("serve.batches", cycles[0]["batches"], "count")
    put("serve.restarts", sum(c["restarts"] for c in cycles + traced), "count")
    put("serve.hashring.shard_for_s",
        tracer.self_s.get("serve.hashring.shard_for", 0.0) / len(traced), "s")
    put("serve.hashring.calls",
        tracer.calls.get("serve.hashring.shard_for", 0) / len(traced), "count")
    untraced = median(c["scaled_wall_s"] for c in cycles)
    overhead = median(c["scaled_wall_s"] for c in traced) - untraced
    put("trace.overhead_s", overhead, "s")
    put("trace.overhead_ratio", ratio(overhead, untraced), "ratio")
    put("trace.spans", len(tracer.spans), "count")
    put("host.ref_ms", median(r for c in cycles for r in c["refs"]) * 1000.0, "ms")
