"""Self-tests of the benchmark on miniatures of its workloads.

Run from the root of the repository:

    python -m pytest perfbench/check_perfbench.py -q

They check that each correctness gate passes on the real program and trips
on a corrupted reference, that the counts later claims may rest on repeat
exactly, and that the traced run's accounting adds up.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import common
import keyed
import serve
import synth
from spans import Tracer

common.require_program()


# -- synthesis ----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_pass():
    from repro.suites import get_benchmark

    benches = [get_benchmark(name) for name in ("mean", "sum_of_squares", "q_avg_price")]
    child = synth.run_child([b.name for b in benches], symbolic=True, trace=False, budget=60.0)
    return benches, child


def test_synth_gate_accepts_real_schemes(small_pass):
    benches, child = small_pass
    outcome = common.Outcome()
    synth.gate(outcome, benches, synth.check_inputs(benches, seed=5), child["tasks"], {})
    assert (outcome.attempted, outcome.failed) == (3, 0), outcome.errors


def test_synth_gate_trips_on_wrong_scheme(small_pass):
    benches, child = small_pass
    tasks = [dict(task) for task in child["tasks"]]
    tasks[0]["scheme"] = tasks[1]["scheme"]  # mean's result replaced by sum_of_squares'
    outcome = common.Outcome()
    synth.gate(outcome, benches, synth.check_inputs(benches, seed=5), tasks, {})
    assert outcome.failed == 1 and "mean" in outcome.errors[0]


def test_synth_gate_allows_only_the_expected_failure(small_pass):
    benches, child = small_pass
    failed = dict(child["tasks"][0], scheme=None, error="budget")
    outcome = common.Outcome()
    synth.gate(outcome, benches, synth.check_inputs(benches, seed=5), [failed], {})
    assert outcome.failed == 1


def test_check_lists_are_longer_than_definition_3_3():
    from repro.core.config import SynthesisConfig
    from repro.suites import get_benchmark

    inputs = synth.check_inputs([get_benchmark("mean")], seed=1)["mean"]
    assert min(len(xs) for xs, _ in inputs) > SynthesisConfig().equivalence_max_len
    assert inputs == synth.check_inputs([get_benchmark("mean")], seed=1)["mean"]


def test_enumerator_counts_repeat_exactly():
    runs = [synth.run_child(["rms", "sum_of_squares"], symbolic=False, trace=True, budget=60.0)
            for _ in range(2)]
    counts = [run["trace"]["counts"] for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["core.enumerative.generated"] > 0


def test_synth_self_times_add_up_and_cover_every_layer():
    # mean takes the implicate path, variance the template path, and
    # harmonic_mean the enumerator.
    child = synth.run_child(["mean", "variance", "harmonic_mean"], symbolic=True, trace=True,
                            budget=60.0)
    tracer = Tracer()
    tracer.absorb(child["trace"])
    _assert_accounting(tracer)
    layers = set(synth.SELF_TIMES.values())
    assert all(tracer.calls.get(layer, 0) > 0 and tracer.self_s[layer] > 0
               for layer in layers), {layer: tracer.calls.get(layer) for layer in layers}
    assert tracer.counts["core.templates.hits"] > 0


def test_wrapping_refuses_an_importer_that_rebound_the_name():
    def original():
        return 1

    home, caller = types.ModuleType("home"), types.ModuleType("caller")
    home.f, caller.f = original, lambda: 2
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="caller"):
        tracer.wrap_function([home, caller], "f", "layer")
    assert home.f is original
    caller.f = original
    tracer.wrap_function([home, caller], "f", "layer")
    assert caller.f() == 1 and tracer.calls["layer"] == 1
    tracer.uninstall()
    assert home.f is original and caller.f is original


# -- keyed --------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_keyed():
    from repro.api import compile
    from repro.runtime import sources
    from repro.suites import get_benchmark

    texts = {q: compile(get_benchmark(q).program, store=None, name=q).scheme.dumps()
             for q in ("count", "max", "mean")}
    stream = list(sources.zipf_keys(600, keys=40, seed=9))
    batches = [stream[i:i + 128] for i in range(0, len(stream), 128)]
    return texts, stream, batches, keyed.stream_bounds(len(stream))


def test_keyed_gate_and_corrupted_reference(small_keyed):
    texts, stream, batches, bounds = small_keyed
    operators = keyed.set_up(texts, bounds)
    keyed.fold(operators, batches)
    ref = keyed.reference(stream)
    outcome = common.Outcome()
    keyed.gate(outcome, operators, ref)
    assert outcome.failed == 0 and outcome.attempted > 40
    key = next(iter(ref["mean"]))
    ref["mean"][key] += Fraction(1, 3)
    outcome = common.Outcome()
    keyed.gate(outcome, operators, ref)
    assert outcome.failed == 1 and "mean" in outcome.errors[0]


def test_keyed_reference_agrees_with_the_offline_programs():
    from repro.ir.evaluator import run_offline
    from repro.suites import get_benchmark

    values = [Fraction(v) for v in (1, 2, 10, 7, 7)]
    ref = keyed.reference([(v, "k") for v in values] + [(Fraction(4), "one")])
    for query in keyed.QUERIES:
        assert keyed.matches(ref[query]["k"], run_offline(get_benchmark(query).program, values))
    assert ref["skewness"]["one"] == 0  # one element: m2 == 0, and x / 0 == 0


def test_keyed_counts_repeat_and_self_times_add_up(small_keyed):
    texts, _, batches, bounds = small_keyed
    seen = []
    for _ in range(2):
        tracer = Tracer()
        slices: list[int] = []
        keyed.install(tracer, slices)
        try:
            with tracer.span("perfbench.setup"):
                operators = keyed.set_up(texts, bounds)
            with tracer.span("perfbench.pass"):
                keyed.fold(operators, batches)
        finally:
            tracer.uninstall()
        seen.append((slices, tracer.calls.get("runtime.keyed")))
        _assert_accounting(tracer)
        for layer in ("runtime.keyed", "runtime.stream.exact", "runtime.stream.columnar",
                      "ir.compile.kernel", "ir.vectorize.columns"):
            assert tracer.self_s.get(layer, 0) > 0, layer
    assert seen[0] == seen[1]
    from repro.runtime.keyed import KeyedOperator

    assert "wrapper" not in KeyedOperator.push_many.__qualname__


# -- serve --------------------------------------------------------------------


@pytest.fixture()
def tiny_serve(monkeypatch, tmp_path):
    from repro.api import compile
    from repro.runtime import sources
    from repro.suites import get_benchmark

    monkeypatch.setattr(serve, "CHECKPOINT_EVERY", 300)
    monkeypatch.setattr(serve, "BATCH", 64)
    text = compile(get_benchmark("mean").program, store=None, name="mean").scheme.dumps()
    stream = list(sources.zipf_keys(2000, keys=serve.KEYS, seed=3))
    oracle, _ = serve._oracle(text, stream)
    return text, stream, oracle, tmp_path / "ckpt"


def test_serve_gate_and_corrupted_reference(tiny_serve):
    text, stream, oracle, directory = tiny_serve
    outcome = common.Outcome()
    first = serve.closed_loop(text, stream, oracle, outcome, directory)
    assert outcome.failed == 0 and outcome.attempted == 2
    second = serve.closed_loop(text, stream, oracle, outcome, directory)
    for field in ("skew", "generations", "bytes", "batches"):
        assert first[field] == second[field], field
    assert first["generations"] > serve.SHARDS
    key = next(iter(oracle))
    bad = dict(oracle)
    bad[key] = tuple(v + 1 for v in oracle[key])
    outcome = common.Outcome()
    serve.closed_loop(text, stream, bad, outcome, directory)
    assert outcome.failed == 1


def test_open_loop_records_lag(tiny_serve):
    text, stream, oracle, directory = tiny_serve
    outcome = common.Outcome()
    info = serve.open_loop(text, stream, oracle, 20_000, outcome, directory)
    assert outcome.failed == 0
    assert 0 <= info["lag_p99_s"] < 1.0 and info["latencies"]


# -- the command --------------------------------------------------------------


def test_every_declared_metric_is_measured_by_some_workload():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    listed = set().union(*synth.LAYER_METRICS.values(), *keyed.LAYER_METRICS.values(),
                         *serve.LAYER_METRICS.values())
    assert listed == {metric["name"] for metric in spec["per_layer"]}


def test_command_prints_every_per_layer_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", "keyed-hot",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert metrics["ir.vectorize.admitted"]["value"] == 3
    # Restarts are 0 and the trace overhead may be either sign; every other
    # layer of this workload must have been seen at work.
    for name in serve.LAYER_METRICS["keyed-hot"] - {"serve.restarts", "trace.overhead_s",
                                                    "trace.overhead_ratio"}:
        assert metrics[name]["value"] > 0, name
    assert all(metrics[name]["value"] == 0 for name in synth.LAYER_METRICS["synth-suite"]
               if name not in serve.LAYER_METRICS["keyed-hot"])


def test_peak_rss_restarts_from_the_current_size():
    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    del ballast
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    common.reset_peak_rss()
    assert common.peak_rss_mb(children=False) * 1024 < before - 32 * 1024


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keyed-hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _assert_accounting(tracer: Tracer) -> None:
    """Self times of all layers sum to the duration of the root spans."""
    total = tracer.root_total_s()
    assert total > 0
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-6, abs=1e-6)
