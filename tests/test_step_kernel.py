"""Differential tests for batch-compiled step kernels.

The :class:`~repro.ir.compile.StepKernel` plan claims to be *semantically
invisible*: ``push_many`` through a kernel — the codegen-compiled batch
loop or the interpreter-driven fallback, per operator or across a
pipeline — must equal sequential per-element ``push`` bit-for-bit over exact rationals
(states, outputs, counts, exception classes, partial progress on failure).
These tests enforce the claim on every ground-truth scheme of the suite,
compiled and interpreted, including keyed and checkpoint-resume paths.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from repro.core.scheme import OnlineScheme
from repro.ir.compile import (
    StepKernel,
    compile_online,
    kernel_partial,
)
from repro.ir.dsl import add, eq, ite
from repro.ir.evaluator import EvaluationError
from repro.ir.nodes import OnlineProgram, Var
from repro.runtime import KeyedOperator, OnlineOperator, StreamPipeline
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.suites import all_benchmarks, get_benchmark

#: The compiled and the interpreted execution path (test ids kept stable).
both_backends = pytest.mark.parametrize(
    "backend", ["exact", "interpreted"], ids=["jit", "nojit"]
)


def assert_same_value(a, b, where=""):
    """Bit-for-bit: equal values of identical Python types, recursively."""
    assert type(a) is type(b), (
        f"{where}: {type(a).__name__} != {type(b).__name__} ({a!r} vs {b!r})"
    )
    if isinstance(a, (tuple, list)):
        assert len(a) == len(b), f"{where}: {a!r} vs {b!r}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_value(x, y, f"{where}[{i}]")
    elif isinstance(a, float) and a != a:
        assert b != b, f"{where}: nan vs {b!r}"
    else:
        assert a == b, f"{where}: {a!r} != {b!r}"


def ground_truths():
    return [b for b in all_benchmarks() if b.ground_truth is not None]


def stream_for(bench, n=60):
    """Zeros, negatives, denominator-1 fractions, int/Fraction mixes."""
    scalars = []
    for i in range(n):
        if i % 4 == 0:
            scalars.append(i % 5 - 2)
        elif i % 4 == 1:
            scalars.append(Fraction(i % 7 - 3, 1 + i % 3))
        elif i % 4 == 2:
            scalars.append(Fraction(i % 9, 1))
        else:
            scalars.append(0)
    if bench.element_arity <= 1:
        return scalars
    return [(value, (i * 3) % 4) for i, value in enumerate(scalars)]


def extras_for(scheme):
    return {name: 500 for name in scheme.program.extra_params}


class TestBatchKernelEquivalence:
    @both_backends
    def test_push_many_equals_push_on_all_ground_truths(self, backend):
        for bench in ground_truths():
            scheme = bench.ground_truth
            elements = stream_for(bench)
            extra = extras_for(scheme)
            batched = OnlineOperator(scheme, extra, backend=backend)
            stepped = OnlineOperator(scheme, extra, backend=backend)
            batched.push_many(elements)
            for element in elements:
                stepped.push(element)
            assert_same_value(batched.state, stepped.state, bench.name)
            assert batched.count == stepped.count == len(elements)
            assert batched._kernel.compiled is (backend == "exact")

    def test_chunked_push_many_equals_one_shot(self):
        for bench in ground_truths()[::5]:
            scheme = bench.ground_truth
            elements = stream_for(bench)
            extra = extras_for(scheme)
            whole = OnlineOperator(scheme, extra)
            chunked = OnlineOperator(scheme, extra)
            whole.push_many(elements)
            i = 0
            for size in (0, 1, 3, 7, 11, len(elements)):
                chunked.push_many(elements[i : i + size])
                i += size
            chunked.push_many(elements[i:])
            assert_same_value(whole.state, chunked.state, bench.name)
            assert whole.count == chunked.count

    def test_kernel_against_scalar_step_directly(self):
        for bench in ground_truths():
            scheme = bench.ground_truth
            step, kernel = compile_online(scheme.program, name=bench.name)
            elements = stream_for(bench)
            extra = extras_for(scheme)
            state = scheme.initializer
            for element in elements:
                state = step(state, element, extra)
            batch_state, consumed = kernel.run(
                scheme.initializer, elements, extra
            )
            assert consumed == len(elements)
            assert_same_value(batch_state, state, bench.name)
            assert kernel.compiled
            assert kernel.source is not None

    def test_empty_batch_is_identity(self):
        scheme = get_benchmark("variance").ground_truth
        op = OnlineOperator(scheme)
        before = op.state
        assert op.push_many([]) == op.value
        assert op.state == before and op.count == 0
        kernel = scheme.compiled_kernel()
        assert kernel.run(scheme.initializer, [], None) == (scheme.initializer, 0)

    def test_generator_input(self):
        scheme = get_benchmark("mean").ground_truth
        from_list = OnlineOperator(scheme)
        from_gen = OnlineOperator(scheme)
        elements = [Fraction(i, 3) for i in range(20)]
        from_list.push_many(elements)
        from_gen.push_many(iter(elements))
        assert_same_value(from_gen.state, from_list.state)

    @both_backends
    def test_partial_progress_on_mid_batch_error(self, backend):
        # The If branch referencing an unbound extra only evaluates when
        # x == 3 — the kernel must fail exactly there, with the state and
        # count of the elements before it, like per-element push does.
        program = OnlineProgram(
            ("s",), "x", (ite(eq(Var("x"), 3), add("s", "missing"), add("s", "x")),)
        )
        scheme = OnlineScheme((0,), program, provenance="partial-test")
        elements = [1, 2, 3, 4]
        stepped = OnlineOperator(scheme, backend=backend)
        with pytest.raises(EvaluationError):
            for element in elements:
                stepped.push(element)
        batched = OnlineOperator(scheme, backend=backend)
        with pytest.raises(EvaluationError):
            batched.push_many(elements)
        assert batched.state == stepped.state == (3,)
        assert batched.count == stepped.count == 2

    def test_error_on_first_element_preserves_state(self):
        program = OnlineProgram(("s",), "x", (add("s", "missing"),))
        scheme = OnlineScheme((0,), program, provenance="eager-missing")
        op = OnlineOperator(scheme)
        with pytest.raises(EvaluationError):
            op.push_many([1, 2, 3])
        assert op.state == (0,) and op.count == 0

    def test_kernel_partial_consumes_marker(self):
        exc = EvaluationError("boom")
        assert kernel_partial(exc, (7,)) == ((7,), 0)
        exc.__repro_partial__ = ((1,), 4)
        assert kernel_partial(exc, (7,)) == ((1,), 4)
        assert kernel_partial(exc, (7,)) == ((7,), 0)  # consumed

    def test_declined_shapes_fall_back_to_step_loop(self):
        # Element parameter shadowing a state parameter: batch codegen
        # declines, the resolver wraps the scalar step, results still match.
        program = OnlineProgram(("x", "n"), "x", (add("x", "n"), add("n", 1)))
        assert compile_online(program)[1] is None
        scheme = OnlineScheme((0, 0), program, provenance="shadowed")
        kernel = scheme._resolve()[1]
        assert not kernel.compiled
        batched = OnlineOperator(scheme)
        stepped = OnlineOperator(scheme)
        elements = [5, 7, 9]
        batched.push_many(elements)
        for element in elements:
            stepped.push(element)
        assert_same_value(batched.state, stepped.state)

    def test_holes_fall_back_to_interpreter_loop(self):
        from repro.ir.nodes import Hole

        program = OnlineProgram(("s",), "x", (add("s", Hole(0)),))
        scheme = OnlineScheme((0,), program, provenance="holey")
        kernel = scheme._resolve()[1]
        assert not kernel.compiled
        with pytest.raises(EvaluationError):
            OnlineOperator(scheme).push_many([1])

    def test_pickle_drops_kernel_cache(self):
        scheme = get_benchmark("variance").ground_truth
        scheme.compiled_kernel()
        assert "compiled" in scheme._artifacts
        clone = pickle.loads(pickle.dumps(scheme))
        assert clone._artifacts == {}
        elements = [Fraction(i, 2) for i in range(9)]
        a = OnlineOperator(scheme)
        b = OnlineOperator(clone)
        a.push_many(elements)
        b.push_many(elements)
        assert_same_value(a.state, b.state)

    def test_invalidate_compiled_clears_kernel(self):
        scheme = get_benchmark("mean").ground_truth
        scheme.compiled_kernel()
        scheme.invalidate_compiled()
        assert scheme._artifacts == {}

    def test_final_routes_through_kernel(self):
        for name in ("mean", "variance", "q_category_volume"):
            bench = get_benchmark(name)
            scheme = bench.ground_truth
            elements = stream_for(bench, n=25)
            extra = extras_for(scheme)
            assert_same_value(
                scheme.final(elements, extra),
                list(scheme.run(elements, extra))[-1],
                name,
            )
        assert scheme.final([]) == scheme.initializer[0]


class TestKeyedBatch:
    def _events(self, n=48):
        return [(Fraction(1 + (i * 7) % 11, 1 + i % 2), i % 5) for i in range(n)]

    @both_backends
    def test_grouped_push_many_equals_push(self, backend):
        scheme = get_benchmark("q_avg_price").ground_truth
        make = lambda: KeyedOperator(  # noqa: E731
            scheme, key_fn=lambda e: e[1], value_fn=lambda e: e[0], backend=backend
        )
        events = self._events()
        batched, stepped = make(), make()
        snapshot = batched.push_many(events)
        for event in events:
            stepped.push(event)
        assert snapshot == stepped.snapshot()
        assert list(batched.partitions) == list(stepped.partitions)  # arrival order
        for key, part in stepped.partitions.items():
            assert_same_value(batched.partitions[key].state, part.state, f"key {key}")
            assert batched.partitions[key].count == part.count
        assert batched.count == stepped.count == len(events)

    def test_extractor_error_processes_prefix(self):
        scheme = get_benchmark("q_bid_volume").ground_truth
        boom_at = 5

        def key_fn(event):
            if event[1] == "boom":
                raise ValueError("bad key")
            return event[1]

        events = [(Fraction(i), i % 2) for i in range(boom_at)]
        events.append((Fraction(99), "boom"))
        events.extend((Fraction(i), i % 2) for i in range(boom_at, 10))
        keyed = KeyedOperator(scheme, key_fn=key_fn, value_fn=lambda e: e[0])
        with pytest.raises(ValueError):
            keyed.push_many(events)
        # Elements before the raising one are all applied, later ones not.
        reference = KeyedOperator(scheme, key_fn=key_fn, value_fn=lambda e: e[0])
        for event in events[:boom_at]:
            reference.push(event)
        assert keyed.snapshot() == reference.snapshot()
        assert keyed.count == boom_at

    @both_backends
    def test_step_failure_has_per_push_parity(self, backend):
        scheme = OnlineScheme(
            (0,),
            OnlineProgram(
                ("s",), "x",
                (ite(eq(Var("x"), 99), add("s", "missing"), add("s", "x")),),
            ),
            provenance="boom-at-99",
        )
        cases = [
            # The step raises on key a's second payload (global element
            # index 2).  Per-push parity: b's later element 4 must NOT be
            # consumed even though b's group drains independently, and
            # count must stay a resumable stream offset.
            ([("a", 1), ("b", 2), ("a", 99), ("b", 4), ("c", 5)], {"a": 1, "b": 2}),
            # A new key whose first element fails leaves no partition (no
            # count == 0 entry in snapshots or checkpoints), either way.
            ([("a", 1), ("b", 99), ("a", 3)], {"a": 1}),
        ]
        for events, expected in cases:
            batched = KeyedOperator(
                scheme, key_fn=lambda e: e[0], value_fn=lambda e: e[1], backend=backend
            )
            with pytest.raises(EvaluationError):
                batched.push_many(events)
            stepped = KeyedOperator(
                scheme, key_fn=lambda e: e[0], value_fn=lambda e: e[1], backend=backend
            )
            with pytest.raises(EvaluationError):
                for event in events:
                    stepped.push(event)
            assert batched.snapshot() == stepped.snapshot() == expected
            failed_at = [payload for _, payload in events].index(99)
            assert batched.count == stepped.count == failed_at
            assert list(batched.partitions) == list(stepped.partitions) == list(expected)
            assert batched.checkpoint() == stepped.checkpoint()

    @both_backends
    def test_checkpoint_resume_with_batches(self, tmp_path, backend):
        scheme = get_benchmark("q_avg_price").ground_truth
        events = self._events()
        key_fn = lambda e: e[1]  # noqa: E731
        value_fn = lambda e: e[0]  # noqa: E731
        keyed = KeyedOperator(scheme, key_fn=key_fn, value_fn=value_fn, backend=backend)
        keyed.push_many(events[:20])
        path = tmp_path / "keyed.ck.json"
        save_checkpoint(keyed, path)
        resumed = load_checkpoint(path, key_fn=key_fn, value_fn=value_fn, backend=backend)
        resumed.push_many(events[20:])
        uninterrupted = KeyedOperator(scheme, key_fn=key_fn, value_fn=value_fn)
        for event in events:
            uninterrupted.push(event)
        assert resumed.snapshot() == uninterrupted.snapshot()
        assert resumed.count == uninterrupted.count

    def test_operator_checkpoint_resume_with_batches(self, tmp_path):
        scheme = get_benchmark("variance").ground_truth
        elements = [Fraction(i % 9, 1 + i % 4) for i in range(30)]
        op = OnlineOperator(scheme)
        op.push_many(elements[:13])
        path = tmp_path / "op.ck.json"
        save_checkpoint(op, path)
        resumed = load_checkpoint(path)
        resumed.push_many(elements[13:])
        uninterrupted = OnlineOperator(scheme)
        for element in elements:
            uninterrupted.push(element)
        assert_same_value(resumed.state, uninterrupted.state)
        assert resumed.count == uninterrupted.count


class TestFusedPipeline:
    """Pipeline batches: every operator drains through its own kernel, and
    the result equals per-element ``push`` (the class keeps the name it had
    when pipelines ran one fused loop)."""

    def _schemes(self):
        return {
            name: get_benchmark(name).ground_truth
            for name in ("mean", "max", "variance", "count")
        }

    def _pipeline(self, backend=None):
        return StreamPipeline(
            {
                name: OnlineOperator(scheme, backend=backend)
                for name, scheme in self._schemes().items()
            }
        )

    def _elements(self, n=50):
        return [Fraction(i % 11 - 4, 1 + i % 3) for i in range(n)]

    def test_fused_equals_per_element_push(self):
        elements = self._elements()
        batched = self._pipeline()
        stepped = self._pipeline()
        snapshot = batched.push_many(elements)
        for element in elements:
            last = stepped.push(element)
        assert snapshot == last == stepped.snapshot()
        for name, op in batched.operators.items():
            assert_same_value(op.state, stepped.operators[name].state, name)
            assert op.count == stepped.operators[name].count

    @both_backends
    def test_pipeline_equals_push_on_all_ground_truths(self, backend):
        # One pipeline per element arity over every ground truth, fed in
        # uneven chunks: snapshots, states and counts match push.
        by_arity: dict[int, list] = {}
        for bench in ground_truths():
            by_arity.setdefault(bench.element_arity, []).append(bench)
        for arity, benches in by_arity.items():
            def build():
                return StreamPipeline(
                    {
                        b.name: OnlineOperator(
                            b.ground_truth, extras_for(b.ground_truth), backend=backend
                        )
                        for b in benches
                    }
                )

            elements = stream_for(benches[0])
            batched, stepped = build(), build()
            for start, stop in ((0, 0), (0, 7), (7, 8), (8, len(elements))):
                batched.push_many(elements[start:stop])
            for element in elements:
                stepped.push(element)
            assert batched.snapshot() == stepped.snapshot()
            for name, op in stepped.operators.items():
                assert_same_value(batched.operators[name].state, op.state, name)
                assert batched.operators[name].count == op.count == len(elements)

    def test_no_jit_operator_disables_fusion_but_not_equality(self):
        elements = self._elements()
        mixed = StreamPipeline(
            {
                "mean": OnlineOperator(get_benchmark("mean").ground_truth),
                "max": OnlineOperator(
                    get_benchmark("max").ground_truth, backend="interpreted"
                ),
            }
        )
        stepped = StreamPipeline(
            {
                "mean": OnlineOperator(get_benchmark("mean").ground_truth),
                "max": OnlineOperator(get_benchmark("max").ground_truth),
            }
        )
        snapshot = mixed.push_many(elements)
        for element in elements:
            stepped.push(element)
        assert snapshot == stepped.snapshot()

    def test_operator_swap_recompiles_plan(self):
        elements = self._elements(20)
        pipeline = self._pipeline()
        pipeline.push_many(elements)
        pipeline.operators["sum"] = OnlineOperator(
            get_benchmark("sum").ground_truth
        )
        snapshot = pipeline.push_many(elements)
        ref_mean = OnlineOperator(get_benchmark("mean").ground_truth)
        for element in elements + elements:  # the mean op saw both batches
            ref_mean.push(element)
        ref_sum = OnlineOperator(get_benchmark("sum").ground_truth)
        for element in elements:  # the swapped-in op saw only the second
            ref_sum.push(element)
        assert snapshot["mean"] == ref_mean.value
        assert snapshot["sum"] == ref_sum.value
        assert pipeline.operators["sum"].count == len(elements)

    def test_fused_partial_progress_on_error(self):
        # Second program raises at x == 3 (element index 2).  Per-push
        # parity: the first operator — evaluated earlier within that
        # element — applied it too (count 3), the raiser stopped before it
        # (count 2).
        ok = OnlineScheme(
            (0,), OnlineProgram(("a",), "x", (add("a", "x"),)), provenance="ok"
        )
        bad = OnlineScheme(
            (0,),
            OnlineProgram(
                ("b",), "x",
                (ite(eq(Var("x"), 3), add("b", "missing"), add("b", "x")),),
            ),
            provenance="bad",
        )
        pipeline = StreamPipeline(
            {"ok": OnlineOperator(ok), "bad": OnlineOperator(bad)}
        )
        with pytest.raises(EvaluationError):
            pipeline.push_many([1, 2, 3, 4])
        assert pipeline.operators["ok"].state == (6,)
        assert pipeline.operators["ok"].count == 3
        assert pipeline.operators["bad"].state == (3,)
        assert pipeline.operators["bad"].count == 2

    def test_duplicate_operator_object_declines_fusion(self):
        # One operator under two names: the shared state is drained once
        # per name.
        elements = self._elements(12)
        op = OnlineOperator(get_benchmark("mean").ground_truth)
        pipeline = StreamPipeline({"a": op, "b": op})
        snapshot = pipeline.push_many(elements)
        reference = OnlineOperator(get_benchmark("mean").ground_truth)
        reference.push_many(elements)
        reference.push_many(elements)  # drained once per name
        assert snapshot == {"a": reference.value, "b": reference.value}
        assert op.count == reference.count

    @both_backends
    def test_error_semantics_identical_across_backends(self, backend):
        # Per-push failure parity on BOTH paths: whatever backend runs, a
        # mid-batch error leaves every operator exactly where sequential
        # push would — so a checkpoint taken after catching the error is
        # bit-for-bit identical across backends.
        def build():
            return StreamPipeline(
                {
                    "var": OnlineOperator(
                        get_benchmark("variance").ground_truth, backend=backend
                    ),
                    "bad": OnlineOperator(
                        OnlineScheme(
                            (0,),
                            OnlineProgram(
                                ("b",), "x",
                                (ite(eq(Var("x"), 3), add("b", "missing"),
                                     add("b", "x")),),
                            ),
                            provenance="bad",
                        ),
                        backend=backend,
                    ),
                }
            )

        pipeline = build()
        with pytest.raises(EvaluationError):
            pipeline.push_many([1, 2, 3, 4])
        reference = build()
        with pytest.raises(EvaluationError):
            for element in [1, 2, 3, 4]:
                reference.push(element)
        for name in ("var", "bad"):
            assert_same_value(
                pipeline.operators[name].state,
                reference.operators[name].state,
                f"{name} backend={backend}",
            )
            assert (
                pipeline.operators[name].count
                == reference.operators[name].count
            )
        # 'var' is evaluated before the raiser within element index 2.
        assert reference.operators["var"].count == 3
        assert reference.operators["bad"].count == 2

    def test_source_iterator_error_keeps_counts_exact(self):
        # The elements iterable itself raising between elements must record
        # only fully-applied elements — for one operator and for every
        # operator of a pipeline.
        def two_then_boom():
            yield 1
            yield 2
            raise RuntimeError("source died")

        scheme = get_benchmark("sum").ground_truth
        op = OnlineOperator(scheme)
        with pytest.raises(RuntimeError):
            op.push_many(two_then_boom())
        assert op.state == (3,) and op.count == 2

        pipeline = StreamPipeline(
            {n: OnlineOperator(get_benchmark(n).ground_truth) for n in ("sum", "count")}
        )
        with pytest.raises(RuntimeError):
            pipeline.push_many(two_then_boom())
        assert pipeline.operators["sum"].state == (3,)
        assert pipeline.operators["count"].state == (2,)
        assert [op.count for op in pipeline.operators.values()] == [2, 2]

    @both_backends
    def test_raising_source_keeps_prefix_like_push(self, backend):
        # A source that dies after two elements: push applies both, and so
        # must push_many — the prefix drains, then the error propagates.
        def two_then_boom():
            yield Fraction(1, 2)
            yield 3
            raise RuntimeError("source died")

        batched = self._pipeline(backend)
        with pytest.raises(RuntimeError, match="source died"):
            batched.push_many(two_then_boom())
        stepped = self._pipeline(backend)
        with pytest.raises(RuntimeError, match="source died"):
            for element in two_then_boom():
                stepped.push(element)
        for name, op in stepped.operators.items():
            assert op.count == 2
            assert_same_value(batched.operators[name].state, op.state, name)
            assert batched.operators[name].count == op.count

    @both_backends
    def test_empty_batch_leaves_every_operator_untouched(self, backend):
        # A state of the wrong arity only fails once an element is applied;
        # an empty batch must return unchanged in both modes, as push would.
        pipeline = self._pipeline(backend)
        pipeline.operators["variance"].state = (0,)
        before = {name: (op.state, op.count) for name, op in pipeline.operators.items()}
        assert pipeline.push_many([]) == pipeline.snapshot()
        after = {name: (op.state, op.count) for name, op in pipeline.operators.items()}
        assert after == before
        with pytest.raises(EvaluationError):
            pipeline.push_many([1])

    def test_from_step_wrapper_contract(self):
        scheme = get_benchmark("mean").ground_truth
        kernel = StepKernel.from_step(scheme.interpreted_step)
        state, consumed = kernel.run(scheme.initializer, [1, 2, 3], None)
        expected, _ = scheme.compiled_kernel().run(scheme.initializer, [1, 2, 3], None)
        assert_same_value(state, expected)
        assert consumed == 3 and not kernel.compiled
