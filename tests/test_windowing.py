"""Windowing helpers (:func:`tumbling`, :func:`sliding`) under the batch
kernels: differential against the interpreter, degenerate window shapes,
and equality with a per-push reference implementation.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.runtime import OnlineOperator
from repro.runtime.stream import sliding, tumbling
from repro.suites import all_benchmarks, get_benchmark


def assert_same_value(a, b, where=""):
    assert type(a) is type(b), (
        f"{where}: {type(a).__name__} != {type(b).__name__} ({a!r} vs {b!r})"
    )
    assert a == b, f"{where}: {a!r} != {b!r}"


def elements(n=23):
    out = []
    for i in range(n):
        out.append(Fraction(i % 7 - 3, 1 + i % 4) if i % 2 else i % 5 - 2)
    return out


def reference_tumbling(scheme, source, size, extra=None, backend=None):
    """The pre-kernel implementation: one push per element, reset per
    window — the specification the chunked version must match."""
    op = OnlineOperator(scheme, extra, backend=backend)
    filled = 0
    for element in source:
        op.push(element)
        filled += 1
        if filled == size:
            yield op.value
            op.reset()
            filled = 0
    if filled:
        yield op.value


def reference_sliding(scheme, source, size, extra=None, backend=None):
    buffer: list = []
    for element in source:
        buffer.append(element)
        window = buffer[-size:]
        op = OnlineOperator(scheme, extra, backend=backend)
        for item in window:
            op.push(item)
        yield op.value


SCHEMES = ("mean", "variance", "max", "count", "sum")


class TestTumbling:
    @pytest.mark.parametrize("name", SCHEMES)
    @pytest.mark.parametrize("size", [1, 2, 4, 23, 100])
    def test_matches_per_push_reference(self, name, size):
        scheme = get_benchmark(name).ground_truth
        got = list(tumbling(scheme, elements(), size))
        want = list(reference_tumbling(scheme, elements(), size))
        assert len(got) == len(want)
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_value(a, b, f"{name} size={size} window {i}")

    def test_jit_on_off_identical(self):
        source = elements()
        for name in SCHEMES:
            scheme = get_benchmark(name).ground_truth
            compiled = list(tumbling(scheme, source, 5))
            interpreted = list(reference_tumbling(scheme, source, 5, backend="interpreted"))
            assert len(interpreted) == len(compiled)
            for i, (a, b) in enumerate(zip(interpreted, compiled)):
                assert_same_value(a, b, f"{name} window {i}")

    def test_empty_source_yields_nothing(self):
        scheme = get_benchmark("mean").ground_truth
        assert list(tumbling(scheme, [], 3)) == []
        assert list(tumbling(scheme, iter([]), 1)) == []

    def test_size_one_windows(self):
        scheme = get_benchmark("variance").ground_truth
        got = list(tumbling(scheme, elements(5), 1))
        assert len(got) == 5
        for value, element in zip(got, elements(5)):
            assert_same_value(value, scheme.final([element]))

    def test_partial_tail_window(self):
        scheme = get_benchmark("sum").ground_truth
        got = list(tumbling(scheme, [1, 2, 3, 4, 5], 2))
        assert got == [3, 7, 5]

    @pytest.mark.parametrize("size", [0, -1])
    def test_bad_size_rejected(self, size):
        scheme = get_benchmark("mean").ground_truth
        with pytest.raises(ValueError, match="positive"):
            list(tumbling(scheme, [1, 2], size))

    def test_generator_source(self):
        scheme = get_benchmark("count").ground_truth
        assert list(tumbling(scheme, iter(range(7)), 3)) == [3, 3, 1]


class TestSliding:
    @pytest.mark.parametrize("name", SCHEMES)
    @pytest.mark.parametrize("size", [1, 3, 8, 23, 100])
    def test_matches_per_push_reference(self, name, size):
        scheme = get_benchmark(name).ground_truth
        got = list(sliding(scheme, elements(), size))
        want = list(reference_sliding(scheme, elements(), size))
        assert len(got) == len(want) == len(elements())
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_value(a, b, f"{name} size={size} at {i}")

    def test_jit_on_off_identical(self):
        source = elements()
        for name in SCHEMES:
            scheme = get_benchmark(name).ground_truth
            compiled = list(sliding(scheme, source, 4))
            interpreted = list(reference_sliding(scheme, source, 4, backend="interpreted"))
            assert len(interpreted) == len(compiled)
            for i, (a, b) in enumerate(zip(interpreted, compiled)):
                assert_same_value(a, b, f"{name} at {i}")

    def test_empty_source_yields_nothing(self):
        scheme = get_benchmark("mean").ground_truth
        assert list(sliding(scheme, [], 3)) == []

    def test_size_one_is_elementwise(self):
        scheme = get_benchmark("mean").ground_truth
        got = list(sliding(scheme, elements(6), 1))
        for value, element in zip(got, elements(6)):
            assert_same_value(value, scheme.final([element]))

    @pytest.mark.parametrize("size", [0, -3])
    def test_bad_size_rejected(self, size):
        scheme = get_benchmark("mean").ground_truth
        with pytest.raises(ValueError, match="positive"):
            list(sliding(scheme, [1, 2], size))


class TestWindowsOnPairSchemes:
    def test_tumbling_pair_elements(self):
        bench = get_benchmark("q_category_volume")
        scheme = bench.ground_truth
        extra = {name: 2 for name in scheme.program.extra_params}
        source = [(Fraction(1 + i % 5), i % 3) for i in range(17)]
        got = list(tumbling(scheme, source, 4, extra))
        want = list(reference_tumbling(scheme, source, 4, extra))
        assert got == want

    def test_sliding_pair_elements(self):
        bench = get_benchmark("q_category_max")
        scheme = bench.ground_truth
        extra = {name: 1 for name in scheme.program.extra_params}
        source = [(Fraction(1 + (i * 3) % 7), i % 2) for i in range(11)]
        assert list(sliding(scheme, source, 3, extra)) == list(
            reference_sliding(scheme, source, 3, extra)
        )


def test_all_ground_truth_schemes_window_cleanly():
    """Smoke: every ground-truth scheme survives a tumbling pass through
    the batch kernel with per-push-equal results."""
    for bench in all_benchmarks():
        scheme = bench.ground_truth
        if scheme is None or bench.element_arity > 1:
            continue
        extra = {name: 500 for name in scheme.program.extra_params}
        got = list(tumbling(scheme, elements(11), 4, extra))
        want = list(reference_tumbling(scheme, elements(11), 4, extra))
        assert got == want, bench.name
