"""End-to-end synthesis integration tests.

These run the full pipeline (Algorithm 1) on representative tasks from each
difficulty tier and check the soundness guarantees of Theorems 4.7/5.8 via
the semantics: synthesized schemes agree with their offline programs on all
prefixes of random streams, and the schemes are genuinely online (no list
combinators in the output).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import OperaFull
from repro.core import SynthesisConfig, synthesize
from repro.ir import run_offline
from repro.ir.traversal import validate_online_expr
from repro.suites import get_benchmark

#: name -> flags; chosen to cover every synthesis method and element shape.
TASKS = [
    "sum",            # implicate, single accumulator
    "mean",           # implicate, divided composition
    "min",            # implicate through min atoms
    "count_positive", # implicate through conditionals
    "count_above",    # extra parameter
    "variance",       # mining + template interpolation
    "harmonic_mean",  # enumerative fallback for the reciprocal fold
    "weighted_mean",  # tuple elements, projections
    "q_top2",         # tuple accumulator
    "logsumexp",      # transcendental atoms
]


@pytest.fixture(scope="module")
def solved():
    """Synthesize the representative tasks once."""
    results = {}
    for name in TASKS:
        bench = get_benchmark(name)
        config = SynthesisConfig(timeout_s=60, element_arity=bench.element_arity)
        report = OperaFull().synthesize(bench.program, config, name)
        results[name] = (bench, report)
    return results


class TestSynthesisSucceeds:
    @pytest.mark.parametrize("name", TASKS)
    def test_solved(self, solved, name):
        _, report = solved[name]
        assert report.success, report.failure_reason

    @pytest.mark.parametrize("name", TASKS)
    def test_outputs_are_online(self, solved, name):
        _, report = solved[name]
        for out in report.scheme.program.outputs:
            assert validate_online_expr(out)

    @pytest.mark.parametrize("name", TASKS)
    def test_initializer_matches_empty_offline(self, solved, name):
        bench, report = solved[name]
        extras = {p: Fraction(3) for p in bench.program.extra_params}
        assert report.scheme.initializer[0] == run_offline(
            bench.program, [], extras
        )


class TestSemanticEquivalence:
    """Definition 3.3 on random streams (hypothesis-driven)."""

    @settings(max_examples=25, deadline=None)
    @given(
        xs=st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=6),
            max_size=8,
        )
    )
    def test_variance_prefixes(self, xs):
        bench, report = self._get("variance")
        scheme = report.scheme
        state = scheme.initializer
        for i, x in enumerate(xs):
            state = scheme.step(state, x)
            assert state[0] == run_offline(bench.program, xs[: i + 1])

    @settings(max_examples=25, deadline=None)
    @given(
        xs=st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=6),
            max_size=8,
        ),
        t=st.integers(min_value=-5, max_value=5),
    )
    def test_count_above_prefixes(self, xs, t):
        bench, report = self._get("count_above")
        scheme = report.scheme
        extras = {"t": Fraction(t)}
        state = scheme.initializer
        for i, x in enumerate(xs):
            state = scheme.step(state, x, extras)
            assert state[0] == run_offline(bench.program, xs[: i + 1], extras)

    @settings(max_examples=25, deadline=None)
    @given(
        xs=st.lists(
            st.tuples(
                st.fractions(min_value=-9, max_value=9, max_denominator=4),
                st.fractions(min_value=-9, max_value=9, max_denominator=4),
            ),
            max_size=6,
        )
    )
    def test_weighted_mean_prefixes(self, xs):
        bench, report = self._get("weighted_mean")
        scheme = report.scheme
        state = scheme.initializer
        for i, x in enumerate(xs):
            state = scheme.step(state, x)
            assert state[0] == run_offline(bench.program, xs[: i + 1])

    _cache: dict = {}

    def _get(self, name):
        if name not in self._cache:
            bench = get_benchmark(name)
            config = SynthesisConfig(
                timeout_s=60, element_arity=bench.element_arity
            )
            report = OperaFull().synthesize(bench.program, config, name)
            assert report.success
            self._cache[name] = (bench, report)
        return self._cache[name]


class TestReportContents:
    def test_methods_recorded(self, solved):
        _, report = solved["variance"]
        assert "template" in report.method_counts
        assert report.method_counts.get("implicate", 0) >= 1

    def test_timing_recorded(self, solved):
        for _, report in solved.values():
            assert report.elapsed_s > 0

    def test_summary_line_formats(self, solved):
        _, report = solved["sum"]
        line = report.summary_line()
        assert "sum" in line and "ok" in line

    def test_failure_gives_reason(self):
        bench = get_benchmark("kurtosis")
        report = synthesize(
            bench.program, SynthesisConfig(timeout_s=2), "kurtosis"
        )
        assert not report.success
        assert report.failure_reason
        assert report.scheme is None


class TestAblationConfigs:
    def test_nosymbolic_still_solves_easy(self):
        bench = get_benchmark("sum")
        config = SynthesisConfig(timeout_s=20, use_symbolic=False)
        report = synthesize(bench.program, config, "sum")
        assert report.success
        assert set(report.method_counts) == {"enumerative"}

    def test_nodecomp_still_solves_easy(self):
        bench = get_benchmark("count")
        config = SynthesisConfig(timeout_s=20, use_decomposition=False)
        report = synthesize(bench.program, config, "count")
        assert report.success

    def test_nosymbolic_loses_variance(self):
        bench = get_benchmark("variance")
        config = SynthesisConfig(timeout_s=6, use_symbolic=False)
        report = synthesize(bench.program, config, "variance")
        assert not report.success

    def test_enumeration_cap_failure_is_deterministic(self):
        """The kept-behaviour memory cap is a pure function of the search,
        not of the clock: the failure names its class, and a rerun fails
        the same way after the same holes."""
        bench = get_benchmark("variance")
        reports = [
            synthesize(
                bench.program,
                SynthesisConfig(timeout_s=60, use_symbolic=False, enumeration_max_kept=5),
                "variance",
            )
            for _ in range(2)
        ]
        assert not reports[0].success
        assert reports[0].failure_reason.startswith("EnumerationCapExceeded")
        outcomes = [
            (r.failure_reason, [(h.hole_id, h.method) for h in r.holes]) for r in reports
        ]
        assert outcomes[0] == outcomes[1]
