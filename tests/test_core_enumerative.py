"""Tests for the enumerative fallback's budget (``repro.core.enumerative``):
the search must stop at the deadline, not thousands of candidates later."""

import pytest

from repro.core import config as config_module
from repro.core import enumerative
from repro.core.config import SynthesisConfig
from repro.core.exceptions import SynthesisTimeout
from repro.core.rfs import construct_rfs
from repro.suites import get_benchmark

_PREDICATES = ("lt", "le", "gt", "ge", "eq")


class FakeClock:
    """Stands in for the ``time`` module of :mod:`repro.core.config`."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


def _is_predicate(expr):
    return isinstance(expr, enumerative.Call) and expr.func in _PREDICATES


@pytest.mark.parametrize(
    "expires_during",
    [lambda n, expr: True, lambda n, expr: n == 50, lambda n, expr: _is_predicate(expr)],
    ids=["first candidate", "50th candidate", "first predicate"],
)
def test_search_stops_within_one_signature_of_the_deadline(monkeypatch, expires_during):
    """``count_above`` under Opera-NoSymbolic builds a predicate pool, the
    loop that once ran with no deadline check at all.  The clock jumps past
    the deadline while one signature is being computed; at most one more
    signature may be computed after that."""
    clock = FakeClock()
    monkeypatch.setattr(config_module, "time", clock)
    bench = get_benchmark("count_above")
    rfs = construct_rfs(bench.program)
    spec = next(iter(rfs.entries.values()))
    config = SynthesisConfig(timeout_s=10.0, use_symbolic=False)
    config.start_clock()

    real_signature = enumerative._signature
    calls = {"total": 0, "after_expiry": 0}

    def signature(expr, envs):
        calls["total"] += 1
        if clock.now > 10.0:
            calls["after_expiry"] += 1
        elif expires_during(calls["total"], expr):
            clock.now = 11.0
        return real_signature(expr, envs)

    monkeypatch.setattr(enumerative, "_signature", signature)
    with pytest.raises(SynthesisTimeout):
        enumerative.enumerate_expression(rfs, spec, config)
    assert clock.now > 10.0, "the search ended before the clock expired"
    assert calls["after_expiry"] <= 1
