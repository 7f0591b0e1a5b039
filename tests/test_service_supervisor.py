"""Tests for :mod:`repro.supervisor`: :class:`ServiceSupervisor`, the
long-lived restartable-service layer under ``repro.serve``, and
:class:`ProcessSupervisor`, the batch layer under the parallel suite
runner."""

import os
import signal
import time
from fractions import Fraction

import pytest

from repro.supervisor import Job, ProcessSupervisor, ServiceSupervisor


def _echo(value):
    return value


def _sleep_forever():
    while True:
        time.sleep(60)


def _fail(message):
    raise RuntimeError(message)


def _sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def _wait_for(supervisor, key, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if supervisor.poll(timeout=0.2) or supervisor.result(key) is not None:
            result = supervisor.result(key)
            if result is not None:
                return result
    raise AssertionError(f"service {key!r} did not finish within {timeout}s")


class TestServiceLifecycle:
    def test_ok_result_ships_back(self):
        with ServiceSupervisor() as sup:
            sup.start("echo", _echo, ({"answer": 42},))
            result = _wait_for(sup, "echo")
        assert result.kind == "ok"
        assert result.value == {"answer": 42}

    def test_error_result(self):
        with ServiceSupervisor() as sup:
            sup.start("bad", _fail, ("boom",))
            result = _wait_for(sup, "bad")
        assert result.kind == "error"
        assert "boom" in result.message

    def test_alive_and_pid(self):
        with ServiceSupervisor() as sup:
            sup.start("svc", _sleep_forever)
            assert sup.alive("svc")
            assert isinstance(sup.pid("svc"), int)
        assert not sup.alive("svc")  # shutdown killed it

    def test_duplicate_running_key_rejected(self):
        with ServiceSupervisor() as sup:
            sup.start("svc", _sleep_forever)
            with pytest.raises(ValueError, match="already running"):
                sup.start("svc", _sleep_forever)

    def test_unknown_key_raises(self):
        with ServiceSupervisor() as sup:
            with pytest.raises(KeyError):
                sup.result("ghost")


class TestRestart:
    def test_sigkill_reports_crashed_then_restart_works(self):
        with ServiceSupervisor() as sup:
            sup.start("svc", _sleep_forever)
            os.kill(sup.pid("svc"), signal.SIGKILL)
            result = _wait_for(sup, "svc")
            assert result.kind == "crashed"
            assert result.exitcode == -signal.SIGKILL
            # Crash-restore: respawn with fresh args, count the incarnation.
            assert sup.restarts("svc") == 0
            assert sup.restart("svc", args=(0.0, "recovered")) == 1
            # _Service.fn is unchanged; swap to a terminating payload via a
            # second restart to prove stored-recipe restarts also work.
            sup._services["svc"].fn = _sleep_then_return
            assert sup.restart("svc") == 2
            result = _wait_for(sup, "svc")
        assert result.kind == "ok"
        assert result.value == "recovered"
        assert sup.restarts("svc") == 2

    def test_restart_kills_live_incarnation(self):
        with ServiceSupervisor() as sup:
            sup.start("svc", _sleep_forever)
            first_pid = sup.pid("svc")
            sup.restart("svc")
            assert sup.alive("svc")
            assert sup.pid("svc") != first_pid

    def test_finished_service_refuses_restart(self):
        with ServiceSupervisor() as sup:
            sup.start("done", _echo, (1,))
            assert _wait_for(sup, "done").kind == "ok"
            with pytest.raises(ValueError, match="already finished"):
                sup.restart("done")


class TestCancel:
    def test_cancel_kills_and_marks_cancelled(self):
        with ServiceSupervisor() as sup:
            sup.start("svc", _sleep_forever)
            pid = sup.pid("svc")
            sup.cancel("svc")
            assert sup.result("svc").kind == "cancelled"
            assert not sup.alive("svc")
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("cancelled worker still running")

    def test_cancelled_service_refuses_restart(self):
        # Restore logic must not resurrect something the caller shut down.
        with ServiceSupervisor() as sup:
            sup.start("svc", _sleep_forever)
            sup.cancel("svc")
            with pytest.raises(ValueError, match="cancelled"):
                sup.restart("svc")

    def test_cancel_after_finish_keeps_result(self):
        with ServiceSupervisor() as sup:
            sup.start("done", _echo, ("kept",))
            assert _wait_for(sup, "done").kind == "ok"
            sup.cancel("done")
            assert sup.result("done").kind == "ok"
            assert sup.result("done").value == "kept"

    def test_shutdown_cancels_everything_running(self):
        sup = ServiceSupervisor()
        sup.start("a", _sleep_forever)
        sup.start("b", _echo, (7,))
        assert _wait_for(sup, "b").kind == "ok"
        sup.shutdown()
        assert sup.result("a").kind == "cancelled"
        assert sup.result("b").kind == "ok"  # finished results survive


class TestDeadline:
    def test_deadline_kills_runaway_service(self):
        with ServiceSupervisor(kill_grace_s=0.2) as sup:
            sup.start("svc", _sleep_forever, timeout_s=0.5)
            result = _wait_for(sup, "svc", timeout=30.0)
        assert result.kind == "timeout"

    def test_deadline_is_absolute_across_restarts(self):
        # The wall-clock budget anchors at the FIRST start: a crashing
        # service cannot buy itself more time by being restarted.
        with ServiceSupervisor(kill_grace_s=0.2) as sup:
            sup.start("svc", _sleep_forever, timeout_s=1.2)
            started = time.monotonic()
            time.sleep(0.3)
            sup.restart("svc")
            result = _wait_for(sup, "svc", timeout=30.0)
            elapsed = time.monotonic() - started
        assert result.kind == "timeout"
        # Killed near the original deadline (1.2s + grace), NOT restart+1.2s.
        assert elapsed < 3.0

    def test_within_deadline_completes(self):
        with ServiceSupervisor() as sup:
            sup.start("svc", _sleep_then_return, (0.1, "done"), timeout_s=30.0)
            result = _wait_for(sup, "svc")
        assert result.kind == "ok"
        assert result.value == "done"


# -- the batch supervisor under the parallel suite runner -------------------
# Payload functions are module-level so they pickle under spawn contexts.


def _payload_return(value):
    return value


def _payload_raise():
    raise RuntimeError("boom")


def _payload_exit():
    os._exit(3)


def _payload_sleep(seconds):
    time.sleep(seconds)
    return "done"


class TestProcessSupervisor:
    def test_ok_result(self):
        sup = ProcessSupervisor(workers=1)
        [result] = list(
            sup.run([Job("k", _payload_return, (Fraction(1, 3),), 10.0)])
        )
        assert (result.kind, result.value) == ("ok", Fraction(1, 3))
        assert result.job.key == "k"

    def test_error_result(self):
        sup = ProcessSupervisor(workers=1)
        [result] = list(sup.run([Job("k", _payload_raise, (), 10.0)]))
        assert result.kind == "error"
        assert "RuntimeError: boom" in result.message

    def test_crash_result(self):
        sup = ProcessSupervisor(workers=1)
        [result] = list(sup.run([Job("k", _payload_exit, (), 10.0)]))
        assert (result.kind, result.exitcode) == ("crashed", 3)

    def test_timeout_kills_at_deadline(self):
        sup = ProcessSupervisor(workers=1, kill_grace_s=0.1)
        start = time.monotonic()
        [result] = list(sup.run([Job("k", _payload_sleep, (30.0,), 0.4)]))
        assert result.kind == "timeout"
        assert time.monotonic() - start < 5.0

    def test_wait_is_deadline_driven_not_polling(self, monkeypatch):
        """The supervisor must sleep until min(deadline, event) — the old
        100 ms wait cap busy-woke it ~10x per idle second."""
        import multiprocessing.connection as mpc

        calls = []
        real_wait = mpc.wait

        def counting_wait(handles, timeout=None):
            calls.append(timeout)
            return real_wait(handles, timeout=timeout)

        monkeypatch.setattr(mpc, "wait", counting_wait)
        sup = ProcessSupervisor(workers=1)
        [result] = list(sup.run([Job("k", _payload_sleep, (1.2,), 30.0)]))
        assert result.kind == "ok"
        # One wait spanning the whole sleep (plus scheduling slack), not a
        # dozen 100 ms naps.
        assert len(calls) <= 4
        assert max(calls) > 5.0  # the wait actually extended to the deadline
