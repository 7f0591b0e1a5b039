"""Generic process supervision with hard wall-clock deadlines.

One spawn/reap core, two tenants: the *bench-level* parallelism of
:mod:`repro.evaluation.parallel` (one process per (solver, benchmark) cell)
and the *shard workers* of :mod:`repro.serve` (long-lived, restartable —
see :class:`ServiceSupervisor`).  Both need exactly the same core — spawn
children, reap results from pipes, and SIGKILL anything that outlives its
deadline — so that core lives here, free of any domain knowledge.

Contract:

* a :class:`Job` is a picklable ``fn(*args)`` call with a per-job budget;
* :meth:`ProcessSupervisor.run` is a generator yielding one
  :class:`JobResult` per job **in completion order**, each tagged ``ok`` /
  ``error`` / ``timeout`` / ``crashed``;
* no result arrives later than ``timeout_s + kill_grace_s`` after its job
  started (the kill is a SIGKILL, not a poll).

The supervisor sleeps until ``min(next deadline, next pipe event)`` — it
does **not** poll on a fixed tick, so a pool of workers that are all
minutes from their deadlines costs zero supervisor wake-ups.

Workers are forked where available (Linux; payloads reach the child by
inheritance) and spawned elsewhere, in which case ``fn``/``args`` must be
picklable.  Batch workers are daemonic, so a dying supervisor cannot leak
runaway processes.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Extra wall-clock slack past a job's budget before the supervisor kills
#: its worker, so cooperative in-process timeouts (which produce richer
#: failure reports) win the race on well-behaved payloads.
KILL_GRACE_S = 0.5


@dataclass(frozen=True)
class Job:
    """One unit of work: ``fn(*args)`` under a wall-clock budget."""

    key: Any  # caller's identifier, echoed back on the result
    fn: Callable
    args: tuple
    timeout_s: float


@dataclass
class JobResult:
    """Outcome of one job, yielded in completion order."""

    job: Job
    kind: str  # "ok" | "error" | "timeout" | "crashed"
    value: Any = None  # fn's return value (kind == "ok")
    message: str = ""  # exception summary (kind == "error")
    elapsed_s: float = 0.0
    exitcode: int | None = None  # kind == "crashed"


def _mp_context() -> mp.context.BaseContext:
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context("spawn")


def _arm_parent_death_signal() -> None:
    """Ask the kernel to SIGKILL this child if its parent dies (Linux).

    SIGKILL of a supervisor bypasses multiprocessing's daemon cleanup, so
    without this a killed supervisor would orphan its workers, which would
    keep burning CPU until their cooperative timeouts fired.  Best-effort:
    a no-op on platforms without prctl.
    """
    try:
        import ctypes

        PR_SET_PDEATHSIG = 1
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, 9)  # SIGKILL
    except Exception:  # pragma: no cover - non-Linux platforms
        pass


def _child_entry(conn, fn, args) -> None:
    """Child-process body: run the payload, ship ``(kind, value, msg)``."""
    _arm_parent_death_signal()
    try:
        payload = ("ok", fn(*args), "")
    except BaseException as exc:  # crashes become error results, not hangs
        payload = ("error", None, f"{type(exc).__name__}: {exc}")
    try:
        conn.send(payload)
    except (BrokenPipeError, OSError):  # supervisor already gave up on us
        pass
    except Exception as exc:  # unpicklable return value
        try:
            conn.send(("error", None, f"unsendable result: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


class ProcessSupervisor:
    """Run jobs across at most ``workers`` concurrent child processes."""

    def __init__(self, workers: int, kill_grace_s: float = KILL_GRACE_S) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.kill_grace_s = kill_grace_s
        self._ctx = _mp_context()
        self._pending: list[Job] = []
        self._active: dict = {}  # sentinel -> (proc, conn, job, started, deadline)

    # -- the supervision loop ----------------------------------------------

    def run(self, jobs: list[Job]) -> Iterator[JobResult]:
        """Execute ``jobs``; yield a :class:`JobResult` per job in
        completion order."""
        # pop() preserves submission order
        self._pending = list(reversed(jobs))
        self._active = {}
        try:
            while self._pending or self._active:
                self._spawn_up_to_capacity()
                now = time.monotonic()
                next_deadline = min(e[4] for e in self._active.values())
                # Sleep until something completes or the nearest deadline —
                # no polling tick (a 100 ms cap here once made the
                # supervisor busy-wake ~10x/s for idle minutes).
                ready = mp.connection.wait(
                    list(self._active), timeout=max(0.0, next_deadline - now)
                )

                for sentinel in ready:
                    proc, conn, job, started, _ = self._active.pop(sentinel)
                    yield self._reap(proc, conn, job, started)

                now = time.monotonic()
                expired = [
                    sentinel
                    for sentinel, (_, _, _, _, job_deadline) in self._active.items()
                    if now >= job_deadline
                ]
                for sentinel in expired:
                    proc, conn, job, started, _ = self._active.pop(sentinel)
                    proc.kill()
                    proc.join()
                    # The payload may have landed just inside the grace
                    # window while the supervisor was busy reaping
                    # elsewhere; prefer it over fabricating a timeout (pipe
                    # data survives the writer's death).
                    result = self._drain(conn, job, now - started)
                    conn.close()
                    yield result
        finally:
            for proc, conn, _, _, _ in self._active.values():
                _kill_quietly(proc, conn)
            self._active = {}
            self._pending = []

    # -- internals ---------------------------------------------------------

    def _spawn_up_to_capacity(self) -> None:
        while self._pending and len(self._active) < self.workers:
            job = self._pending.pop()
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=_child_entry,
                args=(child_conn, job.fn, job.args),
                daemon=True,
            )
            started = time.monotonic()
            proc.start()
            child_conn.close()  # child owns its end now
            job_deadline = started + job.timeout_s + self.kill_grace_s
            self._active[proc.sentinel] = (proc, parent_conn, job, started, job_deadline)

    def _reap(self, proc, conn, job: Job, started: float) -> JobResult:
        """Collect the payload from a finished worker (or record a crash)."""
        elapsed = time.monotonic() - started
        proc.join()  # before reading exitcode, which join() publishes
        try:
            if conn.poll():
                result = self._from_payload(conn.recv(), job, elapsed)
            else:
                result = JobResult(job, "crashed", elapsed_s=elapsed, exitcode=proc.exitcode)
        except (EOFError, OSError):
            result = JobResult(job, "crashed", elapsed_s=elapsed, exitcode=proc.exitcode)
        finally:
            conn.close()
        return result

    def _drain(self, conn, job: Job, elapsed: float) -> JobResult:
        """Late payload of a just-killed worker, else a timeout result."""
        try:
            if conn.poll():
                return self._from_payload(conn.recv(), job, elapsed)
        except (EOFError, OSError):
            pass
        return JobResult(job, "timeout", elapsed_s=elapsed)

    @staticmethod
    def _from_payload(payload, job: Job, elapsed: float) -> JobResult:
        if (isinstance(payload, tuple) and len(payload) == 3 and payload[0] in ("ok", "error")):
            kind, value, message = payload
            return JobResult(job, kind, value=value, message=message, elapsed_s=elapsed)
        return JobResult(
            job, "error", message=f"malformed worker payload: {payload!r}",
            elapsed_s=elapsed,
        )


class _Service:
    """Book-keeping for one long-lived service: the current incarnation's
    process/pipe, the spawn recipe for restarts, and the terminal result."""

    __slots__ = (
        "key", "fn", "args", "proc", "conn", "started", "first_started",
        "deadline", "restarts", "result", "cancelled",
    )

    def __init__(self, key, fn, args):
        self.key = key
        self.fn = fn
        self.args = args
        self.proc = None
        self.conn = None
        self.started = 0.0
        self.first_started = 0.0
        self.deadline: float | None = None
        self.restarts = 0
        self.result: JobResult | None = None
        self.cancelled = False


class ServiceSupervisor:
    """Long-lived *restartable* services on the same spawn/reap/deadline
    core as :class:`ProcessSupervisor`.

    Where :meth:`ProcessSupervisor.run` drives a finite batch of jobs to
    completion, a service is a worker that is *supposed* to keep running —
    a shard of a streaming server, say — until its payload returns (its
    result ships over the same ``_child_entry`` pipe protocol) or it dies.
    The supervisor's contract:

    * :meth:`start` spawns a service under ``key``; :meth:`restart` kills
      (if needed) and respawns it with fresh ``args`` — the crash-restore
      hook: the caller rebuilds channels and checkpoint arguments, the
      supervisor reuses the spawn machinery and counts incarnations
      (:meth:`restarts`).
    * A service's optional wall-clock budget (``timeout_s``) is an
      *absolute* deadline anchored at the **first** start: restarting does
      not buy a crashing service more time.
    * :meth:`poll` waits until a service finishes — payload arrives, the
      process dies, or a deadline expires — and returns the keys that just
      reached a terminal :meth:`result` (``ok`` / ``error`` / ``crashed``
      / ``timeout``, the :class:`JobResult` vocabulary, plus ``cancelled``
      for :meth:`cancel`).  It waits on result pipes *and* process
      sentinels: a service shipping a large final payload blocks in
      ``send`` until the supervisor reads it, so the pipe must be able to
      wake the poll.
    * :meth:`cancel` kills a service and marks it ``cancelled``; cancelled
      (and otherwise finished) services refuse :meth:`restart` — restore
      logic cannot accidentally resurrect something the caller shut down.

    Children are daemonic forks armed with a parent-death SIGKILL (see
    :func:`_arm_parent_death_signal`), so a dying supervisor cannot leak
    shard workers.
    """

    def __init__(self, kill_grace_s: float = KILL_GRACE_S, daemon: bool = True):
        self.kill_grace_s = kill_grace_s
        self.daemon = daemon
        self._ctx = _mp_context()
        self._services: dict = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self, key, fn: Callable, args: tuple = (), timeout_s: float | None = None) -> None:
        """Spawn a service under ``key``; ``timeout_s`` (optional) caps its
        total wall-clock across *all* incarnations."""
        svc = self._services.get(key)
        if svc is not None and svc.result is None:
            raise ValueError(f"service {key!r} is already running")
        svc = _Service(key, fn, args)
        self._services[key] = svc
        self._spawn(svc)
        svc.first_started = svc.started
        if timeout_s is not None:
            svc.deadline = svc.first_started + timeout_s + self.kill_grace_s

    def restart(self, key, args: tuple | None = None) -> int:
        """Kill (if alive) and respawn ``key`` — with fresh ``args`` when
        given, the stored recipe otherwise.  Returns the incarnation count.
        Finished or cancelled services refuse to restart."""
        svc = self._require(key)
        if svc.cancelled:
            raise ValueError(f"service {key!r} was cancelled")
        if svc.result is not None and svc.result.kind == "ok":
            raise ValueError(f"service {key!r} already finished")
        if svc.proc is not None and svc.proc.is_alive():
            _kill_quietly(svc.proc, svc.conn)
        if args is not None:
            svc.args = args
        svc.result = None
        svc.restarts += 1
        self._spawn(svc)
        return svc.restarts

    def kill(self, key) -> None:
        """SIGKILL the live incarnation of ``key`` *without* recording a
        result — the hammer for a hung (not dead) worker.  The corpse
        surfaces through :meth:`poll` as a normal ``crashed`` result, so
        the caller's existing crash-restore path (and :meth:`restart`)
        applies unchanged; a finished or already-dead service is a no-op."""
        svc = self._require(key)
        if svc.result is None and svc.proc is not None and svc.proc.is_alive():
            svc.proc.kill()

    def cancel(self, key) -> None:
        """Kill ``key`` and mark it terminally ``cancelled`` (idempotent on
        finished services: their result is kept)."""
        svc = self._require(key)
        if svc.result is None:
            if svc.proc is not None:
                _kill_quietly(svc.proc, svc.conn)
            svc.result = JobResult(
                Job(svc.key, svc.fn, svc.args, 0.0), "cancelled",
                elapsed_s=time.monotonic() - svc.started,
            )
        svc.cancelled = True

    def shutdown(self) -> None:
        """Kill every still-running service (results of finished ones stay
        readable)."""
        for svc in self._services.values():
            if svc.result is None and svc.proc is not None:
                _kill_quietly(svc.proc, svc.conn)
                svc.result = JobResult(
                    Job(svc.key, svc.fn, svc.args, 0.0), "cancelled",
                    elapsed_s=time.monotonic() - svc.started,
                )
                svc.cancelled = True

    def __enter__(self) -> "ServiceSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- observation -------------------------------------------------------

    def alive(self, key) -> bool:
        svc = self._services.get(key)
        return (
            svc is not None and svc.result is None and svc.proc is not None and svc.proc.is_alive()
        )

    def pid(self, key) -> int | None:
        svc = self._require(key)
        return None if svc.proc is None else svc.proc.pid

    def restarts(self, key) -> int:
        return self._require(key).restarts

    def result(self, key) -> JobResult | None:
        """The terminal result of ``key``, or ``None`` while it runs."""
        return self._require(key).result

    def poll(self, timeout: float | None = 0.0) -> list:
        """Reap services that finished (payload, death, or deadline); block
        up to ``timeout`` seconds for one to do so (``None``: until the
        next event or deadline).  Returns the keys newly holding a
        :meth:`result`, in no particular order."""
        finished = self._reap_ready(timeout=0.0)
        if finished or timeout == 0.0:
            return finished
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            running = [s for s in self._services.values() if s.result is None]
            if not running:
                return []
            wait_until = deadline
            for svc in running:
                if svc.deadline is not None:
                    wait_until = (
                        svc.deadline if wait_until is None else min(wait_until, svc.deadline)
                    )
            waitables = []
            for svc in running:
                waitables.append(svc.proc.sentinel)
                waitables.append(svc.conn)
            mp.connection.wait(
                waitables,
                timeout=None
                if wait_until is None
                else max(0.0, wait_until - time.monotonic()),
            )
            finished = self._reap_ready(timeout=0.0)
            if finished:
                return finished
            if deadline is not None and time.monotonic() >= deadline:
                return []

    # -- internals ---------------------------------------------------------

    def _require(self, key) -> _Service:
        svc = self._services.get(key)
        if svc is None:
            raise KeyError(f"unknown service {key!r}")
        return svc

    def _spawn(self, svc: _Service) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_child_entry,
            args=(child_conn, svc.fn, svc.args),
            daemon=self.daemon,
        )
        svc.started = time.monotonic()
        proc.start()
        child_conn.close()
        svc.proc = proc
        svc.conn = parent_conn

    def _reap_ready(self, timeout: float) -> list:
        """One sweep: collect payloads/corpses, enforce deadlines."""
        finished = []
        now = time.monotonic()
        for key, svc in self._services.items():
            if svc.result is not None:
                continue
            job = Job(svc.key, svc.fn, svc.args, 0.0)
            elapsed = now - svc.started
            try:
                has_payload = svc.conn.poll(timeout)
            except (EOFError, OSError):
                has_payload = False
            if has_payload:
                try:
                    payload = svc.conn.recv()
                except (EOFError, OSError):
                    svc.proc.join()
                    svc.result = JobResult(
                        job, "crashed", elapsed_s=elapsed,
                        exitcode=svc.proc.exitcode,
                    )
                else:
                    svc.proc.join()
                    svc.result = ProcessSupervisor._from_payload(payload, job, elapsed)
                svc.conn.close()
                finished.append(key)
                continue
            if not svc.proc.is_alive():
                svc.proc.join()
                # Prefer a payload that landed between the poll above and
                # the death check (pipe data survives the writer's death).
                try:
                    if svc.conn.poll():
                        svc.result = ProcessSupervisor._from_payload(svc.conn.recv(), job, elapsed)
                    else:
                        svc.result = JobResult(
                            job, "crashed", elapsed_s=elapsed,
                            exitcode=svc.proc.exitcode,
                        )
                except (EOFError, OSError):
                    svc.result = JobResult(
                        job, "crashed", elapsed_s=elapsed,
                        exitcode=svc.proc.exitcode,
                    )
                svc.conn.close()
                finished.append(key)
                continue
            if svc.deadline is not None and now >= svc.deadline:
                svc.proc.kill()
                svc.proc.join()
                try:
                    if svc.conn.poll():
                        svc.result = ProcessSupervisor._from_payload(svc.conn.recv(), job, elapsed)
                    else:
                        svc.result = JobResult(job, "timeout", elapsed_s=elapsed)
                except (EOFError, OSError):
                    svc.result = JobResult(job, "timeout", elapsed_s=elapsed)
                svc.conn.close()
                finished.append(key)
        return finished


def _kill_quietly(proc, conn) -> None:
    proc.kill()
    proc.join()
    try:
        conn.close()
    except OSError:  # pragma: no cover - already closed
        pass
