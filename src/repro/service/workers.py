"""Supervised multi-process worker pool: crash isolation + heartbeat leases.

The one place in the package that spawns and supervises a simulation
child.  Two clients drive it: the service queue (one attempt of a job's
remaining cells, :func:`_run_cells`) and the sweep harness's isolated
mode (one attempt of one sweep cell).  Each passes a module-level
*target*; the supervisor runs it in a fresh child and returns the value
it produced, with the same failure model for both:

* **Process-per-attempt** — a fresh ``spawn`` child per attempt: no
  inherited locks, no shared heap, and a crash costs exactly one attempt.
  The child streams progress over a one-way pipe (``ready``, any
  target-defined progress messages, then a terminal
  ``ok``/``preempted``/``error``) and writes results/snapshots to shared
  directories — atomically, so a child dying mid-write leaves either the
  old bytes or the new bytes, never a torn file the parent would trust.
* **Heartbeat lease** — the child stamps a shared array at every
  dispatch boundary (through :class:`_WorkerCheckpointer`).  The
  supervisor kills any child silent past ``lease_timeout``: a hung
  worker is indistinguishable from a dead one, and both become a
  :class:`WorkerDied` the caller retries under its budget.  Lease age is
  judged on ``time.monotonic()`` deltas (parent and child share one
  host, so one monotonic clock) — an NTP step can slew the wall clock by
  minutes without making a healthy worker look dead; the wall-clock
  stamp rides along for diagnostics only.  Targets that never build a
  checkpointer never stamp, so they run with ``lease=False`` and only
  the ``kill_after`` deadline supervises them.
* **Hard deadline** — ``kill_after`` seconds after spawn the child is
  SIGKILLed and the attempt raises ``WorkerDied("hard-timeout")``.
* **Memory rlimit** — ``mem_limit_mb`` applies ``RLIMIT_AS`` in the
  child, so a leaking simulation gets ``MemoryError`` (a classified,
  retryable failure) instead of inviting the host OOM killer to shoot
  the parent.
* **Ready gating** — the spawn bootstrap imports the whole package
  before the child installs its SIGTERM handler.  The supervisor never
  forwards a preempt signal until the child reports ``ready``, so a
  drain can't kill a child mid-import and lose the checkpoint the drain
  exists to write.
* **Orphan reaping** — the child arms ``PR_SET_PDEATHSIG`` (SIGTERM on
  parent death), so ``kill -9`` of the parent stops its children at the
  next task boundary instead of leaving orphans racing a restarted
  parent for the spool.

The queue layers poison quarantine and graceful concurrency degradation
on top (see :mod:`repro.service.queue`); the harness layers shards and
its manifest (see :mod:`repro.experiments.harness`).  Failure
*injection* lives in :mod:`repro.failpoints` (sites ``worker.crash``,
``worker.hang``, ``worker.oom`` fire inside the child at deterministic
task boundaries).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Callable

from repro import failpoints
from repro.retry import PERMANENT_ERRORS, retry_delay
from repro.snapshot import Checkpointer, PreemptedError

__all__ = [
    "DEFAULT_LEASE_TIMEOUT",
    "HARD_TIMEOUT_GRACE",
    "PERMANENT_ERRORS",
    "retry_delay",
    "WorkerDied",
    "WorkerJobError",
    "AttemptHandle",
    "WorkerChild",
    "WorkerPool",
]

#: extra seconds past a job's graceful budget before the supervisor stops
#: waiting for a checkpoint and kills the (presumed wedged) worker.
HARD_TIMEOUT_GRACE = 30.0

#: how long a worker may go without a heartbeat before its lease expires
#: (read when a :class:`WorkerPool` is built without ``lease_timeout``).
DEFAULT_LEASE_TIMEOUT = 30.0

#: heartbeat array slots: lease decisions read the monotonic stamp; the
#: wall stamp exists only so humans can line logs up against it.
_HB_MONO = 0
_HB_WALL = 1

#: terminal child messages; everything else is progress.
_TERMINAL = ("ok", "preempted", "error")


def _stamp(hb: Any) -> None:
    """Stamp the heartbeat lease (child side, every task boundary)."""
    hb[_HB_MONO] = time.monotonic()
    hb[_HB_WALL] = time.time()


class WorkerDied(Exception):
    """A worker process died (or was killed) without settling its attempt.

    ``reason`` is one of ``"crashed"`` (exited without a terminal
    message), ``"lease-expired"`` (heartbeat went silent), or
    ``"hard-timeout"`` (still running at ``kill_after``).  ``exitcode``
    is the raw ``Process.exitcode`` (negative = killed by that signal);
    ``term_signal`` extracts the signal number.
    """

    def __init__(
        self,
        reason: str,
        *,
        exitcode: int | None = None,
        heartbeat_age: float = 0.0,
    ) -> None:
        self.reason = reason
        self.exitcode = exitcode
        self.term_signal = (
            -exitcode if exitcode is not None and exitcode < 0 else None
        )
        self.heartbeat_age = heartbeat_age
        detail = f"worker {reason}"
        if self.term_signal is not None:
            detail += f" (signal {self.term_signal})"
        elif exitcode is not None:
            detail += f" (exit code {exitcode})"
        detail += f"; last heartbeat {heartbeat_age:.1f}s ago"
        super().__init__(detail)


class WorkerJobError(Exception):
    """The target itself raised inside the worker (the worker survived).

    Re-raised in the supervisor with the child-side exception's name,
    formatted traceback and permanence classification attached, so
    callers retry it exactly as they would an in-process exception.
    """

    def __init__(
        self, error_name: str, message: str, permanent: bool,
        traceback: str = "",
    ) -> None:
        super().__init__(message)
        self.error_name = error_name
        self.permanent = permanent
        self.traceback = traceback


class AttemptHandle:
    """The supervisor's view of one in-flight child attempt."""

    def __init__(self, proc: multiprocessing.process.BaseProcess, hb: Any) -> None:
        self.proc = proc
        self.hb = hb
        self.ready = False
        self.preempt_requested = False
        self.signalled = False

    def request_preempt(self) -> None:
        """Signal-handler-safe: only sets a flag; the supervision loop
        forwards SIGTERM (repeat calls are idempotent)."""
        self.preempt_requested = True

    def heartbeat_age(self) -> float:
        """Seconds since the child's last stamp, on the shared monotonic
        clock — immune to wall-clock (NTP) steps in either direction."""
        return max(0.0, time.monotonic() - self.hb[_HB_MONO])

    def heartbeat_wall(self) -> float:
        """The wall-clock time of the last stamp — diagnostics only,
        never used for lease-expiry decisions."""
        return self.hb[_HB_WALL]


class WorkerPool:
    """Spawns, supervises, and accounts for per-attempt worker processes.

    Not a pool of long-lived processes: isolation is the point, so every
    attempt gets a fresh child (~0.4 s spawn+import on this codebase —
    noise against multi-second simulations).  What is pooled is the
    *accounting*: death/restart counters and the adaptive
    :attr:`concurrency` the queue's worker loops respect.
    """

    def __init__(
        self,
        workers: int,
        *,
        lease_timeout: float | None = None,
        mem_limit_mb: int | None = None,
        degrade_after: int = 2,
        degrade_window: float = 60.0,
    ) -> None:
        if lease_timeout is None:
            lease_timeout = DEFAULT_LEASE_TIMEOUT
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if mem_limit_mb is not None and mem_limit_mb < 1:
            raise ValueError("mem_limit_mb must be >= 1")
        self.workers = workers
        self.lease_timeout = lease_timeout
        self.mem_limit_mb = mem_limit_mb
        self.degrade_after = degrade_after
        self.degrade_window = degrade_window
        #: current admission width; sheds toward 1 under repeated worker
        #: deaths, recovers toward ``workers`` on healthy completions.
        self.concurrency = workers
        self.spawned = 0
        self.deaths = 0
        self.restarts = 0
        self.lease_expired = 0
        self.completions = 0
        self._death_times: list[float] = []
        self._attempts: dict[str, AttemptHandle] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # supervision (runs in the caller's attempt-slot thread, blocking)
    # ------------------------------------------------------------------

    def run_attempt(
        self,
        key: str,
        target: Callable[["WorkerChild", Any], Any],
        payload: Any,
        *,
        kill_after: float | None = None,
        lease: bool = True,
        on_message: Callable[[tuple], None] | None = None,
    ) -> Any:
        """Run ``target(child, payload)`` in a fresh child; block until settled.

        ``target`` must be module-level and ``payload`` picklable (spawn
        pickles both).  ``key`` names the attempt among the in-flight
        ones.  Returns what the target returned; raises
        :class:`PreemptedError` on checkpoint-and-stop,
        :class:`WorkerJobError` when the target raised, and
        :class:`WorkerDied` when the child vanished, lost its lease
        (only with ``lease=True``) or outlived ``kill_after`` seconds.
        Progress messages are handed to ``on_message`` as they arrive.
        """
        ctx = multiprocessing.get_context("spawn")
        recv, send = ctx.Pipe(duplex=False)
        # [monotonic, wall]: CLOCK_MONOTONIC is per-boot, so parent and
        # child (same host by construction) read the same timeline.
        hb = ctx.Array("d", [time.monotonic(), time.time()], lock=False)
        setup = {
            "parent_pid": os.getpid(),
            "mem_limit_mb": self.mem_limit_mb,
            "failpoints": failpoints.active_spec(),
        }
        proc = ctx.Process(
            target=_attempt_main, args=(send, hb, setup, target, payload),
            name=f"repro-worker-{key}", daemon=True,
        )
        handle = AttemptHandle(proc, hb)
        with self._lock:
            self.spawned += 1
            self._attempts[key] = handle
        try:
            proc.start()  # pickles target and payload
        except BaseException:
            with self._lock:
                self._attempts.pop(key, None)
            recv.close()
            send.close()
            raise
        send.close()  # child holds the only write end: EOF tracks its death
        start = time.monotonic()
        hard_deadline = None if kill_after is None else start + kill_after
        terminal: tuple | None = None

        def take(msg: tuple) -> tuple | None:
            if msg[0] in _TERMINAL:
                return msg
            if msg[0] == "ready":
                handle.ready = True
            elif on_message is not None:
                on_message(msg)
            return None

        try:
            while terminal is None:
                if handle.preempt_requested and handle.ready and not handle.signalled:
                    handle.signalled = True
                    _soft_kill(proc)
                if recv.poll(0.05):
                    try:
                        terminal = take(recv.recv())
                    except (EOFError, OSError):
                        break
                    continue
                age = handle.heartbeat_age()
                if hard_deadline is not None and time.monotonic() >= hard_deadline:
                    _hard_kill(proc)
                    raise WorkerDied(
                        "hard-timeout", exitcode=proc.exitcode, heartbeat_age=age
                    )
                if lease and age > self.lease_timeout:
                    with self._lock:
                        self.lease_expired += 1
                    _hard_kill(proc)
                    raise WorkerDied(
                        "lease-expired", exitcode=proc.exitcode, heartbeat_age=age
                    )
                if not proc.is_alive():
                    while terminal is None and recv.poll(0):
                        # drain what the child flushed dying
                        try:
                            terminal = take(recv.recv())
                        except (EOFError, OSError):
                            break
                    break
            if terminal is None:
                proc.join(timeout=5.0)
                raise WorkerDied(
                    "crashed",
                    exitcode=proc.exitcode,
                    heartbeat_age=handle.heartbeat_age(),
                )
        finally:
            with self._lock:
                self._attempts.pop(key, None)
            if proc.is_alive():
                _hard_kill(proc)
            proc.join(timeout=5.0)
            recv.close()
        kind = terminal[0]
        if kind == "preempted":
            raise PreemptedError(Path(terminal[1]), terminal[2])
        if kind == "error":
            raise WorkerJobError(*terminal[1:])
        with self._lock:
            self.completions += 1
        return terminal[1]

    def preempt_all(self) -> None:
        """Ask every in-flight child to checkpoint and stop at its next
        task boundary (forwarded as SIGTERM once it reports ready)."""
        with self._lock:
            handles = list(self._attempts.values())
        for handle in handles:
            handle.request_preempt()

    # ------------------------------------------------------------------
    # health accounting
    # ------------------------------------------------------------------

    def note_death(self) -> None:
        """Record a worker death; shed concurrency under a death burst.

        ``degrade_after`` deaths inside ``degrade_window`` seconds drop
        :attr:`concurrency` one step (floor 1) and reset the window —
        repeated crashes serialize the pool instead of crash-looping it
        at full width.
        """
        now = time.monotonic()
        with self._lock:
            self.deaths += 1
            self._death_times.append(now)
            cutoff = now - self.degrade_window
            self._death_times = [t for t in self._death_times if t >= cutoff]
            if (
                len(self._death_times) >= self.degrade_after
                and self.concurrency > 1
            ):
                self.concurrency -= 1
                self._death_times.clear()

    def note_ok(self) -> None:
        """A healthy completion with no recent deaths restores one step."""
        now = time.monotonic()
        with self._lock:
            cutoff = now - self.degrade_window
            self._death_times = [t for t in self._death_times if t >= cutoff]
            if not self._death_times and self.concurrency < self.workers:
                self.concurrency += 1

    def kill_all(self) -> int:
        """SIGKILL every live child (the drain deadline's backstop).

        Joins each killed child briefly so the caller observes them
        reaped — a SIGKILL'd process exits immediately, so the join is
        bounded in practice; the timeout only guards kernel pathology.
        """
        killed = 0
        with self._lock:
            handles = list(self._attempts.values())
        for handle in handles:
            if handle.proc.is_alive():
                _hard_kill(handle.proc)
                killed += 1
        for handle in handles:
            handle.proc.join(timeout=5.0)
        return killed

    def stats(self) -> dict[str, Any]:
        with self._lock:
            busy = len(self._attempts)
            alive = sum(1 for h in self._attempts.values() if h.proc.is_alive())
            return {
                "configured": self.workers,
                "concurrency": self.concurrency,
                "busy": busy,
                "alive": alive,
                "spawned": self.spawned,
                "deaths": self.deaths,
                "restarts": self.restarts,
                "lease_expired": self.lease_expired,
                "completions": self.completions,
                "lease_timeout": self.lease_timeout,
                "mem_limit_mb": self.mem_limit_mb,
            }


def _soft_kill(proc: multiprocessing.process.BaseProcess) -> None:
    try:
        if proc.pid is not None:
            os.kill(proc.pid, signal.SIGTERM)
    except (ProcessLookupError, OSError):
        pass


def _hard_kill(proc: multiprocessing.process.BaseProcess) -> None:
    try:
        proc.kill()
    except (ValueError, OSError):  # already reaped
        pass


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------


def _set_pdeathsig() -> None:
    """Arm PR_SET_PDEATHSIG=SIGTERM (Linux): if the parent is kill -9'd,
    the child checkpoints at its next boundary instead of racing the
    restarted parent for the spool as an orphan.  Best-effort elsewhere."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG = 1
    except (OSError, AttributeError, TypeError):
        pass


class WorkerChild:
    """A target's side of its attempt: progress pipe, lease, preemption.

    SIGTERM (a forwarded preempt request, or the parent dying) sets
    :attr:`preempt_requested` and preempts the checkpointer built by
    :meth:`checkpointer`, if any; one built after the signal starts out
    preempted.
    """

    def __init__(self, conn: Any, hb: Any) -> None:
        self.conn = conn
        self.hb = hb
        self.preempt_requested = False
        #: the live checkpointer; targets clear it between runs.
        self.ck: Checkpointer | None = None

    def send(self, msg: tuple) -> None:
        """Send, swallowing a vanished parent — the child finishes its
        atomic cache/spool writes either way, and those are what resume
        reads."""
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError):
            pass

    def checkpointer(self, path: Any, *, fctx: dict[str, Any],
                     **kwargs: Any) -> "_WorkerCheckpointer":
        """A checkpointer that also stamps this attempt's heartbeat lease
        and fires the ``worker.*`` failpoints (context ``fctx``)."""
        ck = _WorkerCheckpointer(path, hb=self.hb, fctx=fctx, **kwargs)
        self.ck = ck
        if self.preempt_requested:  # SIGTERM landed before this run
            ck.request_preempt()
        return ck

    def _on_term(self, signum: int, frame: Any) -> None:
        self.preempt_requested = True
        if self.ck is not None:
            self.ck.request_preempt()


def _attempt_main(
    conn: Any, hb: Any, setup: dict[str, Any],
    target: Callable[[WorkerChild, Any], Any], payload: Any,
) -> None:
    """Child entry point: contain, get ready, run the target, report.

    Ordering here is the crash-safety contract: pdeathsig + rlimit first
    (so even an early wreck is contained), then signal handlers, then the
    ``ready`` message — only after which the parent will forward SIGTERM.
    """
    _set_pdeathsig()
    parent = setup.get("parent_pid")
    if parent and os.getppid() != parent:
        os._exit(98)  # orphaned during spawn: nobody is listening
    if setup.get("mem_limit_mb"):
        try:
            import resource

            limit = int(setup["mem_limit_mb"]) << 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError):
            pass
    if setup.get("failpoints"):
        spec, seed = setup["failpoints"]
        failpoints.configure(spec, seed)

    child = WorkerChild(conn, hb)
    signal.signal(signal.SIGTERM, child._on_term)
    # A terminal Ctrl-C hits the whole process group; the parent
    # coordinates it by forwarding SIGTERM, so the raw SIGINT is ignored.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _stamp(hb)
    child.send(("ready",))
    try:
        value = target(child, payload)
    except PreemptedError as exc:
        child.send(("preempted", str(exc.path), exc.tasks_completed))
        conn.close()
        os._exit(75)  # EX_TEMPFAIL, same as the server's drain exit
    except BaseException as exc:  # noqa: BLE001 - classified by the parent
        child.send(
            ("error", type(exc).__name__, str(exc), isinstance(exc, PERMANENT_ERRORS),
             traceback.format_exc())
        )
        conn.close()
        os._exit(1)
    try:
        conn.send(("ok", value))
    except (BrokenPipeError, OSError):
        pass
    except Exception as exc:  # noqa: BLE001 - the value failed to pickle
        child.send(
            ("error", type(exc).__name__,
             f"result could not be sent to the parent: {exc}", True,
             traceback.format_exc())
        )
    conn.close()
    os._exit(0)


class _WorkerCheckpointer(Checkpointer):
    """Checkpointer that also stamps the heartbeat lease and evaluates
    worker-scoped failpoints at every live dispatch boundary."""

    def __init__(self, *args: Any, hb: Any = None,
                 fctx: dict[str, Any] | None = None, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._hb = hb
        self._fctx = fctx or {}
        # Activation is fixed for the child's lifetime; cache the check so
        # the uninjected hot path pays one attribute test per dispatch.
        self._fp_active = failpoints.get().active

    def after_dispatch(self, executor: Any, name: str, duration: int) -> None:
        if self._hb is not None:
            _stamp(self._hb)
        if self._fp_active:
            ctx = dict(self._fctx, task=executor.machine.tasks_completed)
            failpoints.fire("worker.crash", **ctx)
            failpoints.fire("worker.hang", **ctx)
            failpoints.fire("worker.oom", **ctx)
        super().after_dispatch(executor, name, duration)


# ---------------------------------------------------------------------------
# the service's target
# ---------------------------------------------------------------------------


def _run_cells(child: WorkerChild, payload: dict[str, Any]) -> None:
    """Run one service job attempt's remaining cells, streaming progress.

    Besides ``event``/``snapshot_discarded``/``fleet_fenced`` notices, every
    finished cell is reported as ``("cell_done", cell, result, cache_hit,
    resumed_from_task, cache_counts)`` — the last being the deltas of this
    child's :class:`~repro.service.cache.ResultCache` counters, which the
    server folds into its own so ``/v1/health`` sees the lookups and stores
    made here.
    """
    spec = payload["spec"]
    fctx = {"job": spec.label, "attempt": payload["attempt"]}
    failpoints.fire("worker.start.crash", **fctx)
    failpoints.fire("queue.attempt.slow", **fctx)
    failpoints.fire("queue.attempt.crash", **fctx)
    # Heavy imports happen here, after ready: the budget deadline below is
    # computed after them, so a short time slice buys simulation, not
    # interpreter startup.
    from repro.service.cache import ResultCache, request_key

    cfg = spec.config()
    fleet = payload.get("fleet")
    cache = (
        ResultCache(
            payload["cache_dir"],
            fleet_dir=(
                Path(fleet["dir"]) / "results" if fleet is not None else None
            ),
        )
        if payload.get("cache_dir") else None
    )
    reported: dict[str, int] = {}

    def cache_counts() -> dict[str, int]:
        if cache is None:
            return {}
        now = cache.counters()
        delta = {k: v - reported.get(k, 0) for k, v in now.items()}
        reported.update(now)
        return {k: v for k, v in delta.items() if v}

    spool = Path(payload["spool"])
    budget = payload["budget"]
    deadline = time.monotonic() + budget if budget is not None else None
    for wl, pol in payload["cells"]:
        cell = f"{wl}/{pol}"
        _stamp(child.hb)
        key = request_key(cfg, wl, pol, spec.seed)
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            child.send(("cell_done", cell, cached, True, None, cache_counts()))
            continue
        result, resumed = _simulate(
            child, payload, fctx, cfg, spec, wl, pol, key, spool, cache,
            deadline,
        )
        child.send(("cell_done", cell, result, False, resumed, cache_counts()))


def _simulate(
    child: WorkerChild, payload: dict[str, Any], fctx: dict[str, Any],
    cfg: Any, spec: Any, wl: str, pol: str, key: str, spool: Path,
    cache: Any, deadline: float | None,
) -> tuple[dict[str, Any], int | None]:
    from repro.api import Session
    from repro.obs.observer import Observer
    from repro.obs.stream import CallbackSink
    from repro.snapshot import SnapshotMismatchError, load_or_quarantine

    snap_path = spool / f"{key}.snap"

    def make_ck() -> _WorkerCheckpointer:
        return child.checkpointer(
            snap_path, every=payload["checkpoint_every"], deadline=deadline,
            fctx=fctx,
        )

    def make_observer() -> Any:
        return Observer(
            sink=CallbackSink(lambda evt: child.send(("event", evt))),
            timeline=False,
        )

    ck = make_ck()
    resume_from = None
    if snap_path.is_file() and load_or_quarantine(snap_path) is not None:
        resume_from = snap_path
    session = Session(cfg, seed=spec.seed)
    try:
        rr = session.run(
            wl, pol, trace=make_observer(), checkpoint=ck,
            resume_from=resume_from,
        )
    except SnapshotMismatchError:
        if resume_from is None:
            raise
        # The spool snapshot belongs to some other identity (stale key
        # collision, older build): quarantine it and run fresh.
        try:
            os.replace(snap_path, str(snap_path) + ".corrupt")
        except OSError:
            pass
        child.send(("snapshot_discarded", f"{wl}/{pol}"))
        ck = make_ck()
        session = Session(cfg, seed=spec.seed)
        rr = session.run(wl, pol, trace=make_observer(), checkpoint=ck)
    finally:
        child.ck = None
    result = rr.stats_dict()
    resumed = rr.experiment.extra.get("resumed_from_task")
    if cache is not None:
        fleet = payload.get("fleet")
        fence = None
        if fleet is not None:
            from repro.service.fleet import claim_matches

            def fence() -> bool:
                # Re-read the claim file at the last possible moment: a
                # peer that reclaimed this job holds a higher epoch, so a
                # stale attempt fails here and never publishes.
                return claim_matches(
                    fleet["dir"], fleet["job_key"],
                    fleet["host_id"], fleet["epoch"],
                )

        fenced_before = cache.fleet_fenced
        cache.put(
            key, result,
            meta={"workload": wl, "policy": pol, "seed": spec.seed,
                  "scale": spec.scale},
            fence=fence,
        )
        if cache.fleet_fenced > fenced_before:
            # Fenced: a peer owns this job now.  Leave the shared spool
            # snapshot alone — it is the new owner's resume point.
            child.send(("fleet_fenced", f"{wl}/{pol}"))
            return result, resumed
    try:
        snap_path.unlink()
    except OSError:
        pass
    return result, resumed
