"""Self-healing machinery for the shard runtime: supervision, heartbeats,
transient-failure retry, and the poison-unit quarantine policy.

The sharded engine (PR 8) gave the *application under test* crash
tolerance; this module gives it to the campaign engine itself.  Four
pieces, composed by :mod:`repro.shard.driver` and
:mod:`repro.shard.executor`:

* :class:`ExecutorSupervisor` — the driver-side nanny.  Runs at most
  ``max_alive`` executors at once and holds the other slots in reserve,
  detects dead executor processes, starts a reserve for each, respawns
  them under an exponential-backoff retry budget, degrades gracefully
  to fewer workers when a slot's budget is gone, and reports when
  nothing is left alive (the exit-3 resume path).  A clean exit (code
  0 — the queue drained) retires the slot and the reserves instead of
  burning budget.
* :class:`LeaseHeartbeat` — the executor-side keepalive.  A daemon
  thread renews the shard lease on its own queue connection every
  quarter-lease, so a unit that runs longer than ``lease_s`` is not
  re-issued mid-flight.  A renewal rejected by fencing (the shard was
  re-issued anyway — e.g. the executor was SIGSTOPped into a zombie)
  latches :attr:`LeaseHeartbeat.lost`; the executor abandons the shard
  at the next unit boundary.  The thread never touches virtual time or
  any artifact — it only writes ``lease_expires``.
* :func:`retry_transient` — jittered exponential backoff for
  ``sqlite3.OperationalError`` (``database is locked`` past
  ``busy_timeout``, disk full).  Jitter is derived from a hash, not an
  RNG, so the executor stays seed-free and simlint-clean.
* :func:`quarantine_outcome` — the synthesized ``gave-up`` journal row
  for a unit that repeatedly takes its executor down with it, carrying
  its provenance (re-issue count, cap, shard) in ``gave_up_reason``.
"""

from __future__ import annotations

import hashlib
import select
import sqlite3
import threading
import time
from typing import Any, Callable, Dict, List, Optional, TypeVar

from repro.par.replay import CRASH_VERDICT, ReplayOutcome

from repro.shard.queue import Lease, ShardQueue

T = TypeVar("T")

#: consecutive barren re-issues of a shard before its first unjournaled
#: unit is quarantined (CLI ``--attempts-cap``)
DEFAULT_ATTEMPTS_CAP = 3

#: ``gave_up_reason`` prefix marking a synthesized quarantine outcome —
#: the merge/report side greps for this to surface quarantined units
QUARANTINE_PREFIX = "quarantined:"


# -- transient-failure retry -----------------------------------------------------
def _jitter01(seed: str, attempt: int) -> float:
    """Deterministic stand-in for random jitter in [0, 1): different
    (owner, attempt) pairs decorrelate without consuming any RNG."""
    digest = hashlib.sha256(f"{seed}:{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") / 2.0**32


def retry_transient(
    fn: Callable[[], T],
    *,
    retries: int = 5,
    base_s: float = 0.05,
    cap_s: float = 1.0,
    seed: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn``, absorbing up to ``retries`` transient SQLite errors
    with jittered exponential backoff; the last error propagates."""
    attempt = 0
    while True:
        try:
            return fn()
        except sqlite3.OperationalError:
            if attempt >= retries:
                raise
            delay = min(cap_s, base_s * (2.0**attempt))
            sleep(delay * (0.5 + _jitter01(seed, attempt)))
            attempt += 1


# -- quarantine ------------------------------------------------------------------
def quarantine_outcome(
    shard_id: str, ord_: int, attempts: int, cap: int
) -> ReplayOutcome:
    """The synthesized journal row for a poison unit.  Deterministic
    text (no pids, no clocks): a resumed campaign that re-quarantines
    the same unit writes the identical row."""
    return ReplayOutcome(
        verdict=CRASH_VERDICT,
        n_restarts=0,
        makespan_s=0.0,
        gave_up_reason=(
            f"{QUARANTINE_PREFIX} unit {ord_} crashed its executor on "
            f"{attempts} consecutive re-issues of shard {shard_id[:12]} "
            f"without progress (attempts_cap={cap})"
        ),
        fired=(),
    )


def is_quarantined(outcome: ReplayOutcome) -> bool:
    return bool(
        outcome.gave_up_reason
        and outcome.gave_up_reason.startswith(QUARANTINE_PREFIX)
    )


def quarantined_ords(outcomes: Dict[int, ReplayOutcome]) -> List[int]:
    """Plan ordinals whose journal row is a synthesized poison-unit
    quarantine — surfaced explicitly after the merge: they are
    engine-degradation verdicts, not protocol verdicts."""
    return sorted(o for o, out in outcomes.items() if is_quarantined(out))


# -- executor-side lease heartbeat -----------------------------------------------
class LeaseHeartbeat:
    """Renew one lease from a daemon thread until stopped or fenced out.

    The thread owns its own SQLite connection (sqlite3 connections are
    not shareable across threads), renews every ``interval_s`` (default
    a quarter of the lease), and latches :attr:`lost` the first time a
    renewal is rejected — the fencing token was superseded, so the
    executor no longer owns the shard.  Transient SQLite errors are
    skipped, not fatal: the next tick retries, and fencing (not the
    heartbeat) is what guards correctness.
    """

    def __init__(
        self,
        queue_path: str,
        lease: Lease,
        lease_s: float,
        *,
        interval_s: Optional[float] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.queue_path = queue_path
        self.lease = lease
        self.lease_s = lease_s
        self.interval_s = (
            interval_s
            if interval_s is not None
            else max(min(lease_s / 4.0, 5.0), 0.02)
        )
        self._clock = clock
        self._stop = threading.Event()  # simlint: allow[threading] -- host-side lease keepalive; never touches virtual time
        self._lost = threading.Event()  # simlint: allow[threading] -- host-side lease keepalive; never touches virtual time
        self._thread: Optional[threading.Thread] = None

    @property
    def lost(self) -> bool:
        """True once a renewal was fence-rejected: abandon the shard."""
        return self._lost.is_set()

    def start(self) -> "LeaseHeartbeat":
        self._thread = threading.Thread(  # simlint: allow[threading] -- host-side lease keepalive; never touches virtual time
            target=self._run, name=f"lease-hb-{self.lease.shard_id[:8]}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "LeaseHeartbeat":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            with ShardQueue(self.queue_path, clock=self._clock) as queue:
                while not self._stop.wait(self.interval_s):
                    try:
                        ok = queue.renew(self.lease, self.lease_s)
                    except sqlite3.OperationalError:
                        continue  # transient; next tick retries
                    if not ok:
                        self._lost.set()
                        return
        except Exception:
            # best-effort by design: a dead heartbeat merely lets the
            # lease expire, and fencing keeps that safe
            pass


# -- driver-side executor supervision --------------------------------------------
class _Slot:
    """One executor position: a live process, a pending respawn, a
    reserve not yet started, or (none of these) retired."""

    __slots__ = ("index", "proc", "deaths", "respawn_at", "reserve")

    def __init__(self, index: int, reserve: bool) -> None:
        self.index = index
        self.proc: Optional[Any] = None
        self.deaths = 0
        self.respawn_at: Optional[float] = None
        self.reserve = reserve


class ExecutorSupervisor:
    """Keep up to ``max_alive`` of ``n_slots`` executors running against
    the queue.

    ``spawn(index)`` must return a process-like object (``is_alive()``,
    ``exitcode``, ``join()``, and ``sentinel`` for :meth:`wait`) — the
    driver passes a closure over
    ``multiprocessing.Process``; the tests pass fakes.

    Slots ``0 .. max_alive-1`` start at once (``max_alive`` defaults to
    ``n_slots``: every slot); the rest are *reserves*.  Each executor
    that exits non-zero starts the next reserve, under its own slot
    index and free of charge, so a campaign absorbs ``n_slots - 1``
    deaths however few of them run at a time.  A clean exit (code 0 —
    the queue drained) retires the slot and every reserve instead.

    ``respawn`` is the *total* budget of crash respawns across all slots
    (0 preserves the pre-supervision behaviour: a dead executor stays
    dead).  Each slot backs off exponentially — ``backoff_s *
    2**(deaths-1)``, capped — so a hard crash loop cannot hammer the
    host; the poison-unit quarantine is what actually breaks such loops.
    A due respawn waits while ``max_alive`` executors run.
    """

    def __init__(
        self,
        spawn: Callable[[int], Any],
        n_slots: int,
        *,
        max_alive: Optional[int] = None,
        respawn: int = 0,
        backoff_s: float = 0.25,
        backoff_cap_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        if max_alive is not None and max_alive < 1:
            raise ValueError(f"max_alive must be >= 1, got {max_alive}")
        if respawn < 0:
            raise ValueError(f"respawn budget must be >= 0, got {respawn}")
        self._spawn = spawn
        self._clock = clock
        self.max_alive = min(n_slots, max_alive or n_slots)
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.budget = respawn
        self.respawns = 0
        self.crashes = 0
        self._slots: List[_Slot] = [
            _Slot(i, reserve=i >= self.max_alive) for i in range(n_slots)
        ]

    def start(self) -> None:
        for slot in self._slots:
            if not slot.reserve:
                slot.proc = self._spawn(slot.index)

    def backoff_for(self, deaths: int) -> float:
        """Respawn delay after a slot's ``deaths``-th crash."""
        return min(self.backoff_cap_s, self.backoff_s * (2.0 ** (deaths - 1)))

    def poll(self) -> int:
        """Reap exits, then start owed reserves and due respawns while
        fewer than ``max_alive`` executors run; returns the live count."""
        now = self._clock()
        reaped: List[_Slot] = []
        crashed = 0
        drained = False
        for slot in self._slots:
            if slot.proc is None or slot.proc.is_alive():
                continue
            exitcode = slot.proc.exitcode
            slot.proc.join()
            slot.proc = None
            reaped.append(slot)
            if exitcode == 0:
                drained = True  # drained the queue and left cleanly — not a crash
                continue
            self.crashes += 1
            crashed += 1
            slot.deaths += 1
            if self.budget > 0:
                slot.respawn_at = now + self.backoff_for(slot.deaths)
            # else retired: degraded to fewer workers from here on
        alive = sum(slot.proc is not None for slot in self._slots)
        for slot in self._slots:
            if not slot.reserve:
                continue
            if drained:
                slot.reserve = False  # nothing left for it to absorb
            elif crashed and alive < self.max_alive:
                crashed -= 1
                slot.reserve = False
                slot.proc = self._spawn(slot.index)
                alive += 1
        for slot in self._slots:
            # a slot reaped by this poll respawns on a later one at the earliest
            if slot.respawn_at is None or now < slot.respawn_at or slot in reaped:
                continue
            if self.budget <= 0:
                slot.respawn_at = None  # another slot spent the budget
            elif alive < self.max_alive:
                self.budget -= 1
                self.respawns += 1
                slot.respawn_at = None
                slot.proc = self._spawn(slot.index)
                alive += 1
        return alive

    def wait(self, timeout: float) -> None:
        """Block until a live executor exits or ``timeout`` seconds pass,
        so the caller's next :meth:`poll` sees an exit at once instead of
        on its next tick.  With no executor running (every slot backing
        off or retired) it just sleeps ``timeout``."""
        # select.poll, not multiprocessing.connection.wait: that module
        # would add ~2.8 MiB of imports to every process that loads this one
        sentinels = [s.proc.sentinel for s in self._slots if s.proc is not None]
        if not sentinels:
            time.sleep(timeout)
            return
        poller = select.poll()
        for fd in sentinels:
            poller.register(fd, select.POLLIN)
        poller.poll(timeout * 1000.0)

    def pending_respawns(self) -> bool:
        """True while any slot is waiting out its backoff delay (or, past
        it, for a free place under ``max_alive``)."""
        return any(s.respawn_at is not None for s in self._slots)

    def exhausted(self) -> bool:
        """True when crashes happened and no respawn budget remains."""
        return self.crashes > 0 and self.budget == 0

    def join(self) -> None:
        for slot in self._slots:
            if slot.proc is not None:
                slot.proc.join()
