"""Shard executor: the worker loop one process runs against the queue.

An executor needs only the queue path.  It claims a shard, replays every
unit that isn't journaled yet (so a re-issued shard skips the dead
executor's finished work), journals each outcome the moment it exists,
keeps its lease alive, and commits the shard when the last unit is
down.  It keeps claiming until the queue reports every shard done —
including shards re-issued from *other* executors' expired leases,
which is what lets a campaign finish even when all but one worker die.

Self-healing behaviours layered on the basic loop:

* **fencing** — every claim carries a fencing token
  (:class:`~repro.shard.queue.Lease`); journal writes and the shard
  commit present it and are *rejected* when the token was superseded.
  A zombie executor (stalled past its lease, then revived) therefore
  abandons the shard at the first rejected write instead of corrupting
  the re-issued claimant's work.
* **lease heartbeat** — a :class:`~repro.shard.health.LeaseHeartbeat`
  thread renews the lease every quarter-lease, so one unit running
  longer than ``lease_s`` is not re-issued mid-flight.
* **poison-unit quarantine** — a shard re-issued ``attempts_cap`` times
  without journal progress has its first unjournaled unit journaled as
  a synthesized ``gave-up`` outcome
  (:func:`~repro.shard.health.quarantine_outcome`) instead of being run
  again: one pathological replay can no longer crash-loop the campaign.
* **transient-failure retry** — every queue operation is wrapped in
  :func:`~repro.shard.health.retry_transient`, absorbing ``database is
  locked``-class ``sqlite3.OperationalError`` with jittered backoff.

Units run through the one unit runner every engine shares
(:func:`repro.par.replay.run_units`): cache lookup, replay, and a replay
that raises becomes a ``gave-up`` :func:`~repro.par.replay.crash_outcome`
journal row, never a lost campaign.

Fault injection for the torture harness lives in
:mod:`repro.shard.faults`: the declarative ``REPRO_SHARD_FAULTS`` spec
(SIGKILL-grade deaths, zombie stalls, poison units, injected
``OperationalError``, clock skew).  A ``kill`` hard-exits (``os._exit``)
after journaling K units — a real SIGKILL-grade death: no commit, lease
left dangling, WAL mid-flight.
"""

from __future__ import annotations

import math
import os
import time
from typing import Optional

from repro.par.cache import MemoCache
from repro.par.replay import run_units

from repro.shard.faults import FaultPlan
from repro.shard.health import (
    DEFAULT_ATTEMPTS_CAP,
    LeaseHeartbeat,
    quarantine_outcome,
    retry_transient,
)
from repro.shard.queue import Lease, ShardQueue

#: seconds an executor with nothing to claim (and the driver's liveness
#: loop) sleeps between polls
POLL_S = 0.05


def run_executor(
    queue_path: str,
    worker_index: int,
    *,
    lease_s: float = 60.0,
    cache_dir: Optional[str] = None,
    attempts_cap: int = DEFAULT_ATTEMPTS_CAP,
) -> int:
    """Drain the queue at ``queue_path``; returns units this worker ran.

    Spawned by the driver as an independent process, but also callable
    inline (the tests drive single executors through crash/resume
    scenarios this way).  Lease rows name their claimant by a
    per-process identity.  ``attempts_cap`` bounds how often a barren
    shard is re-issued before its first unjournaled unit is quarantined.
    ``lease_s`` must be finite and positive: a lease that expires at
    grant is stolen before its first journal write, and healthy units
    end up quarantined; a NaN lease fences out healthy writes, and an
    infinite one never re-issues a crashed executor's shard.
    """
    if not 0 < lease_s < math.inf:
        raise ValueError(f"lease_s must be finite and > 0 seconds, got {lease_s}")
    owner = f"exec{worker_index}.pid{os.getpid()}"
    faults = FaultPlan.from_env(worker_index)
    if faults.clock_offset_s:
        offset = faults.clock_offset_s
        clock = lambda: time.time() + offset  # noqa: E731
    else:
        clock = time.time
    cache = MemoCache(cache_dir) if cache_dir else None
    executed = 0

    def _q(fn):
        return retry_transient(fn, seed=owner)

    with ShardQueue(
        queue_path, clock=clock, fault_hook=faults.queue_hook
    ) as queue:
        while not _q(queue.all_done):
            lease = _q(lambda: queue.claim(owner, lease_s))
            if lease is None:
                # every remaining shard is live-leased elsewhere; linger
                # in case one of those leases expires
                time.sleep(POLL_S)
                continue
            executed += _drain_shard(
                queue, queue_path, lease, lease_s,
                cache=cache, faults=faults, attempts_cap=attempts_cap,
                executed_before=executed, owner=owner,
            )
    return executed


def _drain_shard(
    queue: ShardQueue,
    queue_path: str,
    lease: Lease,
    lease_s: float,
    *,
    cache: Optional[MemoCache],
    faults: FaultPlan,
    attempts_cap: int,
    executed_before: int,
    owner: str,
) -> int:
    """Run one claimed shard to its commit (or abandon it when fenced
    out); returns the number of units this call replayed."""

    def _q(fn):
        return retry_transient(fn, seed=owner)

    ran = 0
    hb: Optional[LeaseHeartbeat] = LeaseHeartbeat(
        queue_path, lease, lease_s, clock=queue.clock
    ).start()
    try:
        if attempts_cap > 0 and lease.attempts >= attempts_cap:
            victim = _q(lambda: queue.first_unjournaled(lease.shard_id))
            if victim is not None:
                ord_, fingerprint = victim
                outcome = quarantine_outcome(
                    lease.shard_id, ord_, lease.attempts, attempts_cap
                )
                if not _q(
                    lambda: queue.record_quarantine(
                        ord_, fingerprint, outcome, lease
                    )
                ):
                    return ran  # fenced out — someone else owns the shard
        for ord_, fingerprint, spec in _q(
            lambda: queue.shard_units(lease.shard_id)
        ):
            if hb is not None and hb.lost:
                return ran  # lease was re-issued; stop touching the shard
            if _q(lambda: queue.has_result(ord_)):
                continue  # journaled by a previous (dead) claimant
            faults.check_poison(ord_)
            (outcome,) = run_units([spec], cache=cache)
            if not _q(lambda: queue.record(ord_, fingerprint, outcome, lease)):
                return ran  # zombie write rejected: abandon the shard
            ran += 1
            faults.check_kill(executed_before + ran)
            stall = faults.zombie_stall(executed_before + ran)
            if stall is not None:
                # a real SIGSTOP freezes the heartbeat thread with the
                # process, so the simulated zombie suspends it too: the
                # lease expires mid-stall, the shard is re-issued, and
                # every write after revival must be fence-rejected
                if hb is not None:
                    hb.stop()
                    hb = None
                faults.sleep(stall)
            if hb is None and not _q(lambda: queue.renew(lease, lease_s)):
                return ran
        _q(lambda: queue.commit_shard(lease))
    finally:
        if hb is not None:
            hb.stop()
    return ran
