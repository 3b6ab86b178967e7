"""Declarative infra-chaos faults for the shard runtime itself.

The chaos engine attacks the *application*; this module attacks the
*campaign engine* — the torture harness that proves the shard runtime
self-heals.  Faults are declared in the ``REPRO_SHARD_FAULTS``
environment variable (inherited by every executor the driver spawns) as
semicolon-separated clauses::

    kill:after=2,worker=0          # SIGKILL-grade os._exit after 2 journaled units
    zombie:after=1,worker=1,stall=2.0   # stall past the lease, then keep writing
    poison:ord=5                   # unit 5 hard-kills whichever executor runs it
    busy:ops=3                     # first 3 queue ops raise OperationalError
    skew:delta=-30,worker=2        # worker 2's queue clock runs 30s behind

Each clause is ``kind:key=val[,key=val...]``; ``worker`` selects one
executor index (default: all of them).  Malformed specs raise
:class:`FaultSpecError` naming the variable — a typo in a chaos spec
must never look like a passing campaign.

The retired hooks ``REPRO_SHARD_DIE_AFTER``/``REPRO_SHARD_DIE_WORKER``
are rejected the same way: a stale CI environment that still sets them
gets a :class:`FaultSpecError` naming the ``kill:`` clause to use.

Fault classes and what they prove:

* ``kill`` — the re-issue path: an expired lease is claimed by a
  survivor (or a respawned executor) which skips the journaled prefix.
* ``zombie`` — fencing: the stalled executor revives after its lease
  was re-issued and every one of its writes is rejected, not silently
  accepted.
* ``poison`` — quarantine: a unit that kills every executor that runs
  it is journaled as a synthesized ``gave-up`` outcome after
  ``attempts_cap`` barren re-issues instead of crash-looping forever.
* ``busy`` — transient-failure retry: injected
  ``sqlite3.OperationalError`` (the shape of ``database is locked``
  past ``busy_timeout``, or a full disk) is absorbed by jittered
  backoff, never surfaced as a campaign failure.
* ``skew`` — lease arithmetic under a wrong clock: fencing keeps a
  skewed executor's stale grants out of the journal, and artifacts stay
  byte-identical.
"""

from __future__ import annotations

import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: env var holding the declarative fault spec
FAULTS_ENV = "REPRO_SHARD_FAULTS"

#: retired single-fault hooks; setting either is an error (see from_env)
_RETIRED_ENVS = ("REPRO_SHARD_DIE_AFTER", "REPRO_SHARD_DIE_WORKER")

#: ``os._exit`` code of a fault-injected death, so tests can tell a
#: simulated crash from a real one
DIE_EXIT_CODE = 86
#: ``os._exit`` code of a poison-unit death (distinct from ``kill`` so
#: the torture tests can assert *which* fault felled an executor)
POISON_EXIT_CODE = 87

KIND_KILL = "kill"
KIND_ZOMBIE = "zombie"
KIND_POISON = "poison"
KIND_BUSY = "busy"
KIND_SKEW = "skew"

_KINDS = (KIND_KILL, KIND_ZOMBIE, KIND_POISON, KIND_BUSY, KIND_SKEW)


class FaultSpecError(ValueError):
    """A malformed fault spec (bad clause grammar, bad value, unknown
    kind/key) — always names the environment variable at fault."""


@dataclass(frozen=True)
class Fault:
    """One parsed fault clause."""

    kind: str
    #: units journaled in-process before the fault fires (kill/zombie)
    after: int = 0
    #: executor index the fault targets; None = every executor
    worker: Optional[int] = None
    #: how long a zombie stalls (seconds past its lease)
    stall_s: float = 0.0
    #: plan ordinal a poison fault hard-kills the executor on
    ord: int = -1
    #: how many queue operations raise injected OperationalError
    ops: int = 0
    #: queue-clock offset of a skewed executor (seconds, signed)
    delta_s: float = 0.0

    def targets(self, worker_index: int) -> bool:
        return self.worker is None or self.worker == worker_index


def _bad(raw: str, why: str) -> FaultSpecError:
    return FaultSpecError(f"invalid {FAULTS_ENV}={raw!r}: {why}")


def _parse_worker(raw: str, value: str) -> Optional[int]:
    if value == "all":
        return None
    try:
        worker = int(value)
    except ValueError:
        raise _bad(raw, f"worker must be an integer or 'all', got {value!r}") from None
    if worker < 0:
        raise _bad(raw, f"worker must be >= 0, got {worker}")
    return worker


def _clause_fields(raw: str, clause: str) -> Tuple[str, Dict[str, str]]:
    head, _, tail = clause.partition(":")
    kind = head.strip()
    if kind not in _KINDS:
        raise _bad(raw, f"unknown fault kind {kind!r}; choose from {_KINDS}")
    fields: Dict[str, str] = {}
    if tail.strip():
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip() or not value.strip():
                raise _bad(raw, f"expected key=value, got {item!r}")
            fields[key.strip()] = value.strip()
    return kind, fields


def _take(raw: str, fields: Dict[str, str], key: str, conv, *, required=False, default=None):
    if key not in fields:
        if required:
            raise _bad(raw, f"fault requires {key}=...")
        return default
    value = fields.pop(key)
    try:
        return conv(value)
    except (TypeError, ValueError):
        raise _bad(raw, f"bad value for {key}: {value!r}") from None


def parse_faults(raw: Optional[str]) -> List[Fault]:
    """Parse a ``REPRO_SHARD_FAULTS`` spec string (None/empty → no faults)."""
    if not raw or not raw.strip():
        return []
    faults: List[Fault] = []
    for clause in raw.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, fields = _clause_fields(raw, clause)
        worker = (
            _parse_worker(raw, fields.pop("worker"))
            if "worker" in fields
            else None
        )
        if kind == KIND_KILL:
            after = _take(raw, fields, "after", int, required=True)
            if after < 1:
                raise _bad(raw, f"kill needs after >= 1, got {after}")
            fault = Fault(kind=kind, after=after, worker=worker)
        elif kind == KIND_ZOMBIE:
            after = _take(raw, fields, "after", int, required=True)
            stall = _take(raw, fields, "stall", float, required=True)
            if after < 1:
                raise _bad(raw, f"zombie needs after >= 1, got {after}")
            if stall <= 0:
                raise _bad(raw, f"zombie needs stall > 0, got {stall}")
            fault = Fault(kind=kind, after=after, stall_s=stall, worker=worker)
        elif kind == KIND_POISON:
            ord_ = _take(raw, fields, "ord", int, required=True)
            if ord_ < 0:
                raise _bad(raw, f"poison needs ord >= 0, got {ord_}")
            fault = Fault(kind=kind, ord=ord_, worker=worker)
        elif kind == KIND_BUSY:
            ops = _take(raw, fields, "ops", int, required=True)
            if ops < 1:
                raise _bad(raw, f"busy needs ops >= 1, got {ops}")
            fault = Fault(kind=kind, ops=ops, worker=worker)
        else:  # KIND_SKEW
            delta = _take(raw, fields, "delta", float, required=True)
            if delta == 0:
                raise _bad(raw, "skew needs a nonzero delta")
            fault = Fault(kind=kind, delta_s=delta, worker=worker)
        if fields:
            raise _bad(raw, f"unknown key(s) for {kind}: {', '.join(sorted(fields))}")
        faults.append(fault)
    return faults


class FaultPlan:
    """The faults one executor process arms, with their runtime state.

    Hook points, called by :func:`repro.shard.executor.run_executor`:

    * :meth:`queue_hook` — installed as the queue's ``fault_hook``;
      raises injected ``OperationalError`` while the busy budget lasts.
    * :meth:`check_poison` — before running a unit; hard-exits on a
      poisoned ordinal (the crash fires *before* the journal write, so
      the unit is barren on every re-issue — the quarantine signature).
    * :meth:`check_kill` — after each journaled unit; ``kill``
      hard-exits once the count is reached.
    * :meth:`zombie_stall` — after each journaled unit; returns the
      stall duration the first time a ``zombie`` fault trips (the
      executor suspends its heartbeat — a SIGSTOP freezes that thread
      too — sleeps past the lease, then keeps (vainly) writing).
    * :attr:`clock_offset_s` — summed skew applied to the executor's
      queue clock.
    """

    def __init__(
        self,
        faults: List[Fault],
        worker_index: int,
        *,
        sleep: Callable[[float], None] = time.sleep,
        hard_exit: Callable[[int], None] = os._exit,  # type: ignore[assignment]
    ) -> None:
        self.faults = [f for f in faults if f.targets(worker_index)]
        self._sleep = sleep
        self._hard_exit = hard_exit
        self._busy_left = sum(f.ops for f in self.faults if f.kind == KIND_BUSY)
        self._zombie_fired = False
        self._poison_ords = {
            f.ord for f in self.faults if f.kind == KIND_POISON
        }
        self.clock_offset_s = sum(
            f.delta_s for f in self.faults if f.kind == KIND_SKEW
        )

    @classmethod
    def from_env(
        cls, worker_index: int, environ: Optional[Dict[str, str]] = None, **kw
    ) -> "FaultPlan":
        env = os.environ if environ is None else environ
        for retired in _RETIRED_ENVS:
            if retired in env:
                raise FaultSpecError(
                    f"{retired} is no longer supported; use "
                    f'{FAULTS_ENV}="kill:after=K,worker=W" instead'
                )
        return cls(parse_faults(env.get(FAULTS_ENV)), worker_index, **kw)

    def queue_hook(self, op: str) -> None:
        if self._busy_left > 0:
            self._busy_left -= 1
            raise sqlite3.OperationalError(
                f"database is locked (injected by {FAULTS_ENV} busy fault, "
                f"op={op}, {self._busy_left} left)"
            )

    def check_poison(self, ord_: int) -> None:
        if ord_ in self._poison_ords:
            self._hard_exit(POISON_EXIT_CODE)

    def check_kill(self, executed: int) -> None:
        for fault in self.faults:
            if fault.kind == KIND_KILL and executed >= fault.after:
                self._hard_exit(DIE_EXIT_CODE)

    def zombie_stall(self, executed: int) -> Optional[float]:
        """Stall duration when a zombie fault trips now (fires once)."""
        for fault in self.faults:
            if (
                fault.kind == KIND_ZOMBIE
                and not self._zombie_fired
                and executed >= fault.after
            ):
                self._zombie_fired = True
                return fault.stall_s
        return None

    def sleep(self, seconds: float) -> None:
        self._sleep(seconds)
