"""repro.shard — the self-healing, crash-tolerant sharded campaign engine.

``repro chaos --workers N`` executes the campaign plan in-process — at
smoke scale for the same wall time as ``--shards N`` (docs/PERFORMANCE.md)
— but lose the host and the whole campaign is gone.  This package holds the
campaign engine to the same bar the paper holds recovery machinery to:
the campaign itself must survive failures *of the campaign engine*.

Pieces:

* :mod:`repro.shard.planner` — partitions the campaign plan every engine
  shares (:mod:`repro.chaos.plan`) into content-addressed shards.  Unit identity is
  the :func:`~repro.par.cache.replay_fingerprint` the memo cache already
  uses; shard identity is a digest over its member fingerprints, and the
  plan fingerprint over the shard ids — change any parameter or any
  source file and the plan no longer matches a stale queue.
* :mod:`repro.shard.queue` — a SQLite work queue (claim → run → commit)
  with lease timeouts and **fencing tokens**: a shard whose executor
  died is re-issued once its lease expires, per-unit journaling means a
  re-issued shard skips everything the dead executor already finished,
  and a zombie claimant's writes are rejected the moment its grant is
  superseded.
* :mod:`repro.shard.executor` — the worker loop: claim a shard, run each
  unjournaled unit (:func:`repro.par.replay.run_units`, like every engine),
  journal the outcome under the fencing token, keep the lease alive via
  a heartbeat thread, commit the shard.
* :mod:`repro.shard.health` — the self-healing layer: the driver-side
  :class:`~repro.shard.health.ExecutorSupervisor` (respawn dead
  executors under a backoff budget), the executor-side
  :class:`~repro.shard.health.LeaseHeartbeat`, transient-``sqlite3``
  retry, and the poison-unit quarantine policy.
* :mod:`repro.shard.faults` — the declarative infra-chaos harness
  (``REPRO_SHARD_FAULTS``): SIGKILL-grade deaths, zombie stalls, poison
  units, injected ``OperationalError``, clock skew — the torture suite
  that proves the above actually heals.
* the merge is not this package's: journaled outcomes go through the one
  :func:`repro.chaos.plan.merge_campaign` (re-exported here), so
  ``BENCH_chaos.json``, ``report.txt`` and trace-store digests are the
  serial engine's by construction.
* :mod:`repro.shard.driver` — ``repro chaos --shards N [--resume DIR]
  [--respawn N] [--salvage]``: create or reopen the queue (integrity-
  checked; salvageable when corrupt), launch supervised executors,
  wait, merge.  Killing the driver or any executor mid-campaign and
  resuming completes the campaign with byte-identical artifacts.

Replay determinism is what makes this sound: every unit is a pure
function of its fingerprint, so re-running a lost unit (or running it
twice during a lease race) produces the identical journal row — and
fencing decides which of two racing claimants' *commits* counts.
"""

from repro.shard.driver import ShardCampaignError, run_sharded_campaign
from repro.shard.executor import run_executor
from repro.shard.faults import FaultPlan, FaultSpecError, parse_faults
from repro.shard.health import (
    DEFAULT_ATTEMPTS_CAP,
    ExecutorSupervisor,
    LeaseHeartbeat,
    quarantine_outcome,
    quarantined_ords,
    retry_transient,
)
from repro.shard.planner import (
    PLAN_SCHEMA_VERSION,
    CampaignPlan,
    MatrixPlan,
    PlannedUnit,
    ShardPlan,
    merge_campaign,
    plan_campaign,
)
from repro.shard.queue import (
    QUEUE_SCHEMA_VERSION,
    Lease,
    QueueCorruptError,
    QueueMismatchError,
    ShardQueue,
)

__all__ = [
    "DEFAULT_ATTEMPTS_CAP",
    "PLAN_SCHEMA_VERSION",
    "QUEUE_SCHEMA_VERSION",
    "CampaignPlan",
    "ExecutorSupervisor",
    "FaultPlan",
    "FaultSpecError",
    "Lease",
    "LeaseHeartbeat",
    "MatrixPlan",
    "PlannedUnit",
    "QueueCorruptError",
    "QueueMismatchError",
    "ShardCampaignError",
    "ShardPlan",
    "ShardQueue",
    "merge_campaign",
    "parse_faults",
    "plan_campaign",
    "quarantine_outcome",
    "quarantined_ords",
    "retry_transient",
    "run_executor",
    "run_sharded_campaign",
]
