"""Shard driver: plan → queue → supervised executors → merge.

``repro chaos --shards N`` lands here: the durable one of the campaign
pipeline's two executors (:mod:`repro.chaos.plan`).  The driver freezes
the campaign into the plan every engine shares, binds (or resumes) the
SQLite queue under the ``--out`` directory, launches N executor
processes against it under an
:class:`~repro.shard.health.ExecutorSupervisor`, and hands the journal
to the one merger when every shard is done.

Failure modes, one answer each:

* **an executor dies** — its lease expires and a surviving executor
  re-claims the shard, skipping the journaled units; with ``--respawn
  N`` the supervisor also respawns the dead slot under exponential
  backoff, so the campaign keeps its full width.  The budget spent, the
  driver degrades to fewer workers; with *nothing* left alive it exits
  3 with a resume hint.
* **a unit kills every executor that runs it** — the poison-unit
  quarantine (``--attempts-cap``) journals it as a synthesized
  ``gave-up`` outcome after the cap'th barren re-issue; the campaign
  terminates instead of crash-looping.
* **the driver dies** — the queue file holds every journaled outcome.
  Re-running with ``--resume DIR`` re-plans, verifies the plan
  fingerprint against the queue, and continues from the journal.
* **the queue file is corrupted** (torn write, disk fault) — resume
  refuses to merge it (exit 2); ``--salvage`` copies every parseable,
  fingerprint-matching journal row into a fresh queue and re-runs only
  what was lost.

Replays are deterministic, so in every recovered case the final
``BENCH_chaos.json``, ``report.txt`` and store digests are
byte-identical to an uninterrupted run — except quarantine, which is a
*documented* degradation: quarantined units surface as ``gave-up``
verdicts with a ``quarantined:`` provenance reason.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.campaign import CampaignReport
from repro.chaos.schedules import ScheduleResult

from repro.shard.executor import POLL_S, run_executor
from repro.shard.faults import FaultPlan
from repro.shard.health import DEFAULT_ATTEMPTS_CAP, ExecutorSupervisor
from repro.shard.planner import CampaignPlan, merge_campaign, plan_campaign
from repro.shard.queue import (
    QueueCorruptError,
    ShardQueue,
    integrity_problems,
    quarantine_queue_file,
    queue_path_for,
    salvage_results,
)

#: progress queries hit the contended SQLite file; throttle them to
#: about one per second regardless of how fast the liveness poll spins
PROGRESS_QUERY_EVERY_S = 1.0


class ShardCampaignError(RuntimeError):
    """The campaign could not be completed in this invocation; the queue
    remains resumable."""


def _executor_spawner(
    ctx: Any,
    queue_path: str,
    *,
    lease_s: float,
    cache_dir: Optional[str],
    attempts_cap: int,
):
    def spawn(index: int) -> Any:
        p = ctx.Process(
            target=run_executor,
            args=(queue_path, index),
            kwargs={
                "lease_s": lease_s,
                "cache_dir": cache_dir,
                "attempts_cap": attempts_cap,
            },
            daemon=False,  # executors must outlive nothing, but be killable
        )
        p.start()
        return p

    return spawn


def _prepare_queue_file(
    queue_path: str, plan: CampaignPlan, salvage: bool
) -> Optional[List[Tuple[int, str, str]]]:
    """Health-check an existing queue file before reuse.

    Returns salvaged journal rows when ``salvage`` rebuilt a corrupt (or
    suspect) queue, else None.  Without ``salvage``, a corrupt queue
    raises :class:`~repro.shard.queue.QueueCorruptError` — merging rows
    out of a damaged file would risk silently-wrong artifacts.
    """
    if not os.path.exists(queue_path):
        return None
    if salvage:
        rows = salvage_results(queue_path, plan)
        quarantine_queue_file(queue_path)
        return rows
    problems = integrity_problems(queue_path)
    if problems:
        raise QueueCorruptError(
            f"queue {queue_path} failed its integrity check "
            f"({problems[0]}); rerun with --salvage to copy every "
            "parseable journal row into a fresh queue, or start a fresh "
            "--out directory"
        )
    return None


def run_sharded_campaign(
    scenarios: Sequence[Any],
    *,
    n_shards: int,
    out_dir: str,
    lease_s: float = 60.0,
    cache_dir: Optional[str] = None,
    progress: Any = None,
    respawn: int = 0,
    respawn_backoff_s: float = 0.25,
    attempts_cap: int = DEFAULT_ATTEMPTS_CAP,
    salvage: bool = False,
    registry: Any = None,
    **plan_kw: Any,
) -> Tuple[
    CampaignPlan,
    List[CampaignReport],
    Optional[List[ScheduleResult]],
    Dict[str, int],
]:
    """Run (or resume) one sharded campaign to completion and merge it.

    ``scenarios`` is one scenario per method, in method order, and
    ``plan_kw`` (``seed``, ``obs``, ``max_occurrences``, ``random_cfg``,
    ...) the campaign as :func:`repro.chaos.plan.plan_campaign` takes it
    — what the in-process engines are given too.  The queue lives at
    ``queue_path_for(out_dir)``; when it already exists it is resumed
    (after an integrity check and the plan-fingerprint check) and only
    unjournaled units run, by one executor process per shard.
    ``respawn`` is the total budget of crash respawns the supervisor may
    spend; ``attempts_cap`` bounds barren re-issues before a poison unit
    is quarantined; ``salvage`` rebuilds a corrupt queue from its
    parseable journal rows;
    ``lease_s`` must be finite and positive (``ValueError`` otherwise).
    ``registry`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
    receives the ``shard.*`` health counters.  Returns ``(plan,
    matrices, schedules, stats)`` with ``matrices``/``schedules``
    bit-for-bit what the serial engine produces and ``stats`` carrying
    unit/shard progress plus ``respawns``/``quarantined``/
    ``fence_rejections``.

    Raises :class:`ShardCampaignError` when every executor is gone (and
    the respawn budget spent) with shards still unfinished — the queue
    keeps the journal, so rerunning with ``--resume`` continues.
    """
    if not 0 < lease_s < math.inf:
        raise ValueError(f"lease_s must be finite and > 0 seconds, got {lease_s}")
    # validate any armed fault spec *here*, where the error is readable —
    # otherwise every spawned executor would crash on it at startup and
    # the campaign would misreport an infra failure as "all workers died"
    FaultPlan.from_env(0)
    plan = plan_campaign(scenarios, n_shards=n_shards, **plan_kw)
    os.makedirs(out_dir, exist_ok=True)
    queue_path = queue_path_for(out_dir)
    salvaged = _prepare_queue_file(queue_path, plan, salvage)
    ctx = multiprocessing.get_context()
    supervisor: Optional[ExecutorSupervisor] = None
    with ShardQueue(queue_path) as queue:
        queue.populate(plan)  # fresh run or fingerprint-checked resume
        if salvaged:
            queue.restore_results(salvaged)
        n_exec = max(1, len(plan.shards))
        if progress is not None:
            progress.start(plan.n_units, n_exec)
        if not queue.all_done():
            supervisor = ExecutorSupervisor(
                _executor_spawner(
                    ctx,
                    queue_path,
                    lease_s=lease_s,
                    cache_dir=cache_dir,
                    attempts_cap=attempts_cap,
                ),
                n_exec,
                respawn=respawn,
                backoff_s=respawn_backoff_s,
            )
            supervisor.start()
            last_query = float("-inf")
            while True:
                alive = supervisor.poll()
                if alive == 0 and not supervisor.pending_respawns():
                    break
                now = time.monotonic()
                if (
                    progress is not None
                    and now - last_query >= PROGRESS_QUERY_EVERY_S
                ):
                    # liveness polls at least every POLL_S; the queue
                    # query is throttled independently so a tight poll
                    # loop does not hammer the contended SQLite file
                    last_query = now
                    stats = queue.progress()
                    progress.update(
                        stats["done_units"], stats["total_units"], 0, alive
                    )
                supervisor.wait(POLL_S)  # wakes early when an executor exits
            supervisor.join()
        stats = queue.progress()
        stats.update(queue.stats())
        stats["respawns"] = supervisor.respawns if supervisor else 0
        stats["executor_crashes"] = supervisor.crashes if supervisor else 0
        if not queue.all_done():
            exhausted = (
                " (respawn budget exhausted; raise --respawn N to let the "
                "supervisor replace crashed executors)"
                if supervisor is not None and supervisor.exhausted()
                else ""
            )
            raise ShardCampaignError(
                f"campaign incomplete: {stats['done_units']}/"
                f"{stats['total_units']} units journaled, "
                f"{stats['done_shards']}/{stats['total_shards']} shards "
                f"committed — every executor exited{exhausted}; resume with "
                f"--shards {n_shards} --resume {out_dir}"
            )
        outcomes = queue.outcomes()
    if registry is not None:
        for key, metric in (
            ("respawns", "shard.respawns"),
            ("quarantined", "shard.quarantined"),
            ("fence_rejections", "shard.fence_rejections"),
        ):
            if stats.get(key):
                registry.counter(metric).inc(stats[key])
    matrices, schedules = merge_campaign(plan, outcomes)
    if progress is not None:
        progress.finish(stats["done_units"], stats["total_units"], 0, n_exec)
    return plan, matrices, schedules, stats
