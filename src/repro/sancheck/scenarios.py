"""Built-in sanitizer scenarios: seeded-bug fixtures and the clean run.

Dynamic analyses need something to run.  This module provides three
deterministic, fast scenarios used both by the test suite and by the
``repro check races`` / ``repro check deadlock`` CLI commands, which treat
them as a self-test pair: the planted bug **must** be detected and the
clean run **must** come back with zero findings, or the detector itself is
broken.

* :func:`run_seeded_race` — two ranks co-resident on one node write the
  same SHM segment with no ordering message between them;
* :func:`run_seeded_deadlock` — a send/recv pair with mismatched tags
  (sender uses tag 1, receiver waits on tag 99);
* :func:`run_clean_selfckpt` — the toy self-checkpoint application
  (:mod:`repro.apps.iterative`, the paper's protocol alone) running to
  completion under any detectors handed in.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.obs.spans import SpanTracer
from repro.sancheck.deadlock import DeadlockDetector
from repro.sancheck.races import RaceDetector
from repro.sim import Cluster, Job, JobResult


def run_seeded_race(n_ranks: int = 2) -> Tuple[JobResult, RaceDetector]:
    """Deliberately racy: all ranks on one node write one SHM segment with
    no happens-before edge.  The detector must flag it."""

    def app(ctx):
        seg = ctx.shm_create("race.target", 8, exist_ok=True)
        # BUG (on purpose): sibling ranks write concurrently; nothing
        # orders these accesses
        seg.write(float(ctx.rank))
        ctx.elapse(1e-6)
        return float(seg.read()[0])

    cluster = Cluster(1)
    detector = RaceDetector(n_ranks)
    job = Job(cluster, app, n_ranks, ranklist=[0] * n_ranks)
    detector.install(job)
    result = job.run()
    return result, detector


def run_seeded_deadlock() -> Tuple[JobResult, DeadlockDetector]:
    """Deliberately deadlocked: mismatched send/recv tags.  The detector
    must report the cycle (with a stuck-tag diagnosis) and abort the job
    before the runtime's own every-rank-parked check would end it."""

    def app(ctx):
        comm = ctx.world
        ctx.phase("exchange.begin")
        if comm.rank == 0:
            comm.send(b"payload", dest=1, tag=1)
            comm.recv(source=1, tag=2)
        else:
            # BUG (on purpose): rank 0 sent tag=1, we wait on tag=99
            comm.recv(source=0, tag=99)
            comm.send(b"reply", dest=0, tag=2)
        ctx.phase("exchange.done")
        return True

    cluster = Cluster(2)
    detector = DeadlockDetector()
    job = Job(cluster, app, 2, procs_per_node=1, tracer=SpanTracer())
    detector.install(job)
    result = job.run()
    return result, detector


def run_clean_selfckpt(
    n_ranks: int = 4,
    group_size: int = 4,
    iters: int = 4,
    ckpt_every: int = 2,
    race: Optional[RaceDetector] = None,
    deadlock: Optional[DeadlockDetector] = None,
) -> Tuple[JobResult, RaceDetector, DeadlockDetector]:
    """A correct self-checkpoint run (the paper's protocol, §3) under both
    detectors; any finding here is a detector false positive — or a real
    simulator regression, which is exactly what CI wants to catch."""
    from repro.apps.iterative import IterativeConfig, iterative_main

    cfg = IterativeConfig(iters=iters, ckpt_every=ckpt_every, group_size=group_size)
    cluster = Cluster(n_ranks)
    race = race or RaceDetector(n_ranks)
    deadlock = deadlock or DeadlockDetector()
    job = Job(
        cluster,
        iterative_main,
        n_ranks,
        args=(cfg,),
        procs_per_node=1,
        tracer=SpanTracer(),
    )
    race.install(job)
    deadlock.install(job)
    result = job.run()
    return result, race, deadlock
