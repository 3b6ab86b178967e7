"""Built-in sanitizer scenarios: the seeded race and the clean run.

Dynamic analyses need something to run.  This module provides two
deterministic, fast scenarios used both by the test suite and by the
``repro check races`` CLI command, which treats them as a self-test pair:
the planted bug **must** be detected and the clean run **must** come back
with zero findings, or the detector itself is broken.

* :func:`run_seeded_race` — two ranks co-resident on one node write the
  same SHM segment with no ordering message between them;
* :func:`run_clean_selfckpt` — the toy self-checkpoint application
  (:mod:`repro.apps.iterative`, the paper's protocol alone) running to
  completion under the race detector.
"""

from __future__ import annotations

from typing import Tuple

from repro.obs.spans import SpanTracer
from repro.sancheck.races import RaceDetector
from repro.sim import Cluster, Job, JobResult


def run_seeded_race() -> Tuple[JobResult, RaceDetector]:
    """Deliberately racy: two ranks on one node write one SHM segment with
    no happens-before edge.  The detector must flag it."""

    def app(ctx):
        seg = ctx.shm_create("race.target", 8, exist_ok=True)
        # BUG (on purpose): sibling ranks write concurrently; nothing
        # orders these accesses
        seg.write(float(ctx.rank))
        ctx.elapse(1e-6)
        return float(seg.read()[0])

    cluster = Cluster(1)
    detector = RaceDetector(2)
    job = Job(cluster, app, 2, ranklist=[0, 0])
    detector.install(job)
    result = job.run()
    return result, detector


def run_clean_selfckpt() -> Tuple[JobResult, RaceDetector]:
    """A correct self-checkpoint run (the paper's protocol, §3; four ranks,
    one group, four iterations, a checkpoint every two) under the race
    detector; any finding here is a detector false positive — or a real
    simulator regression, which is exactly what CI wants to catch."""
    from repro.apps.iterative import IterativeConfig, iterative_main

    cfg = IterativeConfig(iters=4, ckpt_every=2, group_size=4)
    cluster = Cluster(4)
    race = RaceDetector(4)
    job = Job(
        cluster,
        iterative_main,
        4,
        args=(cfg,),
        procs_per_node=1,
        tracer=SpanTracer(),
    )
    race.install(job)
    result = job.run()
    return result, race
