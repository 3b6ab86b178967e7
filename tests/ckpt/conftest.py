"""Shared fixtures for checkpoint protocol tests: a deterministic iterative
application whose state evolution is verifiable after any fail/restart cycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import CheckpointManager, MultiLevelCheckpoint, kernels
from repro.sim import Cluster, FailurePlan, Job, PhaseTrigger


def make_app(
    method: str,
    group_size: int = 4,
    iters: int = 6,
    ckpt_every: int = 2,
    array_len: int = 16,
    **mgr_kwargs,
):
    """An SPMD loop: each rank repeatedly adds (rank+1) to its array.

    After ``it`` iterations rank r's array is uniformly ``it * (r+1)`` —
    so any restored state is verifiable at a glance.  Checkpoints fire every
    ``ckpt_every`` iterations; the iteration counter rides in A2.
    """

    def app(ctx):
        mgr = CheckpointManager(
            ctx, ctx.world, group_size=group_size, method=method, **mgr_kwargs
        )
        a = mgr.alloc("data", array_len)
        mgr.commit()
        report = mgr.try_restore()
        start = report.local["it"] if report else 0
        if start == 0:
            a[:] = 0.0  # plain-memory protocols need explicit init
        for it in range(start, iters):
            a += ctx.world.rank + 1
            ctx.compute(1e8)
            if (it + 1) % ckpt_every == 0:
                mgr.local["it"] = it + 1
                mgr.checkpoint()
        impl = mgr.impl
        ckpt_seconds = getattr(impl, "total_encode_seconds", 0.0) + getattr(
            impl, "total_flush_seconds", 0.0
        )
        return {
            "data": a.copy(),
            "restore": report,
            "overhead": mgr.overhead_bytes,
            "ckpt_seconds": ckpt_seconds,
        }

    return app


def double_loss_plan():
    """Nodes 2 and 5 fail at the same instant, at node 2's 2nd ``ckpt.flush``:
    two members of one 8-wide group."""
    return FailurePlan(
        [PhaseTrigger(node_id=2, phase="ckpt.flush", occurrence=2, extra_nodes=(5,))]
    )


class MultiLevelFlushEach(MultiLevelCheckpoint):
    """The multi-level scheme with every checkpoint also written to level 2."""

    FLUSH_EVERY = 1


@pytest.fixture
def install(monkeypatch):
    """``install(min_bytes)`` sets, for the rest of the test, the stripe
    size from which the GF(2^8) folds leave the table gather for the
    bitsliced lanes: ``0`` puts every stripe on the lanes, ``1 << 62``
    every stripe on the table."""

    def _install(min_bytes):
        monkeypatch.setattr(kernels, "BITSLICE_MIN_BYTES", min_bytes)

    return _install


@pytest.fixture
def cycle():
    """Run app -> inject failure -> daemon-style restart -> rerun.

    Returns (first JobResult, second JobResult or raised error info).
    """

    def _cycle(
        app,
        n_ranks: int = 8,
        phase: str = "ckpt.done",
        occurrence: int = 1,
        fail_node: int = 2,
        n_spares: int = 2,
    ):
        cluster = Cluster(n_ranks, n_spares=n_spares)
        plan = FailurePlan(
            [PhaseTrigger(node_id=fail_node, phase=phase, occurrence=occurrence)]
        )
        job = Job(cluster, app, n_ranks, procs_per_node=1, failure_plan=plan)
        first = job.run()
        assert first.aborted, f"failure at {phase!r} never fired"
        replacements = cluster.replace_dead()
        ranklist = [replacements.get(n, n) for n in job.ranklist]
        second = Job(cluster, app, n_ranks, ranklist=ranklist).run()
        return first, second

    return _cycle


def assert_final_state(result, n_ranks: int, iters: int = 6):
    """Every rank must end with data == iters * (rank + 1)."""
    assert result.completed, {
        r: repr(e) for r, e in result.rank_errors.items()
    }
    for r in range(n_ranks):
        data = result.rank_results[r]["data"]
        expected = iters * (r + 1)
        assert np.all(data == expected), (r, data[:4], expected)
