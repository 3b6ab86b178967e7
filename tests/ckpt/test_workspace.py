"""A protocol's workspace is one array.

``alloc`` is called once; an application with several arrays takes
contiguous views of the one it got.  Self-checkpoint keeps that array at
the head of its ``A1`` SHM segment (array ‖ B2 ‖ pad), so the live
workspace is the image a checkpoint encodes and flushes, and a restarted
rank's array is the re-attached segment itself.
"""

import numpy as np
import pytest

from repro.ckpt import CheckpointManager
from repro.ckpt.manager import METHODS
from repro.sim import Cluster, FailurePlan, Job, PhaseTrigger
from tests.ckpt.conftest import assert_final_state


def _group_size(method):
    return 2 if method == "buddy" else 4


def _run(main, n_ranks=4):
    res = Job(Cluster(n_ranks), main, n_ranks, procs_per_node=1).run()
    assert res.completed, res.rank_errors
    return res


@pytest.mark.parametrize("method", METHODS)
def test_a_second_alloc_raises(method):
    def main(ctx):
        mgr = CheckpointManager(ctx, ctx.world, group_size=_group_size(method), method=method)
        mgr.alloc("a", 8)
        with pytest.raises(ValueError, match="take contiguous views") as err:
            mgr.alloc("b", 8)
        mgr.commit()
        return str(err.value)

    res = _run(main)
    assert all("\n" not in msg for msg in res.rank_results.values())


@pytest.mark.parametrize("method", METHODS)
def test_a_numpy_integer_shape_allocates(method):
    def main(ctx):
        mgr = CheckpointManager(ctx, ctx.world, group_size=_group_size(method), method=method)
        a = mgr.alloc("a", np.int64(5))
        mgr.commit()
        return a.shape

    assert set(_run(main).rank_results.values()) == {(5,)}


def test_commit_without_alloc_raises():
    def main(ctx):
        mgr = CheckpointManager(ctx, ctx.world, group_size=4, method="self")
        with pytest.raises(RuntimeError, match="alloc"):
            mgr.commit()
        return True

    _run(main)


def _views_app(method):
    """The conftest loop (6 iterations, a checkpoint every 2) over two
    views of one workspace, reporting whether the array shares memory with
    this rank's ``A1`` segment."""

    def app(ctx):
        mgr = CheckpointManager(ctx, ctx.world, group_size=4, method=method)
        ws = mgr.alloc("data", 32)
        head, tail = ws[:16], ws[16:]
        a1 = {s.name: s.array for s in ctx.node.shm}.get(mgr.impl._seg("A1"))
        mgr.commit()
        report = mgr.try_restore()
        start = report.local["it"] if report else 0
        if start == 0:
            ws[:] = 0.0
        for it in range(start, 6):
            head += ctx.world.rank + 1
            tail -= ctx.world.rank + 1
            ctx.compute(1e8)
            if (it + 1) % 2 == 0:
                mgr.local["it"] = it + 1
                mgr.checkpoint()
        return {
            "data": head.copy(),
            "tail": tail.copy(),
            "restore": report,
            "shares": a1 is not None and np.shares_memory(ws, a1),
        }

    return app


@pytest.mark.parametrize(
    "phase, source", [("ckpt.encode", "checkpoint"), ("ckpt.flush", "workspace")]
)
@pytest.mark.parametrize("method", ["self", "self-rs"])
def test_a_restarted_rank_works_in_its_reattached_segment(method, phase, source):
    """Views of the one workspace survive both restore paths, and every
    rank's array — survivor or replacement — is its ``A1`` segment."""
    app = _views_app(method)
    cluster = Cluster(4, n_spares=1)
    plan = FailurePlan([PhaseTrigger(node_id=2, phase=phase, occurrence=2)])
    job = Job(cluster, app, 4, procs_per_node=1, failure_plan=plan)
    assert job.run().aborted
    before = {s.name: s.array for s in cluster.node(0).shm}["ckpt.g0.r0.A1"]
    repl = cluster.replace_dead()
    res = Job(cluster, app, 4, ranklist=[repl.get(n, n) for n in job.ranklist]).run()
    assert_final_state(res, 4)
    for r in range(4):
        out = res.rank_results[r]
        assert out["restore"].source == source
        assert out["shares"], r
        assert np.all(out["tail"] == -6 * (r + 1))
    # rank 0's node survived: its segment was re-attached, not re-created
    assert {s.name: s.array for s in cluster.node(0).shm}["ckpt.g0.r0.A1"] is before
