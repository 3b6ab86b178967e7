"""The restore preamble is written once, in ``Checkpointer.try_restore``.

Every group protocol restores through the same template — status
exchange, tolerance check, the protocol's own ``_restore_from``, and
``_fresh_reset`` when nothing was restored.  These tests run real jobs
with protocol subclasses that record each entry into the two hooks.
"""

import pytest

from repro.ckpt import (
    BuddyCheckpoint,
    CheckpointManager,
    DoubleCheckpoint,
    IncrementalCheckpoint,
    MultiLevelCheckpoint,
    SelfCheckpoint,
    SelfCheckpointRS,
    SingleCheckpoint,
)
from repro.sim import Cluster, Job, UnrecoverableError


class Recording:
    """Mixin recording each call of the restore template's hooks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def _restore_from(self, status, missing):
        self.calls.append("_restore_from")
        return super()._restore_from(status, missing)

    def _fresh_reset(self):
        self.calls.append("_fresh_reset")
        super()._fresh_reset()


class RecordingSelf(Recording, SelfCheckpoint):
    pass


class RecordingSelfRS(Recording, SelfCheckpointRS):
    pass


class RecordingSingle(Recording, SingleCheckpoint):
    pass


class RecordingDouble(Recording, DoubleCheckpoint):
    pass


class RecordingBuddy(Recording, BuddyCheckpoint):
    pass


class RecordingIncremental(Recording, IncrementalCheckpoint):
    pass


class RecordingMultiLevel(Recording, MultiLevelCheckpoint):
    pass


#: manager method -> (recording protocol, group size)
GROUP_METHODS = {
    "self": (RecordingSelf, 4),
    "self-rs": (RecordingSelfRS, 4),
    "single": (RecordingSingle, 4),
    "double": (RecordingDouble, 4),
    "buddy": (RecordingBuddy, 2),
    "incremental": (RecordingIncremental, 4),
    "multilevel": (RecordingMultiLevel, 4),
}


def make_app(method, factory, group_size):
    """Restore (or start fresh and checkpoint once); every rank returns
    the hook calls its protocol recorded and what ``try_restore`` gave."""

    def app(ctx):
        mgr = CheckpointManager(
            ctx, ctx.world, group_size=group_size, method=method, protocol_factory=factory
        )
        a = mgr.alloc("data", 16)
        mgr.commit()
        try:
            report = mgr.try_restore()
        except UnrecoverableError:
            return mgr.impl.calls, "unrecoverable"
        if report is None:
            a[:] = ctx.world.rank
            mgr.checkpoint()
        return mgr.impl.calls, report

    return app


def run(app, n_ranks, cluster, ranklist=None):
    res = Job(cluster, app, n_ranks, procs_per_node=1, ranklist=ranklist).run()
    assert res.completed, res.rank_errors
    return [res.rank_results[r] for r in range(n_ranks)]


def test_tolerance_is_checked_before_the_protocol_decides():
    """Two members of a group of 4 lost: ``self`` refuses on every rank
    and never enters ``_restore_from``."""
    app = make_app("self", RecordingSelf, 4)
    cluster = Cluster(4, n_spares=2)
    job = Job(cluster, app, 4, procs_per_node=1)
    assert job.run().completed
    cluster.fail_node(0)
    cluster.fail_node(1)
    repl = cluster.replace_dead()
    results = run(app, 4, cluster, [repl.get(n, n) for n in job.ranklist])
    assert results == [([], "unrecoverable")] * 4


@pytest.mark.parametrize("method", sorted(GROUP_METHODS))
def test_fresh_world_resets_once_and_restores_nothing(method):
    factory, group_size = GROUP_METHODS[method]
    n = 2 * group_size
    results = run(make_app(method, factory, group_size), n, Cluster(n))
    assert results == [(["_fresh_reset"], None)] * n


@pytest.mark.parametrize("method", sorted(GROUP_METHODS))
def test_restart_over_committed_state_restores_once(method):
    factory, group_size = GROUP_METHODS[method]
    n = 2 * group_size
    app = make_app(method, factory, group_size)
    cluster = Cluster(n)
    run(app, n, cluster)
    for calls, report in run(app, n, cluster):
        assert calls == ["_restore_from"]
        assert report.epoch == 1
