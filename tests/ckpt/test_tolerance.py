"""Tolerance is the ``PARITY`` class constant, uniformly.

Every group-encoded protocol survives the loss of exactly ``PARITY``
members of one group between checkpoints — bit-exactly — and answers one
more loss with ``UnrecoverableError`` on every member of the struck group,
never with a completed run on wrong data.
"""

import pytest

from repro.ckpt import (
    BuddyCheckpoint,
    DoubleCheckpoint,
    IncrementalCheckpoint,
    SelfCheckpoint,
    SelfCheckpointRS,
    SingleCheckpoint,
)
from repro.sim import Cluster, Job, UnrecoverableError
from tests.ckpt.conftest import assert_final_state, make_app

N = 8
PROTOCOLS = {
    "single": (SingleCheckpoint, 4),
    "double": (DoubleCheckpoint, 4),
    "incremental": (IncrementalCheckpoint, 4),
    "self": (SelfCheckpoint, 4),
    "self-rs": (SelfCheckpointRS, 4),
    "buddy": (BuddyCheckpoint, 2),
}


def lose_members_of_group0(method, group_size, n_lost):
    """Run to completion, power off ``n_lost`` nodes of (stride) group 0,
    restart on replacements.  Returns (group 0's world ranks, the result)."""
    app = make_app(method, group_size=group_size)
    cluster = Cluster(N, n_spares=4)
    job = Job(cluster, app, N, procs_per_node=1)
    assert job.run().completed
    members = [i * (N // group_size) for i in range(group_size)]
    for node in members[:n_lost]:
        cluster.fail_node(node)
    repl = cluster.replace_dead()
    ranklist = [repl.get(n, n) for n in job.ranklist]
    return members, Job(cluster, app, N, ranklist=ranklist).run()


@pytest.mark.parametrize("method", sorted(PROTOCOLS))
def test_losing_parity_members_restores_bit_exactly(method):
    cls, group_size = PROTOCOLS[method]
    members, res = lose_members_of_group0(method, group_size, cls.PARITY)
    assert_final_state(res, N)
    for r in members:
        report = res.rank_results[r]["restore"]
        assert report.reconstructed == tuple(range(cls.PARITY))


@pytest.mark.parametrize("method", sorted(PROTOCOLS))
def test_losing_one_more_is_unrecoverable_on_every_member(method):
    cls, group_size = PROTOCOLS[method]
    members, res = lose_members_of_group0(method, group_size, cls.PARITY + 1)
    assert not res.completed
    for r in members:
        err = res.rank_errors[r]
        assert isinstance(err, UnrecoverableError), (r, err)
        assert f"lost {cls.PARITY + 1} members" in str(err)
        assert f"tolerates {cls.PARITY}" in str(err)
