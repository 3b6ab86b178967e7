"""Every SHM segment a protocol uses belongs to one rank.

The protocols keep each rank's copies and workspace in segments of its
own (``{prefix}.r{rank}.{kind}``) and order their phases with collectives
(paper section 3), so co-resident ranks never touch one segment and no
ordering of shared accesses needs checking.  This test holds that premise
at two ranks per node, fault-free and through one restart: a protocol
that shares a segment between ranks fails it, and so does one that names
a segment for anything but the rank that creates it (a per-node name
would be shared as soon as two ranks of one group share a node).
"""

import re
from collections import defaultdict

import pytest

from repro.chaos.campaign import run_with_triggers
from repro.chaos.scenarios import selfckpt_scenario
from repro.sim.failures import PhaseTrigger
from repro.sim.observer import SimObserver, install_observer
from repro.sim.runtime import RankContext


class SegmentUsers(SimObserver):
    """The world ranks that created, attached or unlinked each
    ``(node, segment)``, spare nodes included.

    Every create, attach and unlink is a :meth:`RankContext.shm_create` or
    :meth:`RankContext.shm_unlink` call, and neither parks, so the rank the
    last such call recorded is the one the store's event belongs to."""

    def __init__(self, monkeypatch):
        self.users = defaultdict(set)
        #: (segment name, world rank) of every create
        self.created = []
        self.rank = None
        for name in ("shm_create", "shm_unlink"):
            monkeypatch.setattr(RankContext, name, self._recording(getattr(RankContext, name)))

    def _recording(self, call):
        def wrapper(ctx, *args, **kwargs):
            self.rank = ctx.rank
            return call(ctx, *args, **kwargs)

        return wrapper

    def watch_cluster(self, cluster):
        for node in cluster.all_nodes():
            install_observer(node.shm, self)

    def on_shm(self, node_id, name, kind, nbytes=0):
        self.users[node_id, name].add(self.rank)
        if kind == "create":
            self.created.append((name, self.rank))


@pytest.mark.parametrize("method", ["self", "double", "single", "self-rs"])
@pytest.mark.parametrize("kill", [False, True], ids=["fault-free", "restart"])
def test_each_segment_has_one_rank(method, kill, monkeypatch):
    scenario = selfckpt_scenario(method=method, n_nodes=4, procs_per_node=2, group_size=4)
    triggers = [PhaseTrigger(node_id=1, phase="ckpt.done", occurrence=2)] if kill else []
    seen = SegmentUsers(monkeypatch)
    inst, _, report = run_with_triggers(scenario, triggers, observer=seen)
    assert seen.users
    shared = {key: ranks for key, ranks in seen.users.items() if len(ranks) != 1}
    assert shared == {}
    assert seen.created
    misnamed = [
        (name, rank)
        for name, rank in seen.created
        if not re.fullmatch(rf".+\.r{rank}\.[^.]+", name)
    ]
    assert misnamed == []
    assert report.completed and inst.check(report.result)
    assert report.n_restarts == kill
