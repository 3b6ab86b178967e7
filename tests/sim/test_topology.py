"""Tests for rack topology, correlated rack failures, and the rack-spread
group mapping (the paper's §3.3 future-work exploration)."""

import numpy as np
import pytest

from repro.ckpt import CheckpointManager, partition_groups
from repro.sim import Cluster, Job, SimError, Topology, UnrecoverableError, fail_rack


@pytest.fixture
def topo():
    return Topology(nodes_per_rack=4)


class TestTopology:
    def test_rack_of(self, topo):
        assert [topo.rack_of(i) for i in (0, 3, 4, 11)] == [0, 0, 1, 2]

    def test_nodes_in_rack_clipped(self, topo):
        assert topo.nodes_in_rack(1, n_nodes=6) == [4, 5]

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(nodes_per_rack=0)
        with pytest.raises(ValueError):
            Topology(nodes_per_rack=4, inter_rack_bw_factor=0.0)

    def test_max_members_in_one_rack(self, topo):
        ranklist = list(range(8))
        assert topo.max_members_in_one_rack([0, 1, 2, 3], ranklist) == 4
        assert topo.max_members_in_one_rack([0, 1, 4, 5], ranklist) == 2

    def test_encode_bw_factor_bounds(self, topo):
        ranklist = list(range(8))
        intra = topo.encode_bw_factor([0, 1, 2, 3], ranklist)
        spread = topo.encode_bw_factor([0, 4], ranklist)
        assert intra == 1.0  # all in one rack: full port speed
        assert spread == pytest.approx(topo.inter_rack_bw_factor)
        mixed = topo.encode_bw_factor([0, 1, 4, 5], ranklist)
        assert spread < mixed < intra


class TestRackFailure:
    def test_kills_whole_rack(self, topo):
        cluster = Cluster(8)
        victims = fail_rack(cluster, topo, rack=1)
        assert victims == [4, 5, 6, 7]
        assert cluster.dead_nodes() == [4, 5, 6, 7]
        assert all(cluster.node(i).alive for i in range(4))

    def test_empty_rack_rejected(self, topo):
        cluster = Cluster(8)
        fail_rack(cluster, topo, rack=0)
        with pytest.raises(SimError):
            fail_rack(cluster, topo, rack=0)


class TestRackSpreadMapping:
    def test_groups_cross_racks(self, topo):
        ranklist = list(range(8))
        layout = partition_groups(
            8, 2, strategy="rack-spread", ranklist=ranklist, topology=topo
        )
        for group in layout.groups:
            assert topo.max_members_in_one_rack(group, ranklist) == 1

    def test_needs_topology(self):
        with pytest.raises(ValueError, match="topology"):
            partition_groups(8, 2, strategy="rack-spread", ranklist=list(range(8)))

    def test_covers_all_ranks(self, topo):
        layout = partition_groups(
            16, 4, strategy="rack-spread", ranklist=list(range(16)), topology=topo
        )
        assert sorted(r for g in layout.groups for r in g) == list(range(16))

    def test_rack_loss_survival_vs_block_mapping(self, topo):
        """The paper's trade-off, demonstrated live: after a whole-rack
        power-off, rack-spread groups recover; block groups (which
        co-locate a group inside one rack) are unrecoverable."""

        def make_app(strategy):
            def app(ctx):
                mgr = CheckpointManager(
                    ctx,
                    ctx.world,
                    group_size=2,
                    method="self",
                    strategy=strategy,
                    topology=topo,
                )
                a = mgr.alloc("d", 16)
                mgr.commit()
                rep = mgr.try_restore()
                start = rep.local["it"] if rep else 0
                for it in range(start, 4):
                    a += ctx.world.rank + 1
                    if (it + 1) % 2 == 0:
                        mgr.local["it"] = it + 1
                        mgr.checkpoint()
                return a.copy()

            return app

        # rack-spread: every pair spans racks -> a whole-rack loss takes at
        # most one member per group -> recoverable
        cluster = Cluster(8, n_spares=4)
        job = Job(cluster, make_app("rack-spread"), 8, procs_per_node=1)
        assert job.run().completed
        fail_rack(cluster, topo, rack=0)  # nodes 0-3 die together
        repl = cluster.replace_dead()
        ranklist = [repl.get(n, n) for n in job.ranklist]
        res = Job(cluster, make_app("rack-spread"), 8, ranklist=ranklist).run()
        assert res.completed, res.rank_errors
        for r in range(8):
            assert np.all(res.rank_results[r] == 4 * (r + 1))

        # block mapping: pairs (0,1),(2,3)... co-located in rack 0 -> fatal
        cluster = Cluster(8, n_spares=4)
        job = Job(cluster, make_app("block"), 8, procs_per_node=1)
        assert job.run().completed
        fail_rack(cluster, topo, rack=0)
        repl = cluster.replace_dead()
        ranklist = [repl.get(n, n) for n in job.ranklist]
        res = Job(cluster, make_app("block"), 8, ranklist=ranklist).run()
        assert not res.completed
        assert any(
            isinstance(e, UnrecoverableError) for e in res.rank_errors.values()
        )
