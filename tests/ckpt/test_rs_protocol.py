"""Tests for the double-parity (RAID-6) extension: stripe layout, encoder
collective, and the two-failure-tolerant SelfCheckpointRS protocol."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ckpt import (
    GroupEncoder,
    available_fraction_self,
    available_fraction_self_rs,
)
from repro.ckpt.stripes import checksum_size, layout_for
from repro.ckpt.stripes_rs import (
    build_parity,
    padded_size_rs,
    reconstruct_rs,
    verify_group_rs,
)
from repro.sim import Cluster, Job, UnrecoverableError
from tests.ckpt.conftest import assert_final_state, double_loss_plan, make_app


def row_roles(row, n):
    """(P holder, Q holder, data holders in member order) of a slot row."""
    (p, q), cells = layout_for(n, 2).rows[row]
    return p, q, [j for j, _ in cells]


class TestLayout:
    def test_row_roles_cover_everyone(self):
        n = 6
        for row in range(n):
            p, q, data = row_roles(row, n)
            assert p != q
            assert sorted([p, q] + data) == list(range(n))

    def test_every_member_hosts_one_p_one_q(self):
        n = 6
        p_holders = [row_roles(r, n)[0] for r in range(n)]
        q_holders = [row_roles(r, n)[1] for r in range(n)]
        assert sorted(p_holders) == list(range(n))
        assert sorted(q_holders) == list(range(n))

    def test_data_row_bijection(self):
        n = 6
        for member in range(n):
            rows = [
                row
                for row, (_, cells) in enumerate(layout_for(n, 2).rows)
                if member in dict(cells)
            ]
            assert len(rows) == n - 2
            # the member's local stripes 0..N-3, handed out in row order
            assert [dict(layout_for(n, 2).rows[r][1])[member] for r in rows] == list(
                range(n - 2)
            )

    def test_sizes(self):
        assert padded_size_rs(1, 4) == 16
        assert checksum_size(16, 4, 2) == 16  # 2 stripes of 8
        with pytest.raises(ValueError):
            padded_size_rs(10, 3)

    @given(
        n=st.integers(min_value=4, max_value=9),
        words=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_double_loss_roundtrip_property(self, n, words, seed, data):
        x = data.draw(st.integers(min_value=0, max_value=n - 1))
        y = data.draw(st.integers(min_value=0, max_value=n - 1))
        missing = sorted({x, y})
        rng = np.random.default_rng(seed)
        size = 8 * words * (n - 2)
        bufs = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(n)]
        parity = build_parity(bufs, n)
        assert verify_group_rs(bufs, parity, n)
        surv = {j: bufs[j] for j in range(n) if j not in missing}
        sp = {j: parity[j] for j in range(n) if j not in missing}
        out = reconstruct_rs(surv, sp, missing, n)
        for m in missing:
            np.testing.assert_array_equal(out[m][0], bufs[m])
            np.testing.assert_array_equal(out[m][1][0], parity[m][0])
            np.testing.assert_array_equal(out[m][1][1], parity[m][1])

    def test_three_losses_rejected(self):
        n = 5
        bufs = [np.zeros(8 * (n - 2), np.uint8) for _ in range(n)]
        parity = build_parity(bufs, n)
        with pytest.raises(ValueError):
            reconstruct_rs(
                {0: bufs[0], 1: bufs[1]},
                {0: parity[0], 1: parity[1]},
                [2, 3, 4],
                n,
            )


class TestEncoderCollective:
    def test_encode_recover_two_members(self):
        def main(ctx):
            comm = ctx.world
            enc = GroupEncoder(comm, parity=2)
            rng = np.random.default_rng(comm.rank)
            flat = rng.integers(0, 256, 8 * (comm.size - 2) * 4, dtype=np.uint8)
            res = enc.encode(flat)
            assert res.checksum_bytes == 2 * len(flat) // (comm.size - 2)
            missing = [1, 4]
            if comm.rank in missing:
                got = enc.recover(None, None, missing)
                ref = np.random.default_rng(comm.rank).integers(
                    0, 256, len(flat), dtype=np.uint8
                )
                np.testing.assert_array_equal(got[0], ref)
                np.testing.assert_array_equal(got[1], res.checksum)
            else:
                assert enc.recover(flat, res.checksum, missing) is None
            return True

        cl = Cluster(6)
        res = Job(cl, main, 6, procs_per_node=1).run()
        assert res.completed, res.rank_errors

    def test_group_too_small(self):
        def main(ctx):
            sub = ctx.world.split(color=ctx.world.rank // 3)
            with pytest.raises(ValueError):
                GroupEncoder(sub, parity=2)
            return True

        cl = Cluster(6)
        assert Job(cl, main, 6, procs_per_node=1).run().completed

    def test_rs_encode_costs_more_than_xor(self):
        def main(ctx):
            flat = np.zeros(8 * 12 * 100, dtype=np.uint8)  # /4 and /2 aligned
            t_xor = GroupEncoder(ctx.world).encode(flat).seconds
            t_rs = GroupEncoder(ctx.world, parity=2).encode(flat).seconds
            assert t_rs > t_xor
            return True

        cl = Cluster(4)
        assert Job(cl, main, 4, procs_per_node=1).run().completed


class TestSelfCheckpointRS:
    def test_memory_model(self):
        assert available_fraction_self_rs(8) == pytest.approx(6 / 16)
        # same fraction as single-parity at half the group size
        assert available_fraction_self_rs(8) == available_fraction_self(4)
        with pytest.raises(ValueError):
            available_fraction_self_rs(3)

    def test_simultaneous_double_loss_recovers(self, cycle):
        """TWO nodes of one group die at the same instant mid-flush; the
        XOR scheme would be helpless, the RS scheme recovers."""
        app = make_app("self-rs", group_size=8)
        cluster = Cluster(8, n_spares=4)
        plan = double_loss_plan()
        job = Job(cluster, app, 8, procs_per_node=1, failure_plan=plan)
        first = job.run()
        assert first.aborted and set(first.failed_nodes) == {2, 5}
        repl = cluster.replace_dead()
        ranklist = [repl.get(n, n) for n in job.ranklist]
        second = Job(cluster, app, 8, ranklist=ranklist).run()
        assert_final_state(second, 8)
        report = second.rank_results[0]["restore"]
        assert report.source == "workspace"
        assert set(report.reconstructed) == {2, 5}

    def test_xor_scheme_dies_on_the_same_double_loss(self):
        app = make_app("self", group_size=8)
        cluster = Cluster(8, n_spares=4)
        plan = double_loss_plan()
        job = Job(cluster, app, 8, procs_per_node=1, failure_plan=plan)
        assert job.run().aborted
        repl = cluster.replace_dead()
        ranklist = [repl.get(n, n) for n in job.ranklist]
        second = Job(cluster, app, 8, ranklist=ranklist).run()
        assert not second.completed
        assert any(
            isinstance(e, UnrecoverableError)
            for e in second.rank_errors.values()
        )

    def test_single_loss_still_fine(self, cycle):
        app = make_app("self-rs", group_size=8)
        _, second = cycle(app, n_ranks=8, phase="ckpt.done", occurrence=2)
        assert_final_state(second, 8)

    def test_three_losses_unrecoverable(self):
        app = make_app("self-rs", group_size=8)
        cluster = Cluster(8, n_spares=4)
        job = Job(cluster, app, 8, procs_per_node=1)
        assert job.run().completed
        for nid in (0, 3, 6):
            cluster.fail_node(nid)
        repl = cluster.replace_dead()
        ranklist = [repl.get(n, n) for n in job.ranklist]
        res = Job(cluster, app, 8, ranklist=ranklist).run()
        assert not res.completed
        assert any(
            isinstance(e, UnrecoverableError) for e in res.rank_errors.values()
        )

    def test_overhead_accounting(self):
        app = make_app("self-rs", group_size=8, array_len=4096)
        cluster = Cluster(8)
        res = Job(cluster, app, 8, procs_per_node=1).run()
        raw = 4096 * 8 + 8 + 4096
        padded = padded_size_rs(raw, 8)
        cs = checksum_size(padded, 8, 2)
        b2 = 8 + 4096
        ctrl = 8 * 4
        assert res.rank_results[0]["overhead"] == padded + 2 * cs + b2 + ctrl
