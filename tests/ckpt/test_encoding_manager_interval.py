"""Tests for the group encoder collective, the manager facade, and the
checkpoint-interval helpers."""

import time

import numpy as np
import pytest

from repro.ckpt import (
    CheckpointManager,
    GroupEncoder,
    expected_runtime,
    optimal_interval_young,
)
from repro.sim import Cluster, Job, NodeSpec


def run(main, n_ranks=4, **kw):
    cl = Cluster(n_ranks)
    res = Job(cl, main, n_ranks, procs_per_node=1, **kw).run()
    assert res.completed, res.rank_errors
    return res


class TestGroupEncoder:
    def test_encode_matches_pure_math(self):
        from repro.ckpt.stripes import build_checksums

        def main(ctx):
            comm = ctx.world
            enc = GroupEncoder(comm)
            rng = np.random.default_rng(comm.rank)
            flat = rng.integers(0, 256, 8 * 3 * 4, dtype=np.uint8)
            res = enc.encode(flat)
            return (flat, res.checksum, res.seconds)

        out = run(main)
        bufs = [out.rank_results[r][0] for r in range(4)]
        expected = build_checksums(bufs, "xor")
        for r in range(4):
            np.testing.assert_array_equal(out.rank_results[r][1], expected[r])
            assert out.rank_results[r][2] > 0

    def test_recover_collective(self):
        def main(ctx):
            comm = ctx.world
            enc = GroupEncoder(comm)
            rng = np.random.default_rng(comm.rank)
            flat = rng.integers(0, 256, 8 * 3 * 2, dtype=np.uint8)
            cs = enc.encode(flat).checksum
            # pretend rank 2 lost everything
            if comm.rank == 2:
                got = enc.recover(None, None, missing=2)
                expect = np.random.default_rng(2).integers(
                    0, 256, 8 * 3 * 2, dtype=np.uint8
                )
                np.testing.assert_array_equal(got[0], expect)
                np.testing.assert_array_equal(got[1], cs)
                return True
            assert enc.recover(flat, cs, missing=2) is None
            return True

        run(main)

    def test_mismatched_sizes_rejected(self):
        """The size check runs inside the collective, in the last arriver:
        every member must see the same ValueError at once (not one rank
        raising while its peers sit out the deadlock timeout), and the
        communicator must be usable afterwards."""

        def main(ctx):
            comm = ctx.world
            enc = GroupEncoder(comm)
            n = 8 * 3 * (2 if comm.rank == 0 else 4)
            flat = np.zeros(n, dtype=np.uint8)
            with pytest.raises(ValueError, match="disagree on flat size"):
                enc.encode(flat)
            comm.barrier()
            return "raised"

        t0 = time.monotonic()
        res = run(main)
        assert time.monotonic() - t0 < 5.0  # was the 60 s deadlock timeout
        assert res.rank_results == {r: "raised" for r in range(4)}

    def test_unaligned_buffer_rejected(self):
        def main(ctx):
            enc = GroupEncoder(ctx.world)
            with pytest.raises(ValueError):
                enc.encode(np.zeros(10, dtype=np.uint8))
            ctx.world.barrier()
            return True

        run(main)

    def test_single_root_ablation_slower(self):
        """What the encoder charges is the stripe cost, and the naive
        alternative — N whole-buffer reduces through single roots, priced
        by the ablation straight from the network model — costs more."""

        def main(ctx):
            net = ctx.world.net
            flat = np.zeros(8 * 3 * 1000, dtype=np.uint8)
            t_stripe = GroupEncoder(ctx.world).encode(flat).seconds
            assert t_stripe == net.stripe_encode_time(flat.nbytes, 4)
            assert 4 * net.single_root_encode_time(flat.nbytes, 4) > t_stripe
            return True

        run(main)

    def test_second_parity_rejects_sum(self):
        """op and parity meet in one constructor: (P, Q) parity is GF(2^8)
        arithmetic, so asking for it with op="sum" is an error naming
        both — directly and through the manager (self-rs used to drop op
        silently and run XOR)."""

        def main(ctx):
            with pytest.raises(ValueError, match=r"op='sum'.*parity=2"):
                GroupEncoder(ctx.world, op="sum", parity=2)
            with pytest.raises(ValueError, match=r"op='sum'.*parity=2"):
                CheckpointManager(
                    ctx, ctx.world, group_size=4, method="self-rs", op="sum"
                )
            return True

        run(main)

    def test_group_too_small(self):
        def main(ctx):
            sub = ctx.world.split(color=ctx.world.rank)  # singleton comms
            with pytest.raises(ValueError):
                GroupEncoder(sub)
            return True

        run(main, n_ranks=2)


class TestEncodePlans:
    """The encoder keeps the plan of the member buffers it encoded and
    reuses it only for those very arrays: every checksum equals a fresh
    ``stripes.build_parity`` of what the members held at that encode."""

    SIZE = 8 * 3 * 64  # stripe-aligned for N = 4 at m = 1 and m = 2

    def _encodes(self, parity, epochs):
        """Run ``epochs(rank)`` — the ``(flat, out)`` pairs a rank fills
        with fresh bytes and encodes, in order — and return, per rank,
        the ``(flat bytes, checksum bytes)`` of each encode."""

        def main(ctx):
            enc = GroupEncoder(ctx.world, parity=parity)
            rng = np.random.default_rng(ctx.rank)
            seen = []
            for flat, out in epochs(ctx.rank):
                flat[:] = rng.integers(0, 256, flat.size, dtype=np.uint8)
                res = enc.encode(flat, out=out)
                assert res.checksum is out
                seen.append((flat.copy(), res.checksum.copy()))
            return seen

        res = run(main)
        return [res.rank_results[r] for r in range(4)]

    def _assert_fresh(self, parity, per_rank):
        from repro.ckpt.stripes import build_parity

        for epoch in range(len(per_rank[0])):
            flats = [per_rank[r][epoch][0] for r in range(4)]
            want = build_parity(flats, parity)
            for r in range(4):
                got = per_rank[r][epoch][1]
                assert got.tobytes() == want[r].tobytes(), (parity, epoch, r)

    @pytest.mark.parametrize("parity", [1, 2])
    def test_epochs_mutate_one_set_of_buffers(self, parity):
        def epochs(rank):
            flat = np.empty(self.SIZE, dtype=np.uint8)
            out = np.empty(self.SIZE * parity // (4 - parity), dtype=np.uint8)
            return [(flat, out)] * 4

        self._assert_fresh(parity, self._encodes(parity, epochs))

    @pytest.mark.parametrize("parity", [1, 2])
    def test_double_alternates_two_slots(self, parity):
        def epochs(rank):
            cs = self.SIZE * parity // (4 - parity)
            slots = [
                (np.empty(self.SIZE, dtype=np.uint8), np.empty(cs, dtype=np.uint8))
                for _ in range(2)
            ]
            return [slots[e % 2] for e in range(5)]

        self._assert_fresh(parity, self._encodes(parity, epochs))

    @pytest.mark.parametrize("swapped", ["flat", "out"])
    def test_one_member_swaps_in_a_same_sized_array(self, swapped):
        """Member 2 hands in a different array of the same size for one
        epoch, then its own again: neither call may meet the other's
        plan."""

        def epochs(rank):
            cs = self.SIZE // 3
            flat = np.empty(self.SIZE, dtype=np.uint8)
            out = np.empty(cs, dtype=np.uint8)
            other = np.empty(self.SIZE if swapped == "flat" else cs, dtype=np.uint8)
            swap = (other, out) if swapped == "flat" else (flat, other)
            own = (flat, out)
            return [own, own, swap if rank == 2 else own, own]

        self._assert_fresh(1, self._encodes(1, epochs))

    @pytest.mark.parametrize("method", ["self", "self-rs", "double"])
    def test_a_group_builds_one_plan_per_set_of_buffers(self, monkeypatch, method):
        """A ``ckpt_tiny``-shaped job (4 KiB per rank, two ranks per node,
        groups of 4) whose last arriver at each encode rotates through
        the group: the group keeps one plan per set of member buffers
        whichever member runs the encode, and every checksum equals a
        fresh ``build_parity`` of what the members held."""
        from repro.ckpt import stripes

        init, run_plan = stripes.EncodePlan.__init__, stripes.EncodePlan.run
        built = {}  # every plan an encoder built -> its (parity, op)
        runs = []
        reference = []  # non-empty while the spy runs build_parity

        def spy_init(plan, buffers, outs, parity=1, op="xor"):
            init(plan, buffers, outs, parity, op)
            if not reference:
                built[plan] = (parity, op)

        def spy_run(plan):
            run_plan(plan)
            if reference:
                return
            runs.append(plan)
            reference.append(plan)
            try:
                want = stripes.build_parity(list(plan.buffers), *built[plan])
            finally:
                reference.pop()
            for r, out in enumerate(plan.outs):
                assert out.tobytes() == want[r].tobytes(), (method, r)

        def main(ctx):
            mgr = CheckpointManager(ctx, ctx.world, group_size=4, method=method)
            arr = mgr.alloc("data", 512)
            mgr.commit()
            arr[:] = ctx.rank
            for it in range(8):
                arr += ctx.rank + 1
                late = it % 4 == mgr.group.rank
                ctx.elapse(1.5 if late else 1.0)
                mgr.checkpoint()
            return arr

        monkeypatch.setattr(stripes.EncodePlan, "__init__", spy_init)
        monkeypatch.setattr(stripes.EncodePlan, "run", spy_run)
        res = Job(Cluster(4, NodeSpec(cores=2)), main, 8, procs_per_node=2).run()
        assert res.completed, res.rank_errors
        sets = {tuple(map(id, plan.buffers)) for plan in built}
        assert len(runs) == 2 * 8
        assert len(built) == len(sets) == (4 if method == "double" else 2), method

    def test_steady_state_encode_allocates_no_scratch(self):
        """The second encode of one ``self-rs`` group at a lanes-size
        stripe runs the kept plan: its Q folds share the plan's one
        stripe of scratch, so the encode's peak stays below a stripe
        (allocating a stripe per row, as a fresh fold does, would not)."""
        import tracemalloc

        from repro.ckpt import kernels

        size = 8 * 2 * 1024  # N = 4, m = 2: two data stripes of 8 KiB
        stripe = size // 2
        assert stripe >= kernels.BITSLICE_MIN_BYTES

        def main(ctx):
            enc = GroupEncoder(ctx.world, parity=2)
            flat = np.random.default_rng(ctx.rank).integers(0, 256, size, dtype=np.uint8)
            out = np.empty(2 * stripe, dtype=np.uint8)
            enc.encode(flat, out=out)
            ctx.world.barrier()
            if ctx.rank == 0:
                # the collective completes only once rank 0 is in it,
                # so the last arriver's folds run inside the trace
                tracemalloc.start()
            enc.encode(flat, out=out)
            if ctx.rank == 0:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                return peak
            return None

        peak = run(main).rank_results[0]
        assert peak < stripe, (peak, stripe)


class TestManager:
    def test_unknown_method_rejected(self):
        def main(ctx):
            with pytest.raises(ValueError):
                CheckpointManager(ctx, ctx.world, method="quantum")
            return True

        run(main, n_ranks=2)

    def test_group_layout_respects_strategy(self):
        def main(ctx):
            mgr = CheckpointManager(
                ctx, ctx.world, group_size=2, method="self", strategy="stride"
            )
            assert mgr.group_layout.groups == ((0, 2), (1, 3))
            assert mgr.group.size == 2
            mgr.alloc("x", 4)
            mgr.commit()
            return True

        run(main)

    def test_disk_method_has_no_group(self):
        def main(ctx):
            mgr = CheckpointManager(ctx, ctx.world, method="disk-ssd")
            assert mgr.group is None and mgr.group_layout is None
            return True

        run(main, n_ranks=2)


class TestWorldScale:
    """Per-rank host work is O(group): the world is partitioned and its
    restore-time status summarized once, not once per rank."""

    def test_a_job_partitions_its_world_once(self, monkeypatch):
        from repro.apps.iterative import IterativeConfig, iterative_answer_ok, iterative_main
        from repro.ckpt import manager

        calls = []
        real = manager.partition_groups
        monkeypatch.setattr(
            manager, "partition_groups", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        cfg = IterativeConfig(iters=2, ckpt_every=2, group_size=4)
        res = Job(Cluster(16), iterative_main, 64, args=(cfg,), procs_per_node=4).run()
        assert res.completed and iterative_answer_ok(cfg, res.rank_results, 64)
        assert calls == [(64, 4)]

    def test_every_rank_reads_one_world_status_after_a_node_loss(self):
        from repro.hpl.daemon import JobDaemon
        from repro.sim import FailurePlan, PhaseTrigger

        def main(ctx):
            mgr = CheckpointManager(ctx, ctx.world, group_size=4, method="self")
            a = mgr.alloc("data", 8)
            mgr.commit()
            status = mgr.impl._exchange_status()
            report = mgr.try_restore()
            for it in range(report.local["it"] if report else 0, 4):
                a += 1
                ctx.elapse(1.0)
                if (it + 1) % 2 == 0:
                    mgr.local["it"] = it + 1
                    mgr.checkpoint()
            return status

        # node 1 holds ranks 2 and 3; it dies as rank 2 begins epoch 2
        plan = FailurePlan([PhaseTrigger(node_id=1, phase="ckpt.begin", occurrence=2, rank=2)])
        rep = JobDaemon(
            Cluster(4, n_spares=1), main, 8, procs_per_node=2, failure_plan=plan
        ).run()
        assert rep.completed and rep.n_restarts == 1
        statuses = list(rep.result.rank_results.values())
        assert all(s is statuses[0] for s in statuses)
        assert statuses[0].lost == {2, 3}
        assert statuses[0].epochs == ((1, 1, 1),)


class TestInterval:
    def test_young_formula(self):
        assert optimal_interval_young(10.0, 3600.0) == pytest.approx(
            (2 * 10 * 3600) ** 0.5
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_interval_young(0, 100)
        with pytest.raises(ValueError):
            expected_runtime(0, 1, 1, 1, 1)

    def test_restart_zero_allowed(self):
        # in-memory restart can be effectively free; only negative is invalid
        assert expected_runtime(100.0, 1.0, 10.0, 1000.0, 0.0) > 100.0
        with pytest.raises(ValueError, match="restart_s"):
            expected_runtime(100.0, 1.0, 10.0, 1000.0, -1.0)

    def test_lost_work_clamped_to_total_work(self):
        """An interval longer than the job cannot lose more than the job:
        the per-failure lost-work term saturates at work/2, so stretching
        the interval further must not keep inflating the estimate."""
        work, delta, mtbf, restart = 100.0, 1.0, 200.0, 5.0
        r_long = expected_runtime(work, delta, work * 10, mtbf, restart)
        r_longer = expected_runtime(work, delta, work * 1000, mtbf, restart)
        assert r_long == pytest.approx(r_longer)
        base = work + delta  # one checkpoint at interval >= work
        lost = base / mtbf * (work / 2.0 + delta + restart)
        assert r_long == pytest.approx(base + lost)

    def test_expected_runtime_minimized_near_optimum(self):
        """The Young interval should beat much shorter and longer ones."""
        work, delta, mtbf, restart = 36000.0, 10.0, 3600.0, 60.0
        t_opt = optimal_interval_young(delta, mtbf)
        r_opt = expected_runtime(work, delta, t_opt, mtbf, restart)
        r_short = expected_runtime(work, delta, t_opt / 20, mtbf, restart)
        r_long = expected_runtime(work, delta, t_opt * 20, mtbf, restart)
        assert r_opt < r_short and r_opt < r_long
