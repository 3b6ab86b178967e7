"""How many times a checkpoint moves each protected byte.

The paper prices a self-checkpoint (Fig. 5) as one group reduce into
``D`` plus one flush, and a double checkpoint as one copy plus one encode
per slot.  These tests pin the host side of that accounting:

* the group encode writes its parity straight into each member's checksum
  segment (``GroupEncoder.encode(out=)``), byte-equal to the allocating
  path;
* one group checkpoint allocates nothing checkpoint-sized (``self``: its
  workspace is the image it encodes and flushes; ``double``: it packs
  into its dirty slot), or only the GF(2^8) fold scratch (``self-rs``);
* a restore's rebuild collective reads the survivors' segments in place
  and leaves them byte-identical;
* the P fold and the level-2 image of the multi-level scheme stay right.
"""

import tracemalloc

import numpy as np
import pytest

from repro.ckpt import CheckpointManager, GroupEncoder, kernels
from repro.ckpt.self_ckpt import SelfCheckpoint, SelfCheckpointRS
from repro.ckpt.stripes import build_parity
from repro.sim import Cluster, FailurePlan, Job, PhaseTrigger
from tests.ckpt.conftest import MultiLevelFlushEach, assert_final_state, make_app

#: stripe sizes on both sides of the lanes / table crossover
STRIPES = (kernels.BITSLICE_MIN_BYTES // 4, 2 * kernels.BITSLICE_MIN_BYTES)


def _run(main, n_ranks, **kw):
    res = Job(Cluster(n_ranks), main, n_ranks, procs_per_node=1, **kw).run()
    assert res.completed, res.rank_errors
    return res


class TestEncodeIntoSegment:
    @pytest.mark.parametrize("stripe", STRIPES)
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", range(4, 9))
    def test_out_is_the_segment_and_matches_the_allocating_path(self, n, m, stripe):
        def main(ctx):
            enc = GroupEncoder(ctx.world, parity=m)
            rng = np.random.default_rng(100 * n + ctx.world.rank)
            flat = rng.integers(0, 256, (n - m) * stripe, dtype=np.uint8)
            seg = np.full(enc.checksum_size(len(flat)), 0xA5, dtype=np.uint8)
            fresh = enc.encode(flat).checksum.copy()
            got = enc.encode(flat, out=seg)
            return got.checksum is seg, got.checksum_bytes == seg.nbytes, fresh, seg

        res = _run(main, n)
        for r in range(n):
            is_seg, sized, fresh, seg = res.rank_results[r]
            assert is_seg and sized
            assert np.array_equal(seg, fresh), (n, m, stripe, r)

    def test_build_parity_returns_the_out_views_it_filled(self):
        rng = np.random.default_rng(5)
        bufs = [rng.integers(0, 256, 3 * 64, dtype=np.uint8) for _ in range(5)]
        want = build_parity(bufs, 2)
        segs = [np.empty(2 * 64, dtype=np.uint8) for _ in range(5)]
        got = build_parity(bufs, 2, out=[s.reshape(2, -1) for s in segs])
        assert all(np.shares_memory(g, s) for g, s in zip(got, segs))
        assert all(np.array_equal(s, w.reshape(-1)) for s, w in zip(segs, want))
        with pytest.raises(ValueError, match="out must hold"):
            build_parity(bufs, 2, out=[s.reshape(4, -1) for s in segs])


class TestXorFold:
    def test_one_row_is_a_copy(self):
        row = np.arange(16, dtype=np.uint8)
        out = np.full(16, 0xFF, dtype=np.uint8)
        kernels.xor_fold([row], out)
        assert np.array_equal(out, row)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_rows_fold_without_reading_out(self, k):
        rng = np.random.default_rng(k)
        rows = [rng.integers(0, 256, 40, dtype=np.uint8) for _ in range(k)]
        out = np.full(40, 0x5A, dtype=np.uint8)  # stale bytes must not leak in
        kernels.xor_fold(rows, out)
        assert np.array_equal(out, np.bitwise_xor.reduce(rows))


# -- allocation contract ----------------------------------------------------------
#: float64 words per member: 256 KiB of workspace
ALLOC_WORDS = 32 * 1024
ALLOC_GROUP = 4


def _checkpoint_peak(method):
    """``(peak bytes allocated while one 4-member group checkpoints,
    padded buffer size M)``.  Tracing starts and stops inside collectives,
    when every rank is parked in them, so nothing but the four
    ``checkpoint()`` calls runs in between; a first, untraced checkpoint
    warms the layout and codec caches."""
    peak = {}

    def start(data):
        tracemalloc.start()
        return dict.fromkeys(data)

    def stop(data):
        peak["bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return dict.fromkeys(data)

    def main(ctx):
        mgr = CheckpointManager(ctx, ctx.world, group_size=ALLOC_GROUP, method=method)
        a = mgr.alloc("data", ALLOC_WORDS)
        mgr.commit()
        a[:] = np.arange(ALLOC_WORDS) * (ctx.world.rank + 1)
        mgr.local["it"] = 1
        mgr.checkpoint()
        a += 1.0
        mgr.local["it"] = 2
        ctx.world.custom_collective(None, compute=start, cost=lambda d: 0.0)
        mgr.checkpoint()
        ctx.world.custom_collective(None, compute=stop, cost=lambda d: 0.0)
        return mgr.impl.protected_bytes

    res = _run(main, ALLOC_GROUP)
    return peak["bytes"], res.rank_results[0]


class TestAllocationContract:
    """The bounds come from the measured peaks (tracemalloc, one group of
    4 at 256 KiB per member, as a multiple of N·M): ``self`` 1.34 -> 1.01
    -> 9 KiB in total, ``self-rs`` 2.13 -> 1.13 -> one stripe, ``double``
    1.34 -> 9 KiB in total."""

    SLACK = 64 * 1024

    def test_self_allocates_nothing_checkpoint_sized(self):
        peak, m = _checkpoint_peak("self")
        assert peak <= self.SLACK < m, (peak, m)

    def test_double_allocates_nothing_checkpoint_sized(self):
        peak, m = _checkpoint_peak("double")
        assert peak <= self.SLACK < m, (peak, m)

    def test_self_rs_adds_only_the_fold_scratch(self):
        peak, m = _checkpoint_peak("self-rs")
        stripe = m // (ALLOC_GROUP - 2)
        assert peak <= stripe + self.SLACK, (peak, m)


# -- restores read survivors in place ------------------------------------------------
#: (rank, segment kinds the survivor's contribution is, bytes unchanged)
REBUILDS = []


class _Recording:
    """Logs, for every survivor's rebuild contribution, which of its own
    segments it handed over and whether the collective left the bytes
    alone."""

    def _do_recover(self, flat, checksum, missing):
        if flat is None:
            return super()._do_recover(flat, checksum, missing)
        before = flat.tobytes() + checksum.tobytes()
        out = super()._do_recover(flat, checksum, missing)
        kinds = {k for k, seg in self._segments.items() if seg is flat or seg is checksum}
        REBUILDS.append(
            (self.ctx.rank, kinds, flat.tobytes() + checksum.tobytes() == before)
        )
        return out


class RecordingSelf(_Recording, SelfCheckpoint):
    pass


class RecordingSelfRS(_Recording, SelfCheckpointRS):
    pass


class TestRebuildReadsSurvivorsInPlace:
    @pytest.mark.parametrize(
        "factory, phase, lost, source, kinds",
        [
            (RecordingSelf, "ckpt.encode", (2,), "checkpoint", {"B", "C"}),
            (RecordingSelf, "ckpt.flush", (2,), "workspace", {"A1", "D"}),
            (RecordingSelfRS, "ckpt.encode", (1, 2), "checkpoint", {"B", "C"}),
        ],
        ids=["self-checkpoint", "self-workspace", "self-rs-loses-2"],
    )
    def test_survivors_hand_over_their_segments_unchanged(
        self, factory, phase, lost, source, kinds
    ):
        REBUILDS.clear()
        app = make_app("self", group_size=4, array_len=1024, protocol_factory=factory)
        cluster = Cluster(4, n_spares=2)
        plan = FailurePlan(
            [PhaseTrigger(node_id=lost[0], phase=phase, occurrence=2, extra_nodes=lost[1:])]
        )
        job = Job(cluster, app, 4, procs_per_node=1, failure_plan=plan)
        assert job.run().aborted
        repl = cluster.replace_dead()
        second = Job(cluster, app, 4, ranklist=[repl.get(n, n) for n in job.ranklist]).run()
        assert_final_state(second, 4)
        assert second.rank_results[0]["restore"].source == source
        survivors = sorted(set(range(4)) - set(lost))
        assert sorted(r for r, _, _ in REBUILDS) == survivors
        assert all(k == kinds and same for _, k, same in REBUILDS), REBUILDS


class TestMultiLevelImage:
    def test_level2_restore_of_a_middle_epoch_returns_its_arrays(self):
        """Two losses in one group as epoch 3 starts its update, after
        every rank saved epoch 2: the disk image of epoch 2 — saved from
        the committed slot 0 — restores iteration 4."""
        app = make_app("multilevel", protocol_factory=MultiLevelFlushEach)
        cluster = Cluster(8, n_spares=4)
        plan = FailurePlan(
            [PhaseTrigger(node_id=0, phase="ckpt.update", occurrence=3, extra_nodes=(2,))]
        )
        job = Job(cluster, app, 8, procs_per_node=1, failure_plan=plan)
        assert job.run().aborted
        repl = cluster.replace_dead()
        res = Job(cluster, app, 8, ranklist=[repl.get(n, n) for n in job.ranklist]).run()
        assert_final_state(res, 8)
        report = res.rank_results[0]["restore"]
        assert (report.source, report.epoch, report.local["it"]) == ("disk", 2, 4)
