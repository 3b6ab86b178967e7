"""Tests for the incremental (dirty-page) checkpoint baseline."""

import pytest

from repro.ckpt import CheckpointManager
from repro.sim import Cluster, Job
from tests.ckpt.conftest import assert_final_state, make_app

N = 8


def make_sparse_app(dirty_stride: int, iters: int = 6, pages: int = 8):
    """Mutates one float per ``dirty_stride`` pages between checkpoints, so
    the dirty footprint is 1/dirty_stride of the workspace."""
    page_floats = 512  # 4096-byte pages of float64

    def app(ctx):
        mgr = CheckpointManager(
            ctx, ctx.world, group_size=4, method="incremental"
        )
        a = mgr.alloc("data", pages * page_floats)
        mgr.commit()
        rep = mgr.try_restore()
        start = rep.local["it"] if rep else 0
        if start == 0:
            a[:] = 0.0
        for it in range(start, iters):
            for p in range(0, pages, dirty_stride):
                a[p * page_floats] += ctx.world.rank + 1
            ctx.compute(1e8)
            if (it + 1) % 2 == 0:
                mgr.local["it"] = it + 1
                mgr.checkpoint()
        return {
            "data": a.copy(),
            "restore": rep,
            "dirty_history": list(mgr.impl.dirty_bytes_history),
            "encode_s": mgr.impl.total_encode_seconds,
        }

    return app


class TestDirtyTracking:
    def test_only_dirty_pages_counted(self):
        app = make_sparse_app(dirty_stride=4, pages=8)  # 2 of 8 pages dirty
        cluster = Cluster(N)
        res = Job(cluster, app, N, procs_per_node=1).run()
        assert res.completed, res.rank_errors
        history = res.rank_results[0]["dirty_history"]
        # first checkpoint: 2 data pages + the A2 page(s); later ones similar
        assert all(0 < d <= 4 * 4096 for d in history)

    def test_sparse_encode_cheaper_than_dense(self):
        results = {}
        for stride in (1, 8):  # all pages dirty vs 1/8 dirty
            app = make_sparse_app(dirty_stride=stride, pages=8)
            cluster = Cluster(N)
            res = Job(cluster, app, N, procs_per_node=1).run()
            assert res.completed
            results[stride] = res.rank_results[0]["encode_s"]
        assert results[8] < results[1]

    def test_sum_op_rejected(self):
        def app(ctx):
            with pytest.raises(ValueError, match="linearity"):
                CheckpointManager(
                    ctx, ctx.world, group_size=4, method="incremental", op="sum"
                )
            return True

        cluster = Cluster(N)
        # the rejected constructor already split a group communicator, so
        # every rank must attempt it (collective) — which app() does
        assert Job(cluster, app, N, procs_per_node=1).run().completed


class TestRecovery:
    @pytest.mark.parametrize(
        "phase", ["ckpt.undo_ready", "ckpt.flush", "ckpt.done"]
    )
    def test_recovers_at_every_phase(self, cycle, phase):
        app = make_app("incremental")
        _, second = cycle(app, n_ranks=N, phase=phase, occurrence=2)
        assert_final_state(second, N)

    def test_midupdate_failure_rolls_back_one_epoch(self, cycle):
        """The undo log's whole purpose: a failure inside the in-place
        update recovers the previous checkpoint, not garbage."""
        app = make_app("incremental")
        _, second = cycle(app, n_ranks=N, phase="ckpt.flush", occurrence=2)
        report = second.rank_results[0]["restore"]
        assert report.epoch == 1  # epoch 2's update was rolled back
        assert report.local["it"] == 2

    def test_clean_restart_resumes(self):
        app = make_app("incremental")
        cluster = Cluster(N)
        assert Job(cluster, app, N, procs_per_node=1).run().completed
        res = Job(cluster, app, N, procs_per_node=1).run()
        assert_final_state(res, N)
        assert res.rank_results[0]["restore"].local["it"] == 6

    def test_full_footprint_memory_worse_than_self(self):
        """The paper's §1 argument: with HPL-like full-footprint mutation,
        incremental needs checkpoint + full undo, beating no one."""
        overheads = {}
        for method in ("incremental", "self"):
            app = make_app(method, array_len=8192)
            cluster = Cluster(N)
            res = Job(cluster, app, N, procs_per_node=1).run()
            assert res.completed
            overheads[method] = res.rank_results[0]["overhead"]
        assert overheads["incremental"] > overheads["self"]


class TestDirtyPageViews:
    """The zero-copy dirty scan: aligned prefix via views, ragged tail
    compared separately — and identical dirty sets either way."""

    @staticmethod
    def _reference_dirty(flat, ref, pb):
        """The old padded-copy implementation, kept as the oracle."""
        import numpy as np

        n_pages = -(-len(flat) // pb)
        pad = n_pages * pb - len(flat)
        if pad:
            flat = np.concatenate([flat, np.zeros(pad, np.uint8)])
            ref = np.concatenate([ref, np.zeros(pad, np.uint8)])
        diff = (flat.reshape(n_pages, pb) != ref.reshape(n_pages, pb)).any(axis=1)
        return np.nonzero(diff)[0]

    def _probe(self, pb, ref):
        from repro.ckpt.incremental import IncrementalCheckpoint

        inst = object.__new__(IncrementalCheckpoint)
        inst.PAGE_BYTES = pb
        inst._b = ref
        return inst

    @pytest.mark.parametrize("nbytes", [96, 100, 128, 257, 4096, 5000])
    @pytest.mark.parametrize("pb", [32, 128, 4096])
    def test_matches_padded_reference(self, nbytes, pb):
        import numpy as np

        from repro.util.rng import seeded_rng

        rng = seeded_rng(nbytes * 31 + pb)
        ref = rng.integers(0, 256, size=nbytes).astype(np.uint8)
        flat = ref.copy()
        # dirty a scattering of bytes, including the very last (tail page)
        for idx in (0, nbytes // 2, nbytes - 1):
            flat[idx] ^= 0xFF
        inst = self._probe(pb, ref)
        got = inst._dirty_pages(flat)
        want = self._reference_dirty(flat, ref, pb)
        assert got.tolist() == want.tolist()

    def test_clean_buffer_has_no_dirty_pages(self):
        import numpy as np

        ref = np.arange(100, dtype=np.uint8)
        inst = self._probe(32, ref)
        assert inst._dirty_pages(ref.copy()).tolist() == []

    def test_tail_only_dirt_is_detected(self):
        import numpy as np

        ref = np.zeros(100, dtype=np.uint8)  # 3 full 32B pages + 4B tail
        flat = ref.copy()
        flat[99] = 1
        inst = self._probe(32, ref)
        assert inst._dirty_pages(flat).tolist() == [3]

    def test_no_copies_of_aligned_prefix(self):
        """The scan must not allocate padded copies of flat or B: the
        aligned prefix comparison happens through zero-copy views."""
        import numpy as np

        ref = np.zeros(4096 * 64 + 5, dtype=np.uint8)
        flat = ref.copy()
        flat[0] = 1
        inst = self._probe(4096, ref)
        import tracemalloc

        tracemalloc.start()
        inst._dirty_pages(flat)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        tracemalloc.start()
        self._reference_dirty(flat, ref, 4096)
        _, peak_ref = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # the padded-copy oracle allocates two full-buffer copies on top
        # of the boolean diff; the view scan allocates the diff alone
        assert peak < peak_ref - len(flat)

    def test_nonaligned_job_roundtrip(self):
        """End-to-end: a workspace whose padded size is not a multiple of
        the page size checkpoints and recovers with exact dirty behavior."""

        def app(ctx):
            mgr = CheckpointManager(ctx, ctx.world, group_size=4, method="incremental")
            a = mgr.alloc("data", 50)  # 400 B << one page, ragged tail only
            mgr.commit()
            rep = mgr.try_restore()
            start = rep.local["it"] if rep else 0
            for it in range(start, 4):
                a += ctx.world.rank + 1
                ctx.compute(1e7)
                if (it + 1) % 2 == 0:
                    mgr.local["it"] = it + 1
                    mgr.checkpoint()
            return {"data": a.copy(), "dirty": list(mgr.impl.dirty_bytes_history)}

        cluster = Cluster(N)
        res = Job(cluster, app, N, procs_per_node=1).run()
        assert res.completed, res.rank_errors
        for r in range(N):
            out = res.rank_results[r]
            assert (out["data"] == 4 * (r + 1)).all()
            assert all(d > 0 for d in out["dirty"])
