"""Tests for SHM segments and node failure."""

import numpy as np
import pytest

from repro.sim import Node, NodeSpec, ShmError
from repro.sim import shm as shm_module
from repro.sim.shm import shape_tuple
from repro.util import GiB
from tests.chaos.helpers import poison_alloc


@pytest.fixture
def node():
    return Node(0, NodeSpec(cores=4, flops=1e11, mem_bytes=GiB))


class TestNodeSpec:
    def test_derived_quantities(self):
        spec = NodeSpec(cores=24, flops=422.4e9, mem_bytes=64 * GiB)
        assert spec.flops_per_core == pytest.approx(17.6e9)
        assert spec.mem_per_core == 64 * GiB // 24

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cores": 0},
            {"flops": 0},
            {"mem_bytes": 0},
            # every flush divides by the copy bandwidth
            {"mem_bw_Bps": 0},
            {"mem_bw_Bps": float("nan")},
            {"mem_bw_Bps": float("inf")},
            # NaN passes a plain `<= 0` check and surfaced only as a rank
            # crash at the first compute charge
            {"flops": float("nan")},
            {"flops": float("inf")},
            {"cores": 1.5},
            {"cores": True},
            {"mem_bytes": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NodeSpec(**kwargs)


class TestShapeTuple:
    """``shape_tuple`` reads a shape as the numpy spelling it replaces on
    the attach path does, and refuses what that spelling refuses."""

    @pytest.mark.parametrize(
        "shape",
        [5, 0, -5, (2, 3), (2, -3), (), [4], np.int64(3), (np.int64(2), 3), (True, 2),
         5.0, True, (2.0, 3), "3"],
    )
    def test_matches_the_numpy_spelling(self, shape):
        import operator

        from repro.sim.shm import shape_tuple

        try:
            want = tuple(map(operator.index, np.atleast_1d(shape)))
        except TypeError:
            with pytest.raises(TypeError):
                shape_tuple(shape)
        else:
            got = shape_tuple(shape)
            assert got == want and all(type(d) is int for d in got)


class TestShm:
    def test_create_and_attach(self, node):
        seg = node.shm.create("x", (4, 4))
        seg.array[:] = 7.0
        again = node.shm.create("x", (4, 4), exist_ok=True)
        assert again is seg and np.all(again.array == 7.0)

    def test_create_duplicate_rejected(self, node):
        node.shm.create("x", 4)
        with pytest.raises(ShmError):
            node.shm.create("x", 4)

    def test_create_exist_ok_returns_same_content(self, node):
        seg = node.shm.create("x", 8)
        seg.array[:] = 3.0
        seg2 = node.shm.create("x", 8, exist_ok=True)
        assert np.all(seg2.array == 3.0)

    def test_exist_ok_accepts_a_numpy_integer_shape(self, node):
        seg = node.shm.create("x", np.int64(8))
        assert node.shm.create("x", np.int64(8), exist_ok=True) is seg
        assert node.shm.create("x", (8,), exist_ok=True) is seg

    def test_exist_ok_shape_mismatch_rejected(self, node):
        node.shm.create("x", 8)
        with pytest.raises(ShmError):
            node.shm.create("x", 16, exist_ok=True)

    def test_unlink_releases_memory(self, node):
        node.shm.create("x", 1024, np.uint8)
        node.shm.unlink("x")
        assert not node.shm.exists("x")
        assert node.shm.snapshot() == []

    def test_unlink_missing_ok(self, node):
        node.shm.unlink("ghost", missing_ok=True)
        with pytest.raises(ShmError):
            node.shm.unlink("ghost")

    def test_names_and_len(self, node):
        node.shm.create("b", 4)
        node.shm.create("a", 4)
        assert node.shm.names() == ["a", "b"]
        assert len(node.shm) == 2

    def test_total_bytes(self, node):
        node.shm.create("x", 100, np.uint8)
        node.shm.create("y", 28, np.uint8)
        assert sum(seg.nbytes for seg in node.shm) == 128


class TestZeroedKeyword:
    """``zeroed=False`` hands out a fresh segment of unspecified contents;
    everything else about create / attach is the default's.  The unzeroed
    allocator is patched to fill 0xA5, so "unspecified" is visible."""

    @pytest.fixture(autouse=True)
    def poisoned(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_alloc_unzeroed", poison_alloc(0xA5))

    def test_default_create_reads_all_zeros(self, node):
        assert not node.shm.create("x", (64, 3), np.int32).array.any()
        assert not node.shm.create("y", 256, np.uint8, zeroed=True).array.any()

    @pytest.mark.parametrize("shape, dtype", [(7, np.uint8), ((3, 5), np.float64), (0, np.int64)])
    def test_unzeroed_has_the_requested_shape_and_dtype(self, node, shape, dtype):
        arr = node.shm.create("x", shape, dtype, zeroed=False).array
        assert arr.shape == shape_tuple(shape) and arr.dtype == np.dtype(dtype)
        assert (arr.reshape(-1).view(np.uint8) == 0xA5).all()

    @pytest.mark.parametrize("first, again", [(True, False), (False, True), (False, False)])
    def test_exist_ok_attach_ignores_the_keyword(self, node, first, again):
        seg = node.shm.create("x", 8, zeroed=first)
        seg.array[:] = 3.0
        seg2 = node.shm.create("x", 8, exist_ok=True, zeroed=again)
        assert seg2 is seg and np.all(seg2.array == 3.0)

    @pytest.mark.parametrize("shape, dtype", [(16, np.float64), (8, np.int32)])
    def test_attach_mismatch_still_raises(self, node, shape, dtype):
        node.shm.create("x", 8, zeroed=False)
        with pytest.raises(ShmError):
            node.shm.create("x", shape, dtype, exist_ok=True, zeroed=False)
        with pytest.raises(ShmError):
            node.shm.create("x", 8, zeroed=False)  # a second create without exist_ok


class TestNodeLifecycle:
    def test_failure_destroys_shm(self, node):
        node.shm.create("ckpt", 64)
        node.fail(when=12.5)
        assert not node.alive
        assert node.failed_at == 12.5
        assert len(node.shm) == 0

    def test_fail_idempotent(self, node):
        node.fail(1.0)
        node.fail(2.0)
        assert node.failed_at == 1.0


class TestSnapshot:
    """ShmStore.snapshot(): the sanctioned concurrent-enumeration API."""

    def test_snapshot_lists_segments(self, node):
        node.shm.create("a", 4)
        node.shm.create("b", 8)
        segs = {s.name: s for s in node.shm.snapshot()}
        assert set(segs) == {"a", "b"}

    def test_iter_goes_through_snapshot(self, node):
        node.shm.create("a", 4)
        names = [s.name for s in node.shm]
        assert names == ["a"]

    def test_array_stays_live_view(self, node):
        seg = node.shm.create("a", 4)
        snap = node.shm.snapshot()[0]
        seg.array[:] = 7.0
        assert np.all(snap.array == 7.0)

    def test_snapshot_safe_during_unlink(self, node):
        node.shm.create("a", 4)
        snap = node.shm.snapshot()
        node.shm.unlink("a")
        assert snap[0].name == "a"  # snapshot unaffected by later unlink


class TestSegmentHooks:
    """The store reports a segment's lifecycle, not its accesses."""

    def test_exist_ok_reattach_reports_attach(self, node):
        events = []

        class Spy:
            def on_shm(self, node_id, name, kind, nbytes=0):
                events.append((node_id, name, kind, nbytes))

        node.shm.observer = Spy()
        node.shm.create("a", 4)
        seg = node.shm.create("a", 4, exist_ok=True)
        seg.write(3.0)
        seg.array[0] = 1.0
        node.shm.unlink("a")
        # neither write is an event: only the lifecycle is
        assert events == [(0, "a", "create", 32), (0, "a", "attach", 32), (0, "a", "unlink", 32)]

    def test_write_supports_slices(self, node):
        seg = node.shm.create("a", 4)
        seg.write(5.0, where=slice(0, 2))
        assert list(seg.array) == [5.0, 5.0, 0.0, 0.0]
