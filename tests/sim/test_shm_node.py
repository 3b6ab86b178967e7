"""Tests for SHM segments and node failure."""

import numpy as np
import pytest

from repro.sim import Node, NodeSpec, ShmError
from repro.util import GiB


@pytest.fixture
def node():
    return Node(0, NodeSpec(cores=4, flops=1e11, mem_bytes=GiB))


class TestNodeSpec:
    def test_derived_quantities(self):
        spec = NodeSpec(cores=24, flops=422.4e9, mem_bytes=64 * GiB)
        assert spec.flops_per_core == pytest.approx(17.6e9)
        assert spec.mem_per_core == 64 * GiB // 24

    @pytest.mark.parametrize(
        "kwargs", [{"cores": 0}, {"flops": 0}, {"mem_bytes": 0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NodeSpec(**kwargs)


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

    def test_meta_is_copied(self, node):
        seg = node.shm.create("a", 4)
        seg.meta["epoch"] = 1
        snap = node.shm.snapshot()[0]
        seg.meta["epoch"] = 2  # later mutation by a rank...
        assert snap.meta["epoch"] == 1  # ...must not leak into the snapshot

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
    """ShmSegment.read()/write() route through the store observer."""

    def test_read_write_notify_observer(self, node):
        events = []

        class Spy:
            def on_shm(self, node_id, name, kind, nbytes=0):
                events.append((node_id, name, kind))

        node.shm.observer = Spy()
        seg = node.shm.create("a", 4)
        seg.write(3.0)
        got = seg.read()
        assert np.all(got == 3.0)
        node.shm.unlink("a")
        assert events == [
            (0, "a", "create"),
            (0, "a", "write"),
            (0, "a", "read"),
            (0, "a", "unlink"),
        ]

    def test_exist_ok_reattach_reports_attach(self, node):
        events = []

        class Spy:
            def on_shm(self, node_id, name, kind, nbytes=0):
                events.append(kind)

        node.shm.observer = Spy()
        node.shm.create("a", 4)
        node.shm.create("a", 4, exist_ok=True)
        assert events == ["create", "attach"]

    def test_write_supports_slices(self, node):
        seg = node.shm.create("a", 4)
        seg.write(5.0, where=slice(0, 2))
        assert list(seg.array) == [5.0, 5.0, 0.0, 0.0]
