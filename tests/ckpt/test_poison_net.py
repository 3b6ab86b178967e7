"""The poison-fill net: no byte a protocol did not write reaches an encode
or a recovery.

``B`` / ``C`` / ``D`` of the self-checkpoint protocols and the copy and
redundancy slots of the slotted schemes are created with
``zeroed=False``: every checkpoint rewrites them in full, so their fresh
contents are dead by construction.  This module proves it.  It patches
the allocator behind ``zeroed=False`` (``repro.sim.shm._alloc_unzeroed``)
so that every fresh such segment is filled with ``0xA5``, then ``0x5A``,
and requires what the zero-filled tree produced, byte for byte:

* the all-method kill matrices (seven methods at group size 4, ``buddy``
  at 2) — ``BENCH_chaos.json`` and the report, as pinned in
  ``tests/chaos/lifecycle_golden.json``;
* the smoke campaign's ``BENCH_chaos.json`` and report, and the
  ``ckpt_bulk`` / ``ckpt_tiny`` statistics, as pinned in the benchmark's
  ``golden.json``;
* both SKT-HPL runs of ``tests/hpl/skt_golden.json``.

A protocol that read a slot before its first write would carry the fill
into a checksum or a rebuilt member and change a verdict, a restore or a
digest.  A byte it never writes at all (a stripe pad, say) changes no
artifact, so ``TestFreshSegments`` also requires the segments themselves
to come out of two checkpoints identical under both fills.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from benchmarks.e2e import config as e2e_config
from benchmarks.e2e.workloads import make as make_workload
from repro.chaos import chaos_main
from repro.ckpt import CheckpointManager
from repro.sim import Cluster, Job
from repro.sim import shm
from tests.chaos.test_lifecycle_golden import CAMPAIGNS, GOLDEN_PATH as LIFECYCLE_GOLDEN
from tests.hpl.test_skt_golden import GOLDEN_PATH as SKT_GOLDEN, GOLDEN_RUNS as SKT_RUNS

FILLS = (0xA5, 0x5A)

with open(e2e_config.GOLDEN_JSON) as f:
    E2E_DIGESTS = json.load(f)["digests"]


def poison_alloc(fill):
    """An unzeroed allocator that hands out segments filled with byte ``fill``."""

    def alloc(shape, dtype=np.float64):
        arr = np.empty(shape, dtype=dtype)
        arr.reshape(-1).view(np.uint8)[:] = fill
        return arr

    return alloc


@pytest.fixture(params=FILLS, ids=hex)
def poison(request, monkeypatch):
    """Fill every fresh ``zeroed=False`` segment with the parametrized byte."""
    monkeypatch.setattr(shm, "_alloc_unzeroed", poison_alloc(request.param))
    return request.param


def _artifacts_sha256(out):
    h = hashlib.sha256()
    for name in ("BENCH_chaos.json", "report.txt"):
        with open(os.path.join(out, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


class TestFreshSegments:
    """Which segments skip the zero-fill — the ones a checkpoint rewrites
    in full, and nothing else — and that a checkpoint does rewrite every
    byte of them.  A change that zero-fills them again, stops zero-filling
    the control flags or the workspace, or leaves part of a slot unwritten
    (say, the stripe pad, which no artifact would show) fails here."""

    #: kinds created unzeroed, per method (a lone slot keeps bare names)
    UNZEROED = {
        "self": {"B", "C", "D"},
        "self-rs": {"B", "C", "D"},
        "double": {"B0", "B1", "C0", "C1"},
    }

    @staticmethod
    def segments(method, group_size=4, checkpoints=0):
        """``{segment name: bytes}`` of every node after a 4-rank job that
        commits and then takes ``checkpoints`` checkpoints."""

        def main(ctx):
            mgr = CheckpointManager(ctx, ctx.world, group_size=group_size, method=method)
            a = mgr.alloc("data", 64)
            mgr.commit()
            mgr.try_restore()
            for it in range(checkpoints):
                a[:] = ctx.rank + it + 1
                mgr.local["it"] = it
                mgr.checkpoint()

        cluster = Cluster(4)
        assert Job(cluster, main, 4, procs_per_node=1).run().completed
        return {
            seg.name: seg.array.tobytes() for node in cluster.all_nodes() for seg in node.shm
        }

    @pytest.mark.parametrize("method", sorted(UNZEROED))
    def test_only_always_written_segments_hold_the_fill(self, monkeypatch, method):
        monkeypatch.setattr(shm, "_alloc_unzeroed", poison_alloc(0xA5))
        by_kind = {}
        for name, raw in self.segments(method).items():
            by_kind.setdefault(name.rsplit(".", 1)[1], []).append(np.frombuffer(raw, np.uint8))
        unzeroed = self.UNZEROED[method]
        zeroed = {"CTRL", "A1"} if "D" in unzeroed else {"CTRL"}
        assert set(by_kind) == unzeroed | zeroed
        for ctrl in by_kind["CTRL"]:
            assert not ctrl[8:].any()  # the epoch flags; the first int64 is the magic
        for seg in by_kind.get("A1", []):
            assert not seg.any()
        for kind in unzeroed:
            assert all((seg == 0xA5).all() for seg in by_kind[kind]), kind

    @pytest.mark.parametrize(
        "method, group_size",
        [("self", 4), ("self-rs", 4), ("single", 4), ("double", 4), ("multilevel", 4),
         ("buddy", 2)],
    )
    def test_checkpoints_overwrite_every_unzeroed_byte(self, monkeypatch, method, group_size):
        """Two checkpoints write every slot of every method; afterwards no
        byte of any segment may depend on the fill it was created with."""
        images = []
        for fill in FILLS:
            monkeypatch.setattr(shm, "_alloc_unzeroed", poison_alloc(fill))
            images.append(self.segments(method, group_size, checkpoints=2))
        assert images[0] == images[1]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_all_method_kill_matrix_is_unchanged(tmp_path, capsys, poison, name):
    methods, group_size = CAMPAIGNS[name]
    status = chaos_main(
        [
            "--methods", methods, "--nodes", "4", "--ppn", "1",
            "--group-size", str(group_size), "--iters", "6",
            "--no-progress", "--out", str(tmp_path),
        ]
    )
    capsys.readouterr()
    with open(LIFECYCLE_GOLDEN) as f:
        want = json.load(f)[name]
    with open(tmp_path / "BENCH_chaos.json", "rb") as f:
        bench_sha256 = hashlib.sha256(f.read()).hexdigest()
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert (status, bench_sha256, report) == (
        want["exit_status"], want["bench_sha256"], want["report"]
    )


def test_smoke_campaign_is_unchanged(tmp_path, capsys, poison):
    assert chaos_main(["--smoke", "--no-progress", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _artifacts_sha256(tmp_path) == E2E_DIGESTS["chaos_smoke"]


@pytest.mark.parametrize("name", ["ckpt_bulk", "ckpt_tiny"])
def test_checkpoint_cycles_are_unchanged(poison, name):
    workload = make_workload(name, seed=0)
    checked = workload.check(workload.op())
    assert checked.problems == []
    assert checked.digest == E2E_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SKT_RUNS))
def test_skt_hpl_is_unchanged(poison, name):
    with open(SKT_GOLDEN) as f:
        want = json.load(f)[name]
    assert SKT_RUNS[name]() == want
