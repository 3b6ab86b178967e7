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
  at 2), as pinned in ``tests/chaos/lifecycle_golden.json``;
* the smoke campaign's ``BENCH_chaos.json`` and report, and the
  ``ckpt_bulk`` / ``ckpt_tiny`` statistics, as pinned in the benchmark's
  ``golden.json``;
* both SKT-HPL runs of ``tests/hpl/skt_golden.json``.

The campaigns and SKT-HPL runs come from the session's ``filled_run``
(``tests/conftest.py``).  Under ``0xA5`` a case reads the very run its
golden reads — the kill matrices' ``--obs full`` campaigns of
``tests/chaos/test_lifecycle_golden.py``, the ``--smoke --obs summary``
campaign of ``tests/chaos/test_pinning.py``, the runs of
``tests/hpl/test_skt_golden.py`` — and asserts that golden's whole
record: status, artifacts, store and virtual-time digests, and
``SMOKE_SUMMARY_DIGEST``.  Under ``0x5A`` a campaign runs bare (``--obs
off``) and its case asserts the artifacts.

A protocol that read a slot before its first write would carry the fill
into a checksum or a rebuilt member and change a verdict, a restore or a
digest.  A byte it never writes at all (a stripe pad, say) changes no
artifact, so ``TestFreshSegments`` also requires the segments themselves
to come out of two checkpoints identical under both fills.
"""

import json

import numpy as np
import pytest

from benchmarks.e2e import config as e2e_config
from benchmarks.e2e.workloads import make as make_workload
from repro.ckpt import CheckpointManager
from repro.sim import Cluster, Job
from repro.sim import shm
from tests.chaos.helpers import GOLDEN_FILL, poison_alloc
from tests.chaos.test_lifecycle_golden import (
    CAMPAIGNS,
    GOLDEN_PATH as LIFECYCLE_GOLDEN,
    pinned,
    run_campaign_cli,
)
from tests.chaos.test_pinning import SMOKE_SUMMARY_DIGEST, run_smoke
from tests.hpl.test_skt_golden import GOLDEN_PATH as SKT_GOLDEN, GOLDEN_RUNS as SKT_RUNS

FILLS = (GOLDEN_FILL, 0x5A)

with open(e2e_config.GOLDEN_JSON) as f:
    E2E_DIGESTS = json.load(f)["digests"]


@pytest.fixture(params=FILLS, ids=hex)
def poison(request, monkeypatch):
    """Fill every fresh ``zeroed=False`` segment with the parametrized byte."""
    monkeypatch.setattr(shm, "_alloc_unzeroed", poison_alloc(request.param))
    return request.param


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
def test_all_method_kill_matrix_is_unchanged(filled_run, poison, name):
    with open(LIFECYCLE_GOLDEN) as f:
        want = pinned(name, json.load(f)[name])
    obs = "full" if poison == GOLDEN_FILL else "off"
    got = pinned(name, filled_run(run_campaign_cli, name, obs, fill=poison))
    assert got == {k: want[k] for k in got}


def test_smoke_campaign_is_unchanged(filled_run, poison):
    want = {
        "exit_status": 0,
        "artifacts_sha256": E2E_DIGESTS["chaos_smoke"],
        "runs": 176,
        "store_digest": SMOKE_SUMMARY_DIGEST,
    }
    obs = "summary" if poison == GOLDEN_FILL else "off"
    got = filled_run(run_smoke, obs, fill=poison)
    assert got == {k: want[k] for k in got}


@pytest.mark.parametrize("name", ["ckpt_bulk", "ckpt_tiny"])
def test_checkpoint_cycles_are_unchanged(poison, name):
    workload = make_workload(name, seed=0)
    checked = workload.check(workload.op())
    assert checked.problems == []
    assert checked.digest == E2E_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SKT_RUNS))
def test_skt_hpl_is_unchanged(filled_run, poison, name):
    with open(SKT_GOLDEN) as f:
        want = json.load(f)[name]
    assert filled_run(SKT_RUNS[name], fill=poison) == want
