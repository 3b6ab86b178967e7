"""Tests for the whole-program effect/taint analyzer (repro.sancheck.flow).

The fixture package at ``tests/sancheck/fixtures/badckpt`` seeds one of
every violation class the analyzer promises to catch; the assertions
here are exact so a regression in any pass (call graph, intrinsic
effects, propagation, lifecycle rules) shows up as a missing or extra
finding, not a vague count change.
"""

from pathlib import Path

import pytest

from repro.sancheck import default_lint_root
from repro.sancheck.flow import (
    RNG_UNSEEDED,
    WALLCLOCK,
    analyze_index,
    analyze_paths,
    build_index,
    propagate,
)
from repro.sancheck.flow.effects import build_intrinsics
from repro.sancheck.flow.export import to_jsonl
from repro.sancheck.flow.lifecycle import (
    KERNEL_MODULES,
    kernel_functions,
    protocol_classes,
)
from repro.sancheck.simlint import RNG_ALLOW, WALLCLOCK_ALLOW, lint_paths

FIXTURE = Path(__file__).parent / "fixtures" / "badckpt"


def fixture_findings():
    return analyze_paths([FIXTURE])


@pytest.fixture(scope="module")
def shipped_index():
    """The whole-program index of the shipped tree, parsed once (~2 s)."""
    return build_index([default_lint_root()])


def by_rule(findings):
    out = {}
    for f in findings:
        out.setdefault(f.rule, []).append(f)
    return out


class TestIndex:
    def test_fixture_classes_and_shm_attrs(self):
        index = build_index([FIXTURE])
        cls = index.classes["proto.EvilCheckpoint"]
        assert cls.shm_attrs == {"_b", "_ctrl"}
        assert {"checkpoint", "try_restore", "_wipe", "scribble"} <= set(
            cls.methods
        )

    def test_cross_module_calls_resolve(self):
        index = build_index([FIXTURE])
        ckpt = index.functions["proto.EvilCheckpoint.checkpoint"]
        callees = {q for q, _line in ckpt.calls}
        assert "helpers.jitter" in callees
        assert "proto.EvilCheckpoint.gen_block" in callees

    def test_duck_typed_protocol_detected_structurally(self):
        index = build_index([FIXTURE])
        assert protocol_classes(index, "Checkpointer") == [
            "proto.EvilCheckpoint"
        ]

    def test_kernel_module_detected_by_name(self):
        index = build_index([FIXTURE])
        assert kernel_functions(index, ("stripes",)) == [
            "stripes.encode_stripe"
        ]


class TestPropagation:
    def test_unseeded_default_argument_is_its_own_source(self):
        """Violation 3 of the fixture: ``gen_block``'s default argument
        alone makes it an RNG source, independent of ``jitter``."""
        index = build_index([FIXTURE])
        summaries = propagate(
            index, build_intrinsics(index.functions, WALLCLOCK_ALLOW, RNG_ALLOW)
        )
        w = summaries["proto.EvilCheckpoint.gen_block"][RNG_UNSEEDED]
        assert "default_rng" in w.site

    def test_wallclock_taints_through_helper_module(self):
        index = build_index([FIXTURE])
        summaries = propagate(
            index, build_intrinsics(index.functions, WALLCLOCK_ALLOW, RNG_ALLOW)
        )
        w = summaries["proto.EvilCheckpoint.try_restore"][WALLCLOCK]
        assert w.chain[-1] == "helpers.stamp"


class TestFindings:
    def test_exact_rule_counts(self):
        rules = {r: len(fs) for r, fs in by_rule(fixture_findings()).items()}
        assert rules == {
            "flow-nondet": 2,
            "flow-kernel-nondet": 1,
            "lifecycle-premature-write": 2,
            "lifecycle-phase-escape": 1,
        }

    def test_severities(self):
        fs = fixture_findings()
        warnings = [f for f in fs if f.severity == "warning"]
        assert [f.rule for f in warnings] == ["lifecycle-phase-escape"]
        assert all(
            f.severity == "error"
            for f in fs
            if f.rule != "lifecycle-phase-escape"
        )

    def test_hidden_rng_witness_names_the_helper(self):
        nondet = by_rule(fixture_findings())["flow-nondet"]
        rng = [f for f in nondet if "unseeded RNG" in f.message]
        assert len(rng) == 1
        assert "checkpoint" in rng[0].message
        assert "jitter" in rng[0].message  # the full chain, not just the sink

    def test_cross_module_wallclock_witness(self):
        nondet = by_rule(fixture_findings())["flow-nondet"]
        wc = [f for f in nondet if "wall clock" in f.message]
        assert len(wc) == 1
        assert "try_restore" in wc[0].message
        assert "stamp" in wc[0].message

    def test_premature_writes_stop_at_the_status_exchange(self):
        fs = by_rule(fixture_findings())["lifecycle-premature-write"]
        # the two pre-exchange writes, and ONLY those — the post-allgather
        # write on line 43 must not be flagged
        assert sorted(f.line for f in fs) == [40, 41]

    def test_phase_escape_names_the_method(self):
        (f,) = by_rule(fixture_findings())["lifecycle-phase-escape"]
        assert "scribble" in f.message

    def test_kernel_nondet(self):
        (f,) = by_rule(fixture_findings())["flow-kernel-nondet"]
        assert f.file == "badckpt/stripes.py"
        assert "encode_stripe" in f.message


class TestDeterminism:
    def test_byte_identical_across_runs(self):
        """Acceptance: two consecutive analyses of the same tree must
        render byte-identically."""
        a = to_jsonl(fixture_findings())
        b = to_jsonl(fixture_findings())
        assert a == b

    def test_findings_arrive_sorted(self):
        fs = fixture_findings()
        keys = [f.sort_key() for f in fs]
        assert keys == sorted(keys)


class TestRealTree:
    def test_shipped_package_has_no_errors(self, shipped_index):
        """The shipped protocols must satisfy their own lifecycle
        discipline (warnings may exist; errors may not)."""
        fs = analyze_index(shipped_index)
        assert [f for f in fs if f.severity == "error"] == []

    def test_all_shipped_protocols_are_seen(self, shipped_index):
        names = {
            q.split(".")[-1] for q in protocol_classes(shipped_index, "Checkpointer")
        }
        # nominal subclasses AND the duck-typed protocols
        assert {
            "SelfCheckpoint",
            "SelfCheckpointRS",
            "SingleCheckpoint",
            "DoubleCheckpoint",
            "BuddyCheckpoint",
            "IncrementalCheckpoint",
            "MultiLevelCheckpoint",
            "DiskCheckpoint",
        } <= names

    def test_restore_preamble_is_checked_in_one_place(self, shipped_index):
        """Every group protocol restores through ``Checkpointer.try_restore``,
        so ``lifecycle-premature-write`` checks the status exchange once;
        only the disk and multi-level tiers have a restore entry of their
        own (the manager is a structural match that only delegates) — and
        none of them writes SHM before the exchange."""
        entries = {
            shipped_index.lookup_method(q, "try_restore")
            for q in protocol_classes(shipped_index, "CheckpointProtocol")
            if shipped_index.is_descendant_of(q, "CheckpointProtocol")
        }
        assert entries == {
            "repro.ckpt.protocol.Checkpointer.try_restore",
            "repro.ckpt.disk.DiskCheckpoint.try_restore",
            "repro.ckpt.multilevel.MultiLevelCheckpoint.try_restore",
        }
        fs = by_rule(analyze_index(shipped_index))
        assert fs.get("lifecycle-premature-write", []) == []

    def test_segments_made_by_the_shared_helper_are_tracked(self, shipped_index):
        """Every protocol creates its segments through
        ``Checkpointer._shm``; the control flags and the (possibly SHM)
        workspace reach their attributes through a second helper on top
        of it (``_make_ctrl``, ``_alloc_array``).  Writes through either
        must still count as SHM writes — ``lifecycle-premature-write``
        is blind to a flag reset otherwise."""
        for cls, attrs in {
            "repro.ckpt.double.SingleCheckpoint": {"_b", "_c"},
            "repro.ckpt.buddy.BuddyCheckpoint": {"_b", "_c"},
            "repro.ckpt.multilevel.MultiLevelCheckpoint": {"_b", "_c"},
            "repro.ckpt.incremental.IncrementalCheckpoint": {"_b", "_c", "_undo_pages"},
            "repro.ckpt.self_ckpt.SelfCheckpointRS": {"_b", "_b2", "_c", "_d"},
        }.items():
            assert (
                attrs | {"_ctrl", "_arrays"} <= shipped_index.classes[cls].shm_attrs
            ), cls


class TestOneNondeterminismAnswer:
    """simlint and flow ask one classifier with one pair of allowlists: a
    protocol whose ``checkpoint()`` reads the host clock is a finding of
    both, or — in a module allowed to read it — of neither."""

    SOURCE = (
        "import time\n\n\n"
        "class LeaseCheckpoint:\n"
        "    def checkpoint(self):\n"
        "        return time.time()\n\n"
        "    def try_restore(self):\n"
        "        return None\n"
    )

    def _rules(self, tmp_path, module):
        path = tmp_path.joinpath(*module.split(".")).with_suffix(".py")
        path.parent.mkdir(parents=True)
        path.write_text(self.SOURCE)
        return (
            [f.rule for f in lint_paths([path])],
            [f.rule for f in analyze_paths([tmp_path])],
        )

    @pytest.mark.parametrize("module", WALLCLOCK_ALLOW)
    def test_lint_allowed_wallclock_is_flow_allowed(self, tmp_path, module):
        assert self._rules(tmp_path, module) == ([], [])

    def test_elsewhere_both_report_it(self, tmp_path):
        assert self._rules(tmp_path, "repro.ckpt.lease") == (
            ["wallclock"],
            ["flow-nondet"],
        )


class TestKernelModuleList:
    """``repro.ckpt.kernels`` holds every GF(256) fold and row codec, so
    it is under the ``flow-kernel-*`` purity rules like the stripe
    modules."""

    def test_rng_call_in_a_kernels_module_is_reported(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "kernels.py").write_text(
            "import numpy as np\n\n\n"
            "def gpow_fold(rows, out):\n"
            "    out[:] = np.random.default_rng().integers(0, 256, out.size)\n"
        )
        (f,) = analyze_paths([pkg])
        assert f.rule == "flow-kernel-nondet" and f.severity == "error"
        assert "gpow_fold" in f.message and "unseeded RNG" in f.message
        # the hole this closes: the pre-kernels module list saw nothing
        old = ("stripes", "stripes_rs", "raid6")
        assert kernel_functions(build_index([pkg]), old) == []

    def test_shipped_folds_are_kernel_functions(self, shipped_index):
        quals = kernel_functions(shipped_index, KERNEL_MODULES)
        for name in (
            "kernels.gpow_fold",
            "kernels.RSCodec.decode",
            "stripes.reconstruct_members",
        ):
            assert any(q.endswith(name) for q in quals), name
