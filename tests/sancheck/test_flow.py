"""Tests for the whole-program SHM-lifecycle analyzer (repro.sancheck.flow).

The fixture package at ``tests/sancheck/fixtures/badckpt`` seeds one of
every violation class the sanitizer suite promises to catch; the
assertions here are exact so a regression in any pass (call graph,
intrinsic effects, propagation, lifecycle rules) shows up as a missing
or extra finding, not a vague count change.  The fixture's unseeded RNG
and wall-clock sites are simlint's ``rng`` / ``wallclock`` findings, the
suite's one answer on nondeterminism; flow reports none of them.
"""

from pathlib import Path

import pytest

from repro.sancheck.flow import analyze_paths, build_index
from repro.sancheck.flow.export import to_jsonl
from repro.sancheck.flow.lifecycle import (
    KERNEL_MODULES,
    kernel_functions,
    protocol_classes,
)
from repro.sancheck.simlint import WALLCLOCK_ALLOW, lint_paths, parse_paths

FIXTURE = Path(__file__).parent / "fixtures" / "badckpt"


def fixture_findings():
    return analyze_paths([FIXTURE])


def fixture_lint_sites():
    """simlint's findings on the fixture, as ``{(file, line): finding}``."""
    return {(f.file, f.line): f for f in lint_paths([FIXTURE])}


@pytest.fixture(scope="module")
def fixture_index():
    return build_index(parse_paths([FIXTURE]))


def by_rule(findings):
    out = {}
    for f in findings:
        out.setdefault(f.rule, []).append(f)
    return out


class TestIndex:
    def test_fixture_classes_and_shm_attrs(self, fixture_index):
        cls = fixture_index.classes["proto.EvilCheckpoint"]
        assert cls.shm_attrs == {"_b", "_ctrl"}
        assert {"checkpoint", "try_restore", "_wipe", "scribble"} <= set(
            cls.methods
        )

    def test_cross_module_calls_resolve(self, fixture_index):
        ckpt = fixture_index.functions["proto.EvilCheckpoint.checkpoint"]
        callees = {q for q, _line in ckpt.calls}
        assert "helpers.jitter" in callees
        assert "proto.EvilCheckpoint.gen_block" in callees

    def test_duck_typed_protocol_detected_structurally(self, fixture_index):
        assert protocol_classes(fixture_index, "Checkpointer") == [
            "proto.EvilCheckpoint"
        ]

    def test_kernel_module_detected_by_name(self, fixture_index):
        assert kernel_functions(fixture_index, ("stripes",)) == [
            "stripes.encode_stripe"
        ]


class TestPropagation:
    def test_wallclock_taints_through_helper_module(self, fixture_index):
        """``try_restore()``'s call to ``stamp()`` resolves one module
        away, and the host-clock read at the end of that chain is
        simlint's finding where it is made."""
        restore = fixture_index.functions["proto.EvilCheckpoint.try_restore"]
        assert "helpers.stamp" in {q for q, _line in restore.calls}
        stamp = fixture_index.functions["helpers.stamp"]
        in_stamp = [
            f.rule
            for (file, line), f in fixture_lint_sites().items()
            if file == stamp.file and stamp.line <= line <= stamp.body.end_lineno
        ]
        assert in_stamp == ["wallclock"]


class TestFindings:
    def test_exact_rule_counts(self):
        rules = {r: len(fs) for r, fs in by_rule(fixture_findings()).items()}
        assert rules == {
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

    def test_nondeterminism_is_simlints_at_four_sites(self):
        """Every unseeded RNG or wall-clock call the fixture's protocol and
        kernel can reach is a simlint finding where it is made, and only
        those four calls are."""
        sites = {key: f.rule for key, f in fixture_lint_sites().items()}
        assert sites == {
            ("badckpt/helpers.py", 13): "rng",
            ("badckpt/helpers.py", 17): "wallclock",
            ("badckpt/proto.py", 31): "rng",
            ("badckpt/stripes.py", 12): "wallclock",
        }

    def test_hidden_rng_witness_names_the_helper(self):
        """``checkpoint()`` reaches ``random.random()`` through the
        cross-module ``jitter()`` helper: the finding is at the helper's
        call, one module away from the protocol."""
        f = fixture_lint_sites()["badckpt/helpers.py", 13]
        assert f.rule == "rng" and "random.random()" in f.message

    def test_unseeded_default_argument_is_its_own_site(self):
        """``gen_block``'s default argument ``default_rng()`` is a finding
        of its own, independent of ``jitter``."""
        f = fixture_lint_sites()["badckpt/proto.py", 31]
        assert f.rule == "rng" and "unseeded numpy.random.default_rng()" in f.message

    def test_cross_module_wallclock_witness(self):
        """``try_restore()`` reads the host clock through ``stamp()`` in
        another module: the finding is at ``stamp``'s call."""
        f = fixture_lint_sites()["badckpt/helpers.py", 17]
        assert f.rule == "wallclock" and "time.time()" in f.message

    def test_premature_writes_stop_at_the_status_exchange(self):
        fs = by_rule(fixture_findings())["lifecycle-premature-write"]
        # the two pre-exchange writes, and ONLY those — the post-allgather
        # write on line 43 must not be flagged
        assert sorted(f.line for f in fs) == [40, 41]

    def test_phase_escape_names_the_method(self):
        (f,) = by_rule(fixture_findings())["lifecycle-phase-escape"]
        assert "scribble" in f.message

    def test_kernel_nondet(self):
        """The impure kernel's wall-clock read is simlint's finding; flow
        reports nothing in the kernel module."""
        f = fixture_lint_sites()["badckpt/stripes.py", 12]
        assert f.rule == "wallclock"
        assert [f for f in fixture_findings() if f.file == "badckpt/stripes.py"] == []


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
    def test_shipped_package_has_no_errors(self, shipped_flow):
        """The shipped protocols must satisfy their own lifecycle
        discipline (warnings may exist; errors may not)."""
        assert [f for f in shipped_flow.findings if f.severity == "error"] == []

    def test_all_shipped_protocols_are_seen(self, shipped_flow):
        names = {q.split(".")[-1] for q in shipped_flow.checkpointers}
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

    def test_restore_preamble_is_checked_in_one_place(self, shipped_flow):
        """Every group protocol restores through ``Checkpointer.try_restore``,
        so ``lifecycle-premature-write`` checks the status exchange once;
        only the disk and multi-level tiers have a restore entry of their
        own (the manager is a structural match that only delegates) — and
        none of them writes SHM before the exchange."""
        assert shipped_flow.restore_entries == {
            "repro.ckpt.protocol.Checkpointer.try_restore",
            "repro.ckpt.disk.DiskCheckpoint.try_restore",
            "repro.ckpt.multilevel.MultiLevelCheckpoint.try_restore",
        }
        fs = by_rule(shipped_flow.findings)
        assert fs.get("lifecycle-premature-write", []) == []

    def test_segments_made_by_the_shared_helper_are_tracked(self, shipped_flow):
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
            "repro.ckpt.self_ckpt.SelfCheckpointRS": {"_a1", "_b", "_b2", "_c", "_d"},
        }.items():
            assert (
                attrs | {"_ctrl", "_arrays"} <= shipped_flow.shm_attrs[cls]
            ), cls


class TestOneNondeterminismAnswer:
    """simlint alone answers "is this call nondeterministic": a protocol
    whose ``checkpoint()`` reads the host clock is a simlint ``wallclock``
    finding, except in a module allowed to read it, and never a flow
    finding."""

    SOURCE = (
        "import time\n\n\n"
        "class LeaseCheckpoint:\n"
        "    def checkpoint(self):\n"
        "        return time.time(){pragma}\n\n"
        "    def try_restore(self):\n"
        "        return None\n"
    )

    def _rules(self, tmp_path, module, pragma=""):
        path = tmp_path.joinpath(*module.split(".")).with_suffix(".py")
        path.parent.mkdir(parents=True)
        path.write_text(self.SOURCE.format(pragma=pragma))
        return (
            [f.rule for f in lint_paths([path])],
            [f.rule for f in analyze_paths([tmp_path])],
        )

    @pytest.mark.parametrize("module", WALLCLOCK_ALLOW)
    def test_lint_allowed_wallclock_is_flow_allowed(self, tmp_path, module):
        assert self._rules(tmp_path, module) == ([], [])

    def test_elsewhere_only_simlint_reports_it(self, tmp_path):
        assert self._rules(tmp_path, "repro.ckpt.lease") == (["wallclock"], [])

    def test_a_pragma_at_the_call_is_honoured(self, tmp_path):
        """An ``allow[wallclock]`` pragma on a call ``checkpoint()`` reaches
        is no finding of either analysis."""
        pragma = "  # simlint: allow[wallclock]"
        assert self._rules(tmp_path, "repro.ckpt.lease", pragma) == ([], [])


class TestShmHelperChains:
    """SHM-backed memory is found through a chain of helpers of any depth,
    whatever the helpers are called: a duck-typed protocol whose attributes
    come through 1 to 4 helpers writes each of them in ``try_restore()``
    before the status exchange, and each write is a finding."""

    @staticmethod
    def source(helper):
        """``helper(k)`` names the helper ``k`` calls away from ``shm_create``."""
        lines = [
            "class ChainCheckpoint:",
            "    def __init__(self, ctx, comm):",
            "        self.ctx = ctx",
            "        self.comm = comm",
        ]
        lines += [f"        self._a{k} = self.{helper(k)}()" for k in range(1, 5)]
        lines += ["", f"    def {helper(0)}(self):"]
        lines += ["        return self.ctx.shm_create('seg', 8).array"]
        for k in range(1, 5):
            lines += ["", f"    def {helper(k)}(self):"]
            lines += [f"        return self.{helper(k - 1)}()"]
        lines += ["", "    def checkpoint(self):", "        return None", ""]
        lines += ["    def try_restore(self):"]
        lines += [f"        self._a{k}[0] = 1" for k in range(1, 5)]
        lines += ["        self.comm.allgather(1)", "        return None", ""]
        return "\n".join(lines)

    def _premature_lines(self, root, helper):
        root.mkdir()
        (root / "chain.py").write_text(self.source(helper))
        return [
            f.line
            for f in analyze_paths([root])
            if f.rule == "lifecycle-premature-write"
        ]

    def test_every_hop_is_seen_under_either_naming(self, tmp_path):
        writes = [
            i
            for i, line in enumerate(self.source(str).splitlines(), start=1)
            if line.endswith("[0] = 1")
        ]
        against = self._premature_lines(tmp_path / "against", lambda k: f"_seg{4 - k}")
        along = self._premature_lines(tmp_path / "along", lambda k: f"_seg{k}")
        assert against == writes and len(writes) == 4
        assert along == against


class TestSameModuleName:
    """Outside a ``repro`` package two files can share a module name: each
    function is indexed from one file, scanned once, with that file's
    imports, and a later file never overwrites it."""

    def test_two_helpers_files(self, tmp_path):
        for d in "abc":
            (tmp_path / d).mkdir()
        (tmp_path / "a" / "helpers.py").write_text(
            "import os\n\n\n"
            "def g():\n"
            "    return os.getcwd()\n\n\n"
            "def f():\n"
            "    return g()\n"
        )
        (tmp_path / "b" / "helpers.py").write_text(
            "import tools as os\n\n\n"
            "def f():\n"
            "    return os.getcwd()\n\n\n"
            "def h():\n"
            "    return os.getcwd()\n"
        )
        (tmp_path / "c" / "tools.py").write_text("def getcwd():\n    return '.'\n")
        fns = build_index(parse_paths([tmp_path])).functions
        assert fns["helpers.f"].file == f"{tmp_path.name}/a/helpers.py"
        assert fns["helpers.f"].calls == [("helpers.g", 9)]
        # ``os`` is the standard library in a/, the project's tools in b/
        assert fns["helpers.g"].calls == []
        assert fns["helpers.h"].file == f"{tmp_path.name}/b/helpers.py"
        assert fns["helpers.h"].calls == [("tools.getcwd", 9)]


class TestShmThroughCalls:
    """A call's result is SHM through its receiver chain or an
    SHM-returning callee, never through its arguments: ``local``, the A2
    dict ``unpack_into`` / ``unpack_a2`` return, is no segment memory, and
    writing it before the status exchange is no finding — a write through
    a view of a segment still is."""

    SOURCE = (
        "class UnpackCheckpoint:\n"
        "    def __init__(self, ctx, comm, layout):\n"
        "        self.ctx = ctx\n"
        "        self.comm = comm\n"
        "        self.layout = layout\n"
        "        self._a1 = self.ctx.shm_create('a1', 8).array\n"
        "        self._b2 = self.ctx.shm_create('b2', 8).array\n"
        "        self._arrays = {'a': self._a1}\n\n"
        "    def checkpoint(self):\n"
        "        return None\n\n"
        "    def try_restore(self):\n"
        "        self.local = self.layout.unpack_into(self._a1, self._arrays)\n"
        "        self.local['k'] = 1\n"
        "        self.other = self.layout.unpack_a2(self._b2)\n"
        "        self.other['k'] = 1\n"
        "        self._a1.reshape(-1)[0] = 1\n"
        "        self.comm.allgather(1)\n"
        "        return None\n"
    )

    def test_only_the_view_write_is_premature(self, tmp_path):
        (tmp_path / "unpack.py").write_text(self.SOURCE)
        lines = [
            f.line
            for f in analyze_paths([tmp_path])
            if f.rule == "lifecycle-premature-write"
        ]
        assert lines == [18]
        cls = build_index(parse_paths([tmp_path])).classes["unpack.UnpackCheckpoint"]
        assert cls.shm_attrs == {"_a1", "_b2", "_arrays"}


class TestKernelModuleList:
    """``repro.ckpt.kernels`` holds every GF(256) fold and row codec, so
    it is under the ``flow-kernel-*`` purity rules like the stripe
    modules; an RNG call in it is simlint's finding, as in any module."""

    def test_rng_call_in_a_kernels_module_is_reported(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "kernels.py").write_text(
            "import numpy as np\n\n\n"
            "def gpow_fold(rows, out):\n"
            "    out[:] = np.random.default_rng().integers(0, 256, out.size)\n"
        )
        (f,) = lint_paths([pkg])
        assert (f.rule, f.file, f.line) == ("rng", "pkg/kernels.py", 5)
        assert analyze_paths([pkg]) == []
        index = build_index(parse_paths([pkg]))
        assert kernel_functions(index, KERNEL_MODULES) == ["kernels.gpow_fold"]
        # the hole the module list closed: the pre-kernels list saw nothing
        old = ("stripes", "stripes_rs", "raid6")
        assert kernel_functions(index, old) == []

    def test_shipped_folds_are_kernel_functions(self, shipped_flow):
        for name in (
            "kernels.gpow_fold",
            "kernels.RSCodec.decode",
            "stripes.reconstruct_members",
        ):
            assert any(q.endswith(name) for q in shipped_flow.kernel_functions), name
