"""Tests for the static invariant linter (repro.sancheck.simlint)."""

import textwrap
from pathlib import Path

import pytest

from repro.sancheck import lint_paths, lint_source
from repro.sancheck.simlint import module_name_for


def lint(source, module="somepkg.mod"):
    return lint_source(textwrap.dedent(source), filename="mod.py", module=module)


def rules(findings):
    return [f.rule for f in findings]


class TestWallclock:
    def test_time_sleep_flagged(self):
        fs = lint("import time\ntime.sleep(1)\n")
        assert rules(fs) == ["wallclock"]
        assert "time.sleep" in fs[0].message
        assert fs[0].line == 2

    def test_aliased_import_resolved(self):
        fs = lint("import time as _walltime\n_walltime.monotonic()\n")
        assert rules(fs) == ["wallclock"]

    def test_from_import_resolved(self):
        fs = lint("from time import sleep\nsleep(0.1)\n")
        assert rules(fs) == ["wallclock"]

    def test_datetime_now_flagged(self):
        fs = lint("from datetime import datetime\ndatetime.now()\n")
        assert rules(fs) == ["wallclock"]

    def test_allowlisted_module_clean(self):
        fs = lint("import time\ntime.monotonic()\n", module="repro.par.progress")
        assert fs == []

    def test_simulator_may_not_read_the_host_clock(self):
        """``repro.sim.mpi`` left the allowlist with its polling deadline:
        ``repro check lint`` fails if the simulator reads real time again."""
        fs = lint("import time\ntime.monotonic()\n", module="repro.sim.mpi")
        assert rules(fs) == ["wallclock"]

    def test_pragma_suppresses(self):
        fs = lint("import time\ntime.sleep(1)  # simlint: allow[wallclock]\n")
        assert fs == []

    def test_pragma_is_rule_specific(self):
        fs = lint("import time\ntime.sleep(1)  # simlint: allow[threading]\n")
        assert rules(fs) == ["wallclock"]


class TestPragmaAnchoring:
    DECORATED = """\
        import time


        def stamp_at(t):
            def deco(fn):
                return fn
            return deco


        @stamp_at(time.time()){pragma_dec}
        def f():{pragma_def}
            return 1
        """

    def decorated(self, pragma_def="", pragma_dec=""):
        return lint(
            self.DECORATED.format(pragma_def=pragma_def, pragma_dec=pragma_dec)
        )

    def test_finding_lands_on_the_decorator_line(self):
        fs = self.decorated()
        assert rules(fs) == ["wallclock"]
        assert fs[0].line == 10  # the @stamp_at(...) line, not the def

    def test_def_line_pragma_covers_decorator_lines(self):
        assert self.decorated(pragma_def="  # simlint: allow[wallclock]") == []

    def test_disable_spelling_accepted(self):
        assert self.decorated(pragma_def="  # simlint: disable=wallclock") == []

    def test_bare_disable_covers_all_rules(self):
        assert self.decorated(pragma_def="  # simlint: disable") == []

    def test_def_line_pragma_stays_rule_specific(self):
        fs = self.decorated(pragma_def="  # simlint: disable=rng")
        assert rules(fs) == ["wallclock"]

    def test_decorator_line_pragma_still_works(self):
        assert self.decorated(pragma_dec="  # simlint: disable=wallclock") == []

    def test_disable_suppresses_plain_statement(self):
        fs = lint("import time\ntime.sleep(1)  # simlint: disable=wallclock\n")
        assert fs == []

    def test_def_pragma_merges_with_decorator_pragma(self):
        # rule sets on the def line and the decorator line union together
        fs = self.decorated(
            pragma_def="  # simlint: disable=wallclock",
            pragma_dec="  # simlint: disable=rng",
        )
        assert fs == []


class TestThreading:
    def test_lock_flagged(self):
        fs = lint("import threading\nlock = threading.Lock()\n")
        assert rules(fs) == ["threading"]

    def test_thread_flagged(self):
        fs = lint(
            "from threading import Thread\nt = Thread(target=print)\n"
        )
        assert rules(fs) == ["threading"]

    def test_sim_package_allowed(self):
        fs = lint(
            "import threading\nlock = threading.Lock()\n",
            module="repro.sim.newmodule",
        )
        assert fs == []


class TestRng:
    def test_stdlib_random_flagged(self):
        fs = lint("import random\nrandom.randint(0, 5)\n")
        assert rules(fs) == ["rng"]

    def test_numpy_legacy_flagged(self):
        fs = lint("import numpy as np\nnp.random.rand(3)\n")
        assert rules(fs) == ["rng"]

    def test_unseeded_default_rng_flagged(self):
        fs = lint("import numpy as np\nnp.random.default_rng()\n")
        assert rules(fs) == ["rng"]

    def test_seeded_default_rng_ok(self):
        assert lint("import numpy as np\nnp.random.default_rng(42)\n") == []

    def test_rng_module_allowed(self):
        fs = lint(
            "import numpy as np\nnp.random.seed(1)\n", module="repro.util.rng"
        )
        assert fs == []

    PROBE = "import os, random, secrets, uuid\nimport numpy as np\nx = {}\n"

    @pytest.mark.parametrize(
        "call",
        [
            "np.random.rand()",
            "np.random.exponential(1.0)",
            "np.random.RandomState()",
            "np.random.PCG64()",
            "np.random.SeedSequence()",
            "np.random.Generator(np.random.Philox())",
            "np.random.default_rng()",
            "os.urandom(8)",
            "uuid.uuid1()",
            "uuid.uuid4()",
            "secrets.token_bytes(8)",
            "random.random()",
        ],
    )
    def test_each_unseeded_spelling_is_one_finding(self, call):
        assert rules(lint(self.PROBE.format(call))) == ["rng"]

    @pytest.mark.parametrize(
        "call",
        [
            "np.random.default_rng(1)",
            "np.random.Generator(np.random.PCG64(1))",
            "np.random.SeedSequence(5)",
        ],
    )
    def test_seeded_constructors_are_clean(self, call):
        assert lint(self.PROBE.format(call)) == []


class TestRecvMutate:
    def test_augassign_after_recv_flagged(self):
        fs = lint(
            """
            def f(comm):
                x = comm.recv(source=0)
                x += 1
                return x
            """
        )
        assert rules(fs) == ["recv-mutate"]

    def test_subscript_store_flagged(self):
        fs = lint(
            """
            def f(comm):
                x = comm.allreduce(None)
                x[0] = 3.0
            """
        )
        assert rules(fs) == ["recv-mutate"]

    def test_mutator_method_flagged(self):
        fs = lint(
            """
            def f(comm):
                x = comm.bcast(None)
                x.fill(0)
            """
        )
        assert rules(fs) == ["recv-mutate"]

    def test_copied_result_ok(self):
        fs = lint(
            """
            import numpy as np

            def f(comm):
                x = np.array(comm.recv(source=0), copy=True)
                x += 1
                y = comm.recv(source=1).copy()
                y[0] = 2
            """
        )
        assert fs == []

    def test_rebinding_clears_taint(self):
        fs = lint(
            """
            def f(comm):
                x = comm.recv(source=0)
                x = x * 2
                x += 1
            """
        )
        assert fs == []

    def test_taint_is_function_scoped(self):
        fs = lint(
            """
            def f(comm):
                x = comm.recv(source=0)

            def g(x):
                x += 1
            """
        )
        assert fs == []


class TestObsLabel:
    def test_unregistered_span_label_flagged(self):
        fs = lint('ctx.span("ckpt.enc0de")\n')
        assert rules(fs) == ["obs-label"]
        assert "SPAN_LABELS" in fs[0].message

    def test_registered_span_label_clean(self):
        assert lint('ctx.span("ckpt.encode", nbytes=8)\n') == []

    def test_unregistered_metric_name_flagged(self):
        fs = lint('reg.counter("mpi.bytes_snet", rank=0)\n')
        assert rules(fs) == ["obs-label"]
        assert "METRIC_NAMES" in fs[0].message

    def test_registered_metric_names_clean(self):
        src = """\
            reg.counter("mpi.bytes_sent", rank=0)
            reg.gauge("job.makespan_s")
            reg.histogram("mpi.blocked_s", rank=1)
            """
        assert lint(src) == []

    def test_dynamic_name_not_flagged(self):
        # non-literal names are validated at runtime by the registry
        assert lint("ctx.span(label)\nreg.counter(name, rank=0)\n") == []

    def test_pragma_suppresses(self):
        fs = lint('ctx.span("scratch")  # simlint: allow[obs-label]\n')
        assert fs == []


class TestTree:
    def test_repo_source_tree_is_clean(self, shipped_lint):
        """The shipped package must satisfy its own invariants."""
        assert shipped_lint == []

    def test_lint_flags_bad_file_on_disk(self, tmp_path):
        bad = tmp_path / "offender.py"
        bad.write_text("import time\ntime.sleep(3)\n")
        fs = lint_paths([bad])
        assert rules(fs) == ["wallclock"]
        # the path is anchored at the file's directory, as flow reports it
        assert fs[0].file == f"{tmp_path.name}/offender.py"

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        fs = lint_paths([bad])
        assert rules(fs) == ["syntax"]


class TestModuleNames:
    def test_package_paths(self):
        assert (
            module_name_for(Path("src/repro/sim/mpi.py")) == "repro.sim.mpi"
        )
        assert module_name_for(Path("src/repro/sim/__init__.py")) == "repro.sim"
        assert module_name_for(Path("/tmp/loose.py")) == "loose"


class TestParallel:
    def test_multiprocessing_import_flagged(self):
        fs = lint("import multiprocessing\n")
        assert rules(fs) == ["parallel"]
        assert "repro.par.ParallelEngine" in fs[0].message

    def test_concurrent_futures_flagged(self):
        fs = lint(
            "from concurrent.futures import ProcessPoolExecutor\n"
        )
        assert rules(fs) == ["parallel"]

    def test_submodule_import_flagged(self):
        fs = lint("import multiprocessing.pool\n")
        assert rules(fs) == ["parallel"]

    def test_repro_par_allowed(self):
        fs = lint("import multiprocessing\n", module="repro.par.engine")
        assert fs == []

    def test_pragma_escape_hatch(self):
        fs = lint(
            "import multiprocessing  # simlint: allow[parallel]\n"
        )
        assert fs == []

    def test_plain_concurrent_name_not_flagged(self):
        # only the concurrent.futures subpackage carries executors
        fs = lint("import concurrency_helpers\n")
        assert fs == []
