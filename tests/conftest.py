"""Runs that tests in several modules assert on, each made once per
session: a golden's run under a poison fill (the golden and the poison
net's case of that fill read one run), and the findings of simlint and of
the flow analysis on the shipped package, with the facts of the flow
index the tests read.  Also the replay pool's CPU pin the pool tests of
``tests/par`` and ``tests/chaos`` share.  Only results are kept: a parsed tree (the flow
index holds one per function) held for the session would slow every
later test's garbage collection."""

import contextlib
import io
from types import SimpleNamespace

import pytest

from repro.par import engine as par_engine
from repro.sancheck import flow, simlint
from repro.sancheck.flow.lifecycle import KERNEL_MODULES, kernel_functions, protocol_classes
from repro.sim import shm
from tests.chaos.helpers import GOLDEN_FILL, poison_alloc


@pytest.fixture
def engine_cpus(monkeypatch):
    """``engine_cpus(n)`` pins the CPU count the replay pool reads
    (``repro.par.engine.usable_cpus``), so a pool test means the same on
    a host of any size."""

    def pin(n):
        monkeypatch.setattr(par_engine, "usable_cpus", lambda: n)

    return pin


@pytest.fixture
def two_cpus(engine_cpus):
    """A real two-process pool, whatever the host's CPU count."""
    engine_cpus(2)


@pytest.fixture(scope="session")
def filled_run():
    """``filled_run(run, *args, fill=GOLDEN_FILL)`` is ``run(*args)`` made
    with every fresh ``zeroed=False`` segment filled with byte ``fill``
    and stdout discarded; each distinct call runs once per session."""
    done = {}

    def get(run, *args, fill=GOLDEN_FILL):
        key = (run, args, fill)
        if key not in done:
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
                mp.setattr(shm, "_alloc_unzeroed", poison_alloc(fill))
                done[key] = run(*args)
        return dict(done[key])

    return get


@pytest.fixture(scope="session")
def shipped_lint():
    return simlint.lint_paths([simlint.default_lint_root()])


@pytest.fixture(scope="session")
def shipped_flow():
    """One flow index of the shipped package serves every test that reads
    it: its findings and the facts of it the tests assert on."""
    index = flow.build_index(simlint.parse_paths([simlint.default_lint_root()]))
    return SimpleNamespace(
        findings=flow.analyze_index(index),
        shm_attrs={q: set(c.shm_attrs) for q, c in index.classes.items()},
        checkpointers=protocol_classes(index, "Checkpointer"),
        restore_entries={
            index.lookup_method(q, "try_restore")
            for q in protocol_classes(index, "CheckpointProtocol")
            if index.is_descendant_of(q, "CheckpointProtocol")
        },
        kernel_functions=kernel_functions(index, KERNEL_MODULES),
    )


@pytest.fixture
def shipped_analyses_once(monkeypatch, shipped_lint, shipped_flow):
    """Inside the test, ``repro check`` reads the session's simlint and
    flow findings on the shipped package, the only path it may be given,
    and parses nothing."""
    root = (simlint.default_lint_root(),)
    shipped = simlint.Sources(())

    def parse(paths):
        assert tuple(paths) == root
        return shipped

    def served(findings):
        def analysis(sources):
            assert sources is shipped
            return list(findings)

        return analysis

    monkeypatch.setattr(simlint, "parse_paths", parse)
    monkeypatch.setattr(simlint, "lint_sources", served(shipped_lint))
    monkeypatch.setattr(flow, "analyze_sources", served(shipped_flow.findings))
