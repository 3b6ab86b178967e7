"""Runs that tests in several modules assert on, each made once per
session: a golden's run under a poison fill (the golden and the poison
net's case of that fill read one run), and the findings of simlint and of
the flow analysis on the shipped package.  Only results are kept: a
parsed tree held for the session would slow every later test's garbage
collection."""

import contextlib
import io

import pytest

from repro.sancheck import flow, simlint
from repro.sim import shm
from tests.chaos.helpers import GOLDEN_FILL, poison_alloc


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
def shipped_flow_findings():
    return flow.analyze_paths([simlint.default_lint_root()])


@pytest.fixture
def shipped_analyses_once(monkeypatch, shipped_lint, shipped_flow_findings):
    """Inside the test, simlint and the flow analysis return the session's
    findings on the shipped package, the only path they may be given."""
    root = [str(simlint.default_lint_root())]

    def served(findings):
        def analysis(paths):
            assert list(map(str, paths)) == root
            return list(findings)

        return analysis

    monkeypatch.setattr(simlint, "lint_paths", served(shipped_lint))
    monkeypatch.setattr(flow, "analyze_paths", served(shipped_flow_findings))
