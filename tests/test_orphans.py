"""No public top-level function or class under ``src/repro`` is an orphan.

An orphan is code only its own tests reach: it costs reading, review and
tier-1 seconds and tells the reader nothing about what the system does.
The walk is by name over the ASTs of ``src/``, ``benchmarks/`` (the e2e
benchmark package, nothing else) and ``examples/``: a definition counts as
referenced when its name is loaded (``f(...)``, ``mod.f``, a base class, a
decorator, an annotation) anywhere outside its own body.  Re-exports do not count — an ``import`` line or an
``__all__`` entry consumes nothing — and neither do tests.

Matching by bare name is deliberately loose (a method call ``x.render()``
keeps a function ``render`` alive); the check exists to catch the plain
case, a helper nobody calls.  What it cannot see — a reader half whose
writer half is the consumer, an oracle the tests are *for* — is listed in
``ALLOWED`` with the reason it stays.
"""

import ast
import os
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
CONSUMER_DIRS = ("src", "benchmarks", "examples")

#: qualified name -> why an unreferenced definition stays
ALLOWED = {
    "repro.ckpt.stripes.verify_group": (
        "test oracle: the stripe tests check every encode against it; "
        "ROADMAP item 5 wires it into the always-on invariant check"
    ),
    "repro.ckpt.stripes_rs.verify_group_rs": (
        "test oracle: the m = 2 spelling of verify_group, same item 5 consumer"
    ),
    "repro.obs.export.parse_chrome_trace": (
        "reader half of write_chrome_trace: the round-trip tests prove the "
        "exported document loses nothing"
    ),
    "repro.obs.export.read_metrics_jsonl": (
        "reader half of write_metrics_jsonl, same round-trip role"
    ),
    "repro.obs.rollup.span_from_doc": (
        "reader half of span_doc: rebuilds spans from --obs full payloads "
        "and trace-store rows"
    ),
    "repro.obs.export.span_tree": (
        "structural oracle of the same round trip: the export tests compare "
        "span forests through it (docs/OBSERVABILITY.md)"
    ),
    "repro.ckpt.stripes.slot_of_stripe": (
        "the paper's Fig. 5 stripe-to-slot mapping in closed form "
        "(docs/PROTOCOLS.md); the layout tests check layout_for(N, 1) "
        "against it"
    ),
    "repro.ckpt.stripes.stripe_in_slot": (
        "inverse of slot_of_stripe, same closed-form oracle role"
    ),
    "repro.ckpt.kernels.use_backend": (
        "test seam: the kernel equivalence sweep switches the process-wide "
        "GF(256) backend through it; production selects by environment"
    ),
    "repro.ckpt.kernels.available_backends": (
        "enumerates the backends for that sweep, default first"
    ),
    "repro.chaos.schedules.random_campaign": (
        "documented one-call API of the randomized campaign (docs/CHAOS.md, "
        "signature frozen by PR 16); the CLI spells the same plan through "
        "run_campaign directly"
    ),
    "repro.models.top500.average_gain_half_vs_third": (
        "Fig. 8's one-number takeaway (average gain from 1/3 to 1/2 of "
        "memory), pinned by tests/models; only the deleted fig8 bench printed "
        "it, and `repro fig8` stdout is frozen against the parent"
    ),
    "repro.util.units.parse_bytes": (
        "inverse of fmt_bytes at the configuration boundary; listed for "
        "removal by ISSUE 22 and kept only because ten floor tests pin it "
        "(CHANGES.md, one-recorder entry) — delete it with them"
    ),
}


def _python_files(top):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _loads(tree):
    """Names a tree consumes: loads and attribute accesses — never the
    aliases of an import statement or the strings of ``__all__``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def find_orphans(root=ROOT, package=PACKAGE):
    """``{qualified name: "file:line"}`` of unreferenced public top-level
    definitions under ``package``."""
    consumed = Counter()
    for top in CONSUMER_DIRS:
        for path in _python_files(os.path.join(root, top)):
            with open(path, encoding="utf-8") as f:
                consumed.update(_loads(ast.parse(f.read(), path)))
    orphans = {}
    for path in _python_files(package):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        rel = os.path.relpath(path, os.path.dirname(package))
        module = rel[: -len(".py")].replace(os.sep, ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            if consumed[node.name] - _loads(node)[node.name] <= 0:
                orphans[f"{module}.{node.name}"] = f"{rel}:{node.lineno}"
    return orphans


@pytest.fixture(scope="module")
def orphans():
    return find_orphans()


def test_every_public_definition_has_a_consumer(orphans):
    unexpected = {q: at for q, at in orphans.items() if q not in ALLOWED}
    assert not unexpected, (
        "referenced by nothing under src/, benchmarks/ or examples/ — wire "
        f"each to a consumer or delete it with its tests: {unexpected}"
    )


def test_allowlist_is_minimal_and_reasoned(orphans):
    stale = sorted(q for q in ALLOWED if q not in orphans)
    assert not stale, f"allowlisted but referenced (or gone): {stale}"
    assert all(len(reason) > 20 for reason in ALLOWED.values())


def test_benchmarks_is_the_e2e_package_only():
    """``benchmarks/`` holds what ``BENCHMARK.json`` names and nothing else:
    the paper's tables and figures are catalogue rows checked by
    ``tests/analysis``, not a second pytest-collected harness."""
    entries = set(os.listdir(os.path.join(ROOT, "benchmarks"))) - {"__pycache__"}
    assert entries == {"__init__.py", "e2e"}
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as f:
        pyproject = f.read()
    assert "pytest-benchmark" not in pyproject
    assert "bench_*" not in pyproject
