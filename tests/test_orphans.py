"""No public top-level function or class under ``src/repro``, no public
member of such a class, no defaulted parameter of either, and no instance
attribute is an orphan.

An orphan is code only its own tests reach: it costs reading, review and
tier-1 seconds and tells the reader nothing about what the system does.
The walk is by name over the ASTs of ``src/``, ``benchmarks/`` (the e2e
benchmark package, nothing else) and ``examples/``: a definition counts as
referenced when its name is loaded (``f(...)``, ``mod.f``, ``obj.method``,
a base class, a decorator, an annotation) anywhere outside its own body.  Re-exports do not count — an ``import`` line or an
``__all__`` entry consumes nothing — and neither do tests.  Members are
methods, properties, classmethods and staticmethods; ``visit_*`` methods
are exempt, since ``ast.NodeVisitor`` dispatches them by name.

Matching by bare name is deliberately loose (a method call ``x.render()``
keeps a function ``render`` alive); the check exists to catch the plain
case, a helper nobody calls.  What it cannot see — a reader half whose
writer half is the consumer, an oracle the tests are *for* — is listed in
``ALLOWED`` with the reason it stays.

An orphan parameter is an option nothing sets: every run takes its
default, so it is a constant with a knob on it.  Its check
(:func:`find_orphan_parameters`) counts tests as callers, since a
parameter a test sets is a seam, and sees through forwarding — a
``**kw`` passes on only what its function's callers pass, and
``name=name`` sets ``name`` only if the enclosing parameter is set;
exceptions are listed in ``ALLOWED_PARAMS``.

An orphan attribute is state nothing reads: a ``self.x = ...`` in a class
under ``src/repro`` whose name no code under ``src/``, ``benchmarks/`` or
``examples/`` loads as ``.x`` (or names in ``getattr``/``hasattr``).
Stores do not count — ``self.x += 1`` only writes — and neither do
tests, which would otherwise keep a counter alive just by asserting on it
(:func:`find_orphan_attributes`; exceptions in ``ALLOWED``).
"""

import ast
import functools
import os
from collections import Counter
from pathlib import Path

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
    "repro.sancheck.simlint.lint_source": (
        "documented one-call API (docs/API.md): lints one string as a named "
        "module, which the rule tests need; `repro check` lints through "
        "parse_paths + lint_sources so the flow analysis reads the same parse"
    ),
    "repro.sancheck.simlint.lint_paths": (
        "documented one-call API (docs/API.md), lint_sources(parse_paths(p)); "
        "`repro check` spells it in two steps for the same shared parse"
    ),
    "repro.sancheck.flow.driver.analyze_paths": (
        "documented one-call API (docs/API.md), analyze_sources(parse_paths(p)); "
        "`repro check` spells it in two steps for the same shared parse"
    ),
    "repro.ckpt.kernels.GF256.mul": (
        "scalar reference: the GF(2^8) field-law tests and the vec_mul / "
        "vec_mul_xor kernel tests check against it"
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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(tree, module):
    """``(qualified name, node)`` of the public top-level definitions and of
    the public members of top-level classes — methods, properties,
    classmethods and staticmethods.  ``visit_*`` methods are reached through
    ``ast.NodeVisitor``'s dispatch by name, never by a load."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if member.name.startswith(("_", "visit_")):
                continue
            yield f"{module}.{node.name}.{member.name}", member


@pytest.fixture(scope="module", autouse=True)
def _parse_once():
    """The walks share one parse of each directory while this module runs;
    the trees go with it."""
    yield
    _parsed.cache_clear()


@functools.cache
def _parsed(top):
    """``[(normalized path, tree)]`` of every Python file under ``top``: the
    walks only read the trees."""
    return [
        (os.path.normpath(path), ast.parse(Path(path).read_text(encoding="utf-8"), path))
        for path in _python_files(top)
    ]


def _sources(root, dirs):
    """``[(normalized path, tree)]`` of every Python file under ``dirs``."""
    return [source for top in dirs for source in _parsed(os.path.join(root, top))]


def _modules(package, sources):
    """``(path relative to the package's parent, dotted module, tree)`` of
    the files of ``sources`` under ``package``."""
    package = os.path.normpath(package)
    for path, tree in sources:
        if not path.startswith(package + os.sep):
            continue
        rel = os.path.relpath(path, os.path.dirname(package))
        module = rel[: -len(".py")].replace(os.sep, ".")
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        yield rel, module, tree


def find_orphans(root=ROOT, package=PACKAGE):
    """``{qualified name: "file:line"}`` of unreferenced public top-level
    definitions and class members under ``package``."""
    sources = _sources(root, CONSUMER_DIRS)
    consumed = Counter()
    for _, tree in sources:
        consumed.update(_loads(tree))
    orphans = {}
    for rel, module, tree in _modules(package, sources):
        for qualified, node in _public_definitions(tree, module):
            if consumed[node.name] - _loads(node)[node.name] <= 0:
                orphans[qualified] = f"{rel}:{node.lineno}"
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


def test_class_members_are_checked_by_the_same_rule(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "class Shape:\n"
        "    def area(self):\n"
        "        return self.side * self.side\n"
        "    @property\n"
        "    def side(self):\n"
        "        return 2\n"
        "    @staticmethod\n"
        "    def unit():\n"
        "        return Shape()\n"
        "    def again(self):\n"
        "        return self.again()\n"
        "    def visit_Name(self, node):\n"
        "        return node\n"
        "    def _helper(self):\n"
        "        return None\n"
        "\n"
        "print(Shape().area())\n"
    )
    found = find_orphans(root=str(tmp_path), package=str(pkg))
    assert sorted(found) == ["pkg.mod.Shape.again", "pkg.mod.Shape.unit"]


#: consumers of a parameter: unlike definitions, a parameter a test sets is
#: a seam (a fake clock, a small size), so tests count as callers here
PARAM_CONSUMER_DIRS = CONSUMER_DIRS + ("tests",)

#: qualified parameter (``module.function.parameter``, ``module.Class.field``
#: for a ``*Config`` field) -> why a parameter no call sets stays
ALLOWED_PARAMS = {
    "repro.chaos.schedules.random_campaign.cache": (
        "documented one-call API of the randomized campaign (docs/CHAOS.md): "
        "its signature mirrors run_kill_matrix's executor options"
    ),
}


def _is_dataclass(node):
    return any(
        _callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def _defaulted(args, offset):
    """``[(parameter node, positional index or None)]`` of the defaulted
    parameters of a signature; ``offset`` is the count of leading
    parameters a call never passes (``self``, ``cls``)."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a, i - offset) for i, a in enumerate(positional) if i >= first]
    out += [
        (a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    return out


def _signature_params(tree, module):
    """``(callee name, qualified parameter, parameter, positional index,
    node)`` of every defaulted parameter in scope: public top-level
    functions, public methods and ``__init__`` of public top-level classes,
    and ``*Config`` dataclass fields (positional in field order).  A call
    reaches an ``__init__`` or a field through the class name."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        if not isinstance(node, ast.ClassDef):
            for a, index in _defaulted(node.args, 0):
                yield (node.name, f"{module}.{node.name}.{a.arg}", a.arg,
                       index, a)
            continue
        if node.name.endswith("Config") and _is_dataclass(node):
            fields = [
                f for f in node.body
                if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
            ]
            for index, f in enumerate(fields):
                if f.value is not None:
                    name = f.target.id
                    yield (node.name, f"{module}.{node.name}.{name}", name,
                           index, f)
        for member in node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if member.name.startswith("_") and member.name != "__init__":
                continue
            static = "staticmethod" in map(_callee, member.decorator_list)
            callee = node.name if member.name == "__init__" else member.name
            for a, index in _defaulted(member.args, 0 if static else 1):
                yield (callee, f"{module}.{node.name}.{member.name}.{a.arg}",
                       a.arg, index, a)


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _calls(tree, loads):
    """``(callee name, positional args, keywords, scopes)`` of every call,
    ``scopes`` being the functions it sits in, innermost first, with
    ``functools.partial(f, ...)`` read as a call of ``f`` and
    ``Process(target=f, args=(...), kwargs={...})`` as one too.  Counts
    the tree's loads (as :func:`_loads` does) into ``loads`` on the way."""
    todo = [(tree, ())]
    while todo:
        node, scopes = todo.pop()
        if isinstance(node, _FUNCS):
            scopes = (node, *scopes)
        elif isinstance(node, ast.Name):
            loads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            loads[node.attr] += 1
        todo += [(child, scopes) for child in ast.iter_child_nodes(node)]
        if not isinstance(node, ast.Call):
            continue
        callee, args = _callee(node.func), node.args
        if callee == "partial" and args:
            callee, args = _callee(args[0]), args[1:]
        yield callee, args, node.keywords, scopes
        spawn = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        if "target" in spawn:
            targs, tkws = spawn.get("args"), spawn.get("kwargs")
            yield (
                _callee(spawn["target"]),
                targs.elts if isinstance(targs, ast.Tuple) else [],
                [
                    ast.keyword(arg=k.value, value=v)
                    for k, v in zip(tkws.keys, tkws.values)
                    if isinstance(k, ast.Constant)
                ] if isinstance(tkws, ast.Dict) else [],
                scopes,
            )


def _parameters(fn):
    """Every parameter node of a function, ``*args`` and ``**kw`` too."""
    a = fn.args
    return a.posonlyargs + a.args + a.kwonlyargs + [
        p for p in (a.vararg, a.kwarg) if p
    ]


def _binder(scopes, value):
    """``(function, parameter node)`` when ``value`` names a parameter of
    a function the call sits in (the innermost that has one), else None."""
    if isinstance(value, ast.Name):
        for fn in scopes:
            for p in _parameters(fn):
                if p.arg == value.id:
                    return fn, p
    return None


def find_orphan_parameters(root=ROOT, package=PACKAGE):
    """``{qualified parameter: "file:line"}`` of the defaulted parameters in
    scope that no call under ``src/``, ``benchmarks/``, ``examples/`` or
    ``tests/`` sets by keyword, reaches by position or forwards ``**`` to.
    Calls match by bare callee name; a keyword passed to a callee defined
    nowhere under ``package`` (``cls(...)``, ``build(...)``) is dispatch
    the walk cannot resolve, and consumes that keyword everywhere.

    Forwarding is seen through.  ``f(**kw)``, where ``kw`` is the ``**``
    parameter of a function the call sits in, passes the keywords that
    function's callers pass beyond its named parameters (every keyword,
    when a caller's own ``**`` cannot be resolved or the function is used
    as a value).  ``f(name=x)``, where ``x`` is a parameter of a function
    the call sits in and one this walk checks, sets ``name`` only once
    ``x`` is itself set."""
    sources = _sources(root, PARAM_CONSUMER_DIRS)
    params, defined, at = [], set(), {}
    for rel, module, tree in _modules(package, sources):
        defined.update(n.name for n in ast.walk(tree) if isinstance(n, _DEFS))
        path = os.path.normpath(os.path.join(os.path.dirname(package), rel))
        for callee, qualified, name, index, node in _signature_params(tree, module):
            params.append((rel, callee, qualified, name, index, node.lineno))
            at[path, node.lineno, node.col_offset] = qualified
    records, loads, called = [], Counter(), Counter()
    for path, tree in sources:
        for callee, args, kws, scopes in _calls(tree, loads):
            records.append((path, callee, args, kws, scopes))
            called[callee] += 1

    def forwarded(fn, seen):
        """The keywords ``fn``'s callers pass into its ``**`` parameter,
        or None when they cannot be told."""
        if fn in seen:  # a ring of forwards adds nothing
            return set()
        # a lambda, a class's __init__ and a function used as a value are
        # called through values the walk cannot follow
        name = getattr(fn, "name", None)
        if name in (None, "__init__") or loads[name] > called[name]:
            return None
        named = {p.arg for p in fn.args.args + fn.args.kwonlyargs}
        out = set()
        for _, callee, _, kws, scopes in records:
            if callee != name:
                continue
            for kw in kws:
                passed = splatted(kw, scopes, seen | {fn}) if kw.arg is None else {kw.arg}
                if passed is None:
                    return None
                out |= passed - named
        return out

    def splatted(kw, scopes, seen=frozenset()):
        """The keywords a ``**`` argument carries, or None when unknown."""
        bound = _binder(scopes, kw.value)
        if bound is None or bound[1] is not bound[0].args.kwarg:
            return None
        return forwarded(bound[0], seen)

    keywords, reach, splat, anywhere, pending = set(), {}, set(), set(), []

    def consume(callee, name):
        if callee in defined:
            keywords.add((callee, name))
        else:
            anywhere.add(name)

    for path, callee, args, kws, scopes in records:
        starred = any(isinstance(a, ast.Starred) for a in args)
        reach[callee] = max(
            reach.get(callee, 0), float("inf") if starred else len(args)
        )
        for kw in kws:
            if kw.arg is None:
                passed = splatted(kw, scopes)
                if passed is None:
                    splat.add(callee)
                for name in passed or ():
                    consume(callee, name)
                continue
            bound = _binder(scopes, kw.value)
            source = bound and at.get((path, bound[1].lineno, bound[1].col_offset))
            if source:
                pending.append((callee, kw.arg, source))
            else:
                consume(callee, kw.arg)

    def unset():
        return {
            qualified: f"{rel}:{line}"
            for rel, callee, qualified, name, index, line in params
            if (callee, name) not in keywords
            and callee not in splat
            and name not in anywhere
            and (index is None or index >= reach.get(callee, 0))
        }

    # a pass-through sets its keyword once its source is set: iterate to
    # the least fixed point, so a ring of pass-throughs sets nothing
    orphans = unset()
    while True:
        ready = [p for p in pending if p[2] not in orphans]
        if not ready:
            return orphans
        pending = [p for p in pending if p[2] in orphans]
        for callee, name, _ in ready:
            consume(callee, name)
        orphans = unset()


@pytest.fixture(scope="module")
def orphan_parameters():
    return find_orphan_parameters()


def test_every_parameter_has_a_caller(orphan_parameters):
    unexpected = {
        q: at for q, at in orphan_parameters.items() if q not in ALLOWED_PARAMS
    }
    assert not unexpected, (
        "set by no call under src/, benchmarks/, examples/ or tests/ — make "
        f"each default a constant and drop the parameter: {unexpected}"
    )


def test_parameters_are_consumed_by_keyword_position_splat_or_partial(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "import functools\n"
        "from dataclasses import dataclass\n"
        "\n"
        "def by_keyword(a, flag=False): pass\n"
        "def by_position(a, flag=False): pass\n"
        "def by_splat(a, flag=False): pass\n"
        "def by_partial(a, flag=False): pass\n"
        "def unset(a, flag=False): pass\n"
        "\n"
        "class Widget:\n"
        "    def __init__(self, size=1, color=None): pass\n"
        "    def resize(self, factor=2): pass\n"
        "\n"
        "@dataclass\n"
        "class WidgetConfig:\n"
        "    width: int\n"
        "    height: int = 2\n"
        "    depth: int = 3\n"
        "\n"
        "by_keyword(1, flag=True)\n"
        "by_splat(1, **{'flag': True})\n"
        "functools.partial(by_partial, 1, True)\n"
        "Widget(3).resize()\n"
        "WidgetConfig(1, 2)\n"
        "make(color='red')  # defined nowhere: consumes color everywhere\n"
        "\n"
        "def by_forward(a, flag=False, other=None): pass\n"
        "def by_closure(a, flag=False, other=None): pass\n"
        "def relayed(a, flag=False): pass\n"
        "def relay(a, flag=False): relayed(a, flag=flag)\n"
        "def kept(a, flag=False): pass\n"
        "def keep(a, flag=False): kept(a, flag=flag)\n"
        "def ring(a, flag=False): ring(a, flag=flag)\n"
        "def forward(a, **kw): by_forward(a, **kw)\n"
        "\n"
        "def make_app(size=1, **kw):\n"
        "    def app():\n"
        "        return by_closure(size, **kw)\n"
        "    return app\n"
        "\n"
        "class Plan:\n"
        "    def __init__(self, sleep=None, clock=None): pass\n"
        "    @classmethod\n"
        "    def build(cls, **kw): return cls(**kw)\n"
        "\n"
        "Plan.build(sleep=print)\n"
        "keep(1, flag=True)\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "by_position(1, True)\n"
        "forward(1, flag=True)\n"
        "make_app(size=2, flag=True)\n"
    )
    found = find_orphan_parameters(root=str(tmp_path), package=str(pkg))
    assert sorted(found) == [
        "pkg.mod.Plan.__init__.clock",
        "pkg.mod.Widget.resize.factor",
        "pkg.mod.WidgetConfig.depth",
        "pkg.mod.by_closure.other",
        "pkg.mod.by_forward.other",
        "pkg.mod.relay.flag",
        "pkg.mod.relayed.flag",
        "pkg.mod.ring.flag",
        "pkg.mod.unset.flag",
    ]


def _attribute_reads(tree):
    """Attribute names a tree reads: ``.x`` loads, and the string literal
    of ``getattr(obj, "x", ...)`` / ``hasattr(obj, "x")``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif (
            isinstance(node, ast.Call)
            and _callee(node.func) in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            out[node.args[1].value] += 1
    return out


def _instance_attributes(tree, module):
    """``(module.Class.attr, line)`` of every ``self.attr = ...`` (plain,
    annotated or tuple-unpacking) in a method of a class of ``tree``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or not fn.args.args:
                continue
            self_name = fn.args.args[0].arg
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                        if (
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == self_name
                        ):
                            yield f"{module}.{cls.name}.{t.attr}", t.attr, t.lineno


def find_orphan_attributes(root=ROOT, package=PACKAGE):
    """``{module.Class.attr: "file:line"}`` of the instance attributes under
    ``package`` that nothing under ``src/``, ``benchmarks/`` or
    ``examples/`` reads."""
    sources = _sources(root, CONSUMER_DIRS)
    reads = Counter()
    for _, tree in sources:
        reads.update(_attribute_reads(tree))
    return {
        qualified: f"{rel}:{line}"
        for rel, module, tree in _modules(package, sources)
        for qualified, name, line in _instance_attributes(tree, module)
        if not reads[name]
    }


@pytest.fixture(scope="module")
def orphan_attributes():
    return find_orphan_attributes()


def test_every_instance_attribute_is_read(orphan_attributes):
    unexpected = {q: at for q, at in orphan_attributes.items() if q not in ALLOWED}
    assert not unexpected, (
        "assigned but read by nothing under src/, benchmarks/ or examples/ — "
        f"delete each or wire it to a reader: {unexpected}"
    )


def test_instance_attributes_count_loads_and_getattr_only(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self.read = 0\n"
        "        self.probed = 0\n"
        "        self.bumped = 0\n"
        "        self.left, self.right = 1, 2\n"
        "    def bump(self):\n"
        "        self.bumped += 1\n"
        "        return self.read + self.left\n"
        "\n"
        "print(getattr(Counter(), 'probed', 0))\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("assert Counter().right == 2\n")
    found = find_orphan_attributes(root=str(tmp_path), package=str(pkg))
    assert sorted(found) == ["pkg.mod.Counter.bumped", "pkg.mod.Counter.right"]


def test_allowlist_is_minimal_and_reasoned(orphans, orphan_attributes, orphan_parameters):
    for allowed, found in (
        (ALLOWED, {**orphans, **orphan_attributes}),
        (ALLOWED_PARAMS, orphan_parameters),
    ):
        stale = sorted(q for q in allowed if q not in found)
        assert not stale, f"allowlisted but consumed (or gone): {stale}"
        assert all(len(reason) > 20 for reason in allowed.values())


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
