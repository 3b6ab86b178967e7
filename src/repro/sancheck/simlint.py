"""``simlint`` — AST lint pass enforcing the simulator's repo invariants.

The simulator's correctness argument rests on discipline the interpreter
cannot enforce: all timing flows through *virtual* clocks, all concurrency
through the :mod:`repro.sim` runtime, all randomness through seeded streams
(restarted ranks must regenerate bit-identical data, paper §5.2), and MPI
results must be copied before mutation (value semantics of real message
passing).  ``simlint`` checks those invariants statically over the source
tree:

``wallclock``
    No ``time.time``/``time.sleep``/``time.monotonic``/
    ``datetime.now``-style calls outside the allowlist (host-side progress
    and lease code only; the simulator itself never consults real time).

``threading``
    No raw ``threading.Thread``/``Lock``/``Condition``/... construction
    outside ``repro.sim`` — rank concurrency belongs to the runtime.

``rng``
    No stdlib ``random`` and no legacy/unseeded ``numpy.random`` outside
    ``repro.util.rng``; everything else must derive streams from
    ``seeded_rng``/``block_rng``.

``recv-mutate``
    A name bound directly to an MPI ``recv``/collective result must not be
    mutated in place (``x += ...``, ``x[...] = ...``, ``x.fill(...)``)
    without an explicit copy — even though the simulated communicator
    copies defensively, application code written against it must stay
    correct on zero-copy transports.

``parallel``
    No direct ``multiprocessing`` / ``concurrent.futures`` imports outside
    :mod:`repro.par` — host-process parallelism must go through the one
    engine whose deterministic merge keeps artifacts byte-identical
    (everything else would race the campaign's canonical ordering).

``obs-label``
    String literals passed to ``ctx.span(...)`` must come from
    :data:`repro.obs.labels.SPAN_LABELS` and literals naming instruments
    (``registry.counter/gauge/histogram(...)``) from
    :data:`repro.obs.labels.METRIC_NAMES` — the closed vocabularies every
    exporter, report and dashboard keys on.  A typo'd label would create a
    silently-separate series; this catches it at lint time, before the
    registry's runtime check ever runs.

Suppression: a line containing ``# simlint: allow`` (all rules) or
``# simlint: allow[rule1,rule2]`` is exempt; ``# simlint:
disable=rule1,rule2`` is an accepted alias.  A pragma on a function's
``def`` line also covers the decorator lines above it — findings whose
AST nodes live inside a decorator expression are attributed to the
decorator's line, and forcing the pragma onto that line instead would
split the suppression from the function it documents.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.obs.labels import METRIC_NAMES, SPAN_LABELS
from repro.sancheck.findings import Finding

#: dotted call paths that consult the wall clock
WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.sleep",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: threading primitives whose construction is reserved to the runtime
THREADING_CALLS = {
    "threading.Thread",
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Event",
    "threading.Barrier",
    "threading.Timer",
    "threading.local",
}

#: legacy global-state numpy.random functions (unseeded by construction)
NUMPY_LEGACY_RANDOM = {
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "seed",
    "choice",
    "shuffle",
    "permutation",
    "normal",
    "uniform",
    "standard_normal",
    "bytes",
}

#: communicator methods whose return value feeds ``recv-mutate`` tracking
COMM_RESULT_METHODS = {
    "recv",
    "sendrecv",
    "bcast",
    "allreduce",
    "gather",
    "allgather",
    "allreduce_obj",
}

#: call paths that count as an explicit copy of their argument
COPY_CALLS = {"numpy.copy", "numpy.array", "numpy.ascontiguousarray", "copy.copy", "copy.deepcopy"}

#: in-place mutator method names on tainted names
MUTATOR_METHODS = {"fill", "sort", "resize", "partition", "put", "setflags", "update", "clear", "append", "extend", "insert", "remove"}

#: method names whose first (string-literal) argument names a span
SPAN_METHODS = {"span"}

#: method names whose first (string-literal) argument names a metric
METRIC_METHODS = {"counter", "gauge", "histogram"}

#: modules whose import marks host-process parallelism (``parallel`` rule)
PARALLEL_MODULES = ("multiprocessing", "concurrent.futures")

_PRAGMA_RE = re.compile(
    r"#\s*simlint:\s*(?:allow|disable)(?:\[([\w\-,\s]*)\]|=([\w\-,\s]+))?"
)


#: modules that may read the host clock, and modules that own RNG
#: construction — the one pair of allowlists simlint and the whole-program
#: flow analysis both use (every allowlist prefix-matches dotted module
#: names)
WALLCLOCK_ALLOW: Tuple[str, ...] = (
    "repro.par.progress",
    # lease expiry is real-world liveness (a dead executor's wall
    # clock stops), so the shard queue must read the host clock
    "repro.shard",
)
RNG_ALLOW: Tuple[str, ...] = ("repro.util.rng",)
#: modules that may construct threads, and import host-process parallelism
THREADING_ALLOW: Tuple[str, ...] = ("repro.sim",)
PARALLEL_ALLOW: Tuple[str, ...] = ("repro.par", "repro.shard")


def _module_allowed(module: str, prefixes: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def classify_nondet_call(
    path: str,
    has_args: bool,
    module: str,
    wallclock_allow: Sequence[str],
    rng_allow: Sequence[str],
) -> Optional[str]:
    """The one answer to "is this call nondeterministic, and is it allowed
    in ``module``" — simlint's ``wallclock`` / ``rng`` rules and the flow
    analysis's effect extraction both ask it, and word their own messages.

    ``"wallclock"``, ``"rng-stdlib"``, ``"rng-legacy"`` and
    ``"rng-unseeded"`` are violations; ``"rng-seeded"`` is a
    ``default_rng`` that stays deterministic (seeded, or inside an
    RNG-owning module); ``None`` is every other call."""
    if path in WALLCLOCK_CALLS:
        return None if _module_allowed(module, wallclock_allow) else "wallclock"
    if _module_allowed(module, rng_allow):
        return "rng-seeded" if path == "numpy.random.default_rng" else None
    if path == "random" or path.startswith("random."):
        return "rng-stdlib"
    if path.startswith("numpy.random.") and path.split(".")[-1] in NUMPY_LEGACY_RANDOM:
        return "rng-legacy"
    if path == "numpy.random.default_rng":
        return "rng-seeded" if has_args else "rng-unseeded"
    return None


#: simlint's rule and wording per :func:`classify_nondet_call` violation
_NONDET_FINDINGS = {
    "wallclock": (
        "wallclock",
        "wall-clock call {path}() — simulator code must use virtual time "
        "(ctx.elapse/ctx.clock)",
    ),
    "rng-stdlib": (
        "rng",
        "stdlib {path}() — derive streams from repro.util.rng.seeded_rng/block_rng",
    ),
    "rng-legacy": (
        "rng",
        "legacy global-state {path}() — use repro.util.rng.seeded_rng/block_rng",
    ),
    "rng-unseeded": (
        "rng",
        "unseeded {path}() — restarted ranks must be able to regenerate "
        "identical streams",
    ),
}


def module_name_for(path: Path) -> str:
    """Dotted module name for a file, anchored at the last ``repro``
    package directory; bare stem for files outside the package."""
    parts = list(path.parts)
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        rel = parts[idx:]
    else:
        rel = [parts[-1]]
    rel[-1] = Path(rel[-1]).stem
    if rel[-1] == "__init__":
        rel = rel[:-1] or ["repro"]
    return ".".join(rel)


def _pragma_lines(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line numbers to their suppressed rule sets
    (``None`` == all rules suppressed on that line)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _PRAGMA_RE.search(line)
        if not m:
            continue
        rules = m.group(1) if m.group(1) is not None else m.group(2)
        if rules is None:
            out[i] = None
        else:
            out[i] = {r.strip() for r in rules.split(",") if r.strip()}
    return out


def _merge_pragma(
    pragmas: Dict[int, Optional[Set[str]]], line: int, rules: Optional[Set[str]]
) -> None:
    existing = pragmas.get(line)
    if line in pragmas and (existing is None or rules is None):
        pragmas[line] = None
    elif existing is not None and rules is not None:
        pragmas[line] = existing | rules
    else:
        pragmas[line] = set(rules) if rules is not None else None


def _anchor_decorator_pragmas(
    tree: ast.AST, pragmas: Dict[int, Optional[Set[str]]]
) -> None:
    """A pragma on a decorated ``def``/``class`` line also suppresses
    findings attributed to its decorator lines — decorator expressions
    carry their own linenos, which is where call findings land."""
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if not node.decorator_list or node.lineno not in pragmas:
            continue
        rules = pragmas[node.lineno]
        for dec in node.decorator_list:
            end = getattr(dec, "end_lineno", None) or dec.lineno
            for line in range(dec.lineno, end + 1):
                _merge_pragma(pragmas, line, rules)


class ImportResolver(ast.NodeVisitor):
    """Track import aliases so call sites resolve to canonical dotted paths."""

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for a in node.names:
            self.aliases[a.asname or a.name.split(".")[0]] = (
                a.name if a.asname else a.name.split(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports never hide the stdlib modules we track
        for a in node.names:
            if a.name == "*":
                continue
            self.aliases[a.asname or a.name] = f"{node.module}.{a.name}"

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Canonical dotted path of an attribute/name chain, or None."""
        attrs: List[str] = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id, node.id)
        return ".".join([base] + list(reversed(attrs)))


class _Linter(ast.NodeVisitor):
    def __init__(
        self,
        module: str,
        filename: str,
        pragmas: Dict[int, Optional[Set[str]]],
        imports: ImportResolver,
    ):
        self.module = module
        self.filename = filename
        self.pragmas = pragmas
        self.imports = imports
        self.findings: List[Finding] = []
        #: name -> lineno where it was tainted by a comm result (per scope)
        self._taint_stack: List[Dict[str, int]] = [{}]

    # -- helpers ---------------------------------------------------------------
    def _suppressed(self, rule: str, lineno: int) -> bool:
        if lineno not in self.pragmas:
            return False
        allowed = self.pragmas[lineno]
        return allowed is None or rule in allowed

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if self._suppressed(rule, lineno):
            return
        self.findings.append(
            Finding(
                tool="simlint",
                rule=rule,
                message=message,
                file=self.filename,
                line=lineno,
            )
        )

    @property
    def _taint(self) -> Dict[str, int]:
        return self._taint_stack[-1]

    # -- parallel: imports of host-process parallelism modules -----------------
    def _parallel_module(self, module: str) -> Optional[str]:
        for p in PARALLEL_MODULES:
            if module == p or module.startswith(p + "."):
                return p
        return None

    def _check_parallel_import(self, node: ast.AST, module: str) -> None:
        hit = self._parallel_module(module)
        if hit is not None and not _module_allowed(self.module, PARALLEL_ALLOW):
            self._report(
                "parallel",
                node,
                f"direct {hit} import — host-process parallelism goes "
                "through repro.par.ParallelEngine (deterministic merge, "
                "memo cache, crash folding)",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for a in node.names:
            self._check_parallel_import(node, a.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None and not node.level:
            self._check_parallel_import(node, node.module)
        self.generic_visit(node)

    # -- scope handling for recv-mutate ---------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._taint_stack.append({})
        self.generic_visit(node)
        self._taint_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._taint_stack.append({})
        self.generic_visit(node)
        self._taint_stack.pop()

    # -- call-based rules ------------------------------------------------------
    def _is_comm_result_call(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in COMM_RESULT_METHODS
        )

    def _is_copy_wrapped(self, node: ast.expr) -> bool:
        """True when ``node`` is an explicit copy of whatever it wraps."""
        if not isinstance(node, ast.Call):
            return False
        if isinstance(node.func, ast.Attribute) and node.func.attr == "copy":
            return True
        path = self.imports.resolve(node.func)
        return path in COPY_CALLS

    def visit_Call(self, node: ast.Call) -> None:
        path = self.imports.resolve(node.func)
        if path is not None:
            kind = classify_nondet_call(
                path,
                bool(node.args or node.keywords),
                self.module,
                WALLCLOCK_ALLOW,
                RNG_ALLOW,
            )
            if kind in _NONDET_FINDINGS:
                rule, message = _NONDET_FINDINGS[kind]
                self._report(rule, node, message.format(path=path))
            if path in THREADING_CALLS and not _module_allowed(
                self.module, THREADING_ALLOW
            ):
                self._report(
                    "threading",
                    node,
                    f"raw {path}() construction — rank concurrency belongs "
                    "to the repro.sim runtime",
                )
        self._check_obs_label(node)
        self.generic_visit(node)

    def _check_obs_label(self, node: ast.Call) -> None:
        """Validate literal span/metric names against the closed
        vocabularies in :mod:`repro.obs.labels`."""
        if not isinstance(node.func, ast.Attribute):
            return
        attr = node.func.attr
        if attr not in SPAN_METHODS and attr not in METRIC_METHODS:
            return
        arg: Optional[ast.expr] = node.args[0] if node.args else None
        if arg is None:
            for kw in node.keywords:
                if kw.arg == "name":
                    arg = kw.value
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            return  # dynamic names are the registry's runtime problem
        name = arg.value
        if attr in SPAN_METHODS and name not in SPAN_LABELS:
            self._report(
                "obs-label",
                node,
                f"span label {name!r} is not in repro.obs.labels.SPAN_LABELS"
                " — register it there (typo'd labels fragment the trace)",
            )
        elif attr in METRIC_METHODS and name not in METRIC_NAMES:
            self._report(
                "obs-label",
                node,
                f"metric name {name!r} is not in "
                "repro.obs.labels.METRIC_NAMES — register it there "
                "(typo'd names create silently-separate series)",
            )

    # -- recv-mutate taint tracking --------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        tainted = self._is_comm_result_call(node.value) and not self._is_copy_wrapped(
            node.value
        )
        for target in node.targets:
            names = (
                [e for e in target.elts if isinstance(e, ast.Name)]
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
                if isinstance(target, ast.Name)
                else []
            )
            for name in names:
                if tainted:
                    self._taint[name.id] = node.lineno
                else:
                    self._taint.pop(name.id, None)
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                self._check_mutation(target.value, node, f"{target.value.id}[...] = ...")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            self._check_mutation(node.target, node, f"{node.target.id} op= ...")
        elif isinstance(node.target, ast.Subscript) and isinstance(
            node.target.value, ast.Name
        ):
            self._check_mutation(
                node.target.value, node, f"{node.target.value.id}[...] op= ..."
            )
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in MUTATOR_METHODS
            and isinstance(call.func.value, ast.Name)
        ):
            self._check_mutation(
                call.func.value, node, f"{call.func.value.id}.{call.func.attr}(...)"
            )
        self.generic_visit(node)

    def _check_mutation(self, name: ast.Name, node: ast.AST, what: str) -> None:
        bound_at = self._taint.get(name.id)
        if bound_at is not None:
            self._report(
                "recv-mutate",
                node,
                f"in-place mutation {what} of {name.id!r} bound to an MPI "
                f"recv/collective result at line {bound_at} without an "
                "explicit copy",
            )


def lint_source(
    source: str,
    filename: str,
    module: Optional[str] = None,
) -> List[Finding]:
    """Lint one source string; returns findings (possibly a syntax error)."""
    module = module or module_name_for(Path(filename))
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as e:
        return [
            Finding(
                tool="simlint",
                rule="syntax",
                message=f"cannot parse: {e.msg}",
                file=filename,
                line=e.lineno or 0,
            )
        ]
    imports = ImportResolver()
    imports.visit(tree)
    pragmas = _pragma_lines(source)
    _anchor_decorator_pragmas(tree, pragmas)
    linter = _Linter(module, filename, pragmas, imports)
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: (f.file, f.line, f.rule, f.message))


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    out: List[Path] = []
    for p in paths:
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            out.append(p)
    return out


def lint_paths(paths: Sequence[Path]) -> List[Finding]:
    """Lint every ``*.py`` under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    for path in iter_python_files([Path(p) for p in paths]):
        findings.extend(lint_source(path.read_text(encoding="utf-8"), str(path)))
    return findings


def default_lint_root() -> Path:
    """The installed ``repro`` package source tree."""
    import repro

    return Path(repro.__file__).resolve().parent
