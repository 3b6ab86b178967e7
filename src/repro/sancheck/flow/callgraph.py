"""Project-wide module/call graph over the ``repro`` source tree.

The graph is built purely from source text — nothing is imported — so
the analyzer can run over fixture packages and broken trees alike.  Call
resolution is deliberately *sound-ish* rather than precise:

* ``from``/``import`` aliases resolve names to canonical dotted paths
  (the same machinery simlint uses);
* ``self.method(...)`` resolves through the class hierarchy (nearest
  definition in the MRO **plus** every subclass override — class
  hierarchy analysis, so dynamic dispatch over protocol subclasses is
  covered);
* ``self.attr.method(...)`` resolves through a per-class attribute type
  map harvested from ``self.attr = ClassName(...)`` assignments;
* ``var = ClassName(...); var.method(...)`` resolves through local
  variable types;
* everything else is recorded as an unresolved external/method call and
  classified by name at the effect layer.

Nested functions and lambdas are inlined into their enclosing function:
their calls and writes belong to the parent summary, which matches how
the closures in this codebase are used (built and invoked locally, e.g.
the ``compute`` callbacks handed to ``custom_collective``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sancheck.simlint import (
    ImportResolver,
    iter_python_files,
    module_name_for,
)

#: sentinel for calls on SHM segment stores (create/unlink)
SHM_METHODS = frozenset({"shm_create", "shm_unlink"})


def rel_file(path: Path, root: Path) -> str:
    """Stable, machine-independent display path for a source file.

    Files inside a ``repro`` package render anchored at that package
    (``repro/ckpt/self_ckpt.py``); anything else renders relative to the
    scanned root, prefixed with the root directory's name, so fixture
    trees get deterministic paths too.
    """
    parts = path.parts
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[idx:])
    try:
        rel = path.resolve().relative_to(root.resolve())
        return "/".join((root.name,) + rel.parts)
    except ValueError:
        return "/".join(parts[-2:]) if len(parts) >= 2 else path.name


@dataclass
class FunctionNode:
    """One analyzed function/method plus everything the later passes need."""

    qualname: str
    module: str
    cls: Optional[str]  # owning class qualname, if a method
    name: str
    file: str
    line: int
    #: resolved project callees as (callee qualname, call lineno)
    calls: List[Tuple[str, int]] = field(default_factory=list)
    #: unresolved external calls as (dotted path, lineno, has_any_args)
    external: List[Tuple[str, int, bool]] = field(default_factory=list)
    #: unresolved attribute calls as (terminal method name, lineno)
    method_calls: List[Tuple[str, int]] = field(default_factory=list)
    #: linenos of writes through SHM-backed attributes/aliases
    shm_writes: List[int] = field(default_factory=list)
    #: (global name, lineno) stores following a ``global`` declaration
    global_writes: List[Tuple[str, int]] = field(default_factory=list)
    body: Optional[ast.AST] = field(default=None, repr=False)


@dataclass
class ClassNode:
    qualname: str
    module: str
    name: str
    file: str
    line: int
    #: raw dotted base paths as written (import-resolved, maybe unresolvable)
    raw_bases: Tuple[str, ...] = ()
    #: resolved project base class qualnames
    bases: Tuple[str, ...] = ()
    #: method name -> FunctionNode qualname
    methods: Dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` -> project class qualname (from ``self.a = Cls(...)``)
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: attributes known to alias SHM segment memory
    shm_attrs: Set[str] = field(default_factory=set)


@dataclass
class ProjectIndex:
    """Everything the effect/taint/lifecycle passes consume."""

    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassNode] = field(default_factory=dict)
    #: class qualname -> direct subclasses
    subclasses: Dict[str, Set[str]] = field(default_factory=dict)
    files: List[str] = field(default_factory=list)

    # -- hierarchy helpers ------------------------------------------------------
    def mro(self, cls: str) -> List[str]:
        """Linearized project ancestry (DFS, duplicates removed)."""
        out: List[str] = []
        stack = [cls]
        seen: Set[str] = set()
        while stack:
            c = stack.pop(0)
            if c in seen or c not in self.classes:
                continue
            seen.add(c)
            out.append(c)
            stack = list(self.classes[c].bases) + stack
        return out

    def all_subclasses(self, cls: str) -> List[str]:
        out: List[str] = []
        stack = sorted(self.subclasses.get(cls, ()))
        while stack:
            c = stack.pop(0)
            if c in out:
                continue
            out.append(c)
            stack.extend(sorted(self.subclasses.get(c, ())))
        return out

    def lookup_method(self, cls: str, name: str) -> Optional[str]:
        """Nearest definition of ``name`` in ``cls``'s project MRO."""
        for c in self.mro(cls):
            q = self.classes[c].methods.get(name)
            if q is not None:
                return q
        return None

    def dispatch_targets(self, cls: str, name: str) -> List[str]:
        """CHA: the MRO definition plus every subclass override."""
        out: List[str] = []
        base = self.lookup_method(cls, name)
        if base is not None:
            out.append(base)
        for sub in self.all_subclasses(cls):
            q = self.classes[sub].methods.get(name)
            if q is not None and q not in out:
                out.append(q)
        return out

    def is_descendant_of(self, cls: str, base_name: str) -> bool:
        """True when ``cls`` descends (transitively) from any class whose
        bare name is ``base_name`` — including *unresolved* raw bases, so
        fixture trees that subclass ``Checkpointer`` without shipping it
        still register as protocol classes."""
        for c in self.mro(cls):
            node = self.classes.get(c)
            if node is None:
                continue
            for raw in node.raw_bases:
                if raw.split(".")[-1] == base_name:
                    return True
        return cls.split(".")[-1] == base_name


def _contains_shm_source(node: ast.AST) -> bool:
    """True when an expression subtree manufactures SHM-backed memory."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "shm_create":
            return True
        if isinstance(sub, ast.Name) and sub.id == "shm_create":
            return True
    return False


def _returns_shm(fn_node: ast.AST, is_source=_contains_shm_source) -> bool:
    """Does this function return SHM-backed memory?  Tracks locals bound
    to ``shm_create`` results (``seg = ctx.shm_create(...);
    return seg.array`` is the idiom everywhere).  ``is_source`` widens
    what counts as manufacturing SHM (see :func:`build_index`)."""
    shm_locals: Set[str] = set()
    for _ in range(2):
        for sub in ast.walk(fn_node):
            if isinstance(sub, ast.Assign):
                tainted = is_source(sub.value) or any(
                    isinstance(n, ast.Name) and n.id in shm_locals
                    for n in ast.walk(sub.value)
                )
                if tainted:
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            shm_locals.add(target.id)
    for sub in ast.walk(fn_node):
        if isinstance(sub, ast.Return) and sub.value is not None:
            if is_source(sub.value) or any(
                isinstance(n, ast.Name) and n.id in shm_locals
                for n in ast.walk(sub.value)
            ):
                return True
    return False


class _FunctionScanner(ast.NodeVisitor):
    """One pass over a function body collecting calls and writes.

    Nested function/lambda bodies are visited in place (see module
    docstring); nested *class* bodies are skipped — their methods are
    indexed separately.
    """

    def __init__(
        self,
        index: "ProjectIndex",
        imports: ImportResolver,
        module: str,
        module_functions: Dict[str, str],
        module_classes: Dict[str, str],
        owner: Optional[ClassNode],
        fn: FunctionNode,
        self_name: Optional[str],
        shm_returning: Optional[Set[str]] = None,
    ) -> None:
        self.index = index
        self.imports = imports
        self.module = module
        self.module_functions = module_functions
        self.module_classes = module_classes
        self.owner = owner
        self.fn = fn
        self.self_name = self_name
        self.shm_returning = shm_returning or set()
        #: local var -> project class qualname
        self.var_types: Dict[str, str] = {}
        #: local names aliasing SHM-backed memory
        self.shm_vars: Set[str] = set()
        self.globals_declared: Set[str] = set()

    # -- resolution helpers -----------------------------------------------------
    def _resolve_class(self, dotted: Optional[str]) -> Optional[str]:
        if dotted is None:
            return None
        if dotted in self.index.classes:
            return dotted
        if dotted in self.module_classes:
            return self.module_classes[dotted]
        last = dotted.split(".")[-1]
        candidates = [
            q for q, c in self.index.classes.items() if c.name == last
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _self_attr(self, node: ast.expr) -> Optional[str]:
        """Attribute name when ``node`` is exactly ``self.<attr>``."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and self.self_name is not None
            and node.value.id == self.self_name
        ):
            return node.attr
        return None

    def _is_shm_expr(self, node: ast.expr) -> bool:
        """Does this expression read SHM-backed memory?"""
        if _contains_shm_source(node):
            return True
        for sub in ast.walk(node):
            attr = self._self_attr(sub) if isinstance(sub, ast.expr) else None
            if (
                attr is not None
                and self.owner is not None
                and attr in self.owner.shm_attrs
            ):
                return True
            if isinstance(sub, ast.Name) and sub.id in self.shm_vars:
                return True
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and self._self_attr(sub.func) is not None
                and self.owner is not None
            ):
                targets = self.index.dispatch_targets(
                    self.owner.qualname, sub.func.attr
                )
                if any(t in self.shm_returning for t in targets):
                    return True
        return False

    def _record_shm_write(self, lineno: int) -> None:
        self.fn.shm_writes.append(lineno)

    # -- statements -------------------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # nested classes are indexed on their own

    def _bind(self, name: str, value: ast.expr, lineno: int) -> None:
        dotted = self.imports.resolve(value.func) if isinstance(value, ast.Call) else None
        cls = self._resolve_class(dotted) if dotted else None
        if cls is not None:
            self.var_types[name] = cls
        else:
            self.var_types.pop(name, None)
        if self._is_shm_expr(value):
            self.shm_vars.add(name)
        else:
            self.shm_vars.discard(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._handle_store(target, node.value, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_store(node.target, node.value, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_write_target(node.target, node.lineno)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.target, ast.Name) and self._is_shm_expr(node.iter):
            self.shm_vars.add(node.target.id)
        self.generic_visit(node)

    def _handle_store(self, target: ast.expr, value: ast.expr, lineno: int) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self.fn.global_writes.append((target.id, lineno))
            self._bind(target.id, value, lineno)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.var_types.pop(elt.id, None)
                    if self._is_shm_expr(value):
                        self.shm_vars.add(elt.id)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            self._handle_write_target(target, lineno)

    def _handle_write_target(self, target: ast.expr, lineno: int) -> None:
        """A store through a subscript/attribute — SHM write when the
        base aliases segment memory."""
        base = target.value if isinstance(target, ast.Subscript) else target
        if isinstance(target, ast.Subscript) and self._is_shm_expr(base):
            self._record_shm_write(lineno)
        elif isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self.fn.global_writes.append((target.id, lineno))
            if target.id in self.shm_vars:
                self._record_shm_write(lineno)

    # -- calls ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        has_args = bool(node.args or node.keywords)
        lineno = node.lineno
        func = node.func
        resolved = False

        if isinstance(func, ast.Name):
            dotted = self.imports.resolve(func)
            resolved = self._resolve_plain(dotted, lineno, has_args)
        elif isinstance(func, ast.Attribute):
            resolved = self._resolve_attribute(func, lineno, has_args)
        if not resolved and isinstance(func, ast.Attribute):
            root = func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            dotted = self.imports.resolve(func)
            if (
                dotted is not None
                and isinstance(root, ast.Name)
                and root.id in self.imports.aliases
            ):
                # the receiver chain is rooted in an imported module
                # (e.g. ``numpy.bitwise_xor.reduce``): a known library
                # call, not a method on an unresolved comm/shm object —
                # classifying it by terminal name would misread a library
                # function that shares a communicator method's name
                self.fn.external.append((dotted, lineno, has_args))
            else:
                self.fn.method_calls.append((func.attr, lineno))
                if dotted is not None:
                    self.fn.external.append((dotted, lineno, has_args))
        elif not resolved and isinstance(func, ast.Name):
            dotted = self.imports.resolve(func)
            if dotted is not None:
                self.fn.external.append((dotted, lineno, has_args))
        self.generic_visit(node)

    def _add_project_call(self, qual: str, lineno: int) -> None:
        self.fn.calls.append((qual, lineno))

    def _resolve_plain(
        self, dotted: Optional[str], lineno: int, has_args: bool
    ) -> bool:
        """Resolve a bare-name (or from-imported) call."""
        if dotted is None:
            return False
        if dotted in self.index.functions:
            self._add_project_call(dotted, lineno)
            return True
        if dotted in self.module_functions:
            self._add_project_call(self.module_functions[dotted], lineno)
            return True
        cls = self._resolve_class(dotted)
        if cls is not None:
            init = self.index.lookup_method(cls, "__init__")
            if init is not None:
                self._add_project_call(init, lineno)
            return True
        return False

    def _resolve_attribute(
        self, func: ast.Attribute, lineno: int, has_args: bool
    ) -> bool:
        """Resolve ``a.b.c(...)`` forms."""
        # self.method(...)
        attr = self._self_attr(func)
        if attr is not None and self.owner is not None:
            targets = self.index.dispatch_targets(self.owner.qualname, attr)
            if targets:
                for t in targets:
                    self._add_project_call(t, lineno)
                return True
            # self.attr where attr is a typed instance attribute used as
            # a callable — uncommon; fall through to method-name record
            return False
        # super().method(...) — resolve past the defining class in the MRO
        if (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and self.owner is not None
        ):
            for c in self.index.mro(self.owner.qualname)[1:]:
                target = self.index.classes[c].methods.get(func.attr)
                if target is not None:
                    self._add_project_call(target, lineno)
                    return True
            return False
        # self.attr.method(...) via the attribute type map
        if (
            isinstance(func.value, ast.Attribute)
            and self.owner is not None
        ):
            inner = self._self_attr(func.value)
            if inner is not None and inner in self.owner.attr_types:
                cls = self.owner.attr_types[inner]
                targets = self.index.dispatch_targets(cls, func.attr)
                if targets:
                    for t in targets:
                        self._add_project_call(t, lineno)
                    return True
        # var.method(...) via local variable types
        if isinstance(func.value, ast.Name) and func.value.id in self.var_types:
            cls = self.var_types[func.value.id]
            targets = self.index.dispatch_targets(cls, func.attr)
            if targets:
                for t in targets:
                    self._add_project_call(t, lineno)
                return True
        # module-qualified project call: pkg.func(...) / Cls.method(...)
        dotted = self.imports.resolve(func)
        if dotted is not None:
            if dotted in self.index.functions:
                self._add_project_call(dotted, lineno)
                return True
            head, _, tail = dotted.rpartition(".")
            cls = self._resolve_class(head) if head else None
            if cls is not None:
                target = self.index.lookup_method(cls, tail)
                if target is not None:
                    self._add_project_call(target, lineno)
                    return True
        return False


def build_index(paths: Sequence[Path]) -> ProjectIndex:
    """Parse every ``*.py`` under ``paths`` into a :class:`ProjectIndex`."""
    paths = [Path(p) for p in paths]
    root = paths[0] if paths and paths[0].is_dir() else Path(".")
    index = ProjectIndex()
    parsed: List[Tuple[str, str, ast.Module, ImportResolver]] = []

    # pass 1: modules, classes, functions
    for path in iter_python_files(paths):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError:
            continue  # simlint reports syntax errors; the graph skips the file
        module = module_name_for(path)
        file = rel_file(path, root)
        index.files.append(file)
        imports = ImportResolver()
        imports.visit(tree)
        parsed.append((module, file, tree, imports))

        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module}.{stmt.name}"
                index.functions[qual] = FunctionNode(
                    qualname=qual,
                    module=module,
                    cls=None,
                    name=stmt.name,
                    file=file,
                    line=stmt.lineno,
                    body=stmt,
                )
            elif isinstance(stmt, ast.ClassDef):
                cqual = f"{module}.{stmt.name}"
                raw_bases = tuple(
                    b for b in (imports.resolve(base) for base in stmt.bases) if b
                )
                cnode = ClassNode(
                    qualname=cqual,
                    module=module,
                    name=stmt.name,
                    file=file,
                    line=stmt.lineno,
                    raw_bases=raw_bases,
                )
                index.classes[cqual] = cnode
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        mqual = f"{cqual}.{sub.name}"
                        cnode.methods[sub.name] = mqual
                        index.functions[mqual] = FunctionNode(
                            qualname=mqual,
                            module=module,
                            cls=cqual,
                            name=sub.name,
                            file=file,
                            line=sub.lineno,
                            body=sub,
                        )

    # pass 2: resolve bases, subclass map, attribute types, SHM attributes
    for cqual in sorted(index.classes):
        cnode = index.classes[cqual]
        resolved: List[str] = []
        for raw in cnode.raw_bases:
            target: Optional[str] = None
            if raw in index.classes:
                target = raw
            else:
                last = raw.split(".")[-1]
                cands = [q for q, c in index.classes.items() if c.name == last]
                if len(cands) == 1:
                    target = cands[0]
            if target is not None and target != cqual:
                resolved.append(target)
                index.subclasses.setdefault(target, set()).add(cqual)
        cnode.bases = tuple(resolved)

    shm_returning = {
        q
        for q, fn in index.functions.items()
        if fn.body is not None and _returns_shm(fn.body)
    }
    # Two rounds: round 1 harvests direct `self.x = shm_create(...)` forms;
    # round 2 sees one-hop helpers (`self._ctrl = self._make_ctrl()`,
    # `self._arrays[k] = self._alloc_array(...)`) and methods that return
    # an SHM attribute discovered in round 1.
    for _ in range(2):
        for cqual in sorted(index.classes):
            cnode = index.classes[cqual]
            imports = _imports_for(parsed, cnode.module)
            for mname in sorted(cnode.methods):
                fn = index.functions[cnode.methods[mname]]
                if fn.body is not None:
                    _harvest_class_attrs(cnode, fn, index, imports, shm_returning)
        # inherit SHM attributes and attribute types down the hierarchy
        for cqual in sorted(index.classes):
            cnode = index.classes[cqual]
            for anc in index.mro(cqual)[1:]:
                cnode.shm_attrs |= index.classes[anc].shm_attrs
                for k, v in index.classes[anc].attr_types.items():
                    cnode.attr_types.setdefault(k, v)
        # methods returning self.<shm attr>, or what an SHM-returning
        # method of theirs returned (``return self._shm(...)``), also
        # manufacture SHM aliases
        for q in sorted(index.functions):
            fn = index.functions[q]
            owner = index.classes.get(fn.cls) if fn.cls else None
            if fn.body is None or owner is None or q in shm_returning:
                continue
            self_name = _first_arg_name(fn.body)

            def is_source(value: ast.expr) -> bool:
                return (
                    _contains_shm_source(value)
                    or _calls_shm_returning(value, self_name, owner, index, shm_returning)
                    or any(
                        isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name)
                        and n.value.id == self_name
                        and n.attr in owner.shm_attrs
                        for n in ast.walk(value)
                    )
                )

            if _returns_shm(fn.body, is_source):
                shm_returning.add(q)

    # pass 3: per-function call/write scan
    for module, file, tree, imports in parsed:
        module_functions = {
            fn.name: q
            for q, fn in index.functions.items()
            if fn.module == module and fn.cls is None
        }
        module_classes = {
            c.name: q for q, c in index.classes.items() if c.module == module
        }
        for q in sorted(index.functions):
            fn = index.functions[q]
            if fn.module != module or fn.body is None:
                continue
            owner = index.classes.get(fn.cls) if fn.cls else None
            self_name = _first_arg_name(fn.body) if owner is not None else None
            scanner = _FunctionScanner(
                index,
                imports,
                module,
                module_functions,
                module_classes,
                owner,
                fn,
                self_name,
                shm_returning,
            )
            assert isinstance(fn.body, (ast.FunctionDef, ast.AsyncFunctionDef))
            for default in list(fn.body.args.defaults) + [
                d for d in fn.body.args.kw_defaults if d is not None
            ]:
                scanner.visit(default)
            for stmt in fn.body.body:
                scanner.visit(stmt)
    return index


def _first_arg_name(fn_node: ast.AST) -> Optional[str]:
    if isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = fn_node.args
        ordered = list(args.posonlyargs) + list(args.args)
        if ordered:
            return ordered[0].arg
    return None


def _calls_shm_returning(
    value: ast.expr,
    self_name: Optional[str],
    cnode: ClassNode,
    index: ProjectIndex,
    shm_returning: Set[str],
) -> bool:
    """``self.attr = self._make_ctrl()`` — one interprocedural hop to
    methods whose body returns SHM-backed memory."""
    for node in ast.walk(value):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        base = node.func.value
        if not (
            isinstance(base, ast.Name)
            and self_name is not None
            and base.id == self_name
        ):
            continue
        for target in index.dispatch_targets(cnode.qualname, node.func.attr):
            if target in shm_returning:
                return True
    return False


def _class_for(dotted: Optional[str], index: ProjectIndex) -> Optional[str]:
    if dotted is None:
        return None
    if dotted in index.classes:
        return dotted
    last = dotted.split(".")[-1]
    cands = [q for q, c in index.classes.items() if c.name == last]
    return cands[0] if len(cands) == 1 else None


def _harvest_class_attrs(
    cnode: ClassNode,
    fn: FunctionNode,
    index: ProjectIndex,
    imports: ImportResolver,
    shm_returning: Set[str],
) -> None:
    """Scan one method body for ``self.attr = ...`` bindings, recording
    attribute types and SHM-backed attributes (including container forms
    like ``self._arrays[name] = arr`` with ``arr`` SHM-aliased locally)."""
    maybe_self = _first_arg_name(fn.body) if fn.body is not None else None
    if fn.body is None or maybe_self is None:
        return
    self_name: str = maybe_self
    shm_locals: Set[str] = set()

    def value_is_shm(value: ast.expr) -> bool:
        if _contains_shm_source(value):
            return True
        if _calls_shm_returning(value, self_name, cnode, index, shm_returning):
            return True
        for n in ast.walk(value):
            if isinstance(n, ast.Name) and n.id in shm_locals:
                return True
            if (
                isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name)
                and n.value.id == self_name
                and n.attr in cnode.shm_attrs
            ):
                return True
        return False

    # two local iterations: a local bound before its use site settles
    for _ in range(2):
        for node in ast.walk(fn.body):
            if not isinstance(node, ast.Assign):
                continue
            is_shm = value_is_shm(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name) and is_shm:
                    shm_locals.add(target.id)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name
                ):
                    if is_shm:
                        cnode.shm_attrs.add(target.attr)
                    if isinstance(node.value, ast.Call):
                        cls = _class_for(
                            imports.resolve(node.value.func), index
                        )
                        if cls is not None:
                            cnode.attr_types.setdefault(target.attr, cls)
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id == self_name
                    and is_shm
                ):
                    cnode.shm_attrs.add(target.value.attr)


def _imports_for(
    parsed: List[Tuple[str, str, ast.Module, ImportResolver]], module: str
) -> ImportResolver:
    for m, _f, _t, imports in parsed:
        if m == module:
            return imports
    return ImportResolver()
