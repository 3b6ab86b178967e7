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
* any other method call is recorded by its terminal name and classified
  by name at the effect layer (``shm_create``, ``send``, ``allgather``);
  a call into an imported module is no effect of the project's.

SHM-backed memory (what ``mutates-shm`` and ``lifecycle-premature-write``
see written) is inferred by one fixpoint.  One walk per function records
what each assignment binds and each ``return`` yields, as *atoms*
(``shm_create``, locals, ``self.<attr>``, ``self.<m>(...)``; a call
contributes its receiver chain, never its arguments); iterating
those facts until nothing changes finds the SHM-returning functions
(through CHA dispatch), each class's SHM attributes (inherited down the
hierarchy) and each function's SHM locals — through helper chains of any
depth, whatever the helpers are called.  One predicate over atoms serves
the fixpoint and the write scan, which rebinds locals in program order.

Nested functions and lambdas are inlined into their enclosing function:
their calls and writes belong to the parent summary, which matches how
the closures in this codebase are used (built and invoked locally, e.g.
the ``compute`` callbacks handed to ``custom_collective``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.sancheck.simlint import ImportResolver, Sources, module_name_for

#: sentinel for calls on SHM segment stores (create/unlink)
SHM_METHODS = frozenset({"shm_create", "shm_unlink"})


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


class _ShmAtoms(NamedTuple):
    """What an expression reads that may be SHM-backed memory."""

    source: bool  # ``shm_create`` itself
    names: FrozenSet[str]  # bare names: SHM when a local bound to SHM
    attrs: FrozenSet[str]  # ``self.<attr>``: SHM when the class's attr is
    calls: FrozenSet[str]  # ``self.<m>(...)``: SHM when a target of m returns it


def _atoms(expr: ast.AST, self_name: Optional[str]) -> _ShmAtoms:
    """A call's result is SHM through its receiver chain
    (``self.ctx.shm_create(...).array``, ``self._b[0].view(...)``) or an
    SHM-returning callee (``self.<m>(...)``), never through its
    arguments: ``self.layout.unpack_into(flat, self._arrays)`` returns a
    fresh dict."""
    source = False
    names: Set[str] = set()
    attrs: Set[str] = set()
    calls: Set[str] = set()
    stack = [expr]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Call):
            if (
                isinstance(n.func, ast.Attribute)
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id == self_name
            ):
                calls.add(n.func.attr)
            stack.append(n.func)
            continue
        if isinstance(n, ast.Name):
            source = source or n.id == "shm_create"
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            source = source or n.attr == "shm_create"
            if isinstance(n.value, ast.Name) and n.value.id == self_name:
                attrs.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return _ShmAtoms(source, frozenset(names), frozenset(attrs), frozenset(calls))


@dataclass
class _ShmFacts:
    """One function's SHM facts, read in one walk of its body: what each
    assignment binds (locals, ``self.x`` / ``self.x[...]``) and what its
    value reads, and what each ``return`` reads."""

    owner: Optional[ClassNode]
    binds: List[Tuple[Tuple[str, ...], Tuple[str, ...], _ShmAtoms]]
    returns: List[_ShmAtoms]
    #: locals bound to SHM somewhere in the body (program order ignored)
    shm_locals: Set[str] = field(default_factory=set)


class _ShmInference:
    """Which functions return SHM-backed memory, and which class
    attributes and locals hold it: the least fixpoint of every function's
    facts, so a helper chain is seen at any depth, in any name order."""

    def __init__(self, index: "ProjectIndex", facts: Dict[str, _ShmFacts]) -> None:
        self.index = index
        self.returning: Set[str] = set()
        self._targets: Dict[Tuple[str, str], List[str]] = {}
        classes = index.classes
        ancestors = {q: index.mro(q)[1:] for q in classes}
        size = -1
        while size != self._size(facts):
            size = self._size(facts)
            for q, f in facts.items():
                for names, attrs, atoms in f.binds:
                    if self.is_shm(atoms, f.owner, f.shm_locals):
                        f.shm_locals.update(names)
                        if f.owner is not None:
                            f.owner.shm_attrs.update(attrs)
                if any(self.is_shm(a, f.owner, f.shm_locals) for a in f.returns):
                    self.returning.add(q)
            for q, cnode in classes.items():
                for anc in ancestors[q]:
                    cnode.shm_attrs |= classes[anc].shm_attrs

    def _size(self, facts: Dict[str, _ShmFacts]) -> int:
        return (
            len(self.returning)
            + sum(len(f.shm_locals) for f in facts.values())
            + sum(len(c.shm_attrs) for c in self.index.classes.values())
        )

    def is_shm(
        self, atoms: _ShmAtoms, owner: Optional[ClassNode], shm_locals: Set[str]
    ) -> bool:
        """The one predicate both the fixpoint and the write scan ask."""
        if atoms.source or not atoms.names.isdisjoint(shm_locals):
            return True
        if owner is None:
            return False
        if not atoms.attrs.isdisjoint(owner.shm_attrs):
            return True
        for name in atoms.calls:
            key = (owner.qualname, name)
            if key not in self._targets:
                self._targets[key] = self.index.dispatch_targets(*key)
            if not self.returning.isdisjoint(self._targets[key]):
                return True
        return False


def _shm_facts(
    body: ast.AST,
    owner: Optional[ClassNode],
    index: "ProjectIndex",
    imports: ImportResolver,
    module_classes: Dict[str, str],
) -> _ShmFacts:
    """Walk a function once for its SHM facts; ``self.x = Cls(...)`` also
    types ``owner``'s attribute ``x``."""
    self_name = _first_arg_name(body) if owner is not None else None
    facts = _ShmFacts(owner, [], [])
    for node in ast.walk(body):
        if isinstance(node, ast.Return) and node.value is not None:
            facts.returns.append(_atoms(node.value, self_name))
        if not isinstance(node, ast.Assign):
            continue
        names: List[str] = []
        attrs: List[str] = []
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.append(target.id)
                continue
            base = target.value if isinstance(target, ast.Subscript) else target
            if not (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == self_name
            ):
                continue
            attrs.append(base.attr)
            if base is target and owner is not None and isinstance(node.value, ast.Call):
                cls = _resolve_class(index, imports.resolve(node.value.func), module_classes)
                if cls is not None:
                    owner.attr_types.setdefault(base.attr, cls)
        if names or attrs:
            facts.binds.append(
                (tuple(names), tuple(attrs), _atoms(node.value, self_name))
            )
    return facts


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
        shm: _ShmInference,
    ) -> None:
        self.index = index
        self.imports = imports
        self.module = module
        self.module_functions = module_functions
        self.module_classes = module_classes
        self.owner = owner
        self.fn = fn
        self.self_name = self_name
        self.shm = shm
        #: local var -> project class qualname
        self.var_types: Dict[str, str] = {}
        #: local names aliasing SHM-backed memory
        self.shm_vars: Set[str] = set()
        self.globals_declared: Set[str] = set()

    # -- resolution helpers -----------------------------------------------------
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
        return self.shm.is_shm(_atoms(node, self.self_name), self.owner, self.shm_vars)

    def _record_shm_write(self, lineno: int) -> None:
        self.fn.shm_writes.append(lineno)

    # -- statements -------------------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # nested classes are indexed on their own

    def _bind(self, name: str, value: ast.expr, lineno: int) -> None:
        dotted = self.imports.resolve(value.func) if isinstance(value, ast.Call) else None
        cls = _resolve_class(self.index, dotted, self.module_classes)
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
        func = node.func
        if isinstance(func, ast.Name):
            self._resolve_plain(self.imports.resolve(func), node.lineno)
        elif isinstance(func, ast.Attribute) and not self._resolve_attribute(
            func, node.lineno
        ):
            root = func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            # a receiver chain rooted in an imported module (e.g.
            # ``numpy.bitwise_xor.reduce``) is a known library call, not a
            # method on an unresolved comm/shm object — classifying it by
            # terminal name would misread a library function that shares a
            # communicator method's name
            if not (isinstance(root, ast.Name) and root.id in self.imports.aliases):
                self.fn.method_calls.append((func.attr, node.lineno))
        self.generic_visit(node)

    def _add_project_call(self, qual: str, lineno: int) -> None:
        self.fn.calls.append((qual, lineno))

    def _resolve_plain(self, dotted: Optional[str], lineno: int) -> None:
        """Record a bare-name (or from-imported) call of a project
        function, or of a project class's ``__init__``."""
        if dotted is None:
            return
        if dotted in self.index.functions:
            self._add_project_call(dotted, lineno)
        elif dotted in self.module_functions:
            self._add_project_call(self.module_functions[dotted], lineno)
        else:
            cls = _resolve_class(self.index, dotted, self.module_classes)
            init = None if cls is None else self.index.lookup_method(cls, "__init__")
            if init is not None:
                self._add_project_call(init, lineno)

    def _resolve_attribute(self, func: ast.Attribute, lineno: int) -> bool:
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
            cls = _resolve_class(self.index, head, self.module_classes)
            if cls is not None:
                target = self.index.lookup_method(cls, tail)
                if target is not None:
                    self._add_project_call(target, lineno)
                    return True
        return False


def build_index(sources: Sources) -> ProjectIndex:
    """The :class:`ProjectIndex` of the files :func:`parse_paths` read."""
    index = ProjectIndex()
    #: function qualname -> the imports of the file that defines it
    imports_of: Dict[str, ImportResolver] = {}

    # pass 1: modules, classes, functions.  Outside a ``repro`` package two
    # files can share a module name (``a/helpers.py``, ``b/helpers.py``):
    # the first file read keeps a name, a later file never overwrites it
    # (inside one file the last definition wins, as at import)
    for path, file, _source, tree in sources.files:
        if isinstance(tree, SyntaxError):
            continue  # simlint reports syntax errors; the graph skips the file
        module = module_name_for(path)
        imports = ImportResolver()
        imports.visit(tree)

        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module}.{stmt.name}"
                if imports_of.setdefault(qual, imports) is not imports:
                    continue
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
                if cqual in index.classes and index.classes[cqual].file != file:
                    continue
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
                        if imports_of.setdefault(mqual, imports) is not imports:
                            continue
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
    module_classes: Dict[str, Dict[str, str]] = {}
    for cqual, cnode in index.classes.items():
        module_classes.setdefault(cnode.module, {})[cnode.name] = cqual
    for cqual in sorted(index.classes):
        cnode = index.classes[cqual]
        resolved: List[str] = []
        for raw in cnode.raw_bases:
            target = _resolve_class(index, raw, module_classes.get(cnode.module, {}))
            if target is not None and target != cqual:
                resolved.append(target)
                index.subclasses.setdefault(target, set()).add(cqual)
        cnode.bases = tuple(resolved)

    facts: Dict[str, _ShmFacts] = {}
    for q in sorted(index.functions):
        fn = index.functions[q]
        if fn.body is not None:
            owner = index.classes.get(fn.cls) if fn.cls else None
            facts[q] = _shm_facts(
                fn.body, owner, index, imports_of[q], module_classes.get(fn.module, {})
            )
    for cqual in sorted(index.classes):
        cnode = index.classes[cqual]
        for anc in index.mro(cqual)[1:]:
            for k, v in index.classes[anc].attr_types.items():
                cnode.attr_types.setdefault(k, v)
    shm = _ShmInference(index, facts)

    # pass 3: per-function call/write scan, each function once, with its
    # own file's imports
    module_functions: Dict[str, Dict[str, str]] = {}
    for q, fn in index.functions.items():
        if fn.cls is None:
            module_functions.setdefault(fn.module, {})[fn.name] = q
    for q in sorted(index.functions):
        fn = index.functions[q]
        if fn.body is None:
            continue
        owner = index.classes.get(fn.cls) if fn.cls else None
        self_name = _first_arg_name(fn.body) if owner is not None else None
        scanner = _FunctionScanner(
            index,
            imports_of[q],
            fn.module,
            module_functions.get(fn.module, {}),
            module_classes.get(fn.module, {}),
            owner,
            fn,
            self_name,
            shm,
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


def _resolve_class(
    index: ProjectIndex, dotted: Optional[str], module_classes: Dict[str, str]
) -> Optional[str]:
    """The project class ``dotted`` names: itself, a class of the calling
    module, or the only project class with its last name."""
    if dotted is None:
        return None
    if dotted in index.classes:
        return dotted
    if dotted in module_classes:
        return module_classes[dotted]
    last = dotted.split(".")[-1]
    cands = [q for q, c in index.classes.items() if c.name == last]
    return cands[0] if len(cands) == 1 else None
