"""Protocol-lifecycle verdicts over the propagated effect summaries.

The checkpoint protocols' correctness arguments (docs/PROTOCOLS.md) are
phase-discipline arguments: each ``checkpoint()``/``try_restore()``
executes a fixed state machine whose SHM writes are fenced by group
collectives and world barriers.  This module checks the parts of that
discipline that are *statically* decidable on the call graph:

``flow-kernel-mpi`` / ``flow-kernel-global`` (warning)
    A kernel reaches MPI or mutates module globals — kernels are
    documented pure and the perf harness relies on it.

``lifecycle-premature-write`` (error)
    ``try_restore()`` reaches an SHM write *before* the group status
    exchange that decides the restore path.  Survivor segments are the
    only source of truth at that point; writing first can destroy the
    state the reconstruction needs.

``lifecycle-phase-escape`` (warning)
    A protocol method that mutates SHM but is not reachable from the
    protocol lifecycle (``__init__``/``alloc``/``commit``/
    ``checkpoint``/``try_restore``).  Such a method can violate the
    epoch-flag invariants if called at an arbitrary point.

Nondeterminism (unseeded RNG, the wall clock) is no rule of this module:
simlint's ``rng`` / ``wallclock`` flag the call itself, which is where a
finding is fixed or a pragma says why it is allowed.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.sancheck.findings import Finding
from repro.sancheck.flow.callgraph import FunctionNode, ProjectIndex
from repro.sancheck.flow.effects import (
    MPI_COLLECTIVE_METHODS,
    MPI_RECV,
    MPI_RECV_METHODS,
    MPI_SEND,
    MUTATES_GLOBAL,
    MUTATES_SHM,
)
from repro.sancheck.flow.taint import SummaryMap, Witness

TOOL = "flow"

#: bare class name every checkpoint protocol descends from
PROTOCOL_BASE = "CheckpointProtocol"
#: the restore entry checked for premature SHM writes
RESTORE_ENTRY = "try_restore"
#: methods whose call closure constitutes the sanctioned lifecycle
LIFECYCLE_ROOTS = ("__init__", "alloc", "commit", "checkpoint", "try_restore")
#: last path components of the pure encode/reconstruct kernel modules
KERNEL_MODULES = ("stripes", "stripes_rs", "kernels")


def protocol_classes(index: ProjectIndex, base: str) -> List[str]:
    """Every checkpoint-protocol class: descendants of the protocol base
    (transitively, or by raw base name for fixture trees — every shipped
    protocol, group-encoded or disk), plus *structural* matches — classes
    defining both ``checkpoint`` and ``try_restore`` themselves (the safety
    net: a duck-typed protocol is exactly the one nominal detection would
    silently skip)."""
    out = []
    for q in sorted(index.classes):
        if q.split(".")[-1] == base:
            continue
        structural = {"checkpoint", "try_restore"} <= set(
            index.classes[q].methods
        )
        if structural or index.is_descendant_of(q, base):
            out.append(q)
    return out


def kernel_functions(index: ProjectIndex, kernel_modules: Tuple[str, ...]) -> List[str]:
    return sorted(
        q
        for q, fn in index.functions.items()
        if fn.module.split(".")[-1] in kernel_modules
    )


def _kernel_findings(index: ProjectIndex, summaries: SummaryMap) -> List[Finding]:
    out: List[Finding] = []
    for q in kernel_functions(index, KERNEL_MODULES):
        fn = index.functions[q]
        summary = summaries.get(q, {})
        for effect, rule, label in (
            (MPI_SEND, "flow-kernel-mpi", "MPI traffic"),
            (MPI_RECV, "flow-kernel-mpi", "MPI traffic"),
            (MUTATES_GLOBAL, "flow-kernel-global", "module-global mutation"),
        ):
            w = summary.get(effect)
            if w is not None:
                out.append(
                    Finding(
                        tool=TOOL,
                        rule=rule,
                        severity="warning",
                        message=(
                            f"kernel {fn.name}() reaches {label}: "
                            f"{w.describe()}"
                        ),
                        file=fn.file,
                        line=fn.line,
                    )
                )
    # one kernel may trip both the send and recv effect with the same
    # witness — the Report-level dedup collapses identical messages
    return out


def _stmt_lines(stmt: ast.stmt) -> Tuple[int, int]:
    end = getattr(stmt, "end_lineno", None) or stmt.lineno
    return stmt.lineno, end


def _calls_in_range(
    fn: FunctionNode, lo: int, hi: int
) -> List[Tuple[str, int]]:
    return [(q, line) for q, line in fn.calls if lo <= line <= hi]


def _premature_write_findings(
    index: ProjectIndex, summaries: SummaryMap
) -> List[Finding]:
    out: List[Finding] = []
    checked: Set[str] = set()
    recv_names = MPI_RECV_METHODS | MPI_COLLECTIVE_METHODS
    for cqual in protocol_classes(index, PROTOCOL_BASE):
        mqual = index.lookup_method(cqual, RESTORE_ENTRY)
        if mqual is None or mqual in checked:
            continue
        checked.add(mqual)
        fn = index.functions[mqual]
        body = fn.body
        if not isinstance(body, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue

        def stmt_reaches_recv(lo: int, hi: int) -> bool:
            for name, line in fn.method_calls:
                if lo <= line <= hi and name in recv_names:
                    return True
            for q, _line in _calls_in_range(fn, lo, hi):
                if MPI_RECV in summaries.get(q, {}):
                    return True
            return False

        for stmt in body.body:
            lo, hi = _stmt_lines(stmt)
            if stmt_reaches_recv(lo, hi):
                break  # the status exchange: restore decision is made
            direct_writes = [
                line for line in fn.shm_writes if lo <= line <= hi
            ] + [
                line
                for name, line in fn.method_calls
                if lo <= line <= hi and name in ("shm_create", "shm_unlink")
            ]
            for line in sorted(set(direct_writes)):
                out.append(
                    Finding(
                        tool=TOOL,
                        rule="lifecycle-premature-write",
                        severity="error",
                        message=(
                            f"{RESTORE_ENTRY}() writes SHM before "
                            "the group status exchange — survivor "
                            "segments are the only recovery source at "
                            "this point"
                        ),
                        file=fn.file,
                        line=line,
                    )
                )
            for q, line in _calls_in_range(fn, lo, hi):
                w = summaries.get(q, {}).get(MUTATES_SHM)
                if w is not None:
                    out.append(
                        Finding(
                            tool=TOOL,
                            rule="lifecycle-premature-write",
                            severity="error",
                            message=(
                                f"{RESTORE_ENTRY}() reaches an SHM "
                                "write before the group status exchange: "
                                f"{w.describe()}"
                            ),
                            file=fn.file,
                            line=line,
                        )
                    )
    return out


def _phase_escape_findings(index: ProjectIndex, summaries: SummaryMap) -> List[Finding]:
    out: List[Finding] = []
    for cqual in protocol_classes(index, PROTOCOL_BASE):
        cls = index.classes[cqual]
        reachable: Set[str] = set()
        frontier: List[str] = []
        for root in LIFECYCLE_ROOTS:
            frontier.extend(index.dispatch_targets(cqual, root))
        while frontier:
            q = frontier.pop()
            if q in reachable:
                continue
            reachable.add(q)
            fn = index.functions.get(q)
            if fn is not None:
                frontier.extend(c for c, _line in fn.calls)
        for mname in sorted(cls.methods):
            mqual = cls.methods[mname]
            if mqual in reachable or mname in LIFECYCLE_ROOTS:
                continue
            w: Optional[Witness] = summaries.get(mqual, {}).get(MUTATES_SHM)
            if w is None:
                continue
            fn = index.functions[mqual]
            out.append(
                Finding(
                    tool=TOOL,
                    rule="lifecycle-phase-escape",
                    severity="warning",
                    message=(
                        f"{cls.name}.{mname}() mutates SHM but is not "
                        "reachable from the protocol lifecycle "
                        f"({'/'.join(LIFECYCLE_ROOTS)}) — phase "
                        f"discipline cannot be guaranteed: {w.describe()}"
                    ),
                    file=fn.file,
                    line=fn.line,
                )
            )
    return out


def lifecycle_findings(index: ProjectIndex, summaries: SummaryMap) -> List[Finding]:
    out: List[Finding] = []
    out.extend(_kernel_findings(index, summaries))
    out.extend(_premature_write_findings(index, summaries))
    out.extend(_phase_escape_findings(index, summaries))
    return out


__all__ = [
    "lifecycle_findings",
    "protocol_classes",
    "kernel_functions",
    "TOOL",
]
