"""The effect lattice: per-function intrinsic effect extraction.

Each analyzed function gets a set of **effects** — the atoms the
interprocedural propagation (:mod:`repro.sancheck.flow.taint`) unions up
the call graph.  The lattice is a powerset: bottom is the empty set
(pure), top is every effect; join is set union, so the fixpoint exists
and is reached in at most ``|effects| x |functions|`` steps.

Effects carry a *witness*: the concrete call or store (and line) that
introduced them, so a verdict at a protocol entry point can print the
full chain down to the SHM write in a helper three modules away.

There is no nondeterminism atom: an unseeded RNG or wall-clock call is
simlint's ``rng`` / ``wallclock`` finding at the call itself, wherever it
is reached from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sancheck.flow.callgraph import SHM_METHODS, FunctionNode

MUTATES_SHM = "mutates-shm"
MUTATES_GLOBAL = "mutates-global"
MPI_SEND = "mpi-send"
MPI_RECV = "mpi-recv"

#: terminal attribute names that classify unresolved method calls
MPI_SEND_METHODS = frozenset({"send", "sendrecv", "swap_rows"})
MPI_RECV_METHODS = frozenset({"recv", "sendrecv", "swap_rows"})
MPI_COLLECTIVE_METHODS = frozenset(
    {
        "barrier",
        "bcast",
        "allreduce",
        "gather",
        "allgather",
        "allreduce_obj",
        "custom_collective",
    }
)


@dataclass(frozen=True)
class Intrinsic:
    """Why a function has an effect of its own (before propagation)."""

    site: str  # human description, e.g. ".shm_create(...)"
    line: int


#: map of function qualname -> {effect: Intrinsic}
IntrinsicMap = Dict[str, Dict[str, Intrinsic]]


def intrinsic_effects(fn: FunctionNode) -> Dict[str, Intrinsic]:
    """The effects a function exhibits through its own body alone."""
    out: Dict[str, Intrinsic] = {}

    def add(effect: str, site: str, line: int) -> None:
        prev = out.get(effect)
        if prev is None or (line, site) < (prev.line, prev.site):
            out[effect] = Intrinsic(site=site, line=line)

    for name, line in sorted(fn.method_calls):
        if name in SHM_METHODS:
            add(MUTATES_SHM, f".{name}(...)", line)
        if name in MPI_SEND_METHODS:
            add(MPI_SEND, f".{name}(...)", line)
        if name in MPI_RECV_METHODS:
            add(MPI_RECV, f".{name}(...)", line)
        if name in MPI_COLLECTIVE_METHODS:
            add(MPI_SEND, f".{name}(...)", line)
            add(MPI_RECV, f".{name}(...)", line)

    for line in sorted(fn.shm_writes):
        add(MUTATES_SHM, "write through SHM-backed array", line)

    for name, line in sorted(fn.global_writes):
        add(MUTATES_GLOBAL, f"global {name} = ...", line)

    return out


def build_intrinsics(functions: Dict[str, FunctionNode]) -> IntrinsicMap:
    return {q: intrinsic_effects(functions[q]) for q in sorted(functions)}
