"""The effect lattice: per-function intrinsic effect extraction.

Each analyzed function gets a set of **effects** — the atoms the
interprocedural propagation (:mod:`repro.sancheck.flow.taint`) unions up
the call graph.  The lattice is a powerset: bottom is the empty set
(pure), top is every effect; join is set union, so the fixpoint exists
and is reached in at most ``|effects| x |functions|`` steps.

Effects carry a *witness*: the concrete call (and line) that introduced
them, so a verdict at a protocol entry point can print the full chain
down to the offending ``random.random()`` three modules away.

Unseeded vs. seeded RNG is the load-bearing distinction (paper §5.2:
restarted ranks must regenerate bit-identical data): ``seeded_rng(seed)``
/ ``block_rng(seed, *coords)`` / ``default_rng(seed)`` are deterministic
and *allowed* on recovery paths; bare ``random.*``, legacy global-state
``numpy.random.*`` and argument-less ``default_rng()`` are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.sancheck.flow.callgraph import SHM_METHODS, FunctionNode
from repro.sancheck.simlint import classify_nondet_call

RNG_UNSEEDED = "reads-rng-unseeded"
RNG_SEEDED = "reads-rng-seeded"
WALLCLOCK = "reads-wallclock"
MUTATES_SHM = "mutates-shm"
MUTATES_GLOBAL = "mutates-global"
MPI_SEND = "mpi-send"
MPI_RECV = "mpi-recv"
ALLOCATES = "allocates"

ALL_EFFECTS: Tuple[str, ...] = (
    RNG_UNSEEDED,
    RNG_SEEDED,
    WALLCLOCK,
    MUTATES_SHM,
    MUTATES_GLOBAL,
    MPI_SEND,
    MPI_RECV,
    ALLOCATES,
)

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

#: numpy constructors that allocate fresh buffers
NUMPY_ALLOCATORS = frozenset(
    {
        "numpy.empty",
        "numpy.zeros",
        "numpy.ones",
        "numpy.full",
        "numpy.arange",
        "numpy.empty_like",
        "numpy.zeros_like",
        "numpy.ones_like",
        "numpy.full_like",
        "numpy.array",
        "numpy.copy",
        "numpy.frombuffer",
        "numpy.fromiter",
        "numpy.ascontiguousarray",
        "numpy.concatenate",
    }
)


@dataclass(frozen=True)
class Intrinsic:
    """Why a function has an effect of its own (before propagation)."""

    site: str  # human description, e.g. "random.random()"
    line: int


#: map of function qualname -> {effect: Intrinsic}
IntrinsicMap = Dict[str, Dict[str, Intrinsic]]


#: effect and witness wording per ``classify_nondet_call`` kind
_NONDET_EFFECTS = {
    "wallclock": (WALLCLOCK, "{path}()"),
    "rng-stdlib": (RNG_UNSEEDED, "{path}()"),
    "rng-legacy": (RNG_UNSEEDED, "legacy {path}()"),
    "rng-unseeded": (RNG_UNSEEDED, "unseeded {path}()"),
    "rng-seeded": (RNG_SEEDED, "{path}(seed)"),
}


def intrinsic_effects(
    fn: FunctionNode,
    wallclock_allow: Tuple[str, ...],
    rng_allow: Tuple[str, ...],
) -> Dict[str, Intrinsic]:
    """The effects a function exhibits through its own body alone."""
    out: Dict[str, Intrinsic] = {}

    def add(effect: str, site: str, line: int) -> None:
        prev = out.get(effect)
        if prev is None or (line, site) < (prev.line, prev.site):
            out[effect] = Intrinsic(site=site, line=line)

    for path, line, has_args in sorted(fn.external):
        kind = classify_nondet_call(path, has_args, fn.module, wallclock_allow, rng_allow)
        if kind is not None:
            effect, site = _NONDET_EFFECTS[kind]
            add(effect, site.format(path=path), line)
        if path in NUMPY_ALLOCATORS:
            add(ALLOCATES, f"{path}()", line)

    for name, line in sorted(fn.method_calls):
        if name in SHM_METHODS:
            add(MUTATES_SHM, f".{name}(...)", line)
            if name != "shm_unlink":
                add(ALLOCATES, f".{name}(...)", line)
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


def build_intrinsics(
    functions: Dict[str, FunctionNode],
    wallclock_allow: Tuple[str, ...],
    rng_allow: Tuple[str, ...],
) -> IntrinsicMap:
    return {
        q: intrinsic_effects(functions[q], wallclock_allow, rng_allow)
        for q in sorted(functions)
    }
