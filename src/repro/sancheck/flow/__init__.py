"""``repro.sancheck.flow`` — whole-program checkpoint-consistency verifier.

Where :mod:`repro.sancheck.simlint` judges each file in isolation, this
package parses the *entire* source tree into a project-wide module/call
graph, infers a per-function **effect summary** (reads unseeded RNG,
reads the wall clock, mutates SHM, mutates module globals, sends/recvs
MPI, allocates), propagates the summaries interprocedurally to a
fixpoint, and then checks the checkpoint-protocol **lifecycle** against
the effect lattice:

* no nondeterministic effect (unseeded RNG, wall clock) may be reachable
  from any protocol ``checkpoint()``/``try_restore()`` entry point or
  from any encode/reconstruct kernel — restarted ranks must regenerate
  bit-identical state (paper §5.2);
* ``try_restore()`` must not reach an SHM write before the group status
  exchange that decides the restore path — a premature write can destroy
  the very survivor state the reconstruction needs;
* checkpoint-buffer (SHM) mutation must stay inside the protocol
  lifecycle — a helper that scribbles on segments outside
  ``checkpoint()``/``try_restore()``/``commit()`` breaks the phase
  discipline the recovery-decision invariants assume.

Entry point: :func:`analyze_paths` (exposed as ``repro check --deep``).
Reports export to SARIF and JSONL (:mod:`repro.sancheck.flow.export`).
"""

from repro.sancheck.flow.callgraph import FunctionNode, ProjectIndex, build_index
from repro.sancheck.flow.driver import analyze_index, analyze_paths
from repro.sancheck.flow.effects import (
    ALL_EFFECTS,
    ALLOCATES,
    MPI_RECV,
    MPI_SEND,
    MUTATES_GLOBAL,
    MUTATES_SHM,
    RNG_SEEDED,
    RNG_UNSEEDED,
    WALLCLOCK,
)
from repro.sancheck.flow.export import to_jsonl, to_sarif, write_jsonl, write_sarif
from repro.sancheck.flow.taint import Witness, propagate

__all__ = [
    "analyze_paths",
    "analyze_index",
    "build_index",
    "ProjectIndex",
    "FunctionNode",
    "propagate",
    "Witness",
    "ALL_EFFECTS",
    "RNG_UNSEEDED",
    "RNG_SEEDED",
    "WALLCLOCK",
    "MUTATES_SHM",
    "MUTATES_GLOBAL",
    "MPI_SEND",
    "MPI_RECV",
    "ALLOCATES",
    "to_sarif",
    "to_jsonl",
    "write_sarif",
    "write_jsonl",
]
