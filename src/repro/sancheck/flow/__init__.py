"""``repro.sancheck.flow`` — whole-program SHM-lifecycle verifier.

Where :mod:`repro.sancheck.simlint` judges each file in isolation, this
package parses the *entire* source tree into a project-wide module/call
graph, infers a per-function **effect summary** (mutates SHM, mutates
module globals, sends/recvs MPI), propagates the summaries
interprocedurally to a fixpoint, and then checks the checkpoint-protocol
**lifecycle** against the effect lattice:

* ``try_restore()`` must not reach an SHM write before the group status
  exchange that decides the restore path — a premature write can destroy
  the very survivor state the reconstruction needs;
* checkpoint-buffer (SHM) mutation must stay inside the protocol
  lifecycle — a helper that scribbles on segments outside
  ``checkpoint()``/``try_restore()``/``commit()`` breaks the phase
  discipline the recovery-decision invariants assume;
* encode/reconstruct kernels send no MPI and mutate no module global.

Nondeterminism on a recovery path (paper §5.2) is simlint's ``rng`` /
``wallclock`` question: it flags the call itself, wherever it is reached
from.

Entry points: :func:`analyze_paths`, and :func:`analyze_sources` on the
parse simlint also reads (what ``repro check --all`` runs).
Reports export to SARIF and JSONL (:mod:`repro.sancheck.flow.export`).
"""

from repro.sancheck.flow.callgraph import FunctionNode, ProjectIndex, build_index
from repro.sancheck.flow.driver import analyze_index, analyze_paths, analyze_sources
from repro.sancheck.flow.effects import MPI_RECV, MPI_SEND, MUTATES_GLOBAL, MUTATES_SHM
from repro.sancheck.flow.export import to_jsonl, to_sarif, write_jsonl, write_sarif
from repro.sancheck.flow.taint import Witness, propagate

__all__ = [
    "analyze_paths",
    "analyze_sources",
    "analyze_index",
    "build_index",
    "ProjectIndex",
    "FunctionNode",
    "propagate",
    "Witness",
    "MUTATES_SHM",
    "MUTATES_GLOBAL",
    "MPI_SEND",
    "MPI_RECV",
    "to_sarif",
    "to_jsonl",
    "write_sarif",
    "write_jsonl",
]
