"""Simulator sanitizer suite (``repro check ...``).

Two static analyses guard the invariants the checkpoint protocols'
correctness arguments assume (see ``docs/SANCHECK.md``):

* :mod:`repro.sancheck.simlint` — static AST lint over the source tree
  (virtual-time-only, runtime-owned threading, seeded RNG, copy-before-
  mutate on MPI results); its ``rng`` / ``wallclock`` rules are the one
  answer on nondeterminism, flagged at the call wherever it is reached
  from;
* :mod:`repro.sancheck.flow` — whole-program interprocedural effect/taint
  analysis verifying the checkpoint-protocol SHM lifecycle (no SHM write
  before the restore decision, no SHM mutation outside the lifecycle,
  kernels send no MPI and touch no module global).

Deadlock needs no analysis: the runtime raises it, diagnosed (see
:mod:`repro.sim.runtime`).
"""

from repro.sancheck.findings import Finding, Report
from repro.sancheck.flow import analyze_paths
from repro.sancheck.simlint import default_lint_root, lint_paths, lint_source

__all__ = [
    "Finding",
    "Report",
    "lint_source",
    "lint_paths",
    "default_lint_root",
    "analyze_paths",
]
