"""Simulator sanitizer suite (``repro check ...``).

Three analyses guard the invariants the checkpoint protocols' correctness
arguments assume (see ``docs/SANCHECK.md``):

* :mod:`repro.sancheck.simlint` — static AST lint over the source tree
  (virtual-time-only, runtime-owned threading, seeded RNG, copy-before-
  mutate on MPI results);
* :mod:`repro.sancheck.flow` — whole-program interprocedural effect/taint
  analysis verifying the checkpoint-protocol lifecycle (no hidden
  nondeterminism reachable from ``checkpoint()``/``try_restore()``, no
  SHM write before the restore decision, kernels stay pure);
* :mod:`repro.sancheck.races` — a dynamic vector-clock race detector over
  SHM segment accesses.

The race detector is a :class:`~repro.sim.observer.SimObserver`: attach it
to a :class:`~repro.sim.runtime.Job` and read its ``findings`` after the
run.  Deadlock needs no analysis: the runtime raises it, diagnosed (see
:mod:`repro.sim.runtime`).
"""

from repro.sancheck.findings import Finding, Report
from repro.sancheck.flow import FlowConfig, analyze_paths
from repro.sancheck.races import RaceDetector, ShmAccess
from repro.sancheck.simlint import (
    ALL_RULES,
    LintConfig,
    default_lint_root,
    lint_paths,
    lint_source,
)
from repro.sancheck.vectorclock import VectorClock, merge_all

__all__ = [
    "Finding",
    "Report",
    "LintConfig",
    "ALL_RULES",
    "lint_source",
    "lint_paths",
    "default_lint_root",
    "analyze_paths",
    "FlowConfig",
    "VectorClock",
    "merge_all",
    "RaceDetector",
    "ShmAccess",
]
