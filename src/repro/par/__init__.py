"""repro.par — the parallel replay engine and its memoization cache.

Campaign replays (kill matrices, randomized schedules, benchmark sweeps)
are independent deterministic jobs; this package fans them out over a
``multiprocessing`` worker pool and merges results back in canonical
order, so parallel runs produce **byte-identical** artifacts to serial
ones.  Pieces:

* :mod:`repro.par.engine` — :class:`ParallelEngine`, the order-preserving
  parallel map with error folding and metric accounting;
* :mod:`repro.par.replay` — :class:`ReplaySpec`/:class:`ReplayOutcome`,
  the work unit (a :class:`~repro.chaos.scenarios.ChaosScenario`, itself
  pickleable, plus triggers) and its scalar result, and :func:`run_units`, the one
  unit runner (cache → replay → crash fold) every campaign engine uses —
  this package is the in-process executor of :mod:`repro.chaos.plan`,
  :mod:`repro.shard` the durable one;
* :mod:`repro.par.cache` — content-addressed memoization keyed by a
  scenario+triggers+code fingerprint;
* :mod:`repro.par.progress` — wall-clock throughput reporting (stderr
  only; never touches artifacts or metrics).

Direct ``multiprocessing``/``concurrent.futures`` use anywhere else in
the tree is a simlint violation (rule ``parallel``): all parallelism goes
through this engine so determinism has a single chokepoint.
"""

from repro.par.cache import (
    CACHE_SCHEMA_VERSION,
    MemoCache,
    code_fingerprint,
    replay_fingerprint,
)
from repro.par.engine import (
    AUTO_WORKERS_CAP,
    ParallelEngine,
    default_workers,
    resolve_workers,
)
from repro.par.progress import NullProgress, ProgressReporter
from repro.par.replay import (
    CRASH_VERDICT,
    ReplayOutcome,
    ReplaySpec,
    crash_outcome,
    replay,
    run_units,
)

__all__ = [
    "AUTO_WORKERS_CAP",
    "CACHE_SCHEMA_VERSION",
    "CRASH_VERDICT",
    "MemoCache",
    "NullProgress",
    "ParallelEngine",
    "ProgressReporter",
    "ReplayOutcome",
    "ReplaySpec",
    "code_fingerprint",
    "crash_outcome",
    "default_workers",
    "replay",
    "replay_fingerprint",
    "resolve_workers",
    "run_units",
]
