"""The parallel execution engine: deterministic fan-out of pure replays.

Campaign replays are independent jobs — each builds a fresh cluster, runs
under its own daemon, and touches nothing shared — so a kill matrix, a
randomized campaign or a benchmark sweep is an embarrassingly parallel
map.  :class:`ParallelEngine` fans pickleable tasks out over a
``multiprocessing`` pool and reassembles the results **in submission
order**, so every consumer (reports, ``BENCH_chaos.json``) sees exactly
the sequence the serial engine would have produced: parallelism changes
wall-clock time and nothing else, which the golden equivalence test
pins byte-for-byte.

Three behaviors ride on the map:

* **memoization** — pass a :class:`~repro.par.cache.MemoCache` and a
  ``key`` function; cache hits resolve without running, misses are stored
  after running.  Error-folded results are never cached.
* **error folding** — ``on_error(task, exc)`` turns a task that raised
  (inside a worker or inline) into a result in its slot instead of
  aborting the sweep; without it, the exception propagates.
* **accounting** — a :class:`~repro.obs.metrics.MetricsRegistry` gets the
  deterministic counters (``par.tasks``, ``par.cache_hits``,
  ``par.cache_misses``, ``par.workers``); wall-clock throughput goes only
  to the progress reporter, never into metrics, so exported artifacts
  stay byte-stable.

``workers <= 1`` runs the same code path inline — no pool, no pickling
requirement — which is also the fallback for tasks that cannot cross a
process boundary.

The pool never outnumbers the CPUs: a map starts ``min(workers,
usable_cpus(), pending)`` processes (:func:`live_workers`), because more
only time-slice the same CPUs.  At one it runs the inline loop — no
fork — with the same ordering, error folding and cache path.  Nothing a
map returns or counts depends on that host reading: ``par.workers``,
``par.worker_tasks`` and ``par.queue_depth`` stay keyed on the requested
width, and a map the requested width would pool still pickles each
task as the pool would ship it, so a task that cannot cross a process
fails in its slot on any host.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, List, Optional, Sequence

from repro.par.progress import NullProgress

#: cap for ``workers="auto"`` — campaign replays are CPU-bound
AUTO_WORKERS_CAP = 8


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so ``taskset``
    and container CPU limits count; at least 1.  The one CPU reading of
    both parallel engines (``--workers auto`` and the shard executor cap)."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        n = multiprocessing.cpu_count()
    return max(1, n)


def live_workers(workers: int) -> int:
    """Pool processes ``workers`` can keep busy on this host:
    ``min(workers, usable_cpus())``."""
    return min(workers, usable_cpus())


def default_workers() -> int:
    """``min(usable_cpus(), cap)`` — the ``--workers auto`` resolution."""
    return min(usable_cpus(), AUTO_WORKERS_CAP)


def resolve_workers(workers: Any) -> int:
    """Normalize a ``--workers`` value: int, ``"auto"`` or None."""
    if workers is None:
        return 1
    if workers == "auto":
        return default_workers()
    n = int(workers)
    if n < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    return n


class ParallelEngine:
    """Order-preserving parallel map with memoization and error folding."""

    def __init__(
        self,
        workers: int = 1,
        *,
        registry: Any = None,
        progress: Any = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.registry = registry
        self.progress = progress if progress is not None else NullProgress()
        self._ctx = multiprocessing.get_context()

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        cache: Any = None,
        key: Optional[Callable[[Any], str]] = None,
        on_error: Optional[Callable[[Any, BaseException], Any]] = None,
    ) -> List[Any]:
        """Run ``fn`` over ``tasks``; results in task order."""
        tasks = list(tasks)
        total = len(tasks)
        results: List[Any] = [None] * total
        keys: List[Optional[str]] = [None] * total

        pending: List[int] = []
        hits = 0
        corrupt_before = getattr(cache, "corrupt", 0) if cache is not None else 0
        for i, task in enumerate(tasks):
            if cache is not None and key is not None:
                keys[i] = key(task)  # None: this task has no cache identity
                hit = None if keys[i] is None else cache.get(keys[i])
                if hit is not None:
                    results[i] = hit
                    hits += 1
                    continue
            pending.append(i)

        n_procs = min(self.workers, max(len(pending), 1))
        if self.registry is not None:
            self.registry.counter("par.tasks").inc(total)
            self.registry.counter("par.cache_hits").inc(hits)
            self.registry.counter("par.cache_misses").inc(len(pending))
            if cache is not None:
                self.registry.counter("par.cache_corrupt").inc(
                    getattr(cache, "corrupt", 0) - corrupt_before
                )
            self.registry.gauge("par.workers").set(self.workers)
            # peak backlog beyond the pool width — how much of the map was
            # ever queued behind a busy slot (deterministic: a submission-
            # time quantity, independent of host scheduling)
            self.registry.gauge("par.queue_depth").set(
                max(0, len(pending) - n_procs)
            )
            # per-worker dispatch accounting: tasks are attributed to the
            # slot of their submission order (i mod pool width), not the OS
            # process that happened to execute them — the former is
            # deterministic, the latter is wall-clock scheduling
            for slot in range(n_procs):
                share = len(pending[slot::n_procs])
                if share:
                    self.registry.counter(
                        "par.worker_tasks", worker=slot
                    ).inc(share)

        running = live_workers(self.workers)
        self.progress.start(total, self.workers, running)
        done = hits
        if done:
            self.progress.update(done, total, hits, self.workers)

        def settle(i: int, run: Callable[[], Any]) -> None:
            nonlocal done
            try:
                results[i] = run()
            except Exception as exc:
                if on_error is None:
                    raise
                results[i] = on_error(tasks[i], exc)
            else:
                if cache is not None and keys[i] is not None:
                    cache.put(keys[i], results[i])
            done += 1
            self.progress.update(done, total, hits, self.workers)

        n_live = min(running, n_procs)
        if n_live > 1:
            with self._ctx.Pool(processes=n_live) as pool:
                handles = [(i, pool.apply_async(fn, (tasks[i],))) for i in pending]
                for i, handle in handles:
                    settle(i, handle.get)
        else:
            pooled = n_procs > 1  # the requested width would pool this map
            for i in pending:
                settle(i, lambda i=i: self._inline(fn, tasks[i], pooled))

        self.progress.finish(done, total, hits, self.workers)
        return results

    @staticmethod
    def _inline(fn: Callable[[Any], Any], task: Any, pooled: bool) -> Any:
        if pooled:
            # what the pool would ship: a task that cannot cross a process
            # fails here, in its slot, whatever the host's CPU count
            ForkingPickler.dumps((fn, (task,)))
        return fn(task)
