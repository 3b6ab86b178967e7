"""Tests for the parallel execution engine (repro.par.engine).

Pool tests pin the CPU count the engine reads (``two_cpus``), so a real
two-process pool runs on a host of any size; ``TestOneCpu`` pins one.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.par import (
    AUTO_WORKERS_CAP,
    MemoCache,
    ParallelEngine,
    default_workers,
    resolve_workers,
)


# pool workers unpickle tasks by reference, so the mapped functions must
# be module-level
def _square(task):
    return task * task


def _boom_on_three(task):
    if task == 3:
        raise ValueError(f"bad task {task}")
    return task * task


def _kind(task):
    return type(task).__name__


class TestResolveWorkers:
    def test_none_is_serial(self):
        assert resolve_workers(None) == 1

    def test_int_and_string_forms(self):
        assert resolve_workers(4) == 4
        assert resolve_workers("3") == 3

    def test_auto_is_bounded(self):
        n = resolve_workers("auto")
        assert 1 <= n <= AUTO_WORKERS_CAP
        assert n == default_workers()

    def test_auto_reads_the_one_cpu_helper(self, monkeypatch):
        """``--workers auto`` and the shard executor cap read the CPU
        count in one place: the affinity mask, so ``taskset`` counts."""
        import os

        from repro.par import engine

        assert engine.usable_cpus() == len(os.sched_getaffinity(0))
        for cpus, want in ((1, 1), (3, 3), (64, AUTO_WORKERS_CAP)):
            monkeypatch.setattr(engine, "usable_cpus", lambda c=cpus: c)
            assert default_workers() == want

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers("-2")


class TestMapOrdering:
    def test_serial_preserves_task_order(self):
        engine = ParallelEngine(1)
        assert engine.map(_square, [3, 1, 2]) == [9, 1, 4]

    @pytest.mark.usefixtures("two_cpus")
    def test_parallel_preserves_task_order(self):
        engine = ParallelEngine(2)
        tasks = list(range(10))
        assert engine.map(_square, tasks) == [t * t for t in tasks]

    @pytest.mark.usefixtures("two_cpus")
    def test_parallel_equals_serial(self):
        tasks = [5, 3, 8, 1]
        assert ParallelEngine(2).map(_square, tasks) == ParallelEngine(1).map(
            _square, tasks
        )

    @pytest.mark.usefixtures("two_cpus")
    def test_empty_task_list(self):
        assert ParallelEngine(2).map(_square, []) == []


class TestErrorFolding:
    def test_without_on_error_the_exception_propagates(self):
        with pytest.raises(ValueError, match="bad task 3"):
            ParallelEngine(1).map(_boom_on_three, [1, 3])

    def test_on_error_folds_into_the_slot(self):
        folded = ParallelEngine(1).map(
            _boom_on_three,
            [1, 3, 4],
            on_error=lambda task, exc: ("crashed", task, str(exc)),
        )
        assert folded == [1, ("crashed", 3, "bad task 3"), 16]

    @pytest.mark.usefixtures("two_cpus")
    def test_on_error_folds_in_pool_workers_too(self):
        folded = ParallelEngine(2).map(
            _boom_on_three,
            [1, 3, 4, 5],
            on_error=lambda task, exc: ("crashed", task),
        )
        assert folded == [1, ("crashed", 3), 16, 25]


class TestMemoization:
    def test_hits_skip_execution(self):
        cache = MemoCache()
        key = str
        cache.put("3", 99)  # pre-classified: must win over _square
        got = ParallelEngine(1).map(_square, [2, 3], cache=cache, key=key)
        assert got == [4, 99]

    def test_misses_are_stored(self):
        cache = MemoCache()
        ParallelEngine(1).map(_square, [2, 3], cache=cache, key=str)
        assert cache.get("2") == 4 and cache.get("3") == 9

    def test_error_folded_results_are_never_cached(self):
        cache = MemoCache()
        ParallelEngine(1).map(
            _boom_on_three,
            [1, 3],
            cache=cache,
            key=str,
            on_error=lambda task, exc: "crashed",
        )
        assert cache.get("1") == 1
        assert cache.get("3") is None  # a crash is not a classification


class TestAccounting:
    def test_metrics_counters(self):
        registry = MetricsRegistry()
        cache = MemoCache()
        cache.put("1", 1)
        engine = ParallelEngine(1, registry=registry)
        engine.map(_square, [1, 2, 3], cache=cache, key=str)
        assert registry.total("par.tasks") == 3
        assert registry.total("par.cache_hits") == 1
        assert registry.total("par.cache_misses") == 2

    def test_progress_sees_every_resolution(self):
        calls = []

        class Probe:
            def start(self, total, workers, running):
                calls.append(("start", total))

            def update(self, done, total, cache_hits, workers):
                calls.append(("update", done, total))

            def finish(self, done, total, cache_hits, workers):
                calls.append(("finish", done, total))

        ParallelEngine(1, progress=Probe()).map(_square, [1, 2])
        assert calls[0] == ("start", 2)
        assert calls[-1] == ("finish", 2, 2)
        assert ("update", 2, 2) in calls


def _par_samples(registry):
    return [
        (m.name, m.labels, m.value)
        for m in registry.samples()
        if m.name.startswith("par.")
    ]


class TestOneCpu:
    """At one usable CPU a pool could only time-slice it: the map runs
    inline, and nothing it returns, stores or counts shows it."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        engine = ParallelEngine(4)

        def refuse(*args, **kwargs):
            raise AssertionError("a pool was started at one CPU")

        monkeypatch.setattr(engine._ctx, "Pool", refuse)
        return engine

    def test_starts_no_process(self, engine_cpus, no_pool):
        engine_cpus(1)
        assert no_pool.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_same_results_folds_and_cache_as_one_worker(self, engine_cpus, no_pool):
        engine_cpus(1)
        tasks = [1, 3, 4, 5, 2]
        fold = lambda task, exc: ("crashed", task, str(exc))  # noqa: E731
        caches = MemoCache(), MemoCache()
        for cache in caches:
            cache.put("2", 99)  # a hit resolves without running
        wide = no_pool.map(_boom_on_three, tasks, cache=caches[0], key=str, on_error=fold)
        one = ParallelEngine(1).map(
            _boom_on_three, tasks, cache=caches[1], key=str, on_error=fold
        )
        assert wide == one == [1, ("crashed", 3, "bad task 3"), 16, 25, 99]
        assert [c.get(str(t)) for c in caches for t in tasks] == 2 * [1, None, 16, 25, 99]

    def test_counters_are_the_requested_widths(self, engine_cpus):
        registries = {}
        for cpus in (1, 2):
            engine_cpus(cpus)
            registries[cpus] = MetricsRegistry()
            ParallelEngine(4, registry=registries[cpus]).map(_square, list(range(7)))
        assert _par_samples(registries[1]) == _par_samples(registries[2])
        assert registries[1].gauge("par.workers").value == 4
        assert registries[1].gauge("par.queue_depth").value == 3
        assert registries[1].counter("par.worker_tasks", worker=3).value == 1

    def test_an_unpicklable_task_fails_in_its_slot_on_every_host(self, engine_cpus):
        """A task the requested width would ship to a pool is pickled even
        when the host runs it inline: it fails the same way at one CPU as
        at two, and runs only at ``workers=1``."""
        tasks = [1, lambda: None, 3]
        fold = lambda task, exc: (type(exc).__name__, str(exc))  # noqa: E731
        got = {}
        for cpus in (1, 2):
            engine_cpus(cpus)
            got[cpus] = ParallelEngine(4).map(_kind, tasks, on_error=fold)
        assert got[1] == got[2]
        assert got[1][0] == got[1][2] == "int"
        assert got[1][1][0] == "AttributeError" and "pickle" in got[1][1][1]
        assert ParallelEngine(1).map(_kind, tasks) == ["int", "function", "int"]

    def test_four_workers_on_two_cpus_start_two_processes(self, engine_cpus, monkeypatch):
        engine_cpus(2)
        engine = ParallelEngine(4)
        started = []
        pool = engine._ctx.Pool

        def counted(processes):
            started.append(processes)
            return pool(processes=processes)

        monkeypatch.setattr(engine._ctx, "Pool", counted)
        assert engine.map(_square, list(range(6))) == [t * t for t in range(6)]
        assert started == [2]
