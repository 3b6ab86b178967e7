"""Progress reporting and engine host metrics.

The progress line is the one wall-clock surface of the replay engine; it
must always terminate with a final un-throttled summary (even when the
whole campaign resolves inside one throttle window), and ``NullProgress``
must keep stderr byte-silent.  The engine's deterministic host counters
(``par.worker_tasks``, ``par.queue_depth``, ``par.cache_corrupt``) are
dispatch-order quantities, never OS-scheduling ones.
"""

import io
import os

from repro.obs.metrics import MetricsRegistry
from repro.par import MemoCache, ParallelEngine
from repro.par.progress import NullProgress, ProgressReporter


def _identity(x):
    return x


class TestProgressReporter:
    def test_finish_always_emits_final_line(self):
        # min_interval_s is huge: every intermediate update is throttled
        # away, yet finish must still print the totals
        buf = io.StringIO()
        rep = ProgressReporter("camp", stream=buf, min_interval_s=3600.0)
        rep.start(3, 2, 2)
        for done in (1, 2, 3):
            rep.update(done, 3, 0, 2)
        rep.finish(3, 3, 0, 2)
        out = buf.getvalue()
        assert out.endswith("\n")
        final = out.rstrip("\n").rsplit("\r", 1)[-1]
        assert final.startswith("camp: 3/3 replays")
        assert "2 workers" in final
        assert "s)" in final  # elapsed time, not util%, on the final line

    def test_last_update_inside_window_not_dropped_silently(self):
        buf = io.StringIO()
        rep = ProgressReporter("c", stream=buf, min_interval_s=3600.0)
        rep.start(2, 1, 1)
        rep.update(1, 2, 0, 1)  # throttled
        rep.finish(2, 2, 1, 1)
        final = buf.getvalue().rstrip("\n").rsplit("\r", 1)[-1]
        assert "2/2" in final
        assert "1 cached" in final

    def test_live_line_reports_utilization_and_queue(self):
        buf = io.StringIO()
        rep = ProgressReporter("c", stream=buf, min_interval_s=0.0)
        rep.start(5, 2, 2)
        rep.update(1, 5, 0, 2)
        live = buf.getvalue().rsplit("\r", 1)[-1]
        assert "100% util" in live  # 4 left >= 2 workers: pool saturated
        assert "2 queued" in live

    def test_tail_drain_utilization(self):
        buf = io.StringIO()
        rep = ProgressReporter("c", stream=buf, min_interval_s=0.0)
        rep.start(2, 4, 4)
        rep.update(1, 2, 0, 4)  # one task left on a 4-wide pool
        live = buf.getvalue().rsplit("\r", 1)[-1]
        assert "25% util" in live
        assert "0 queued" in live

    def test_capped_line_names_the_running_processes(self):
        buf = io.StringIO()
        rep = ProgressReporter("c", stream=buf, min_interval_s=0.0)
        rep.start(5, 4, 1)
        rep.update(1, 5, 0, 4)
        live = buf.getvalue().rsplit("\r", 1)[-1]
        assert "4 workers (1 running)" in live
        assert "100% util" in live  # the one running process is busy
        assert "3 queued" in live
        rep.update(4, 5, 0, 4)
        assert "100% util, 0 queued" in buf.getvalue().rsplit("\r", 1)[-1]

    def test_engine_uses_reporter_and_ends_with_newline(self):
        buf = io.StringIO()
        rep = ProgressReporter("eng", stream=buf, min_interval_s=3600.0)
        engine = ParallelEngine(1, progress=rep)
        assert engine.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        out = buf.getvalue()
        assert out.endswith("\n")
        assert "eng: 3/3 replays" in out.rsplit("\r", 1)[-1]

    def test_null_progress_is_byte_silent(self, capsys):
        engine = ParallelEngine(1, progress=NullProgress())
        engine.map(lambda x: x + 1, [1, 2, 3])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == ""

    def test_default_engine_progress_is_silent(self, capsys):
        engine = ParallelEngine(1)
        engine.map(lambda x: x + 1, [1, 2])
        assert capsys.readouterr().err == ""


class TestHostMetrics:
    def test_worker_tasks_attributed_by_dispatch_slot(self):
        reg = MetricsRegistry()
        engine = ParallelEngine(2, registry=reg)
        engine.map(_identity, list(range(5)))
        # n_procs=2: slots get pending[0::2] and pending[1::2] -> 3 and 2
        assert reg.counter("par.worker_tasks", worker=0).value == 3
        assert reg.counter("par.worker_tasks", worker=1).value == 2
        assert reg.counter("par.tasks").value == 5

    def test_queue_depth_is_backlog_beyond_pool(self):
        reg = MetricsRegistry()
        ParallelEngine(2, registry=reg).map(_identity, list(range(5)))
        assert reg.gauge("par.queue_depth").value == 3
        reg2 = MetricsRegistry()
        ParallelEngine(8, registry=reg2).map(_identity, list(range(5)))
        assert reg2.gauge("par.queue_depth").value == 0

    def test_serial_engine_attributes_all_to_slot_zero(self):
        reg = MetricsRegistry()
        ParallelEngine(1, registry=reg).map(_identity, list(range(4)))
        assert reg.counter("par.worker_tasks", worker=0).value == 4

    def test_cache_corrupt_counter(self, tmp_path):
        cache = MemoCache(str(tmp_path / "memo"))
        reg = MetricsRegistry()
        engine = ParallelEngine(1, registry=reg, progress=NullProgress())

        calls = []

        def fn(task):
            calls.append(task)
            from repro.par.replay import ReplayOutcome

            return ReplayOutcome(
                verdict="survived", n_restarts=0, makespan_s=1.0
            )

        engine.map(fn, ["t"], cache=cache, key=lambda t: f"key-{t}")
        assert reg.counter("par.cache_corrupt").value == 0
        # smash the on-disk entry; drop the in-memory copy so the engine
        # must go back to disk and trip over the corruption
        (entry,) = [
            p for p in os.listdir(cache.path) if p.endswith(".json")
        ]
        with open(os.path.join(cache.path, entry), "w") as f:
            f.write("{ not json")
        cache._mem.clear()
        engine.map(fn, ["t"], cache=cache, key=lambda t: f"key-{t}")
        assert reg.counter("par.cache_corrupt").value == 1
        assert len(calls) == 2  # corrupt entry counted as a miss and re-ran

    def test_cache_hit_path_counts(self, tmp_path):
        cache = MemoCache(str(tmp_path / "memo"))
        reg = MetricsRegistry()
        engine = ParallelEngine(1, registry=reg)
        from repro.par.replay import ReplayOutcome

        fn = lambda t: ReplayOutcome(
            verdict="survived", n_restarts=0, makespan_s=1.0
        )
        engine.map(fn, ["a", "b"], cache=cache, key=lambda t: f"k-{t}")
        engine.map(fn, ["a", "b"], cache=cache, key=lambda t: f"k-{t}")
        assert reg.counter("par.cache_misses").value == 2
        assert reg.counter("par.cache_hits").value == 2
        assert reg.counter("par.cache_corrupt").value == 0
