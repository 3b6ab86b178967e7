"""Metrics registry/observer tests, including accounting under failures."""

import pytest

from repro.obs.metrics import MetricsObserver, MetricsRegistry
from repro.obs.scenario import run_scenario
from repro.sim import Cluster, Job


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("mpi.msgs_recv", rank=0, cls="pt2pt")
        c.inc()
        c.inc(2)
        assert reg.counter("mpi.msgs_recv", rank=0, cls="pt2pt").value == 3

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("ckpt.count", rank=0).inc(-1)

    def test_unregistered_name_rejected(self):
        with pytest.raises(ValueError, match="unregistered metric name"):
            MetricsRegistry().counter("mpi.bytes_snet")

    def test_total_filters_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("mpi.bytes_sent", rank=0, cls="pt2pt").inc(10)
        reg.counter("mpi.bytes_sent", rank=1, cls="swap").inc(5)
        assert reg.total("mpi.bytes_sent") == 15
        assert reg.total("mpi.bytes_sent", rank=0) == 10
        assert reg.total("mpi.bytes_sent", cls="swap") == 5

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("mpi.blocked_s", rank=0)
        h.observe(0.0)
        h.observe(0.5)
        h.observe(1e9)  # overflow bucket
        assert h.count == 3
        assert h.counts[-1] == 1
        assert h.mean == pytest.approx((0.0 + 0.5 + 1e9) / 3)


class TestObserverAccounting:
    def test_clean_run_sent_equals_recv(self):
        def main(ctx):
            me = ctx.world.rank
            peer = 1 - me
            if me == 0:
                ctx.world.send(b"x" * 128, peer)
            else:
                ctx.world.recv(peer)
            ctx.world.barrier()

        obs = MetricsObserver()
        cluster = Cluster(2)
        job = Job(cluster, main, 2, procs_per_node=1, observer=obs)
        obs.watch_cluster(cluster)
        assert job.run().completed
        sent, recv, posted = (
            obs.registry.total(f"mpi.bytes_{kind}") for kind in ("sent", "recv", "posted")
        )
        assert sent == recv == posted == 128

    def test_failure_run_sent_equals_recv_and_no_double_count(self):
        """Across a kill + daemon restart, delivered bytes balance exactly;
        a send retried by the restarted incarnation is counted once per
        actual delivery, and bytes stranded in flight show up only in the
        posted counter."""
        run = run_scenario("skt-hpl", fail_at="panel:3", n=32)
        reg = run.registry
        assert run.completed and run.n_restarts == 1
        sent = reg.total("mpi.bytes_sent")
        recv = reg.total("mpi.bytes_recv")
        posted = reg.total("mpi.bytes_posted")
        assert sent == recv
        assert posted >= sent  # stranded in-flight bytes never count as sent
        assert reg.total("job.failures_injected") == 1
        assert reg.total("job.restarts") == 1

    def test_metrics_deterministic_across_runs(self):
        from repro.obs.export import metrics_jsonl

        a = metrics_jsonl(run_scenario("selfckpt", fail_at="encode:2").registry)
        b = metrics_jsonl(run_scenario("selfckpt", fail_at="encode:2").registry)
        assert a == b

    def test_shm_bytes_attributed_to_node(self):
        def main(ctx):
            seg = ctx.shm_create("buf", 16)  # 16 float64 = 128 bytes
            seg.array[:] = 1.0

        obs = MetricsObserver()
        cluster = Cluster(1)
        job = Job(cluster, main, 1, procs_per_node=1, observer=obs)
        obs.watch_cluster(cluster)
        assert job.run().completed
        assert obs.registry.total("shm.bytes_written", node=0) >= 128
        assert obs.registry.total("shm.ops", node=0, kind="create") == 1
