"""Layer probes: the per-layer numbers, one public entry point at a time.

Each probe calls one layer the way the layers above it do and times the
call from outside.  They run in one fresh pinned child per traced run and
do the same work whatever workload was asked for, so a per-layer number
means the same thing in every results row.  ``mini`` shrinks every size
for ``selftest``; the metric names stay the same.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from benchmarks.e2e import config, rounds, workloads
from benchmarks.e2e.hosttrace import HostTracer, child_coverage, duration

Metrics = Dict[str, Tuple[float, str]]


@dataclass(frozen=True)
class Sizes:
    buf_bytes: int  # the "2mib" buffers
    reps: int  # repetitions of a ~ms probe
    cli_reps: int
    job_reps: int
    bulk: config.CkptShape
    tiny: config.CkptShape
    hpl: Tuple[Any, ...]  # SktHpl(seed, *hpl)
    hpl_reps: int
    mini: bool


FULL = Sizes(2 << 20, 10, 3, 30, config.CKPT_BULK, config.CKPT_TINY, (), 2, False)
MINI = Sizes(64 << 10, 2, 1, 3, config.CKPT_MINI, config.CKPT_MINI,
             (config.HPL_MINI, config.HPL_KILL_MINI), 1, True)


def _median_s(fn: Callable[[], Any], reps: int, warm: int = 1) -> float:
    for _ in range(warm):
        fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _tmpdir() -> str:
    os.makedirs(config.TMP_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="probe-", dir=config.TMP_DIR)


def _rand_bufs(n: int, nbytes: int, seed: int) -> List[np.ndarray]:
    rng = np.random.default_rng([seed, 99])
    return [rng.integers(0, 256, nbytes, dtype=np.uint8) for _ in range(n)]


# -- cli ------------------------------------------------------------------------
def probe_cli(sz: Sizes, seed: int) -> Metrics:
    env = rounds.child_env()
    env["PYTHONPATH"] = os.path.join(config.ROOT, "src")

    def run(*argv: str) -> Callable[[], Any]:
        return lambda: subprocess.run(
            [sys.executable, *argv], env=env, cwd=config.ROOT, check=True,
            stdout=subprocess.DEVNULL,
        )

    return {
        "cli.import_s": (_median_s(run("-c", "import repro"), sz.cli_reps, warm=0), "s"),
        "cli.list_s": (_median_s(run("-m", "repro", "list"), sz.cli_reps, warm=0), "s"),
    }


# -- sim.runtime ------------------------------------------------------------------
def _empty_main(ctx) -> None:
    return None


def _job(main, n_ranks, *, n_nodes=None, ppn=1, args=()):
    from repro.sim.cluster import Cluster
    from repro.sim.runtime import Job

    cluster = Cluster(n_nodes or n_ranks)
    return Job(cluster, main, n_ranks, args=args, procs_per_node=ppn)


def probe_runtime(sz: Sizes, seed: int) -> Metrics:
    from repro.hpl import JobDaemon
    from repro.sim.cluster import Cluster

    start8 = _median_s(lambda: _job(_empty_main, 8).run(), sz.job_reps)
    start16 = _median_s(lambda: _job(_empty_main, 16, n_nodes=8, ppn=2).run(), sz.job_reps)
    daemon8 = _median_s(
        lambda: JobDaemon(Cluster(8), _empty_main, 8, procs_per_node=1).run(), sz.job_reps
    )
    return {
        "sim.job_start_8r_s": (start8, "s"),
        "sim.job_start_16r_s": (start16, "s"),
        "hpl.daemon_overhead_s": (daemon8 - start8, "s"),
    }


# -- sim.mpi ------------------------------------------------------------------------
def _loop_main(ctx, body, n):
    """Rank main: ``n`` rounds of ``body(ctx)``; rank 0 returns host s/round."""
    ctx.world.barrier()
    t0 = time.perf_counter()
    for _ in range(n):
        body(ctx)
    return (time.perf_counter() - t0) / n


def _per_round(body, n, n_ranks, **kw) -> float:
    result = _job(_loop_main, n_ranks, args=(body, n), **kw).run()
    if not result.completed:
        raise RuntimeError(f"mpi probe job failed: {result.rank_errors}")
    return result.rank_results[0]


def probe_mpi(sz: Sizes, seed: int) -> Metrics:
    n = 20 * sz.reps
    small = 7
    big = np.zeros(1 << 20, dtype=np.uint8)
    payload = np.zeros(sz.buf_bytes, dtype=np.uint8)

    def pingpong(obj):
        def body(ctx):
            peer = 1 - ctx.rank
            if ctx.rank == 0:
                ctx.world.send(obj, peer)
                ctx.world.recv(peer)
            else:
                ctx.world.recv(peer)
                ctx.world.send(obj, peer)
        return body

    def identity(ctx):
        ctx.world.custom_collective(
            payload, compute=lambda data: dict(data), cost=lambda data: 0.0
        )

    us = 1e6
    return {
        "sim.mpi.barrier_8r_us": (_per_round(lambda c: c.world.barrier(), n, 8) * us, "us"),
        "sim.mpi.barrier_16r_us": (
            _per_round(lambda c: c.world.barrier(), n // 2, 16, n_nodes=8, ppn=2) * us, "us"),
        "sim.mpi.allgather_small_us": (
            _per_round(lambda c: c.world.allgather(small), n, 8) * us, "us"),
        "sim.mpi.p2p_small_us": (_per_round(pingpong(small), n, 2) / 2 * us, "us"),
        "sim.mpi.p2p_1mib_us": (_per_round(pingpong(big), 2 * sz.reps, 2) / 2 * us, "us"),
        "sim.mpi.collective_2mib_s": (_per_round(identity, sz.reps, 4), "s"),
    }


# -- sim.shm ------------------------------------------------------------------------
def probe_shm(sz: Sizes, seed: int) -> Metrics:
    buf = _rand_bufs(1, sz.buf_bytes, seed)[0]

    def body(ctx):
        seg = ctx.shm_create("probe", sz.buf_bytes, np.uint8)
        seg.write(buf)
        ctx.shm_unlink("probe")

    return {"sim.shm.create_write_2mib_s": (_per_round(body, sz.reps, 1), "s")}


# -- ckpt.state / stripes / stripes_rs / encoding -----------------------------------
def probe_state(sz: Sizes, seed: int) -> Metrics:
    from repro.ckpt import stripes
    from repro.ckpt.state import StateLayout

    n = sz.buf_bytes // 8
    layout = StateLayout()
    layout.add("data", (n,), np.float64)
    layout.freeze()
    arrays = {"data": np.random.default_rng([seed, 98]).random(n)}
    size = stripes.padded_size(layout.raw_size, config.GROUP_SIZE)
    flat = layout.pack(arrays, {"it": 1}, total_size=size)
    return {
        "ckpt.state.pack_2mib_s": (
            _median_s(lambda: layout.pack(arrays, {"it": 1}, total_size=size), sz.reps), "s"),
        "ckpt.state.unpack_2mib_s": (
            _median_s(lambda: layout.unpack_into(flat, arrays), sz.reps), "s"),
    }


def probe_stripes(sz: Sizes, seed: int) -> Metrics:
    from repro.ckpt import stripes, stripes_rs

    g = config.GROUP_SIZE
    out: Metrics = {}

    big = _rand_bufs(g, stripes.padded_size(sz.buf_bytes, g), seed)
    small = _rand_bufs(g, stripes.padded_size(4096, g), seed)
    cs = stripes.build_checksums(big)
    surv = {r: big[r] for r in range(g) if r != 1}
    surv_cs = {r: cs[r] for r in range(g) if r != 1}
    out["ckpt.stripes.encode_xor_2mib_s"] = (
        _median_s(lambda: stripes.build_checksums(big), sz.reps), "s")
    out["ckpt.stripes.reconstruct_xor_2mib_s"] = (
        _median_s(lambda: stripes.reconstruct(surv, surv_cs, 1, g), sz.reps), "s")
    out["ckpt.stripes.encode_xor_4kib_us"] = (
        _median_s(lambda: stripes.build_checksums(small), 20 * sz.reps) * 1e6, "us")

    big = _rand_bufs(g, stripes_rs.padded_size_rs(sz.buf_bytes, g), seed)
    small = _rand_bufs(g, stripes_rs.padded_size_rs(4096, g), seed)
    parity = stripes_rs.build_parity(big, g)

    def lose(missing):
        s = {r: big[r] for r in range(g) if r not in missing}
        p = {r: parity[r] for r in range(g) if r not in missing}
        return lambda: stripes_rs.reconstruct_rs(s, p, missing, g)

    out["ckpt.stripes_rs.encode_2mib_s"] = (
        _median_s(lambda: stripes_rs.build_parity(big, g), sz.reps), "s")
    out["ckpt.stripes_rs.reconstruct1_2mib_s"] = (_median_s(lose([1]), sz.reps), "s")
    out["ckpt.stripes_rs.reconstruct2_2mib_s"] = (_median_s(lose([1, 2]), sz.reps), "s")
    out["ckpt.stripes_rs.encode_4kib_us"] = (
        _median_s(lambda: stripes_rs.build_parity(small, g), 20 * sz.reps) * 1e6, "us")
    return out


def probe_encoding(sz: Sizes, seed: int) -> Metrics:
    from repro.ckpt import stripes
    from repro.ckpt.encoding import GroupEncoder

    g = config.GROUP_SIZE
    bufs = _rand_bufs(g, stripes.padded_size(sz.buf_bytes, g), seed)
    state: Dict[int, Any] = {}

    def encode(ctx):
        enc = GroupEncoder(ctx.world)
        state[ctx.rank] = enc.encode(bufs[ctx.rank]).checksum

    def recover(ctx):
        enc = GroupEncoder(ctx.world)
        if ctx.rank == 1:
            enc.recover(None, None, 1)
        else:
            enc.recover(bufs[ctx.rank], state[ctx.rank], 1)

    return {
        "ckpt.encoding.encode_2mib_s": (_per_round(encode, sz.reps, g), "s"),
        "ckpt.encoding.recover_2mib_s": (_per_round(recover, sz.reps, g), "s"),
    }


# -- ckpt protocol (spans of the benchmark's rank main) ------------------------------
def _span_medians(spans, name: str, scale: float, **match) -> float:
    picked = [
        duration(s) for s in spans
        if s["name"] == name and all(s.get(k) == v for k, v in match.items())
    ]
    return statistics.median(picked) * scale


def probe_protocol(sz: Sizes, seed: int, tracer: HostTracer) -> Metrics:
    out: Metrics = {}
    for wname, shape, suffix, scale in (
        ("ckpt_bulk", sz.bulk, "s", 1.0),
        ("ckpt_tiny", sz.tiny, "us", 1e6),
    ):
        w = workloads.CkptCycles(wname, shape, seed)
        w.warm()  # grows the heap the ops below then reuse
        t0 = time.perf_counter()
        plain = w.check(w.op())
        wall = time.perf_counter() - t0
        first = len(tracer.spans)
        tracer.workload = f"probe.{wname}"
        traced = w.check(w.op(tracer))
        if plain.problems or traced.problems:
            raise RuntimeError(f"{wname} probe failed: {plain.problems + traced.problems}")
        spans = tracer.spans[first:]
        for method in config.METHODS:
            out[f"ckpt.checkpoint_{suffix}.{method}"] = (
                _span_medians(spans, "ckpt.checkpoint", scale, method=method), suffix)
            restores = [
                duration(s) for s in spans
                if s["name"] == "ckpt.try_restore" and s["method"] == method and s["attempt"] > 0
            ]
            out[f"ckpt.restore_{suffix}.{method}"] = (statistics.median(restores) * scale, suffix)
        if wname == "ckpt_bulk":
            mains = [s for s in spans if s["name"] == "rank0.main"]
            out["ckpt.commit_s"] = (_span_medians(spans, "ckpt.commit", 1.0), "s")
            out["bench.rank0_span_coverage"] = (
                min(child_coverage(spans, m) for m in mains), "ratio")
            ex = plain.extra
            out["ckpt.checkpoints"] = (ex["checkpoints"], "count")
            out["ckpt.restores"] = (ex["restores"], "count")
            out["ckpt.reconstructed_ranks"] = (ex["reconstructed_ranks"], "count")
            out["ckpt.protected_bytes"] = (ex["protected_bytes"], "B")
            out["ckpt.protected_mib_per_s"] = (ex["protected_bytes"] / 2**20 / wall, "MiB/s")
            out["sim.shm.segments"] = (ex["shm_segments"], "count")
    return out


# -- obs (and the exact communication counts an observer gives) -------------------------
def probe_obs(sz: Sizes, seed: int) -> Metrics:
    """Three variations of the ``ckpt_tiny`` op against the plain pinned
    one: observers installed, and the original affinity mask (the convoy:
    on two CPUs the thread-per-rank simulator hands its locks across
    cores); then one SKT-HPL op for its point-to-point traffic."""
    from repro.obs.metrics import MetricsObserver
    from repro.obs.spans import SpanTracer

    w = workloads.CkptCycles("ckpt_tiny", sz.tiny, seed)
    reps = 1 if sz.mini else 2
    plain = _median_s(lambda: w.op(), reps)
    observer = MetricsObserver()

    def observed():
        w.sim_tracer = SpanTracer()
        try:
            w.op(None, observer)
        finally:
            w.sim_tracer = None

    watched = _median_s(observed, reps, warm=0)
    collectives = observer.registry.total("mpi.collectives") / reps

    pinned_mask = os.sched_getaffinity(0)
    orig = os.environ.get(config.ENV_ORIG_AFFINITY)
    os.sched_setaffinity(0, {int(c) for c in orig.split(",")} if orig else pinned_mask)
    try:
        unpinned = _median_s(lambda: w.op(), reps, warm=0)
    finally:
        os.sched_setaffinity(0, pinned_mask)

    hpl = workloads.SktHpl(seed, *sz.hpl)
    observer = MetricsObserver()
    checked = hpl.check(hpl.op(None, observer))
    if checked.problems:
        raise RuntimeError(f"skt_hpl counting op failed: {checked.problems}")
    return {
        "obs.observer_overhead_ratio": (watched / plain, "ratio"),
        "sim.convoy_ratio": (unpinned / plain, "ratio"),
        "sim.mpi.collectives": (collectives, "count"),
        "sim.mpi.p2p_msgs": (observer.registry.total("mpi.msgs_recv"), "count"),
        "sim.mpi.p2p_bytes": (observer.registry.total("mpi.bytes_recv"), "B"),
    }


# -- hpl ------------------------------------------------------------------------------
def probe_hpl(sz: Sizes, seed: int) -> Metrics:
    from repro.hpl import hpl_main

    w = workloads.SktHpl(seed, *sz.hpl)
    n = w.cfg.n_ranks

    def solve():
        result = _job(hpl_main, n, args=(w.cfg,)).run()
        if not result.completed or not result.rank_results[0].passed:
            raise RuntimeError("plain HPL probe failed")

    def skt(kills, restarts):
        def run():
            checked = w.check(w.run(kills), restarts=restarts)
            if checked.problems:
                raise RuntimeError(f"SKT-HPL probe failed: {checked.problems}")
        return run

    solve_s = _median_s(solve, sz.hpl_reps, warm=0)
    faultfree_s = _median_s(skt((), 0), sz.hpl_reps, warm=0)
    recovered_s = _median_s(skt((w.kill,), 1), sz.hpl_reps, warm=0)
    return {
        "hpl.solve_s": (solve_s, "s"),
        "hpl.skt_faultfree_s": (faultfree_s, "s"),
        "hpl.skt_overhead_s": (faultfree_s - solve_s, "s"),
        "hpl.recovery_s": (recovered_s - faultfree_s, "s"),
        "hpl.panels": (w.cfg.n_blocks, "count"),
    }


# -- chaos ------------------------------------------------------------------------------
def probe_chaos(sz: Sizes, seed: int, tracer: HostTracer) -> Metrics:
    w = workloads.ChaosCampaign("chaos_serial", "serial", mini=sz.mini)
    w.warm()
    first = len(tracer.spans)
    tracer.workload = "probe.chaos_serial"
    checked = w.check(w.op(tracer))
    golden = rounds.load_golden().get("chaos_smoke")
    if checked.problems or (golden and not sz.mini and checked.digest != golden):
        raise RuntimeError(f"traced campaign failed or differs from golden: {checked.problems}")
    spans = tracer.spans[first:]

    def total(name):
        return sum(duration(s) for s in spans if s["name"] == name)

    replays = sorted(duration(s) for s in spans if s["name"] == "chaos.run_kill_point")
    p90 = replays[min(len(replays) - 1, int(0.9 * len(replays)))]
    return {
        "chaos.probe_s": (total("chaos.probe_baseline"), "s"),
        "chaos.matrix_s": (total("chaos.run_kill_matrix"), "s"),
        "chaos.replay_s": (statistics.median(replays), "s"),
        "chaos.replay_p90_s": (p90, "s"),
        "chaos.report_s": (total("chaos.report"), "s"),
        "chaos.kill_points": (checked.extra["kill_points"], "count"),
        "chaos.replays": (len(replays), "count"),
        "chaos.jobs": (checked.jobs, "count"),
    }


# -- par --------------------------------------------------------------------------------
def _noop(task):
    return task


def _campaign(sz: Sizes, cache, registry, obs="off"):
    """The ``self`` half of the smoke campaign (88 kill points) through
    the public functions, with a cache and/or obs sampling."""
    from repro.chaos import probe_baseline, render_campaign, run_kill_matrix

    methods = ("self",)
    out = []
    for scenario in workloads.smoke_scenarios(methods):
        probe = probe_baseline(scenario)
        rep = run_kill_matrix(
            scenario, probe=probe, cache=cache, registry=registry, obs=obs,
            max_occurrences=1 if sz.mini else None,
        )
        out.append((scenario, probe, rep))
    render_campaign([rep for _, _, rep in out], None, None)
    return out


def probe_par(sz: Sizes, seed: int) -> Metrics:
    from repro.chaos import enumerate_kill_points, point_trigger, probe_baseline
    from repro.obs.metrics import MetricsRegistry
    from repro.par import MemoCache, ParallelEngine, ReplayOutcome, ReplaySpec
    from repro.par import code_fingerprint, replay_fingerprint

    def fingerprint_cold():
        code_fingerprint.cache_clear()
        code_fingerprint()

    scenario = workloads.smoke_scenarios(("self",))[0]
    probe = probe_baseline(scenario)
    point = enumerate_kill_points(probe)[0]
    spec = ReplaySpec(scenario.spec, (point_trigger(point, probe),))

    n_tasks = 20 * sz.reps
    pool_start = _median_s(lambda: ParallelEngine(2).map(_noop, range(2)), 3, warm=0)
    loaded = _median_s(lambda: ParallelEngine(2).map(_noop, range(2 + n_tasks)), 3, warm=0)

    outcome = ReplayOutcome(verdict="survived", n_restarts=1, makespan_s=1.0, fired=("x",))
    tmp = _tmpdir()
    try:
        keys = [f"{i:064x}" for i in range(n_tasks)]
        writer = MemoCache(os.path.join(tmp, "memo"))
        t0 = time.perf_counter()
        for k in keys:
            writer.put(k, outcome)
        put_us = (time.perf_counter() - t0) / n_tasks * 1e6
        reader = MemoCache(os.path.join(tmp, "memo"))
        t0 = time.perf_counter()
        for k in keys:
            reader.get(k)
        get_us = (time.perf_counter() - t0) / n_tasks * 1e6

        warm_dir = os.path.join(tmp, "campaign")
        _campaign(sz, MemoCache(warm_dir), MetricsRegistry())
        registry = MetricsRegistry()
        t0 = time.perf_counter()
        _campaign(sz, MemoCache(warm_dir), registry)
        hit_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "par.code_fingerprint_s": (_median_s(fingerprint_cold, 3, warm=0), "s"),
        "par.replay_fingerprint_us": (
            _median_s(lambda: replay_fingerprint(spec), 20 * sz.reps) * 1e6, "us"),
        "par.pool_start_s": (pool_start, "s"),
        "par.task_roundtrip_us": ((loaded - pool_start) / n_tasks * 1e6, "us"),
        "par.cache_put_us": (put_us, "us"),
        "par.cache_get_us": (get_us, "us"),
        "par.cache_hit_campaign_s": (hit_s, "s"),
        "par.cache_hits": (registry.total("par.cache_hits"), "count"),
        "par.cache_misses": (registry.total("par.cache_misses"), "count"),
    }


# -- shard --------------------------------------------------------------------------------
def probe_shard(sz: Sizes, seed: int) -> Metrics:
    from repro.par import ReplayOutcome
    from repro.shard import ShardQueue, merge_campaign, plan_campaign, run_executor
    from repro.shard import run_sharded_campaign
    from repro.shard.queue import queue_path_for

    methods = ("self",) if sz.mini else workloads.SMOKE_METHODS
    cap = 1 if sz.mini else None
    scenarios = workloads.smoke_scenarios(methods)
    outcome = ReplayOutcome(verdict="survived", n_restarts=1, makespan_s=1.0, fired=("x",))
    tmp = _tmpdir()
    try:
        t0 = time.perf_counter()
        plan = plan_campaign(scenarios, n_shards=2, max_occurrences=cap)
        plan_s = time.perf_counter() - t0
        path = queue_path_for(tmp)
        claims, records, commits = [], [], []
        with ShardQueue(path) as queue:
            t0 = time.perf_counter()
            queue.populate(plan)
            populate_s = time.perf_counter() - t0
            while True:
                t0 = time.perf_counter()
                lease = queue.claim("probe", 60.0)
                claims.append(time.perf_counter() - t0)
                if lease is None:
                    break
                for ord_, fingerprint, _spec in queue.shard_units(lease.shard_id):
                    t0 = time.perf_counter()
                    queue.record(ord_, fingerprint, outcome, lease)
                    records.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                queue.commit_shard(lease)
                commits.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            merge_campaign(plan, queue.outcomes())
            merge_s = time.perf_counter() - t0
            rows = queue.progress()["done_units"]

        def spawn():  # an executor that finds every shard done: pure start-up
            p = multiprocessing.get_context(None).Process(target=run_executor, args=(path, 0))
            p.start()
            p.join()
            if p.exitcode != 0:
                raise RuntimeError(f"executor exited {p.exitcode}")

        spawn_s = _median_s(spawn, 3, warm=0)

        # a real (miniature) sharded campaign, then a --resume of the finished queue
        mini = workloads.smoke_scenarios(("self",))
        run_dir = os.path.join(tmp, "run")
        _plan, _mat, _sched, stats = run_sharded_campaign(
            mini, n_shards=2, out_dir=run_dir, max_occurrences=1
        )
        t0 = time.perf_counter()
        run_sharded_campaign(mini, n_shards=2, out_dir=run_dir, max_occurrences=1)
        resume_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "shard.plan_s": (plan_s, "s"),
        "shard.populate_s": (populate_s, "s"),
        "shard.claim_us": (statistics.median(claims) * 1e6, "us"),
        "shard.record_us": (statistics.median(records) * 1e6, "us"),
        "shard.commit_us": (statistics.median(commits) * 1e6, "us"),
        "shard.merge_s": (merge_s, "s"),
        "shard.executor_spawn_s": (spawn_s, "s"),
        "shard.resume_merge_s": (resume_s, "s"),
        "shard.units": (plan.n_units, "count"),
        "shard.journal_rows": (rows, "count"),
        "shard.respawns": (stats.get("respawns", 0), "count"),
        "shard.fence_rejections": (stats.get("fence_rejections", 0), "count"),
        "shard.quarantined": (stats.get("quarantined", 0), "count"),
    }


# -- obs store ----------------------------------------------------------------------------
def probe_store(sz: Sizes, seed: int) -> Metrics:
    from repro.obs.store import TraceStore, campaign_id_for, ingest_kill_matrix

    runs = _campaign(sz, None, None, obs="summary")
    cid = campaign_id_for(0, "selfckpt", [rep.method for _, _, rep in runs])
    tmp = _tmpdir()
    try:
        t0 = time.perf_counter()
        with TraceStore(os.path.join(tmp, "obs.sqlite")) as store:
            ord_ = 0
            for scenario, probe, rep in runs:
                ord_ = ingest_kill_matrix(
                    store, cid, scenario, rep, seed=0, obs_mode="summary",
                    ord_base=ord_, probe=probe,
                )
            n_rows = store.counts()["runs"]
        ingest_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"obs.store_ingest_s": (ingest_s, "s"), "obs.store_rows": (n_rows, "count")}


# -- the probe child -------------------------------------------------------------------------
def run_all(seed: int, mini: bool) -> Dict[str, Any]:
    sz = MINI if mini else FULL
    tracer = HostTracer("probe")
    metrics: Metrics = {}
    took: Dict[str, float] = {}
    for probe in (
        probe_cli, probe_runtime, probe_mpi, probe_shm, probe_state,
        probe_stripes, probe_encoding, probe_protocol, probe_obs, probe_hpl,
        probe_chaos, probe_par, probe_shard, probe_store,
    ):
        t0 = time.perf_counter()
        if probe in (probe_protocol, probe_chaos):
            metrics.update(probe(sz, seed, tracer))
        else:
            metrics.update(probe(sz, seed))
        took[probe.__name__] = time.perf_counter() - t0
    return {
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "spans": tracer.spans,
        "took_s": took,
    }


def probe_main(spec: Dict[str, Any]) -> int:
    result_fd = rounds.claim_stdout()
    rounds.emit(result_fd, run_all(spec["seed"], spec["mini"]))
    return 0
