"""The six workloads: inputs from the seed, one timed op, its oracles.

A workload object is built once per child process (that is the set-up
being timed) and then asked for ops.  ``op()`` holds only the calls into
the program; ``check()`` runs afterwards, outside the timed region, and
returns the op's simulated statistics plus the list of failed checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.chaos import (
    bench_record,
    chaos_main,
    enumerate_kill_points,
    probe_baseline,
    render_campaign,
    run_kill_matrix,
    run_kill_point,
    selfckpt_scenario,
    write_bench,
)
from repro.chaos.campaign import CampaignReport
from repro.ckpt.manager import CheckpointManager
from repro.ckpt.self_ckpt import SelfCheckpoint
from repro.hpl import HPLConfig, JobDaemon, RestartPolicy, SKTConfig, skt_hpl_main
from repro.hpl.matgen import dense_matrix, dense_rhs
from repro.shard import run_sharded_campaign
from repro.sim.cluster import Cluster
from repro.sim.failures import FailurePlan, PhaseTrigger

from benchmarks.e2e import config
from benchmarks.e2e.hosttrace import HostTracer, maybe_span


def _sha(doc: Any) -> str:
    blob = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _policy() -> RestartPolicy:
    detect, replace, restart = config.RESTART_POLICY
    return RestartPolicy(detect_s=detect, replace_s=replace, restart_s=restart)


def _plan(kills) -> FailurePlan:
    return FailurePlan(
        [
            PhaseTrigger(node_id=node, phase=phase, occurrence=occ, rank=rank)
            for node, phase, rank, occ in kills
        ]
    )


@dataclass
class Checked:
    """What ``check()`` found for one op."""

    problems: List[str]
    digest: str
    sim_makespan_s: float
    jobs: int
    rank_threads: int
    extra: Dict[str, Any]


class Workload:
    name = ""
    #: the simulated-statistics digest does not depend on the seed, so the
    #: golden comparison applies to every seed (else to seed 0 only)
    digest_seed_free = True

    def warm(self) -> None:
        raw = self.op()
        self.check(raw)

    def op(self, tracer: Optional[HostTracer] = None, observer: Any = None) -> Any:
        raise NotImplementedError

    def check(self, raw: Any) -> Checked:
        raise NotImplementedError


# -- checkpoint cycles ---------------------------------------------------------
@dataclass
class _CkptArgs:
    method: str
    init: List[np.ndarray]
    iters: int
    log: List[tuple]
    protocol_factory: Optional[Callable[..., Any]] = None
    tracer: Optional[HostTracer] = None
    parent_span: Optional[int] = None


def ckpt_rank_main(ctx, a: _CkptArgs):
    """The benchmark's own rank main: restore or fill, then ``iters``
    rounds of compute + ``checkpoint()``.  Rank 0 carries the spans."""
    tr = a.tracer if ctx.rank == 0 else None
    attempt = int(ctx.job.name.rsplit("#", 1)[1])
    with maybe_span(tr, "rank0.main", parent=a.parent_span, method=a.method, attempt=attempt):
        with maybe_span(tr, "ckpt.manager_init", method=a.method):
            mgr = CheckpointManager(
                ctx,
                ctx.world,
                group_size=config.GROUP_SIZE,
                method=a.method,
                protocol_factory=a.protocol_factory,
            )
            arr = mgr.alloc("data", a.init[0].shape[0])
        with maybe_span(tr, "ckpt.commit", method=a.method):
            mgr.commit()
        with maybe_span(tr, "ckpt.try_restore", method=a.method, attempt=attempt):
            rep = mgr.try_restore()
        if rep is not None:
            start = int(rep.local["it"])
            layout = mgr.group_layout
            a.log.append(
                (
                    attempt,
                    ctx.rank,
                    layout.group_of(ctx.rank),
                    layout.group_rank_of(ctx.rank),
                    rep.epoch,
                    rep.source,
                    tuple(rep.reconstructed),
                )
            )
        else:
            start = 0
            with maybe_span(tr, "compute", method=a.method):
                arr[:] = a.init[ctx.rank]
        infos = []
        for it in range(start, a.iters):
            with maybe_span(tr, "compute", method=a.method):
                arr += ctx.rank + 1
                ctx.elapse(1.0)
            mgr.local["it"] = it + 1
            with maybe_span(tr, "ckpt.checkpoint", method=a.method):
                infos.append(mgr.checkpoint())
        return arr, infos


class CkptCycles(Workload):
    """For each method: one supervised run of ``ckpt_rank_main`` that loses
    two nodes and rebuilds each lost rank from its group."""

    def __init__(
        self,
        name: str,
        shape: config.CkptShape,
        seed: int,
        methods=config.METHODS,
        protocol_factory: Optional[Callable[..., Any]] = None,
    ) -> None:
        self.name = name
        self.shape = shape
        self.methods = tuple(methods)
        self.protocol_factory = protocol_factory
        #: a ``repro.obs`` SpanTracer for the observer-overhead probe
        self.sim_tracer = None
        self.init = [
            np.random.default_rng([seed, r]).random(shape.n_elems)
            for r in range(shape.n_ranks)
        ]
        # fault-free reference: a restore is bit-exact, so the recovered
        # run performs exactly these additions in exactly this order
        self.ref = []
        for r, a0 in enumerate(self.init):
            ref = a0.copy()
            for _ in range(shape.iters):
                ref += r + 1
            self.ref.append(ref)

    def op(self, tracer: Optional[HostTracer] = None, observer: Any = None) -> Any:
        sh = self.shape
        runs = []
        for method in self.methods:
            log: List[tuple] = []
            with maybe_span(tracer, "JobDaemon.run", method=method) as span:
                args = _CkptArgs(
                    method=method,
                    init=self.init,
                    iters=sh.iters,
                    log=log,
                    protocol_factory=self.protocol_factory,
                    tracer=tracer,
                    parent_span=span["id"] if span else None,
                )
                cluster = Cluster(sh.n_nodes, n_spares=sh.n_spares)
                if observer is not None:
                    observer.watch_cluster(cluster)
                report = JobDaemon(
                    cluster,
                    ckpt_rank_main,
                    sh.n_ranks,
                    args=(args,),
                    procs_per_node=sh.procs_per_node,
                    failure_plan=_plan(sh.kills),
                    policy=_policy(),
                    observer=observer,
                    tracer=self.sim_tracer,
                ).run()
            runs.append((method, report, log, cluster))
        return runs

    def check(self, raw: Any) -> Checked:
        sh = self.shape
        problems: List[str] = []
        doc = []
        makespan = 0.0
        jobs = 0
        extra = {"checkpoints": 0, "restores": 0, "reconstructed_ranks": 0,
                 "protected_bytes": 0, "shm_segments": 0}
        for method, report, log, cluster in raw:
            makespan += report.total_virtual_s
            jobs += report.n_restarts + 1
            extra["shm_segments"] += sum(len(n.shm) for n in cluster.all_nodes())
            if not report.completed:
                problems.append(f"{method}: did not complete ({report.gave_up_reason})")
                doc.append([method, False, report.n_restarts])
                continue
            if report.n_restarts != len(sh.kills):
                problems.append(f"{method}: {report.n_restarts} restarts")
            results = report.result.rank_results
            for r in range(sh.n_ranks):
                got = results.get(r)
                if got is None or not np.array_equal(got[0], self.ref[r]):
                    problems.append(f"{method}: rank {r} final array differs")
            # after restart i, the ranks of the i-th killed node must have
            # been rebuilt by their group
            for attempt, (node, _phase, _rank, _occ) in enumerate(sh.kills, start=1):
                entries = [e for e in log if e[0] == attempt]
                lost = range(node * sh.procs_per_node, (node + 1) * sh.procs_per_node)
                for w in lost:
                    mine = [e for e in entries if e[1] == w]
                    if not mine:
                        problems.append(f"{method}: rank {w} logged no restore #{attempt}")
                        continue
                    gid, grank = mine[0][2], mine[0][3]
                    group = [e for e in entries if e[2] == gid]
                    if not group or any(grank not in e[6] for e in group):
                        problems.append(
                            f"{method}: lost rank {w} not reconstructed in restore #{attempt}"
                        )
            infos = {r: results[r][1] for r in sorted(results)}
            extra["checkpoints"] += sum(len(v) for v in infos.values())
            extra["protected_bytes"] += sum(i.protected_bytes for v in infos.values() for i in v)
            extra["restores"] += len(log)
            extra["reconstructed_ranks"] += len({(e[0], e[2], g) for e in log for g in e[6]})
            doc.append(
                [
                    method,
                    True,
                    report.n_restarts,
                    repr(report.total_virtual_s),
                    sorted(log),
                    {
                        r: [
                            (i.epoch, i.protected_bytes, i.checksum_bytes,
                             repr(i.encode_seconds), repr(i.flush_seconds))
                            for i in v
                        ]
                        for r, v in infos.items()
                    },
                ]
            )
        return Checked(
            problems=problems,
            digest=_sha(doc),
            sim_makespan_s=makespan,
            jobs=jobs,
            rank_threads=jobs * sh.n_ranks,
            extra=extra,
        )


class SilentCorruptRecover(SelfCheckpoint):
    """Deliberately broken protocol for ``selftest``: the rebuilt member's
    payload is corrupted, so recovery "succeeds" with wrong data — the
    checks must turn that into failed ops."""

    def _do_recover(self, flat, checksum, missing):
        out = super()._do_recover(flat, checksum, missing)
        if out is not None:
            rebuilt, cs = out
            bad = np.array(rebuilt, copy=True)
            bad[:8] ^= 0x01
            out = (bad, cs)
        return out


# -- SKT-HPL recovery -----------------------------------------------------------
class SktHpl(Workload):
    """The paper's §6.3 experiment in miniature: SKT-HPL loses a node
    mid-checkpoint, the daemon restarts it, the solve must still verify."""

    name = "skt_hpl"
    digest_seed_free = False  # pivoting traffic follows the matrix

    def __init__(self, seed: int, hpl=config.HPL, kill=config.HPL_KILL) -> None:
        self.kill = kill
        self.cfg = HPLConfig(seed=seed, **hpl)
        self.scfg = SKTConfig(
            hpl=self.cfg, method="self", group_size=config.GROUP_SIZE, interval_panels=4
        )
        self.x_ref = np.linalg.solve(dense_matrix(self.cfg), dense_rhs(self.cfg))

    def run(self, kills, tracer=None, observer=None):
        n = self.cfg.n_ranks
        with maybe_span(tracer, "JobDaemon.run"):
            cluster = Cluster(n, n_spares=4)
            if observer is not None:
                observer.watch_cluster(cluster)
            return JobDaemon(
                cluster,
                skt_hpl_main,
                n,
                args=(self.scfg,),
                procs_per_node=1,
                failure_plan=_plan(kills),
                policy=_policy(),
                observer=observer,
            ).run()

    def op(self, tracer: Optional[HostTracer] = None, observer: Any = None) -> Any:
        return self.run((self.kill,), tracer, observer)

    def check(self, report: Any, restarts: int = 1) -> Checked:
        problems: List[str] = []
        n = self.cfg.n_ranks
        jobs = report.n_restarts + 1
        doc: List[Any] = [report.completed, report.n_restarts, repr(report.total_virtual_s)]
        if not report.completed:
            problems.append(f"did not complete ({report.gave_up_reason})")
        else:
            if report.n_restarts != restarts:
                problems.append(f"{report.n_restarts} restarts")
            for r in range(n):
                res = report.result.rank_results.get(r)
                if res is None or not res.hpl.passed:
                    problems.append(f"rank {r}: HPL residual check failed")
                    continue
                err = float(np.max(np.abs(res.hpl.x - self.x_ref)))
                if not err < 1e-8:
                    problems.append(f"rank {r}: max|x - solve| = {err:.3e}")
                doc.append(
                    (r, res.restored, res.restored_panel, res.restore_source,
                     res.n_checkpoints, repr(res.ckpt_encode_s), repr(res.ckpt_flush_s))
                )
        return Checked(
            problems=problems,
            digest=_sha(doc),
            sim_makespan_s=report.total_virtual_s,
            jobs=jobs,
            rank_threads=jobs * n,
            extra={"panels": self.cfg.n_blocks},
        )


# -- chaos campaigns --------------------------------------------------------------
#: what ``repro chaos --smoke`` expands to (repro.chaos.cli)
SMOKE = dict(n_nodes=4, procs_per_node=2, group_size=4, iters=4, ckpt_every=2)
SMOKE_METHODS = ("self", "double")
SMOKE_FLAGS = ["--nodes", "4", "--ppn", "2", "--group-size", "4", "--iters", "4",
               "--ckpt-every", "2"]


def smoke_scenarios(methods=SMOKE_METHODS):
    return [selfckpt_scenario(method=m, **SMOKE) for m in methods]


class ChaosCampaign(Workload):
    """``repro chaos --smoke`` on one engine.  Untraced, the op is the CLI
    entry point itself; traced, the harness walks the same pipeline
    through the public functions so each stage gets a span.  Both must
    produce the same artifact bytes."""

    def __init__(self, name: str, engine: str, mini: bool = False) -> None:
        self.name = name
        self.engine = engine  # "serial" | "pool2" | "shard2"
        self.engine_flags = {"serial": [], "pool2": ["--workers", "2"],
                             "shard2": ["--shards", "2"]}[engine]
        #: the miniature campaign: warm-up, and the whole op under selftest
        self.mini_flags = ["--methods", "self", "--max-occurrences", "1"] + SMOKE_FLAGS
        self.mini = mini
        os.makedirs(config.TMP_DIR, exist_ok=True)

    def _flags(self) -> List[str]:
        return self.mini_flags if self.mini else ["--smoke"]

    def _cli(self, flags: List[str]) -> Any:
        out = tempfile.mkdtemp(prefix="chaos-", dir=config.TMP_DIR)
        try:
            rc = chaos_main(flags + self.engine_flags + ["--no-progress", "--out", out])
            return rc, _read_artifacts(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def warm(self) -> None:
        self._cli(self.mini_flags)

    def op(self, tracer: Optional[HostTracer] = None, observer: Any = None) -> Any:
        if tracer is None:
            return self._cli(self._flags())
        out = tempfile.mkdtemp(prefix="chaos-", dir=config.TMP_DIR)
        try:
            with tracer.span("chaos.campaign", engine=self.engine):
                matrices = self._traced_matrices(tracer, out)
                with tracer.span("chaos.report"):
                    text = render_campaign(matrices, None, None)
                    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as f:
                        f.write(text + "\n")
                    write_bench(
                        os.path.join(out, "BENCH_chaos.json"),
                        bench_record(matrices, None, None, seed=0),
                    )
            ok = all(rep.survived_all for rep in matrices)
            return (0 if ok else 1), _read_artifacts(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _traced_matrices(self, tracer: HostTracer, out: str) -> List[CampaignReport]:
        methods = ("self",) if self.mini else SMOKE_METHODS
        cap = 1 if self.mini else None
        scenarios = smoke_scenarios(methods)
        if self.engine == "shard2":
            with tracer.span("shard.run_sharded_campaign"):
                _plan_, matrices, _sched, _stats = run_sharded_campaign(
                    scenarios, n_shards=2, out_dir=out, max_occurrences=cap
                )
            return matrices
        matrices = []
        for scenario in scenarios:
            with tracer.span("chaos.probe_baseline"):
                probe = probe_baseline(scenario)
            if self.engine == "pool2":
                with tracer.span("chaos.run_kill_matrix", workers=2):
                    rep = run_kill_matrix(
                        scenario, probe=probe, workers=2, max_occurrences=cap
                    )
            else:
                with tracer.span("chaos.run_kill_matrix", workers=1):
                    points = enumerate_kill_points(probe, max_occurrences=cap)
                    results = []
                    for pt in points:
                        with tracer.span("chaos.run_kill_point"):
                            results.append(run_kill_point(scenario, pt, probe=probe))
                    rep = CampaignReport(
                        scenario=scenario.name,
                        params=dict(scenario.params),
                        baseline_makespan_s=probe.makespan_s,
                        results=results,
                    )
            matrices.append(rep)
        return matrices

    def check(self, raw: Any) -> Checked:
        rc, (bench, report) = raw
        problems = []
        if rc != 0:
            problems.append(f"chaos exit status {rc}")
        makespan, jobs, points = 0.0, 0, 0
        if bench is None or report is None:
            problems.append("campaign artifacts missing")
            digest = ""
        else:
            digest = hashlib.sha256(bench + report).hexdigest()
            for m in json.loads(bench)["matrices"]:
                makespan += m["baseline_makespan_s"]
                jobs += 1
                for r in m["matrix"]:
                    makespan += r["makespan_s"]
                    jobs += r["n_restarts"] + 1
                    points += 1
        n_ranks = SMOKE["n_nodes"] * SMOKE["procs_per_node"]
        return Checked(
            problems=problems,
            digest=digest,
            sim_makespan_s=makespan,
            jobs=jobs,
            rank_threads=jobs * n_ranks,
            extra={"kill_points": points},
        )


def _read_artifacts(out: str):
    def read(name):
        try:
            with open(os.path.join(out, name), "rb") as f:
                return f.read()
        except OSError:
            return None

    return read("BENCH_chaos.json"), read("report.txt")


# -- registry -----------------------------------------------------------------------
def make(name: str, seed: int, mini: bool = False, protocol_factory=None) -> Workload:
    if name == "ckpt_bulk":
        shape = config.CKPT_MINI if mini else config.CKPT_BULK
        return CkptCycles(name, shape, seed, protocol_factory=protocol_factory)
    if name == "ckpt_tiny":
        shape = config.CKPT_MINI if mini else config.CKPT_TINY
        return CkptCycles(name, shape, seed, protocol_factory=protocol_factory)
    if name == "skt_hpl":
        return SktHpl(seed, *((config.HPL_MINI, config.HPL_KILL_MINI) if mini else ()))
    if name.startswith("chaos_"):
        return ChaosCampaign(name, name[len("chaos_"):], mini=mini)
    raise ValueError(f"unknown workload {name!r}")
