"""``repro chaos`` — adversarial fault-injection campaigns from a shell.

Usage::

    repro chaos --smoke                         # CI-sized matrix, self+double
    repro chaos --smoke --workers 4             # same artifact, 4 processes
    repro chaos --methods self --nodes 2 --group-size 2
    repro chaos --scenario skt-hpl --methods self --ppn 1
    repro chaos --methods self --random 8 --shrink
    repro chaos --smoke --workers auto --cache .chaos-cache

Runs the exhaustive kill matrix for each requested method (and optionally
a seeded randomized campaign with shrinking of any failing schedule),
prints the survivability report, and writes ``report.txt`` +
``BENCH_chaos.json`` into ``--out``.  Exit status 0 means every kill
point survived and no randomized schedule produced a wrong answer.

``--workers N`` fans the independent replays out over the
:mod:`repro.par` engine (``auto`` = one per CPU, capped); the artifacts
are byte-identical to the serial run.  ``--cache DIR`` persists
classified outcomes across invocations, keyed by a content fingerprint
that includes the repo's source code — edit any protocol and every entry
invalidates itself.

``--shards N`` runs the campaign on the crash-tolerant
:mod:`repro.shard` engine instead: the campaign is frozen into N
content-addressed shards journaled to ``<out>/shards.sqlite``, so a
killed executor's shard is re-issued and a killed driver resumes with
``--resume DIR`` (same campaign flags) — in both cases finishing with
artifacts byte-identical to an uninterrupted serial run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.chaos.bench import bench_record, write_bench
from repro.chaos.campaign import VERDICT_WRONG_ANSWER, ChaosError
from repro.chaos.plan import count_campaign, run_campaign
from repro.chaos.report import render_campaign
from repro.chaos.scenarios import selfckpt_scenario, skt_scenario
from repro.chaos.schedules import RandomCampaignConfig
from repro.chaos.shrink import shrink_failures

SCENARIOS = ("selfckpt", "skt-hpl")


def _finish_campaign(
    args,
    methods,
    matrices,
    schedules,
    shrinks,
    plan,
    registry,
    engine_desc: str,
) -> int:
    """Everything downstream of the merge: report, artifacts, store,
    exit status — one code path whatever engine executed the plan."""
    text = render_campaign(matrices, schedules, shrinks)
    print(text)
    print()
    print(
        "campaign runs: "
        f"{int(registry.total('chaos.runs'))} supervised jobs, "
        f"{int(registry.total('chaos.kill_points'))} kill points "
        f"({engine_desc})"
    )

    if not args.report_only:
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "report.txt")
        with open(report_path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        bench_path = os.path.join(args.out, "BENCH_chaos.json")
        write_bench(
            bench_path,
            bench_record(matrices, schedules, shrinks, seed=args.seed),
        )
        print(f"wrote report: {report_path}")
        print(f"wrote bench: {bench_path}")

    store_path = args.store
    if store_path is None and args.obs != "off" and not args.report_only:
        store_path = os.path.join(args.out, "obs.sqlite")
    if store_path is not None:
        from repro.obs.store import (
            TraceStore,
            campaign_id_for,
            ingest_kill_matrix,
            ingest_schedules,
        )

        # the campaign's shape names it too: two --nodes must not share an id
        shape = plan.matrices[0].scenario.params
        del shape["method"]
        cid = campaign_id_for(args.seed, json.dumps(shape, sort_keys=True), methods)
        with TraceStore(store_path) as store:
            ord_ = 0
            for m, rep in zip(plan.matrices, matrices):
                ord_ = ingest_kill_matrix(
                    store, cid, m.scenario, rep,
                    seed=args.seed, obs_mode=args.obs, ord_base=ord_,
                    probe=m.probe,
                )
            if schedules is not None:
                ord_ = ingest_schedules(
                    store, cid, plan.matrices[0].scenario, schedules,
                    seed=args.seed, obs_mode=args.obs, ord_base=ord_,
                )
            n_runs, digest = store.counts()["runs"], store.digest()
        print(
            f"stored campaign {cid} in {store_path} "
            f"({n_runs} runs, digest {digest[:12]})"
        )

    ok = all(rep.survived_all for rep in matrices) and not any(
        r.verdict == VERDICT_WRONG_ANSWER for r in schedules or []
    )
    return 0 if ok else 1


def _build_scenario(args: argparse.Namespace, method: str):
    if args.scenario == "selfckpt":
        return selfckpt_scenario(
            n_nodes=args.nodes,
            procs_per_node=args.ppn,
            group_size=args.group_size,
            iters=args.iters,
            ckpt_every=args.ckpt_every,
            method=method,
        )
    p, q = args.grid
    return skt_scenario(
        n=args.n,
        nb=args.nb,
        p=p,
        q=q,
        group_size=args.group_size,
        interval_panels=args.ckpt_every,
        method=method,
        seed=args.seed,
        procs_per_node=args.ppn,
    )


def chaos_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description=(
            "Exhaustive kill-matrix and randomized failure campaigns over "
            "the checkpoint protocols (report.txt + BENCH_chaos.json)."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI preset: small kill matrix over methods self and double "
        "on a 2-ranks-per-node x 4-node cluster",
    )
    parser.add_argument(
        "--scenario", choices=SCENARIOS, default="selfckpt",
        help="application under fire (default: selfckpt)",
    )
    parser.add_argument(
        "--methods", default="self",
        help="comma-separated checkpoint methods to sweep (default: self)",
    )
    parser.add_argument("--nodes", type=int, default=4, help="compute nodes")
    parser.add_argument(
        "--ppn", type=int, default=2, help="ranks per node (default: 2)"
    )
    parser.add_argument(
        "--group-size", type=int, default=4, help="checkpoint group size"
    )
    parser.add_argument(
        "--iters", type=int, default=4, help="selfckpt iterations"
    )
    parser.add_argument(
        "--ckpt-every", type=int, default=2,
        help="checkpoint every K iterations / panels",
    )
    parser.add_argument("--n", type=int, default=32, help="HPL problem size")
    parser.add_argument("--nb", type=int, default=8, help="HPL block size")
    parser.add_argument(
        "--grid", default="2x2", help="HPL process grid PxQ (skt-hpl)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (random schedules)"
    )
    parser.add_argument(
        "--random", type=int, default=0, metavar="N",
        help="additionally run N seeded randomized schedules",
    )
    parser.add_argument(
        "--mtbf-scale", type=float, default=0.6,
        help="random campaign per-node MTBF / baseline makespan (default 0.6)",
    )
    parser.add_argument(
        "--shrink", action="store_true",
        help="shrink every failing randomized schedule to a minimal reproducer",
    )
    parser.add_argument(
        "--max-occurrences", type=int, default=None,
        help="cap the occurrence axis of the kill matrix",
    )
    parser.add_argument(
        "--workers", default="1", metavar="N",
        help="replay worker processes (an integer or 'auto'; default 1 = "
        "serial — artifacts are byte-identical either way)",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run on the crash-tolerant sharded engine with N shards "
        "(one executor process per shard; journal in <out>/shards.sqlite)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume an interrupted sharded campaign from DIR (pass the "
        "same campaign flags plus the same --shards N)",
    )
    parser.add_argument(
        "--lease", type=float, default=60.0, metavar="SECONDS",
        help="shard lease duration; a crashed executor's shard is "
        "re-issued after this long (default: 60; executors heartbeat "
        "the lease, so long units are safe)",
    )
    parser.add_argument(
        "--respawn", type=int, default=0, metavar="N",
        help="total budget of crashed executors the driver supervisor "
        "may respawn (exponential backoff; default 0 = never — a dead "
        "executor's shards are only re-issued to survivors)",
    )
    parser.add_argument(
        "--attempts-cap", type=int, default=3, metavar="K",
        help="quarantine a unit after its shard is re-issued K "
        "consecutive times with no journal progress (a poison unit "
        "that kills every executor; default: 3)",
    )
    parser.add_argument(
        "--salvage", action="store_true",
        help="with --resume: rebuild a corrupt queue from every "
        "parseable journal row instead of refusing to merge it",
    )
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="persist classified replay outcomes under DIR (content-"
        "addressed; invalidates automatically when the source changes)",
    )
    parser.add_argument(
        "--obs", choices=("off", "summary", "full"), default="off",
        help="per-attempt observability sampling: 'summary' ships a flat "
        "rollup per replay, 'full' the complete span/metric streams "
        "(default: off — artifacts are byte-identical to pre-obs runs)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DB",
        help="SQLite trace store for the campaign's attempts (default: "
        "<out>/obs.sqlite when --obs is on; query with 'repro obs query')",
    )
    parser.add_argument(
        "--no-progress", action="store_true",
        help="suppress the stderr progress/throughput line",
    )
    parser.add_argument(
        "--out", default="chaos-out", help="artifact directory (default: chaos-out)"
    )
    parser.add_argument(
        "--report-only", action="store_true",
        help="print the report without writing artifacts",
    )
    args = parser.parse_args(argv)

    from repro.par import MemoCache, ProgressReporter, resolve_workers

    try:
        workers = resolve_workers(args.workers)
    except ValueError:
        parser.error(f"--workers must be a positive integer or 'auto', got {args.workers!r}")

    try:
        p, q = (int(v) for v in args.grid.lower().split("x"))
        args.grid = (p, q)
    except ValueError:
        parser.error(f"--grid must look like PxQ, got {args.grid!r}")

    if args.smoke:
        args.scenario = "selfckpt"
        args.methods = "self,double"
        args.nodes, args.ppn, args.group_size = 4, 2, 4
        args.iters, args.ckpt_every = 4, 2

    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    from repro.ckpt.manager import METHODS

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        parser.error("--methods must name at least one checkpoint method")
    for i, m in enumerate(methods):
        if m not in METHODS:
            parser.error(
                f"unknown checkpoint method {m!r}; choose from "
                f"{', '.join(METHODS)}"
            )
        if m in methods[:i]:
            parser.error(f"--methods names {m!r} twice")

    if args.ckpt_every < 1:
        parser.error(f"--ckpt-every must be >= 1, got {args.ckpt_every}")
    if args.max_occurrences is not None and args.max_occurrences < 1:
        parser.error(f"--max-occurrences must be >= 1, got {args.max_occurrences}")
    if args.random < 0:
        parser.error(f"--random must be >= 0, got {args.random}")
    # None is "off": an explicit 0 is misuse, not the serial engine
    if args.shards is not None and args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.resume is not None and not args.shards:
        parser.error("--resume requires --shards N (the original shard count)")
    if args.salvage and args.resume is None:
        parser.error("--salvage requires --resume DIR (the corrupt queue)")
    if args.shards:
        if args.lease <= 0:
            parser.error(f"--lease must be > 0 seconds, got {args.lease}")
        if args.respawn < 0:
            parser.error(f"--respawn must be >= 0, got {args.respawn}")
        if args.attempts_cap < 1:
            parser.error(f"--attempts-cap must be >= 1, got {args.attempts_cap}")
        if workers != 1:
            parser.error(
                "--shards and --workers are mutually exclusive: the "
                "sharded engine already runs one process per shard"
            )
        if args.resume is not None:
            args.out = args.resume

    try:
        scenarios = [_build_scenario(args, m) for m in methods]
        random_cfg = (
            RandomCampaignConfig(
                n_schedules=args.random, seed=args.seed, mtbf_scale=args.mtbf_scale
            )
            if args.random
            else None
        )
    except ValueError as err:
        # a shape no scenario can be built on: misuse, not a run that died
        print(f"repro chaos: {err}", file=sys.stderr)
        return 2
    cache = MemoCache(args.cache) if args.cache else MemoCache()
    progress = None if args.no_progress else ProgressReporter(label="chaos")
    campaign = dict(
        seed=args.seed,
        obs=args.obs,
        max_occurrences=args.max_occurrences,
        random_cfg=random_cfg,
        progress=progress,
        registry=registry,
    )
    # exit 2: nothing to run / infra misuse; exit 3: resumable abort
    misuse, resumable, stats = (ChaosError,), (), {}
    if args.shards:
        from repro.shard import (
            FaultSpecError,
            QueueCorruptError,
            QueueMismatchError,
            ShardCampaignError,
            run_sharded_campaign,
        )

        misuse += (FaultSpecError, QueueMismatchError, QueueCorruptError)
        resumable = (ShardCampaignError,)
    try:
        if args.shards:
            plan, matrices, schedules, stats = run_sharded_campaign(
                scenarios,
                n_shards=args.shards,
                out_dir=args.out,
                lease_s=args.lease,
                cache_dir=args.cache,
                respawn=args.respawn,
                attempts_cap=args.attempts_cap,
                salvage=args.salvage,
                **campaign,
            )
        else:
            plan, matrices, schedules = run_campaign(
                scenarios, workers=workers, cache=cache, **campaign
            )
    except misuse + resumable as err:
        print(f"repro chaos: {err}", file=sys.stderr)
        return 3 if isinstance(err, resumable) else 2
    count_campaign(registry, matrices, schedules)
    shrinks = None
    if args.shrink and schedules is not None:
        shrinks = shrink_failures(
            scenarios[0], schedules, registry=registry, cache=cache
        )

    if args.shards:
        engine_desc = f"{args.shards} shard{'s' if args.shards != 1 else ''}"
    else:
        hits = int(registry.total("par.cache_hits"))
        engine_desc = f"{workers} worker{'s' if workers != 1 else ''}" + (
            f", {hits} cached" if hits else ""
        )
    status = _finish_campaign(
        args, methods, matrices, schedules, shrinks, plan, registry, engine_desc
    )
    if stats.get("respawns"):
        print(
            f"supervisor respawned {stats['respawns']} crashed "
            f"executor{'s' if stats['respawns'] != 1 else ''}"
        )
    if stats.get("fence_rejections"):
        print(
            f"fencing rejected {stats['fence_rejections']} stale "
            "write(s) from superseded executors"
        )
    if stats.get("quarantined"):
        # engine degradation, not a protocol verdict: name the units
        # so the operator can replay them in isolation
        from repro.shard import ShardQueue, quarantined_ords
        from repro.shard.queue import queue_path_for

        with ShardQueue(queue_path_for(args.out)) as queue:
            ords = quarantined_ords(queue.outcomes())
        print(
            f"WARNING: {stats['quarantined']} unit(s) quarantined after "
            "repeatedly crashing their executor "
            f"(plan ordinals: {', '.join(map(str, ords))}); they appear "
            "as 'gave-up' verdicts with a 'quarantined:' reason"
        )
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(chaos_main())
