"""Turning runs into metrics, and the whole-benchmark command.

``per_layer`` assembles what a traced run reports; ``full_benchmark`` is
``python -m benchmarks.e2e --seed N``: an untraced pass over all six
workloads, a traced pass, every metric printed by name with its unit,
and a results JSON plus a span file written to ``--out``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from benchmarks.e2e import config, hosttrace, rounds

Metric = Dict[str, Any]


def _m(value: float, unit: str) -> Metric:
    return {"value": float(value), "unit": unit}


def workload_layer_metrics(run: Dict[str, Any]) -> Dict[str, Metric]:
    """The per-layer metrics a traced run takes from the workload's own ops:
    the raw (uncorrected) op time and the host state it was taken in, tracing
    overhead, process counters per op, simulator job counts."""
    plain = [op for op in run["ops"] if not op["traced"]]
    traced = [op for op in run["ops"] if op["traced"]]

    def med(ops, key):
        return statistics.median(op[key] for op in ops)

    return {
        "bench.wall_raw_s": _m(med(plain, "wall_s"), "s"),
        "bench.host_steal_frac": _m(rounds.steal_frac(run), "ratio"),
        "bench.host_handoff_us": _m(rounds.handoff_us(run), "us"),
        "bench.trace_overhead_ratio": _m(med(traced, "wall_s") / med(plain, "wall_s"), "ratio"),
        "proc.minor_faults": _m(med(plain, "minor_faults"), "count"),
        "proc.vol_ctx_switches": _m(med(plain, "vol_ctx_switches"), "count"),
        "proc.invol_ctx_switches": _m(med(plain, "invol_ctx_switches"), "count"),
        "sim.jobs": _m(plain[0]["jobs"], "count"),
        "sim.rank_threads": _m(plain[0]["rank_threads"], "count"),
    }


def per_layer(run: Dict[str, Any], seed: int, mini: bool = False):
    """``(metrics, probe spans)`` of one traced run: the workload's own
    counters, then the layer probes in a fresh pinned child."""
    metrics = workload_layer_metrics(run)
    probed = rounds.run_child("_probe", {"seed": seed, "mini": mini})
    metrics.update(probed["metrics"])
    return metrics, probed["spans"]


def keyed_spans(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Copies with ids unique across the pass: each child process numbers
    its spans from 1, so ids are prefixed with the span's workload."""
    keyed = []
    for s in spans:
        s = dict(s)
        s["id"] = f"{s['workload']}:{s['id']}"
        if s["parent"] is not None:
            s["parent"] = f"{s['workload']}:{s['parent']}"
        keyed.append(s)
    return keyed


def write_spans(
    spans: List[Dict[str, Any]], tag: str, seed: int, out: str = config.TMP_DIR
) -> str:
    """Write the pass's spans, each with its self time."""
    os.makedirs(out, exist_ok=True)
    keyed = keyed_spans(spans)
    selfs = hosttrace.self_times(keyed)
    for s in keyed:
        s["self_s"] = selfs[s["id"]]
    path = os.path.join(out, f"spans-{tag}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"clock": "time.perf_counter, per process", "spans": keyed}, f)
    return path


# -- environment record ---------------------------------------------------------------
def _git(*argv: str) -> str:
    try:
        return subprocess.run(
            ["git", *argv], cwd=config.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def environment() -> Dict[str, Any]:
    import numpy

    from repro.ckpt import kernels

    cpu = rounds.pin_process_tree()
    sha = _git("rev-parse", "--short", "HEAD")
    return {
        "nproc": os.cpu_count(),
        "affinity_mask": os.environ.get(config.ENV_ORIG_AFFINITY, ""),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.resolve_backend_name(),
        "git_sha": sha or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")) if sha else None,
        "platform": platform.platform(),
        "pinned_env": config.PINNED_ENV,
        "rounds_per_run": config.ROUNDS,
    }


# -- the whole benchmark ------------------------------------------------------------------
def _quartiles(values: List[float]) -> Dict[str, Any]:
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    )
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "max": max(values), "n": len(values), "values": values,
    }


def summarize_workload(runs: List[Dict[str, Any]], spec: Dict[str, Any]) -> Dict[str, Any]:
    """One results row: run-to-run statistics of each end-to-end metric
    over the untraced runs, plus the exact simulated statistics."""
    per_run = [rounds.end_to_end(r) for r in runs]
    ops = [op for r in runs for op in r["ops"]]
    row: Dict[str, Any] = {"end_to_end": {}}
    for m in spec["end_to_end"]:
        stats = _quartiles([run[m["name"]]["value"] for run in per_run])
        stats.update(unit=m["unit"], better=m["better"], bound=m["bound"])
        row["end_to_end"][m["name"]] = stats
    # uncorrected, for the record: per-op wall quartiles and each run's host state
    walls = [op["wall_s"] for op in ops]
    row["wall_raw_s_per_op"] = {k: v for k, v in _quartiles(walls).items() if k != "values"}
    row["host_steal_frac"] = [rounds.steal_frac(r) for r in runs]
    row["host_handoff_us"] = [rounds.handoff_us(r) for r in runs]
    row["n_ops"] = len(ops)
    row["failed_frac"] = rounds.failed_ops({"ops": ops}) / len(ops)
    row["problems"] = sorted({p for op in ops for p in op["problems"]})
    row["sim_makespan_s"] = ops[0]["sim_makespan_s"]
    row["sim_makespan_exact"] = all(
        op["sim_makespan_s"] == ops[0]["sim_makespan_s"] for op in ops
    )
    row["digest"] = ops[0]["digest"]
    row["golden_checked"] = all(r["golden_checked"] for r in runs)
    return row


def full_benchmark(args: Any) -> int:
    t_start = time.time()
    spec = config.load_benchmark_json()
    results: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "run_seconds": args.seconds,
        "repeats": args.repeats, "env": environment(), "workloads": {},
    }
    print(f"# e2e benchmark: seed {args.seed}, {args.repeats} x {args.seconds:g} s per workload, "
          f"pinned to CPU {results['env']['pinned_cpu']}")
    print("## untraced pass (end-to-end)")
    for name in config.WORKLOADS:
        runs = [rounds.measure(name, args.seed, args.seconds) for _ in range(args.repeats)]
        row = results["workloads"][name] = summarize_workload(runs, spec)
        for metric, s in row["end_to_end"].items():
            print(f"{name:13s} {metric:13s} {s['median']:12.4f} {s['unit']:4s} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} max {s['max']:.4f} n {s['n']}")
        print(f"{name:13s} {'sim_makespan_s':13s} {row['sim_makespan_s']!r} virtual s"
              f"{'' if row['sim_makespan_exact'] else '  (NOT identical across ops)'}")
        print(f"{name:13s} {'failed_frac':13s} {row['failed_frac']:.4f} ratio over "
              f"{row['n_ops']} ops; golden digest "
              f"{'equal' if row['golden_checked'] and not row['problems'] else 'not compared' if not row['golden_checked'] else 'MISMATCH or failed checks'}")
        for p in row["problems"]:
            print(f"{name:13s} FAILED CHECK: {p}")

    print("## traced pass (per-layer)")
    spans: List[Dict[str, Any]] = []
    for name in config.WORKLOADS:
        run = rounds.measure(name, args.seed, args.seconds, trace=True)
        spans.extend(run["spans"])
        layer = workload_layer_metrics(run)
        results["workloads"][name]["per_layer"] = layer
        results["workloads"][name]["failed_frac_traced"] = (
            rounds.failed_ops(run) / len(run["ops"])
        )
        for metric, m in layer.items():
            print(f"{name:13s} {metric:28s} {m['value']:14.4f} {m['unit']}")
    probed = rounds.run_child("_probe", {"seed": args.seed, "mini": False})
    spans.extend(probed["spans"])
    results["per_layer"] = probed["metrics"]
    results["probe_took_s"] = probed["took_s"]
    for metric, m in probed["metrics"].items():
        print(f"{'(probe)':13s} {metric:36s} {m['value']:16.4f} {m['unit']}")

    w = results["workloads"]
    derived = results["derived"] = {
        "shard.journal_overhead_s": _m(
            w["chaos_shard2"]["end_to_end"]["wall_s"]["median"]
            - w["chaos_pool2"]["end_to_end"]["wall_s"]["median"], "s"),
    }
    for metric, m in derived.items():
        print(f"{'(derived)':13s} {metric:36s} {m['value']:16.4f} {m['unit']}")

    declared = {m["name"] for m in spec["per_layer"]}
    emitted = set(probed["metrics"]) | set(next(iter(w.values()))["per_layer"])
    if declared - emitted:
        print(f"e2e: declared but not measured: {sorted(declared - emitted)}", file=sys.stderr)

    tag = args.tag or f"{results['env']['git_sha']}{'-dirty' if results['env']['git_dirty'] else ''}"
    os.makedirs(args.out, exist_ok=True)
    span_path = write_spans(spans, tag, args.seed, out=args.out)
    results["span_file"] = os.path.basename(span_path)
    results["elapsed_s"] = time.time() - t_start
    path = os.path.join(args.out, f"e2e-{tag}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1, sort_keys=True)
    print(f"wrote {path}\nwrote {span_path}\nelapsed {results['elapsed_s']:.0f} s")
    failed = any(row["failed_frac"] or row["failed_frac_traced"] or declared - emitted
                 for row in w.values())
    return 1 if failed else 0
