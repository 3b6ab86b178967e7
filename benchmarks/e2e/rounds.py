"""Closed-loop load: one driver, fresh child process per round.

The parent pins the process tree to one CPU and the allocator to
``config.MALLOC_ENV``, then spawns ``config.ROUNDS`` children one after
another.  Each child sets the workload up from scratch (the set-up being
timed), warms up, and runs ops back to back — next op only after the
previous one completed, ``gc.collect()`` in between — until its share of
the measured seconds is used.  Samples of all rounds are pooled.

Times are reported as on a quiet reference host: the parent takes out the
seconds the hypervisor stole from the pinned CPU and scales by the cost of
a thread hand-off measured between the ops (``reference_seconds``).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.e2e import config


# -- parent side ---------------------------------------------------------------
def pin_process_tree() -> int:
    """Pin this process (and so every child) to one CPU; returns it.

    With two CPUs the thread-per-rank simulator hands its locks across
    cores and an op takes 1.3-3x longer with a run-to-run swing of the same
    size (README "Noise control"); the convoy probe measures that factor
    instead of every workload inheriting it as noise.
    """
    mask = sorted(os.sched_getaffinity(0))
    if config.ENV_ORIG_AFFINITY not in os.environ:
        os.environ[config.ENV_ORIG_AFFINITY] = ",".join(map(str, mask))
    cpu = mask[-1]
    if len(mask) > 1:
        os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(config.PINNED_ENV)
    env.pop("REPRO_KERNEL_BACKEND", None)
    os.makedirs(config.TMP_DIR, exist_ok=True)
    env["TMPDIR"] = config.TMP_DIR
    return env


def run_child(subcommand: str, spec: Dict[str, Any], timeout: float = 170.0) -> Dict[str, Any]:
    """Run one ``run.py <subcommand> <spec>`` child; returns its JSON result
    with ``t_spawn`` (``time.monotonic``, comparable across processes)."""
    pin_process_tree()
    t_spawn, steal_spawn = time.monotonic(), stolen_s()
    proc = subprocess.Popen(
        [sys.executable, config.RUN_PY, subcommand, json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=config.ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{subcommand} child exceeded {timeout:.0f} s: {spec}")
    if proc.returncode != 0:
        raise RuntimeError(f"{subcommand} child exited {proc.returncode}: {spec}")
    result = json.loads(out.decode("utf-8").strip().splitlines()[-1])
    result["t_spawn"], result["steal_spawn"] = t_spawn, steal_spawn
    return result


def measure(
    workload: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    mini: bool = False,
    broken: bool = False,
) -> Dict[str, Any]:
    """One run of one workload: pooled per-op samples of all its rounds.

    Untraced: ``config.ROUNDS`` rounds share ``seconds``, each getting an
    equal part of what the rounds before it left.  Traced: one
    round that alternates untraced and traced ops, so the tracing
    overhead is a ratio taken inside one process.
    """
    rounds = 1 if trace else config.ROUNDS
    ops: List[Dict[str, Any]] = []
    setups: List[float] = []
    spans: List[Dict[str, Any]] = []
    cal: List[Dict[str, Any]] = []
    rss_kib = 0
    left = seconds
    for i in range(rounds):
        spec = {
            "workload": workload, "seed": seed, "seconds": left / (rounds - i),
            "trace": trace, "mini": mini, "broken": broken,
        }
        res = run_child("_round", spec)
        left -= res["timed_s"]
        setups.append(quiet_wall(
            res["t_ready"] - res["t_spawn"], res["steal_ready"] - res["steal_spawn"]))
        rss_kib = max(rss_kib, res["max_rss_kib"])
        ops.extend(res["ops"])
        cal.extend(res["cal"])
        spans.extend(res["spans"])
    golden = load_golden().get(_golden_key(workload))
    check_golden = golden is not None and not mini and not broken and (
        seed == 0 or ops[0]["digest_seed_free"]
    )
    for op in ops:
        if check_golden and op["digest"] != golden:
            op["problems"].append("simulated-statistics digest differs from golden.json")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "ops": ops, "cal": cal, "setups": setups, "spans": spans, "max_rss_kib": rss_kib,
        "golden_checked": check_golden,
    }


def _golden_key(workload: str) -> str:
    return "chaos_smoke" if workload.startswith("chaos_") else workload


def load_golden() -> Dict[str, str]:
    try:
        with open(config.GOLDEN_JSON, "r", encoding="utf-8") as f:
            return json.load(f)["digests"]
    except OSError:
        return {}


def stolen_s() -> float:
    """Seconds the hypervisor has kept the pinned CPU from this guest so
    far (``steal`` in ``/proc/stat``); 0.0 where the kernel reports none."""
    mask = os.sched_getaffinity(0)
    label = f"cpu{min(mask)}" if len(mask) == 1 else "cpu"
    try:
        with open("/proc/stat", "r", encoding="ascii") as f:
            for line in f:
                fields = line.split()
                if fields[0] == label:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def steal_slowdown(wall_s: float, steal_s: float) -> float:
    """Factor by which the seconds the vCPU *did* get are slower when the
    hypervisor stole ``steal_s`` of ``wall_s``: a vCPU that was off its
    core comes back to cold caches, and the neighbour that took the core
    also shares it.  1 + STEAL_SLOWDOWN x stolen share, fitted on this
    sandbox (README "Noise control")."""
    return 1.0 + config.STEAL_SLOWDOWN * min(max(steal_s, 0.0), 0.9 * wall_s) / wall_s


def quiet_wall(wall_s: float, steal_s: float) -> float:
    """Wall seconds the same work takes when the host steals nothing: the
    pinned CPU is busy throughout, so the stolen seconds are seconds the
    work waited; they come off, and what is left is de-slowed."""
    return (wall_s - min(max(steal_s, 0.0), 0.9 * wall_s)) / steal_slowdown(wall_s, steal_s)


def reference_seconds(run: Dict[str, Any]) -> Tuple[float, float]:
    """(wall, CPU) seconds per untraced op of the run, at the reference host.

    Two things the host does move an op's time by tens of percent within
    minutes, and both are taken out with measurements nothing in the
    program can move.  *Stolen time*: the hypervisor's own count of the
    seconds it kept the pinned CPU from the guest comes off the wall clock,
    and wall and CPU seconds are divided by the run's ``steal_slowdown``.
    *Hand-off cost*: the run's calibration passes, treated the same way,
    say what a thread hand-off cost while the ops ran; op seconds are
    scaled by (reference pass / measured pass) to the power of the
    workload's hand-off share.  The passes average the host over the run's
    timed window, so the ops are averaged over it too (a mean, not a
    median: the median of the ops against the mean of the passes spread
    wider, README "Noise control").
    """
    window = run["ops"] + run["cal"]
    slow = steal_slowdown(sum(x["wall_s"] for x in window), sum(x["steal_s"] for x in window))
    pass_cpu_s = (
        sum(b["cpu_s"] for b in run["cal"]) / sum(b["passes"] for b in run["cal"]) / slow
    )
    speed = (config.REF_PASS_CPU_S / pass_cpu_s) ** config.HANDOFF_SHARE[run["workload"]]
    timed = [op for op in run["ops"] if not op["traced"]]
    wall = sum(op["wall_s"] - op["steal_s"] for op in timed) / slow / len(timed)
    cpu = sum(op["cpu_s"] for op in timed) / slow / len(timed)
    return wall * speed, cpu * speed


def end_to_end(run: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one untraced run.  ``bench.wall_raw_s``
    (per-layer) is the uncorrected median op."""
    wall, cpu = reference_seconds(run)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "cpu_s": {"value": cpu, "unit": "s"},
        "peak_rss_mib": {"value": run["max_rss_kib"] / 1024.0, "unit": "MiB"},
        "setup_s": {"value": statistics.median(run["setups"]), "unit": "s"},
    }


def steal_frac(run: Dict[str, Any]) -> float:
    """Share of the run's op wall clock the hypervisor stole."""
    return sum(op["steal_s"] for op in run["ops"]) / sum(op["wall_s"] for op in run["ops"])


def handoff_us(run: Dict[str, Any]) -> float:
    """CPU microseconds one hand-off of the run's calibration passes cost."""
    passes = sum(block["passes"] for block in run["cal"])
    return sum(block["cpu_s"] for block in run["cal"]) / passes / config.HANDOFFS_PER_PASS * 1e6


def failed_ops(run: Dict[str, Any]) -> int:
    return sum(1 for op in run["ops"] if op["problems"])


# -- child side ------------------------------------------------------------------
def claim_stdout() -> int:
    """Keep the real stdout for the result; point fd 1 at /dev/null so
    nothing the program (or a worker it forks) prints can corrupt it."""
    sys.stdout.flush()
    result_fd = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    return result_fd


def emit(result_fd: int, doc: Dict[str, Any]) -> None:
    with os.fdopen(result_fd, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc) + "\n")


def _usage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
        me.ru_minflt + kids.ru_minflt,
        me.ru_nvcsw + kids.ru_nvcsw,
        me.ru_nivcsw + kids.ru_nivcsw,
    )


def timed_op(workload: Any, tracer: Optional[Any] = None) -> Dict[str, Any]:
    """One op: collect garbage, time the calls, then check outside the clock."""
    gc.collect()
    if tracer is not None:
        tracer.op += 1
    s0, u0 = stolen_s(), _usage()
    t0 = time.perf_counter()
    raw = workload.op(tracer)
    wall = time.perf_counter() - t0
    u1, s1 = _usage(), stolen_s()
    checked = workload.check(raw)
    return {
        "t": t0,
        "wall_s": wall,
        "cpu_s": u1[0] - u0[0],
        "steal_s": s1 - s0,
        "minor_faults": u1[1] - u0[1],
        "vol_ctx_switches": u1[2] - u0[2],
        "invol_ctx_switches": u1[3] - u0[3],
        "traced": tracer is not None,
        "problems": checked.problems,
        "digest": checked.digest,
        "digest_seed_free": workload.digest_seed_free,
        "sim_makespan_s": checked.sim_makespan_s,
        "jobs": checked.jobs,
        "rank_threads": checked.rank_threads,
        "extra": checked.extra,
    }


def handoff_pass(n_threads: int = 8, n_handoffs: int = config.HANDOFFS_PER_PASS) -> None:
    """``n_threads`` threads pass a token ``n_handoffs`` times through one
    condition variable — the simulator's pattern (timed waits,
    ``notify_all``, every waiter re-checks) with none of its code."""
    cond = threading.Condition()
    state = {"turn": 0, "count": 0}

    def worker(me: int) -> None:
        with cond:
            while True:
                while state["turn"] != me and state["count"] < n_handoffs:
                    cond.wait(timeout=0.05)
                if state["count"] >= n_handoffs:
                    cond.notify_all()
                    return
                state["count"] += 1
                state["turn"] = (me + 1) % n_threads
                cond.notify_all()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def calibrate(seconds: float) -> Dict[str, Any]:
    """One calibration block: hand-off passes for ``seconds`` (at least one)."""
    s0, c0, t0 = stolen_s(), time.process_time(), time.perf_counter()
    passes = 0
    while not passes or time.perf_counter() - t0 < seconds:
        handoff_pass()
        passes += 1
    return {
        "passes": passes, "t": t0,
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "steal_s": stolen_s() - s0,
    }


def round_main(spec: Dict[str, Any]) -> int:
    """Body of one round child: set up, warm up, run ops, report."""
    result_fd = claim_stdout()
    from benchmarks.e2e import workloads
    from benchmarks.e2e.hosttrace import HostTracer

    factory = workloads.SilentCorruptRecover if spec["broken"] else None
    workload = workloads.make(
        spec["workload"], spec["seed"], mini=spec["mini"], protocol_factory=factory
    )
    if not spec["broken"]:  # a broken protocol fails its warm-up by design
        for _ in range(config.WORKLOADS[spec["workload"]]):
            workload.warm()
    t_ready, steal_ready = time.monotonic(), stolen_s()

    tracer = HostTracer(spec["workload"]) if spec["trace"] else None
    # ops (pairs of ops when tracing) back to back; the round ends before
    # an op that would not finish inside its share of the measured seconds
    ops: List[Dict[str, Any]] = []
    t0 = time.perf_counter()
    cal = [calibrate(config.CAL_FIRST_S)]
    longest = 0.0
    while not ops or time.perf_counter() - t0 + longest <= spec["seconds"]:
        t_op = time.perf_counter()
        ops.append(timed_op(workload))
        if tracer is not None:
            ops.append(timed_op(workload, tracer))
        cal.append(calibrate(config.CAL_SHARE * (time.perf_counter() - t_op)))
        longest = max(longest, time.perf_counter() - t_op)
    timed_s = time.perf_counter() - t0
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    emit(
        result_fd,
        {
            "t_ready": t_ready,
            "steal_ready": steal_ready,
            "timed_s": timed_s,
            "cal": cal,
            "ops": ops,
            "max_rss_kib": max(me, kids),
            "spans": tracer.spans if tracer else [],
        },
    )
    return 0
