"""Endurance harness: survive an MTBF-driven failure storm to completion.

The paper validates single injected failures; production fault tolerance
must ride out *repeated* random failures.  This harness runs the iterative
self-checkpointed application (:mod:`repro.apps.iterative`) under
exponential node failures (drawn fresh each incarnation from the per-node
MTBF), restarts daemon-style until the work completes, and accounts the
total virtual time — which the classic first-order model
(:func:`repro.ckpt.interval.expected_runtime`) should predict to within a
small factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.apps.iterative import IterativeConfig, iterative_answer_ok, iterative_main
from repro.ckpt import expected_runtime
from repro.hpl.daemon import RestartPolicy
from repro.sim import Cluster, FailurePlan, Job, MTBFFailureGenerator
from repro.sim.errors import SimError
from repro.util import render_table


@dataclass
class EnduranceReport:
    completed: bool
    n_restarts: int
    total_virtual_s: float
    work_virtual_s: float  # fault-free duration of the same job
    model_expected_s: float
    failures_injected: int
    final_state_ok: bool
    restarts_log: List[int] = field(default_factory=list)  # failed node ids


def endurance_run(
    *,
    n_ranks: int = 8,
    iters: int = 40,
    ckpt_every: int = 5,
    work_per_iter_s: float = 10.0,
    mtbf_node_s: float = 4000.0,
    seed: int = 0,
    max_restarts: int = 30,
    policy: Optional[RestartPolicy] = None,
) -> EnduranceReport:
    """Run the iterative app to completion under random node failures."""
    policy = policy or RestartPolicy()
    gen = MTBFFailureGenerator(mtbf_node_s, seed=seed)
    cfg = IterativeConfig(
        iters=iters, ckpt_every=ckpt_every, group_size=4, work_s=work_per_iter_s
    )

    # fault-free reference (both duration and final state)
    ref_cluster = Cluster(n_ranks)
    ref = Job(
        ref_cluster, iterative_main, n_ranks, args=(cfg,), procs_per_node=1
    ).run()
    if not ref.completed:
        raise RuntimeError(f"reference run failed: {ref.rank_errors}")
    work_s = ref.makespan

    cluster = Cluster(n_ranks, n_spares=max_restarts + 2)
    ranklist = cluster.default_ranklist(n_ranks, procs_per_node=1)
    total = 0.0
    restarts: List[int] = []
    failures = 0
    completed = False
    result = None
    horizon = iters * work_per_iter_s * 2

    for _ in range(max_restarts + 1):
        plan = FailurePlan(
            gen.schedule([nid for nid in set(ranklist)], horizon_s=horizon)
        )
        failures_possible = len(plan.fired)
        job = Job(
            cluster,
            iterative_main,
            n_ranks,
            args=(cfg,),
            ranklist=ranklist,
            failure_plan=plan,
        )
        result = job.run()
        total += result.makespan
        if result.completed:
            completed = True
            break
        if not result.failed_nodes:
            raise SimError(f"non-failure abort: {result.rank_errors}")
        failures += len(result.failed_nodes)
        restarts.extend(result.failed_nodes)
        replacements = cluster.replace_dead()
        ranklist = [replacements.get(n, n) for n in ranklist]
        total += policy.detect_s + policy.replace_s + policy.restart_s

    # first-order model prediction for the same scenario
    delta = 1e-3  # in-memory checkpoints are cheap at this scale
    interval = ckpt_every * work_per_iter_s
    system_mtbf = gen.system_mtbf(n_ranks)
    model = expected_runtime(
        work_s,
        max(delta, 1e-6),
        interval,
        system_mtbf,
        policy.detect_s + policy.replace_s + policy.restart_s,
    )

    state_ok = (
        completed
        and result is not None
        and iterative_answer_ok(cfg, result.rank_results, n_ranks)
    )
    return EnduranceReport(
        completed=completed,
        n_restarts=len(restarts),
        total_virtual_s=total,
        work_virtual_s=work_s,
        model_expected_s=model,
        failures_injected=failures,
        final_state_ok=state_ok,
        restarts_log=restarts,
    )


def render_endurance(r: EnduranceReport) -> str:
    return render_table(
        ["metric", "value"],
        [
            ["completed", r.completed],
            ["restarts", r.n_restarts],
            ["total virtual (s)", f"{r.total_virtual_s:.0f}"],
            ["model expected (s)", f"{r.model_expected_s:.0f}"],
        ],
        title="Endurance under an MTBF failure storm",
    )
