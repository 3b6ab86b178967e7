"""Instrumented scenarios behind ``repro obs`` and the obs benchmark.

:func:`run_scenario` is a thin front end over the chaos catalogue: it
builds the ``skt-hpl`` / ``selfckpt`` recipe of
:mod:`repro.chaos.scenarios`, optionally aims one failure at a named
protocol phase, runs it through the campaigns' own instrumented
supervised run (:func:`repro.par.replay.instrumented_run`) and returns
everything the exporters need.  :func:`write_artifacts` turns one run
into the artifact set — Chrome trace, metrics JSON-lines, ASCII report,
``BENCH_obs.json`` — and :func:`store_run` persists it in a trace store.

Determinism contract: everything is driven by virtual clocks and the
fixed matrix seed; two calls with identical arguments produce
byte-identical artifacts, and the tests hold this to be true.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer

SCENARIOS = ("skt-hpl", "selfckpt")

#: CLI phase aliases -> the phase names rank code actually announces
PHASE_ALIASES = {
    "panel": "hpl.panel",
    "flush": "ckpt.flush",
    "encode": "ckpt.encode",
}


def parse_fail_at(spec: Optional[str]) -> Optional[Tuple[str, int]]:
    """``"panel:3"`` -> ``("hpl.panel", 3)``; ``None`` stays ``None``."""
    if spec is None:
        return None
    name, _, occ = spec.partition(":")
    if not name:
        raise ValueError(f"no phase named in --fail-at {spec!r}")
    phase = PHASE_ALIASES.get(name, name)
    occurrence = int(occ) if occ else 1
    if occurrence < 1:
        raise ValueError(f"occurrence must be >= 1 in --fail-at {spec!r}")
    return phase, occurrence


@dataclass
class ObsRun:
    """One instrumented scenario run, ready for export."""

    scenario: str
    seed: int
    completed: bool
    n_restarts: int
    makespan_s: float
    tracer: SpanTracer
    registry: MetricsRegistry
    params: Dict[str, Any]
    #: campaign verdict (:data:`repro.chaos.campaign.VERDICTS`)
    verdict: str
    #: store identity: the replay fingerprint of (recipe, trigger, "full"),
    #: the id a ``repro chaos --obs full`` unit of the same run gets
    run_id: str

    @property
    def spans(self) -> list:
        return self.tracer.spans()


def run_scenario(
    scenario: str = "skt-hpl",
    *,
    fail_at: Optional[str] = None,
    seed: int = 42,
    n: int = 64,
    nb: int = 8,
    p: int = 2,
    q: int = 2,
    group_size: int = 4,
    interval_panels: int = 2,
    method: str = "self",
    iters: int = 6,
    ckpt_every: int = 2,
) -> ObsRun:
    """Run one instrumented scenario and return its spans + metrics.

    ``fail_at`` is the CLI spelling ``"phase[:occurrence]"`` (with the
    ``panel``/``flush``/``encode`` aliases); the failure is aimed at the
    last compute node, and the job daemon supervises the restart.  The
    scenario is the chaos recipe of the same name on ``p * q`` one-rank
    nodes with two spares and the measured detect/replace/restart costs
    (Tianhe-2's 63 s detection for ``skt-hpl``, Tianhe-1A's 30 s for
    ``selfckpt``), run through the campaigns' own
    :func:`~repro.par.replay.instrumented_run`.

    Raises :class:`ValueError` for an unknown scenario or a shape its
    recipe rejects (``n``, ``nb``, the grid), before anything runs, and
    :class:`~repro.chaos.campaign.ChaosError` for a configuration whose
    protocol cannot be constructed (a rank raises before anything was
    injected: unknown method, group too small for the method's parity).
    """
    from repro.chaos.campaign import ChaosError, classify, judge
    from repro.chaos.scenarios import selfckpt_scenario, skt_scenario
    from repro.hpl.daemon import RestartPolicy
    from repro.obs.store import attempt_run_id
    from repro.par.replay import instrumented_run
    from repro.sim.failures import PhaseTrigger

    parsed = parse_fail_at(fail_at)
    n_ranks = p * q
    if scenario == "skt-hpl":
        recipe = skt_scenario(
            n=n,
            nb=nb,
            p=p,
            q=q,
            group_size=group_size,
            interval_panels=interval_panels,
            method=method,
            seed=seed,
            n_spares=2,
            policy=RestartPolicy.for_machine("Tianhe-2"),
        )
        params: Dict[str, Any] = {
            "n": n,
            "nb": nb,
            "grid": f"{p}x{q}",
            "method": method,
            "group_size": group_size,
            "interval_panels": interval_panels,
        }
    elif scenario == "selfckpt":
        recipe = selfckpt_scenario(
            n_nodes=n_ranks,
            group_size=group_size,
            iters=iters,
            ckpt_every=ckpt_every,
            method=method,
            n_spares=2,
            policy=RestartPolicy.for_machine("Tianhe-1A"),
        )
        params = {
            "n_ranks": n_ranks,
            "group_size": group_size,
            "iters": iters,
            "ckpt_every": ckpt_every,
            "method": method,
        }
    else:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    params["fail_at"] = None
    triggers: Tuple[Any, ...] = ()
    if parsed is not None:
        phase, occurrence = parsed
        params["fail_at"] = f"{phase}:{occurrence}"
        # doom the last compute node: far from rank 0, so the report's
        # critical path crosses the rescue traffic
        triggers = (
            PhaseTrigger(node_id=n_ranks - 1, phase=phase, occurrence=occurrence),
        )

    inst, plan, report, tracer, registry = instrumented_run(recipe, triggers, "full")
    if report.result is None and not plan.fired:
        # a rank crashed (run_with_triggers folds that into a result-less
        # report) with nothing injected yet: the recipe itself cannot run
        raise ChaosError(
            f"scenario {scenario!r} {params} cannot run: {report.gave_up_reason}"
        )
    return ObsRun(
        scenario=scenario,
        seed=seed,
        completed=report.completed,
        n_restarts=report.n_restarts,
        makespan_s=report.total_virtual_s,
        tracer=tracer,
        registry=registry,
        params=params,
        # with nothing armed, not-fired would be vacuous: the oracle judges
        verdict=classify(inst, plan, report) if triggers else judge(inst, report),
        run_id=attempt_run_id(recipe, triggers, "full"),
    )


def write_artifacts(run: ObsRun, out_dir: str) -> Dict[str, str]:
    """Write the full artifact set; returns ``{kind: path}``."""
    from repro.obs.bench import write_bench
    from repro.obs.export import write_chrome_trace, write_metrics_jsonl
    from repro.obs.report import render_report

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trace": os.path.join(out_dir, "trace.json"),
        "metrics": os.path.join(out_dir, "metrics.jsonl"),
        "report": os.path.join(out_dir, "report.txt"),
        "bench": os.path.join(out_dir, "BENCH_obs.json"),
    }
    write_chrome_trace(paths["trace"], run.spans)
    write_metrics_jsonl(paths["metrics"], run.registry)
    with open(paths["report"], "w", encoding="utf-8") as f:
        f.write(
            render_report(
                run.spans,
                run.registry,
                title=f"obs run report: {run.scenario} (seed {run.seed})",
            )
            + "\n"
        )
    write_bench(paths["bench"], run)
    return paths


def store_run(store: Any, run: ObsRun) -> str:
    """Persist one run in a :class:`~repro.obs.store.TraceStore`, in full
    fidelity, under its replay fingerprint; returns the ``run_id``."""
    from repro.obs.rollup import attempt_payload

    return store.ingest_attempt(
        run_id=run.run_id,
        campaign_id="obs",
        ord=0,
        kind="obs",
        scenario=run.scenario,
        method=str(run.params.get("method", "?")),
        seed=run.seed,
        label=str(run.params.get("fail_at") or "baseline"),
        verdict=run.verdict,
        n_restarts=run.n_restarts,
        makespan_s=run.makespan_s,
        params=dict(run.params),
        obs=attempt_payload(run.tracer, run.registry, "full"),
    )


def summarize(run: ObsRun) -> List[str]:
    """Short human summary lines for the CLI."""
    sent, recv, posted = (
        run.registry.total("mpi.bytes_sent"),
        run.registry.total("mpi.bytes_recv"),
        run.registry.total("mpi.bytes_posted"),
    )
    return [
        f"scenario={run.scenario} seed={run.seed} completed={run.completed} "
        f"restarts={run.n_restarts} verdict={run.verdict}",
        f"spans={len(run.tracer)} makespan={run.makespan_s:.1f}s (virtual)",
        f"delivered bytes sent={int(sent)} recv={int(recv)} "
        f"stranded={int(posted - sent)}",
    ]
