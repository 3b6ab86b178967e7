"""The replay work unit: one scenario + one trigger set -> one outcome.

:class:`ReplaySpec` is the job description every campaign engine ships
to whoever runs it; :func:`replay` is the worker entry point — it runs
the scenario (a pickleable :class:`~repro.chaos.scenarios.ChaosScenario`)
under the :class:`~repro.hpl.daemon.JobDaemon` with the triggers armed
(:func:`instrumented_run`, which ``repro obs`` profile runs share), and
classifies the result into a :class:`ReplayOutcome`.  :func:`run_units`
is the one unit runner around it: cache lookup, replay, crash fold,
cache store.

:class:`ReplayOutcome` deliberately carries only the scalar verdict
fields — never the :class:`~repro.sim.runtime.JobResult` with its per-rank
numpy payloads — so crossing the process boundary (and the memo cache's
JSON encoding) stays cheap and exact.  Campaign result types
(:class:`~repro.chaos.campaign.KillResult`,
:class:`~repro.chaos.schedules.ScheduleResult`) are built from outcomes,
which is what makes the serial and parallel paths byte-identical: both
flow through the same outcome fields.

One optional extra rides along: with an obs sampling mode armed
(``spec.obs != "off"``), the worker attaches a fresh
:class:`~repro.obs.spans.SpanTracer` + the mode's traffic recorder to
the attempt and ships a JSON-canonical payload back in :attr:`ReplayOutcome.obs` —
a flat summary rollup (``summary``) or the full span/metric streams
(``full``), built by :mod:`repro.obs.rollup`.  The payload is a pure
function of the virtual-clock-driven run, so outcomes stay deterministic
and cacheable; the obs mode is part of the cache fingerprint so modes
never collide.

All imports of :mod:`repro.chaos` happen inside function bodies:
``repro.chaos.campaign`` imports this module, not the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: verdict used when a replay raises instead of classifying — the crash is
#: itself a campaign outcome (matches repro.chaos.campaign.VERDICT_GAVE_UP)
CRASH_VERDICT = "gave-up"

#: no-observability sampling mode (see repro.obs.rollup.OBS_MODES)
OBS_OFF = "off"


@dataclass(frozen=True)
class ReplayOutcome:
    """Scalar outcome of one supervised replay."""

    verdict: str
    n_restarts: int
    makespan_s: float
    gave_up_reason: Optional[str] = None
    fired: Tuple[str, ...] = ()
    #: per-attempt observability payload (None unless an obs mode was
    #: armed); see :func:`repro.obs.rollup.attempt_payload`
    obs: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "verdict": self.verdict,
            "n_restarts": self.n_restarts,
            "makespan_s": self.makespan_s,
            "gave_up_reason": self.gave_up_reason,
            "fired": list(self.fired),
        }
        if self.obs is not None:
            doc["obs"] = self.obs
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "ReplayOutcome":
        return cls(
            verdict=str(doc["verdict"]),
            n_restarts=int(doc["n_restarts"]),
            makespan_s=float(doc["makespan_s"]),
            gave_up_reason=doc.get("gave_up_reason"),
            fired=tuple(doc.get("fired", ())),
            obs=doc.get("obs"),
        )


@dataclass(frozen=True)
class ReplaySpec:
    """One replay job: scenario recipe + armed triggers."""

    scenario: Any  # a ChaosScenario
    triggers: Tuple[Any, ...]  # AnyTrigger instances (plain dataclasses)
    #: obs sampling mode the worker arms ("off" | "summary" | "full")
    obs: str = OBS_OFF


def instrumented_run(
    scenario: Any, triggers: Sequence[Any], obs: str = OBS_OFF
) -> Tuple[Any, Any, Any, Any, Any]:
    """The one instrumented supervised run: :func:`repro.chaos.campaign.
    run_with_triggers` with, unless ``obs`` is ``"off"``, a fresh
    :class:`~repro.obs.spans.SpanTracer` and the mode's recorder attached:
    a :class:`~repro.obs.rollup.TrafficTotals` at ``"summary"``, a metrics
    observer (job-level counters filled in afterwards) at ``"full"``.

    Campaign units (:func:`replay`) and ``repro obs`` profile runs
    (:func:`repro.obs.scenario.run_scenario`) both come through here, so
    they agree on every span and counter.  Returns ``(instance, plan,
    report, tracer, recorded)``, ``recorded`` being the ``TrafficTotals``
    or the ``MetricsRegistry``; the last two are ``None`` at ``"off"``.
    """
    from repro.chaos.campaign import run_with_triggers

    tracer = observer = None
    if obs != OBS_OFF:
        from repro.obs.metrics import MetricsObserver
        from repro.obs.rollup import OBS_MODES, OBS_SUMMARY, TrafficTotals
        from repro.obs.spans import SpanTracer

        if obs not in OBS_MODES:
            raise ValueError(f"unknown obs mode {obs!r}; choose from {OBS_MODES}")
        tracer = SpanTracer()
        observer = TrafficTotals() if obs == OBS_SUMMARY else MetricsObserver()
    inst, plan, report = run_with_triggers(
        scenario, list(triggers), tracer=tracer, observer=observer
    )
    registry = getattr(observer, "registry", None)
    if registry is not None:
        from repro.obs.rollup import fill_job_metrics

        fill_job_metrics(
            registry,
            tracer.spans(),
            n_restarts=report.n_restarts,
            n_failures=len(plan.fired),
            completed=report.completed,
            makespan_s=report.total_virtual_s,
        )
    return inst, plan, report, tracer, observer if registry is None else registry


def replay(spec: ReplaySpec) -> ReplayOutcome:
    """Worker entry point: replay the scenario with the triggers armed."""
    from repro.chaos.campaign import classify

    inst, plan, report, tracer, recorded = instrumented_run(
        spec.scenario, spec.triggers, spec.obs
    )
    payload = None
    if tracer is not None:
        from repro.obs.rollup import attempt_payload

        payload = attempt_payload(tracer, recorded, spec.obs, report.n_restarts)
    return ReplayOutcome(
        verdict=classify(inst, plan, report),
        n_restarts=report.n_restarts,
        makespan_s=report.total_virtual_s,
        gave_up_reason=report.gave_up_reason,
        fired=tuple(rec.describe() for rec in report.triggers_fired),
        obs=payload,
    )


def crash_outcome(spec: Any, exc: BaseException) -> ReplayOutcome:
    """Fold a replay that raised (in-pool or inline) into its own verdict
    instead of losing the whole campaign to one crash."""
    return ReplayOutcome(
        verdict=CRASH_VERDICT,
        n_restarts=0,
        makespan_s=0.0,
        gave_up_reason=f"replay crashed: {type(exc).__name__}: {exc}",
        fired=(),
    )


def run_units(
    specs: Sequence[ReplaySpec],
    *,
    workers: int = 1,
    cache: Any = None,
    registry: Any = None,
    progress: Any = None,
) -> List[ReplayOutcome]:
    """The one unit runner: cache lookup -> :func:`replay` -> crash fold ->
    cache store for every spec, outcomes in spec order.

    Every door a replay comes through ends here — a whole campaign plan
    (serial at ``workers == 1``, the pool above that), one unit inside a
    shard executor, one ``run_kill_point`` / ``run_schedule`` probe of
    the shrinker — so a replay that raises is the same ``gave-up``
    :func:`crash_outcome` verdict everywhere, and is never cached.
    ``cache`` is a :class:`~repro.par.cache.MemoCache`; the engine asks
    for fingerprints only when there is one.
    """
    from repro.par.cache import replay_fingerprint
    from repro.par.engine import ParallelEngine

    engine = ParallelEngine(workers, registry=registry, progress=progress)
    return engine.map(
        replay, specs, cache=cache, key=replay_fingerprint, on_error=crash_outcome
    )
