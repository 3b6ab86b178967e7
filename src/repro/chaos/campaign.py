"""The kill-matrix campaign: exhaustive phase-aimed failure injection.

The paper argues informally that a node loss is survivable *at any moment*
— mid-compute, mid-encode, mid-flush (Fig. 2 / Fig. 4 cases).  This module
turns that claim into a machine-checkable matrix:

1. :func:`probe_baseline` runs the scenario once, fault-free, with a
   :class:`~repro.obs.spans.SpanTracer` attached, and counts every phase
   announcement per node — the complete set of interruption points the
   protocol exposes.
2. :func:`enumerate_kill_points` expands the counts into one
   :class:`KillPoint` per ``(phase, occurrence, node)``.
3. :func:`run_kill_point` replays the scenario under the
   :class:`~repro.hpl.daemon.JobDaemon`, killing the node at exactly that
   announcement, and classifies the outcome into a :class:`KillResult`
   verdict: ``survived`` (completed and the answer oracle passed),
   ``wrong-answer`` (completed but the oracle failed — silent corruption),
   ``unrecoverable``, ``gave-up``, or ``not-fired`` (the trigger never
   tripped — an enumeration mismatch, itself a red flag).
4. :func:`run_kill_matrix` sweeps the whole matrix into a
   :class:`CampaignReport` — a one-scenario campaign through the
   plan -> execute -> merge pipeline of :mod:`repro.chaos.plan`.

Everything is deterministic: runs are driven by virtual clocks and the
byte-identical failure delivery of the runtime, so the same scenario and
kill point always produce the same verdict — which is what makes the
shrinker (:mod:`repro.chaos.shrink`) sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.scenarios import ChaosScenario, ScenarioInstance
from repro.hpl.daemon import DaemonReport, JobDaemon
from repro.obs.spans import SpanTracer
from repro.par.replay import ReplayOutcome, ReplaySpec, run_units
from repro.sim.errors import SimError
from repro.sim.failures import AnyTrigger, FailurePlan, PhaseTrigger
from repro.sim.runtime import Job

VERDICT_SURVIVED = "survived"
VERDICT_WRONG_ANSWER = "wrong-answer"
VERDICT_UNRECOVERABLE = "unrecoverable"
VERDICT_GAVE_UP = "gave-up"
VERDICT_NOT_FIRED = "not-fired"

VERDICTS = (
    VERDICT_SURVIVED,
    VERDICT_WRONG_ANSWER,
    VERDICT_UNRECOVERABLE,
    VERDICT_GAVE_UP,
    VERDICT_NOT_FIRED,
)

#: verdict -> registry counter name (see repro.obs.labels.METRIC_NAMES)
_VERDICT_METRIC = {
    VERDICT_SURVIVED: "chaos.survived",
    VERDICT_WRONG_ANSWER: "chaos.wrong_answer",
    VERDICT_UNRECOVERABLE: "chaos.unrecoverable",
    VERDICT_GAVE_UP: "chaos.gave_up",
    VERDICT_NOT_FIRED: "chaos.not_fired",
}


class ChaosError(RuntimeError):
    """A campaign could not even establish its baseline."""


@dataclass(frozen=True)
class KillPoint:
    """Kill ``node_id`` at the ``occurrence``-th announcement of ``phase``
    (counted per node, matching a rankless
    :class:`~repro.sim.failures.PhaseTrigger`)."""

    phase: str
    occurrence: int
    node_id: int

    @property
    def label(self) -> str:
        return f"{self.phase}:{self.occurrence}@n{self.node_id}"


@dataclass
class KillResult:
    """Outcome of one kill-point replay."""

    point: KillPoint
    verdict: str
    n_restarts: int
    makespan_s: float
    gave_up_reason: Optional[str] = None
    fired: List[str] = field(default_factory=list)
    #: per-attempt observability payload (``--obs summary/full``); never
    #: serialized into ``BENCH_chaos.json`` — it flows to the trace store
    obs: Optional[Dict[str, Any]] = None


@dataclass
class BaselineProbe:
    """What the fault-free reference run announced, per node."""

    makespan_s: float
    ranklist: List[int]
    #: (node_id, phase) -> announcements over the whole fault-free run
    phase_counts: Dict[Tuple[int, str], int]
    #: (node_id, phase) -> every announcement as ``(clock, rank,
    #: rank_local_occurrence)`` in virtual-clock order (rank id breaks
    #: same-instant ties).  This is the node-wide announcement schedule a
    #: kill point indexes into: with several ranks per node the *runtime's*
    #: node-wide count is incremented in host-scheduler order, so the probe
    #: records the deterministic virtual order and :func:`point_trigger`
    #: pins each trigger to the concrete announcement it resolves to.
    announcements: Dict[Tuple[int, str], List[Tuple[float, int, int]]] = field(
        default_factory=dict
    )

    @property
    def nodes(self) -> List[int]:
        return sorted(set(self.ranklist))

    @property
    def phases(self) -> List[str]:
        return sorted({phase for _, phase in self.phase_counts})


@dataclass
class CampaignReport:
    """One full kill-matrix sweep for one scenario configuration."""

    scenario: str
    params: Dict[str, Any]
    baseline_makespan_s: float
    results: List[KillResult] = field(default_factory=list)

    @property
    def method(self) -> str:
        return str(self.params.get("method", "?"))

    @property
    def verdict_counts(self) -> Dict[str, int]:
        counts = {v: 0 for v in VERDICTS}
        for r in self.results:
            counts[r.verdict] += 1
        return counts

    @property
    def survived_all(self) -> bool:
        """Every kill point fired and the job survived it with the right
        answer (``not-fired`` counts as a failure: the matrix missed)."""
        return bool(self.results) and all(
            r.verdict == VERDICT_SURVIVED for r in self.results
        )

    def failures(self) -> List[KillResult]:
        return [r for r in self.results if r.verdict != VERDICT_SURVIVED]


def probe_baseline(scenario: ChaosScenario) -> BaselineProbe:
    """Run the scenario fault-free and collect its phase announcements.

    Raises :class:`ChaosError` if the baseline itself crashes, does not
    complete or fails its own answer oracle — a campaign over a broken baseline would
    report noise.
    """
    inst = scenario.make()
    tracer = SpanTracer()
    job = Job(
        inst.cluster,
        inst.main,
        inst.n_ranks,
        args=inst.args,
        procs_per_node=inst.procs_per_node,
        tracer=tracer,
        name="chaos-baseline",
    )
    try:
        result = job.run()
    except SimError as err:
        # a rank raised: typically a protocol that cannot be constructed on
        # this configuration (group too small for its parity, ...)
        raise ChaosError(
            f"baseline run of scenario {scenario.name!r} {scenario.params} "
            f"crashed: {err}"
        ) from err
    if not result.completed:
        raise ChaosError(
            f"baseline run of scenario {scenario.name!r} did not complete: "
            f"{result.rank_errors}"
        )
    if not inst.check(result):
        raise ChaosError(
            f"baseline run of scenario {scenario.name!r} fails its own "
            "answer oracle; fix the scenario before running campaigns"
        )
    counts: Dict[Tuple[int, str], int] = {}
    ranklist = list(job.ranklist)
    announcements: Dict[Tuple[int, str], List[Tuple[float, int, int]]] = {}
    rank_local: Dict[Tuple[int, str], int] = {}
    for e in tracer.phases():  # rank by rank, each in program order
        key = (ranklist[e.rank], e.name)
        counts[key] = counts.get(key, 0) + 1
        lkey = (e.rank, e.name)
        rank_local[lkey] = rank_local.get(lkey, 0) + 1
        announcements.setdefault(key, []).append(
            (e.clock, e.rank, rank_local[lkey])
        )
    for ann in announcements.values():
        ann.sort()
    return BaselineProbe(
        makespan_s=result.makespan,
        ranklist=ranklist,
        phase_counts=counts,
        announcements=announcements,
    )


def enumerate_kill_points(
    probe: BaselineProbe,
    *,
    nodes: Optional[Sequence[int]] = None,
    phases: Optional[Sequence[str]] = None,
    max_occurrences: Optional[int] = None,
) -> List[KillPoint]:
    """Expand the probe's counts into the exhaustive kill matrix.

    ``nodes``/``phases`` restrict the sweep; ``max_occurrences`` caps the
    occurrence axis per ``(node, phase)`` for long runs.  Points are
    ordered by (phase, node, occurrence) so reports and artifacts are
    stable across runs.
    """
    sel_nodes = set(probe.nodes if nodes is None else nodes)
    sel_phases = None if phases is None else set(phases)
    points: List[KillPoint] = []
    for (node, phase), count in sorted(
        probe.phase_counts.items(), key=lambda kv: (kv[0][1], kv[0][0])
    ):
        if node not in sel_nodes:
            continue
        if sel_phases is not None and phase not in sel_phases:
            continue
        cap = count if max_occurrences is None else min(count, max_occurrences)
        for occ in range(1, cap + 1):
            points.append(KillPoint(phase=phase, occurrence=occ, node_id=node))
    return points


def run_with_triggers(
    scenario: ChaosScenario,
    triggers: Sequence[AnyTrigger],
    *,
    tracer: Any = None,
    observer: Any = None,
) -> Tuple[ScenarioInstance, FailurePlan, DaemonReport]:
    """Replay the scenario under the daemon with the given triggers armed.

    The shared building block of the kill matrix, the randomized campaigns
    and the shrinker: fresh instance, fresh plan, one supervised run.
    ``tracer``/``observer`` (a :class:`~repro.obs.spans.SpanTracer` and a
    :class:`~repro.obs.metrics.MetricsObserver`) instrument the attempt —
    both ride virtual clocks only, so an instrumented replay produces the
    same verdict, restart count and makespan as a bare one.

    A rank raising a non-simulated exception (a protocol bug tripped by
    the injected failure) would normally propagate out of the runtime;
    here it is itself a campaign outcome, so it is folded into a
    ``gave-up`` report carrying the crash as the reason instead of
    aborting the whole matrix.
    """
    inst = scenario.make()
    if observer is not None and hasattr(observer, "watch_cluster"):
        observer.watch_cluster(inst.cluster)
    plan = FailurePlan(list(triggers))
    daemon = JobDaemon(
        inst.cluster,
        inst.main,
        inst.n_ranks,
        args=inst.args,
        procs_per_node=inst.procs_per_node,
        failure_plan=plan,
        policy=inst.policy,
        observer=observer,
        tracer=tracer,
        name="chaos",
    )
    try:
        report = daemon.run()
    except SimError as e:
        report = DaemonReport(
            completed=False,
            result=None,
            n_restarts=0,
            gave_up_reason=f"protocol crash: {e}",
        )
    return inst, plan, report


def classify(
    inst: ScenarioInstance, plan: FailurePlan, report: DaemonReport
) -> str:
    """Map one supervised run onto a campaign verdict."""
    if not plan.fired:
        return VERDICT_NOT_FIRED
    return judge(inst, report)


def judge(inst: ScenarioInstance, report: DaemonReport) -> str:
    """The verdict once delivery is settled: the answer oracle for a run
    that completed, the give-up reason for one that did not.  Alone, it
    judges a run that armed nothing on purpose (a clean ``repro obs``
    profile), where ``not-fired`` would be vacuous."""
    if report.completed:
        assert report.result is not None
        return (
            VERDICT_SURVIVED if inst.check(report.result) else VERDICT_WRONG_ANSWER
        )
    reason = report.gave_up_reason or ""
    if "unrecoverable" in reason:
        return VERDICT_UNRECOVERABLE
    return VERDICT_GAVE_UP


def point_trigger(
    point: KillPoint, probe: Optional[BaselineProbe] = None
) -> PhaseTrigger:
    """The phase trigger that kills exactly at this matrix point.

    With a ``probe``, the node-wide occurrence is resolved against the
    fault-free announcement schedule and the trigger is *pinned*
    (``via_rank``/``via_occurrence``, and the probe clock as
    ``fire_clock``) to the concrete announcement it indexes in
    virtual-clock order.  The killed run's fault-free prefix is identical
    to the probe, so the pin lands on the same announcement — but now
    deterministically, where an unpinned trigger on a
    several-ranks-per-node node counts announcements in host-scheduler
    order and its fire clock jitters by the inter-rank skew.  The pin also
    fixes the node's death key, and with it where each sibling rank of
    the node dies (see :class:`~repro.sim.failures.PhaseTrigger`).  Artifacts are unaffected
    either way (the provenance reports the node-wide count); the pin is
    what makes the doomed attempt's *telemetry* — span tails, encoded
    bytes, makespan epsilons — byte-stable.
    """
    if probe is not None:
        ann = probe.announcements.get((point.node_id, point.phase))
        if ann and len(ann) >= point.occurrence:
            clock, rank, local = ann[point.occurrence - 1]
            return PhaseTrigger(
                node_id=point.node_id,
                phase=point.phase,
                occurrence=point.occurrence,
                via_rank=rank,
                via_occurrence=local,
                fire_clock=clock,
            )
    return PhaseTrigger(
        node_id=point.node_id, phase=point.phase, occurrence=point.occurrence
    )


def _kill_result(point: KillPoint, outcome: ReplayOutcome) -> KillResult:
    return KillResult(
        point=point,
        verdict=outcome.verdict,
        n_restarts=outcome.n_restarts,
        makespan_s=outcome.makespan_s,
        gave_up_reason=outcome.gave_up_reason,
        fired=list(outcome.fired),
        obs=outcome.obs,
    )


def run_kill_point(
    scenario: ChaosScenario,
    point: KillPoint,
    *,
    probe: Optional[BaselineProbe] = None,
) -> KillResult:
    """Replay the scenario, killing the node at exactly this announcement."""
    spec = ReplaySpec(scenario, (point_trigger(point, probe),))
    (outcome,) = run_units([spec])
    return _kill_result(point, outcome)


def run_kill_matrix(
    scenario: ChaosScenario,
    *,
    nodes: Optional[Sequence[int]] = None,
    phases: Optional[Sequence[str]] = None,
    max_occurrences: Optional[int] = None,
    probe: Optional[BaselineProbe] = None,
    registry: Any = None,
    workers: int = 1,
    cache: Any = None,
    progress: Any = None,
    obs: str = "off",
) -> CampaignReport:
    """Sweep the exhaustive kill matrix and report per-point verdicts: a
    one-scenario campaign through :func:`repro.chaos.plan.run_campaign`
    (``workers`` / ``cache`` / ``progress`` are its executor's; artifacts
    are byte-identical whatever they are).  ``registry`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) also gets the campaign
    counters of :func:`~repro.chaos.plan.count_campaign`.
    """
    from repro.chaos.plan import count_campaign, run_campaign

    _, matrices, _ = run_campaign(
        [scenario],
        workers=workers,
        cache=cache,
        registry=registry,
        progress=progress,
        obs=obs,
        probes=None if probe is None else [probe],
        nodes=nodes,
        phases=phases,
        max_occurrences=max_occurrences,
    )
    count_campaign(registry, matrices, None)
    return matrices[0]
