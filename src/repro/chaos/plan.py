"""One campaign pipeline: plan -> execute -> merge, on every engine.

A campaign — a kill matrix per scenario (one scenario per method) plus
optional seeded random schedules against the first — is described once,
by a :class:`CampaignPlan`, and every engine runs that description:

1. :func:`plan_campaign` walks *probe -> kill points -> pinned trigger ->*
   :class:`~repro.par.replay.ReplaySpec` exactly once, into an ordered
   list of :class:`PlannedUnit` (kill units in matrix order, then
   schedules in index order).
2. An executor turns the units into ``{ordinal: ReplayOutcome}``.  There
   are two: in-process, :func:`~repro.par.replay.run_units` over the
   whole plan (:func:`run_campaign`; serial at ``workers == 1``, the pool
   above that), and the crash-tolerant queue of :mod:`repro.shard`.
3. :func:`merge_campaign` is the only place a ``KillResult`` /
   ``ScheduleResult`` / ``CampaignReport`` is built from an outcome, in
   plan order — downstream of it (``render_campaign``, ``bench_record``,
   trace-store ingestion) there is one code path, so ``BENCH_chaos.json``,
   ``report.txt`` and the store digests cannot differ between engines.

Results are keyed by plan **ordinal**, never by fingerprint: two random
schedules can legitimately collide on content (both drew an empty
trigger set), and the ordinal is what keeps them distinct rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.campaign import (
    _VERDICT_METRIC,
    BaselineProbe,
    CampaignReport,
    ChaosError,
    KillPoint,
    _kill_result,
    enumerate_kill_points,
    point_trigger,
    probe_baseline,
)
from repro.chaos.scenarios import ChaosScenario
from repro.chaos.schedules import (
    RandomCampaignConfig,
    ScheduleResult,
    _schedule_result,
    generate_schedule,
)
from repro.par.cache import replay_fingerprint
from repro.par.replay import ReplayOutcome, ReplaySpec, run_units

KIND_KILL = "kill"
KIND_RANDOM = "random"


@dataclass(frozen=True)
class PlannedUnit:
    """One replay job plus the metadata the merger rebuilds results from."""

    ord: int
    kind: str  # "kill" | "random"
    #: index into :attr:`CampaignPlan.matrices` (the unit's scenario)
    matrix: int
    spec: ReplaySpec
    #: kill: the matrix point; random: the schedule index
    point: Optional[KillPoint] = None
    schedule_index: Optional[int] = None

    @cached_property
    def fingerprint(self) -> str:
        """The unit id — the content address the memo cache and the trace
        store use too; computed only when a queue asks for it."""
        return replay_fingerprint(self.spec)


@dataclass
class MatrixPlan:
    """One method's kill matrix: scenario, baseline probe, points."""

    scenario: ChaosScenario
    probe: BaselineProbe
    points: List[KillPoint]


@dataclass
class CampaignPlan:
    """The frozen campaign: everything an executor or the merger needs."""

    seed: int
    obs: str
    matrices: List[MatrixPlan]
    #: randomized schedules (trigger lists) drawn against matrices[0]
    schedules: List[List[Any]]
    units: List[PlannedUnit]
    #: the queue's partition and identity of this plan — filled in by
    #: :func:`repro.shard.plan_campaign`, empty on the in-process engines
    shards: List[Any] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def n_units(self) -> int:
        return len(self.units)


def plan_campaign(
    scenarios: Sequence[ChaosScenario],
    *,
    seed: int = 0,
    obs: str = "off",
    nodes: Optional[Sequence[int]] = None,
    phases: Optional[Sequence[str]] = None,
    max_occurrences: Optional[int] = None,
    random_cfg: Optional[RandomCampaignConfig] = None,
    probes: Optional[Sequence[BaselineProbe]] = None,
    points: Optional[Sequence[Sequence[KillPoint]]] = None,
) -> CampaignPlan:
    """Freeze one campaign into its ordered replay units.

    Each scenario is probed (or takes its entry of ``probes``) and its
    kill matrix enumerated under ``nodes`` / ``phases`` /
    ``max_occurrences`` (or taken verbatim from its entry of ``points``);
    ``random_cfg`` draws the randomized schedules against the first
    scenario.  Everything is deterministic, so re-planning from the same
    arguments lands on the identical plan.

    A plan with no units raises :class:`ChaosError` — a campaign that
    checks nothing must not look like one that passed.
    """
    matrices: List[MatrixPlan] = []
    for idx, scenario in enumerate(scenarios):
        probe = probes[idx] if probes is not None else probe_baseline(scenario)
        if points is not None:
            pts = list(points[idx])
        else:
            pts = enumerate_kill_points(
                probe, nodes=nodes, phases=phases, max_occurrences=max_occurrences
            )
        matrices.append(MatrixPlan(scenario, probe, pts))
    schedules: List[List[Any]] = []
    if random_cfg is not None and matrices:
        schedules = [
            generate_schedule(matrices[0].probe, random_cfg, random_cfg.seed + i)
            for i in range(random_cfg.n_schedules)
        ]

    units: List[PlannedUnit] = []
    for idx, m in enumerate(matrices):
        for point in m.points:
            spec = ReplaySpec(m.scenario, (point_trigger(point, m.probe),), obs=obs)
            units.append(
                PlannedUnit(
                    ord=len(units), kind=KIND_KILL, matrix=idx, spec=spec, point=point
                )
            )
    for i, triggers in enumerate(schedules):
        spec = ReplaySpec(matrices[0].scenario, tuple(triggers), obs=obs)
        units.append(
            PlannedUnit(
                ord=len(units), kind=KIND_RANDOM, matrix=0, spec=spec, schedule_index=i
            )
        )
    if not units:
        raise ChaosError("campaign plan is empty: no kill points enumerated")
    return CampaignPlan(
        seed=seed, obs=obs, matrices=matrices, schedules=schedules, units=units
    )


def merge_campaign(
    plan: CampaignPlan, outcomes: Dict[int, ReplayOutcome]
) -> Tuple[List[CampaignReport], Optional[List[ScheduleResult]]]:
    """Fold per-unit outcomes into the campaign's result objects.

    Returns one :class:`CampaignReport` per planned matrix (method
    order) and the randomized :class:`ScheduleResult` list (``None``
    when the plan drew no schedules).  Raises
    :class:`~repro.chaos.campaign.ChaosError` when any unit is missing —
    merging a partial campaign would silently fabricate artifacts.
    """
    missing = [u.ord for u in plan.units if u.ord not in outcomes]
    if missing:
        raise ChaosError(
            f"cannot merge: {len(missing)} of {plan.n_units} units have no "
            f"journaled outcome (first missing ord {missing[0]}); resume "
            "the campaign to completion first"
        )
    matrices = [
        CampaignReport(
            scenario=m.scenario.name,
            params=dict(m.scenario.params),
            baseline_makespan_s=m.probe.makespan_s,
        )
        for m in plan.matrices
    ]
    schedules: List[ScheduleResult] = []
    for unit in plan.units:
        outcome = outcomes[unit.ord]
        if unit.kind == KIND_KILL:
            matrices[unit.matrix].results.append(_kill_result(unit.point, outcome))
        else:
            i = unit.schedule_index
            schedules.append(_schedule_result(i, plan.schedules[i], outcome))
    return matrices, (schedules if plan.schedules else None)


def run_campaign(
    scenarios: Sequence[ChaosScenario],
    *,
    workers: int = 1,
    cache: Any = None,
    registry: Any = None,
    progress: Any = None,
    **plan_kw: Any,
) -> Tuple[CampaignPlan, List[CampaignReport], Optional[List[ScheduleResult]]]:
    """plan -> execute in-process -> merge; ``plan_kw`` is the campaign,
    as :func:`plan_campaign` takes it.  ``workers`` changes wall-clock
    time and nothing else: verdicts, ordering and artifacts are identical."""
    plan = plan_campaign(scenarios, **plan_kw)
    outcomes = run_units(
        [u.spec for u in plan.units],
        workers=workers,
        cache=cache,
        registry=registry,
        progress=progress,
    )
    # a unit's ordinal is its position in plan.units
    return (plan, *merge_campaign(plan, dict(enumerate(outcomes))))


def count_campaign(
    registry: Any,
    matrices: Sequence[CampaignReport],
    schedules: Optional[Sequence[ScheduleResult]],
) -> None:
    """The campaign counters (``chaos.kill_points``, ``chaos.runs``, one
    per verdict) on a :class:`~repro.obs.metrics.MetricsRegistry`.

    ``chaos.runs`` counts *resolved* replays plus one baseline per batch
    — cache hits and journal rows included — so the summary line is
    independent of cache state and engine; the ``par.cache_*`` counters
    say how many replays actually executed.
    """
    if registry is None:
        return
    batches = [rep.results for rep in matrices]
    registry.counter("chaos.kill_points").inc(sum(map(len, batches)))
    if schedules is not None:
        batches.append(schedules)
    for batch in batches:
        registry.counter("chaos.runs").inc(len(batch) + 1)  # + baseline
        for r in batch:
            registry.counter(_VERDICT_METRIC[r.verdict]).inc()
