"""Seeded randomized campaigns: MTBF storms, correlated and back-to-back.

The kill matrix covers every *single* interruption point; this module
covers the failure *combinations* the matrix cannot enumerate — schedules
drawn from the per-node MTBF (repeated failures per node, see
:meth:`~repro.sim.failures.MTBFFailureGenerator.schedule`), correlated
``extra_nodes`` losses (rack/switch events, the RAID-6 double-fault case),
and back-to-back failures landing inside the recovery window (a
``restore.begin`` phase trigger that stays armed across the restart, so
the second failure hits the recovery protocol itself).

Everything derives from one campaign seed: schedule ``i`` uses seed
``seed + i`` for both the MTBF draws and the correlation coin flips, so a
campaign is reproducible from ``(scenario params, seed)`` alone and a
failing schedule can be handed to the shrinker as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.chaos.campaign import BaselineProbe, ChaosScenario
from repro.par.replay import ReplayOutcome, ReplaySpec, run_units
from repro.sim.failures import (
    AnyTrigger,
    MTBFFailureGenerator,
    PhaseTrigger,
    TimeTrigger,
)
from repro.util.rng import seeded_rng

#: probability a drawn failure takes a correlated second node with it
P_EXTRA = 0.25
#: probability a schedule adds a back-to-back kill inside the recovery
#: window (fires at the first ``restore.begin`` announcement)
P_RECOVERY_KILL = 0.25


@dataclass(frozen=True)
class RandomCampaignConfig:
    """Knobs of one randomized campaign."""

    n_schedules: int = 8
    seed: int = 0
    #: per-node MTBF as a fraction of the fault-free makespan; below 1.0
    #: multiple failures per run are likely
    mtbf_scale: float = 0.6
    max_failures_per_node: int = 2

    def __post_init__(self) -> None:
        if self.n_schedules < 1:
            raise ValueError("n_schedules must be >= 1")
        if not (math.isfinite(self.mtbf_scale) and self.mtbf_scale > 0):
            raise ValueError(
                f"mtbf_scale must be > 0 and finite; got {self.mtbf_scale}"
            )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class ScheduleResult:
    """Outcome of one randomized schedule replay."""

    index: int
    triggers: List[AnyTrigger]
    verdict: str
    n_restarts: int
    makespan_s: float
    gave_up_reason: Optional[str] = None
    fired: List[str] = field(default_factory=list)
    #: per-attempt observability payload (``--obs summary/full``); never
    #: serialized into ``BENCH_chaos.json`` — it flows to the trace store
    obs: Optional[dict] = None


def generate_schedule(
    probe: BaselineProbe, cfg: RandomCampaignConfig, schedule_seed: int
) -> List[AnyTrigger]:
    """One seeded failure schedule against the probed baseline."""
    rng = seeded_rng(schedule_seed)
    nodes = probe.nodes
    mtbf = max(probe.makespan_s * cfg.mtbf_scale, 1e-9)
    gen = MTBFFailureGenerator(mtbf, seed=schedule_seed)
    drawn = gen.schedule(
        nodes,
        horizon_s=probe.makespan_s,
        max_failures_per_node=cfg.max_failures_per_node,
    )
    triggers: List[AnyTrigger] = []
    for t in drawn:
        if len(nodes) > 1 and rng.random() < P_EXTRA:
            others = [n for n in nodes if n != t.node_id]
            extra = int(others[int(rng.integers(len(others)))])
            t = TimeTrigger(
                node_id=t.node_id, at_time=t.at_time, extra_nodes=(extra,)
            )
        triggers.append(t)
    if triggers and rng.random() < P_RECOVERY_KILL:
        victim = int(nodes[int(rng.integers(len(nodes)))])
        triggers.append(
            PhaseTrigger(node_id=victim, phase="restore.begin", occurrence=1)
        )
    return triggers


def _schedule_result(
    index: int, triggers: List[AnyTrigger], outcome: ReplayOutcome
) -> ScheduleResult:
    return ScheduleResult(
        index=index,
        triggers=list(triggers),
        verdict=outcome.verdict,
        n_restarts=outcome.n_restarts,
        makespan_s=outcome.makespan_s,
        gave_up_reason=outcome.gave_up_reason,
        fired=list(outcome.fired),
        obs=outcome.obs,
    )


def run_schedule(
    scenario: ChaosScenario,
    triggers: List[AnyTrigger],
    index: int = 0,
    *,
    cache: Any = None,
) -> ScheduleResult:
    """Replay one schedule under the daemon and classify the outcome.

    A schedule with zero triggers (the MTBF drew nothing inside the
    horizon) is classified like any other run — typically ``not-fired``
    with a completed job, which the campaign summary reports as vacuous
    rather than as survival.  A replay that raises is a ``gave-up``
    verdict here exactly as it is inside a campaign, so the shrinker can
    re-probe any schedule a campaign classified.

    ``cache`` (a :class:`~repro.par.cache.MemoCache`) short-circuits
    schedules whose fingerprint was already classified — the shrinker's
    delta-debug loop re-probes heavily overlapping trigger sets, and a
    deterministic replay is a pure function of its fingerprint.
    """
    spec = ReplaySpec(scenario, tuple(triggers))
    (outcome,) = run_units([spec], cache=cache)
    return _schedule_result(index, triggers, outcome)


def random_campaign(
    scenario: ChaosScenario,
    cfg: RandomCampaignConfig,
    *,
    probe: Optional[BaselineProbe] = None,
    registry: Any = None,
    workers: int = 1,
    cache: Any = None,
    progress: Any = None,
    obs: str = "off",
) -> List[ScheduleResult]:
    """Run ``cfg.n_schedules`` seeded schedules; same seed, same verdicts.

    A campaign (:func:`repro.chaos.plan.run_campaign`) of schedules and
    no kill points: all schedules derive from the probe and the campaign
    seed before any replay starts, so they are independent units and
    ``workers > 1`` changes nothing but wall-clock time.
    """
    from repro.chaos.plan import count_campaign, run_campaign

    _, _, results = run_campaign(
        [scenario],
        workers=workers,
        cache=cache,
        registry=registry,
        progress=progress,
        seed=cfg.seed,
        obs=obs,
        random_cfg=cfg,
        probes=None if probe is None else [probe],
        points=[()],
    )
    count_campaign(registry, [], results)
    return results
