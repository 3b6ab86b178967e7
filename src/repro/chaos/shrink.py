"""Schedule shrinking: reduce a failing schedule to a minimal reproducer.

A randomized campaign hands back schedules of many triggers; most of them
are irrelevant to the actual failure.  Because campaign runs are
deterministic (virtual clocks, byte-identical failure delivery), a
schedule's verdict is a pure function of its triggers — so classic
delta-debugging applies directly:

* **drop**: greedily remove triggers one at a time, keeping a removal
  whenever the failure still reproduces without it;
* **advance**: simplify the survivors in place — lower a phase trigger's
  occurrence toward 1 and halve a time trigger's deadline, keeping each
  step that still fails — so the reproducer points at the *earliest,
  simplest* interruption that breaks the protocol.

The result is 1-minimal with respect to single-trigger removal: dropping
any remaining trigger makes the failure disappear.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.chaos.campaign import (
    ChaosScenario,
    ChaosError,
    VERDICT_NOT_FIRED,
    VERDICT_SURVIVED,
    _VERDICT_METRIC,
)
from repro.chaos.schedules import ScheduleResult, run_schedule
from repro.sim.failures import AnyTrigger, PhaseTrigger, TimeTrigger


def default_failure(result: ScheduleResult) -> bool:
    """A schedule "fails" when its run did not survive with the right
    answer: wrong-answer, unrecoverable or gave-up.

    ``not-fired`` deliberately does NOT count as failing — an empty
    schedule never fires, so treating it as a failure would let the drop
    pass shrink every schedule to nothing.  Shrinking a schedule whose
    baseline verdict is ``not-fired`` raises instead (it is vacuous)."""
    return result.verdict not in (VERDICT_SURVIVED, VERDICT_NOT_FIRED)


@dataclass
class ShrinkResult:
    """A minimal reproducer and how it was reached."""

    original: List[AnyTrigger]
    minimal: List[AnyTrigger]
    verdict: str
    n_runs: int
    steps: List[str] = field(default_factory=list)


def shrink_schedule(
    scenario: ChaosScenario,
    triggers: List[AnyTrigger],
    *,
    max_runs: int = 64,
    registry: Any = None,
    cache: Any = None,
) -> ShrinkResult:
    """Shrink ``triggers`` to a minimal schedule that still fails
    (:func:`default_failure`).

    Raises :class:`~repro.chaos.campaign.ChaosError` if the schedule does
    not fail in the first place.  ``max_runs`` bounds the total number of
    replays; shrinking stops (still sound, possibly non-minimal) when the
    budget runs out.  ``cache`` (a :class:`~repro.par.cache.MemoCache`)
    memoizes attempts: delta-debug probes overlap heavily across the drop
    and advance passes (and across the schedules of one campaign), and a
    cached attempt still counts against ``max_runs`` and ``chaos.runs``
    so shrink traces stay identical with or without it.
    """
    runs = 0
    steps: List[str] = []

    def attempt(trigs: List[AnyTrigger]) -> ScheduleResult:
        nonlocal runs
        runs += 1
        result = run_schedule(scenario, trigs, cache=cache)
        if registry is not None:
            registry.counter("chaos.runs").inc()
            registry.counter(_VERDICT_METRIC[result.verdict]).inc()
        return result

    current = list(triggers)
    base = attempt(current)
    if not default_failure(base):
        raise ChaosError(
            f"schedule does not fail (verdict {base.verdict!r}); "
            "nothing to shrink"
        )
    verdict = base.verdict

    # drop pass: remove triggers while the failure reproduces without them
    changed = True
    while changed and runs < max_runs:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            result = attempt(candidate)
            if default_failure(result):
                steps.append(f"dropped {current[i]!r}")
                current = candidate
                verdict = result.verdict
                changed = True
                break
            if runs >= max_runs:
                break

    # advance pass: simplify each survivor in place
    for i, trig in enumerate(list(current)):
        if isinstance(trig, PhaseTrigger):
            while trig.occurrence > 1 and runs < max_runs:
                # a probe-pinned trigger's via pair indexes the *original*
                # occurrence; drop it rather than pin the wrong announcement
                lowered = dataclasses.replace(
                    trig,
                    occurrence=trig.occurrence - 1,
                    via_rank=None,
                    via_occurrence=None,
                    fire_clock=None,
                )
                result = attempt(current[:i] + [lowered] + current[i + 1 :])
                if not default_failure(result):
                    break
                steps.append(
                    f"advanced {trig.phase}:{trig.occurrence} -> "
                    f"{lowered.occurrence} on node {trig.node_id}"
                )
                trig = lowered
                current[i] = trig
                verdict = result.verdict
        elif isinstance(trig, TimeTrigger):
            while trig.at_time > 1.0 and runs < max_runs:
                earlier = dataclasses.replace(trig, at_time=trig.at_time / 2.0)
                result = attempt(current[:i] + [earlier] + current[i + 1 :])
                if not default_failure(result):
                    break
                steps.append(
                    f"advanced t={trig.at_time:.3f} -> {earlier.at_time:.3f} "
                    f"on node {trig.node_id}"
                )
                trig = earlier
                current[i] = trig
                verdict = result.verdict

    return ShrinkResult(
        original=list(triggers),
        minimal=current,
        verdict=verdict,
        n_runs=runs,
        steps=steps,
    )


def shrink_failures(
    scenario: ChaosScenario,
    results: List[ScheduleResult],
    *,
    registry: Any = None,
    cache: Any = None,
) -> List[Optional[ShrinkResult]]:
    """Shrink every failing schedule of a campaign (None for the passing
    ones), preserving the campaign's ordering."""
    out: List[Optional[ShrinkResult]] = []
    for r in results:
        if default_failure(r):
            out.append(
                shrink_schedule(
                    scenario, r.triggers, registry=registry, cache=cache
                )
            )
        else:
            out.append(None)
    return out
