"""repro.chaos — adversarial fault-injection campaigns for the protocols.

The paper's survivability claim ("a node loss at *any* moment is
recoverable") becomes machine-checkable here:

* :mod:`repro.chaos.scenarios` — supervised applications with an exact
  answer oracle (closed-form selfckpt app, SKT-HPL residual check);
* :mod:`repro.chaos.campaign` — the exhaustive kill matrix: probe the
  fault-free run for every phase announcement, then replay once per
  ``(phase, occurrence, node)`` with a kill armed exactly there;
* :mod:`repro.chaos.schedules` — seeded randomized campaigns: MTBF
  storms, correlated ``extra_nodes`` losses, back-to-back failures in
  the recovery window;
* :mod:`repro.chaos.plan` — the one campaign pipeline every engine runs:
  plan (probe, enumerate, pin, draw → ordered units) → execute
  (in-process serial / pool, or the :mod:`repro.shard` queue) → merge
  (the only place results are built from outcomes);
* :mod:`repro.chaos.shrink` — delta-debugging of failing schedules to
  1-minimal reproducers (deterministic runs make this sound);
* :mod:`repro.chaos.report` / :mod:`repro.chaos.bench` — the ASCII
  survivability matrix and the ``BENCH_chaos.json`` artifact;
* :mod:`repro.chaos.cli` — the ``repro chaos`` subcommand.
"""

from repro.chaos.bench import (
    BENCH_SCHEMA_VERSION,
    bench_json,
    bench_record,
    write_bench,
)
from repro.chaos.campaign import (
    BaselineProbe,
    CampaignReport,
    ChaosError,
    KillPoint,
    KillResult,
    VERDICT_GAVE_UP,
    VERDICT_NOT_FIRED,
    VERDICT_SURVIVED,
    VERDICT_UNRECOVERABLE,
    VERDICT_WRONG_ANSWER,
    VERDICTS,
    classify,
    enumerate_kill_points,
    point_trigger,
    probe_baseline,
    run_kill_matrix,
    run_kill_point,
    run_with_triggers,
)
from repro.chaos.cli import chaos_main
from repro.chaos.plan import (
    CampaignPlan,
    merge_campaign,
    plan_campaign,
    run_campaign,
)
from repro.chaos.report import (
    render_campaign,
    render_failures,
    render_matrix,
    render_schedules,
    render_shrink,
)
from repro.chaos.scenarios import (
    ChaosScenario,
    FAST_POLICY,
    ScenarioInstance,
    selfckpt_scenario,
    skt_scenario,
)
from repro.chaos.schedules import (
    RandomCampaignConfig,
    ScheduleResult,
    generate_schedule,
    random_campaign,
    run_schedule,
)
from repro.chaos.shrink import ShrinkResult, shrink_failures, shrink_schedule

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BaselineProbe",
    "CampaignPlan",
    "CampaignReport",
    "ChaosError",
    "ChaosScenario",
    "FAST_POLICY",
    "KillPoint",
    "KillResult",
    "RandomCampaignConfig",
    "ScenarioInstance",
    "ScheduleResult",
    "ShrinkResult",
    "VERDICTS",
    "VERDICT_GAVE_UP",
    "VERDICT_NOT_FIRED",
    "VERDICT_SURVIVED",
    "VERDICT_UNRECOVERABLE",
    "VERDICT_WRONG_ANSWER",
    "bench_json",
    "bench_record",
    "chaos_main",
    "classify",
    "enumerate_kill_points",
    "generate_schedule",
    "merge_campaign",
    "plan_campaign",
    "point_trigger",
    "probe_baseline",
    "random_campaign",
    "render_campaign",
    "render_failures",
    "render_matrix",
    "render_schedules",
    "render_shrink",
    "run_campaign",
    "run_kill_matrix",
    "run_kill_point",
    "run_schedule",
    "run_with_triggers",
    "selfckpt_scenario",
    "shrink_failures",
    "shrink_schedule",
    "skt_scenario",
    "write_bench",
]
