"""Master-node job daemon: the work-fail-detect-restart cycle (Fig. 10).

The paper's daemon "runs on a master node that is assumed not to fail",
watches the mpirun return status, probes the ranklist for dead nodes,
swaps in spares, and resubmits with every healthy rank pinned back to its
node (so it re-attaches its SHM checkpoints) and replacement ranks on fresh
nodes (§5.2).

This module reproduces that loop over the simulated cluster.  The phase
timings of Fig. 10 — detect, replace, restart — are policy parameters
(defaults are Tianhe-2's measured values); work/recovery time comes from
the ranks' virtual clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.sim.cluster import Cluster
from repro.sim.errors import SimError, UnrecoverableError
from repro.sim.failures import FailurePlan, FiredTrigger
from repro.sim.runtime import Job, JobResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.spans import SpanTracer
    from repro.sim.observer import SimObserver


@dataclass(frozen=True)
class RestartPolicy:
    """Fixed costs of one fail-detect-restart cycle (Fig. 10 defaults,
    measured on Tianhe-2 with 24,576 processes)."""

    detect_s: float = 63.0
    replace_s: float = 10.0
    restart_s: float = 9.0
    max_restarts: int = 8

    def __post_init__(self) -> None:
        # policies round-trip through pickleable scenario specs and the
        # replay memo cache (repro.par), so malformed field values must
        # fail here rather than deep inside a worker's daemon loop
        for name in ("detect_s", "replace_s", "restart_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")

    @classmethod
    def for_machine(cls, machine_name: str, **overrides) -> "RestartPolicy":
        """Per-machine presets from §6.3: detection "is about 30 seconds on
        average [on Tianhe-1A], while the detection time on Tianhe-2 is
        about 63 seconds"."""
        detect = {"Tianhe-1A": 30.0, "Tianhe-2": 63.0}.get(machine_name)
        if detect is None:
            raise ValueError(f"no measured policy for machine {machine_name!r}")
        kwargs = dict(detect_s=detect, replace_s=10.0, restart_s=9.0)
        kwargs.update(overrides)
        return cls(**kwargs)


@dataclass
class CycleRecord:
    """One work-fail-detect-restart cycle's accounting."""

    work_s: float
    failed_nodes: List[int]
    replacements: Dict[int, int]
    detect_s: float
    replace_s: float
    restart_s: float
    #: provenance of the triggers that fired during this attempt (which
    #: announcement/clock advance killed which node) — campaign reports
    #: attribute injected failures through these
    fired: List[FiredTrigger] = field(default_factory=list)


@dataclass
class DaemonReport:
    """Outcome of running an application to completion under the daemon."""

    completed: bool
    result: Optional[JobResult]
    n_restarts: int
    cycles: List[CycleRecord] = field(default_factory=list)
    total_virtual_s: float = 0.0
    gave_up_reason: Optional[str] = None
    #: per-attempt trigger provenance, one entry per incarnation (the
    #: final — possibly successful — attempt included)
    attempt_fired: List[List[FiredTrigger]] = field(default_factory=list)

    @property
    def triggers_fired(self) -> List[FiredTrigger]:
        """All fired-trigger provenance records across every attempt."""
        return [rec for attempt in self.attempt_fired for rec in attempt]


class JobDaemon:
    """Runs a rank main under restart-on-failure supervision."""

    def __init__(
        self,
        cluster: Cluster,
        main: Callable[..., Any],
        n_ranks: int,
        *,
        args: Sequence[Any] = (),
        procs_per_node: Optional[int] = None,
        failure_plan: Optional[FailurePlan] = None,
        policy: RestartPolicy = RestartPolicy(),
        observer: Optional["SimObserver"] = None,
        tracer: Optional["SpanTracer"] = None,
        name: str = "daemon",
    ):
        self.cluster = cluster
        self.main = main
        self.n_ranks = n_ranks
        self.args = tuple(args)
        self.policy = policy
        self.name = name
        #: the plan is shared across incarnations: triggers that have not
        #: fired yet stay armed after a restart
        self.failure_plan = failure_plan or FailurePlan()
        #: optional observer shared across incarnations — installed on every
        #: job so metrics accumulate over the whole supervised run
        self.observer = observer
        #: optional span tracer shared across incarnations; the daemon bumps
        #: its incarnation index per attempt so restarted spans land on
        #: separate trace tracks
        self.tracer = tracer
        self.ranklist: List[int] = cluster.default_ranklist(
            n_ranks, procs_per_node=procs_per_node
        )

    def run(self) -> DaemonReport:
        """Run until the application completes, recovery becomes impossible,
        or the restart budget is exhausted.

        The report is a pure function of the constructor arguments: virtual
        clocks and byte-exact failure delivery leave no scheduler or
        wall-clock residue.  The parallel replay engine (:mod:`repro.par`)
        leans on exactly this — a supervised run can be replayed in any
        worker process, or memoized by content fingerprint, and yield the
        same verdict.
        """
        report = DaemonReport(completed=False, result=None, n_restarts=0)
        for attempt in range(self.policy.max_restarts + 1):
            if self.tracer is not None:
                self.tracer.new_incarnation(attempt)
            job = Job(
                self.cluster,
                self.main,
                self.n_ranks,
                args=self.args,
                ranklist=self.ranklist,
                failure_plan=self.failure_plan,
                observer=self.observer,
                tracer=self.tracer,
                name=f"{self.name}#{attempt}",
            )
            fired_before = len(self.failure_plan.fired_records)
            result = job.run()
            # record order: rank threads appending concurrently at the same
            # virtual time would otherwise leak scheduler order into reports
            attempt_fired = sorted(
                self.failure_plan.fired_records[fired_before:],
                key=lambda r: (
                    r.clock,
                    r.node_id,
                    r.phase or "",
                    -1 if r.rank is None else r.rank,
                ),
            )
            report.attempt_fired.append(attempt_fired)
            report.total_virtual_s += result.makespan
            report.result = result

            if result.completed:
                report.completed = True
                return report

            if any(
                isinstance(e, UnrecoverableError) for e in result.rank_errors.values()
            ):
                report.gave_up_reason = "application state unrecoverable"
                return report

            if not result.failed_nodes:
                report.gave_up_reason = (
                    "job failed without a node failure (application error)"
                )
                return report

            # fail-detect-replace-restart bookkeeping (Fig. 10)
            try:
                replacements = self.cluster.replace_dead()
            except SimError:
                report.gave_up_reason = "spare pool exhausted"
                return report
            self.ranklist = [replacements.get(n, n) for n in self.ranklist]
            cycle = CycleRecord(
                work_s=result.makespan,
                failed_nodes=list(result.failed_nodes),
                replacements=replacements,
                detect_s=self.policy.detect_s,
                replace_s=self.policy.replace_s,
                restart_s=self.policy.restart_s,
                fired=attempt_fired,
            )
            report.cycles.append(cycle)
            report.total_virtual_s += (
                cycle.detect_s + cycle.replace_s + cycle.restart_s
            )
            report.n_restarts += 1

        report.gave_up_reason = f"exceeded {self.policy.max_restarts} restarts"
        return report
