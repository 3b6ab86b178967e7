"""Pinned kill points and once-per-node trigger delivery.

A node with several ranks used to deliver injected failures in
host-scheduler order: which rank tripped a node-wide phase count, and how
far its siblings got before observing the power-off, varied run to run.
:func:`point_trigger` now pins each matrix point to the concrete
fault-free announcement it resolves to (``via_rank``/``via_occurrence``)
and carries the probe clock; ``(fire_clock, via_rank)`` is then the
node's death key, and every sibling rank dies at its first runtime check
past it in ``(clock, rank)`` order.  The failure plan refuses to fire a
trigger whose primary target node already died.  The payoff asserted
here: repeating a ranks-per-node > 1 kill matrix yields byte-identical
telemetry, and so does replaying it under any other legal schedule.
"""

import copy
import dataclasses
import hashlib
import os
import tempfile
from pathlib import Path

import pytest

from repro.chaos import (
    KillPoint,
    chaos_main,
    enumerate_kill_points,
    probe_baseline,
    run_kill_matrix,
    skt_scenario,
)
from repro.chaos.campaign import point_trigger
from repro.chaos.plan import plan_campaign
from repro.obs.spans import SpanTracer
from repro.obs.store import TraceStore, ingest_kill_matrix
from repro.sim.cluster import Cluster
from repro.sim.errors import JobAbortedError, NodeFailedError
from repro.sim.failures import FailurePlan, PhaseTrigger, TimeTrigger
from repro.sim.node import NodeSpec
from repro.sim.runtime import Job
from tests.chaos.helpers import (
    count_swap_rendezvous,
    schedule_divergence,
    small_scenario,
    stripped_digest,
)

#: ``stripped_digest`` of ``repro chaos --smoke --obs summary``'s store
SMOKE_SUMMARY_DIGEST = (
    "911155c5acc8dbbf43e683215276e443f72f31e133618fc2fe85aafbb57cfe08"
)


def run_smoke(obs):
    """``repro chaos --smoke --obs obs``: its exit status, one sha256 of its
    ``BENCH_chaos.json`` and report (the benchmark's ``chaos_smoke``
    digest), and — unless ``obs`` is ``off`` — its store's run count and
    id-stripped digest."""
    with tempfile.TemporaryDirectory() as out:
        status = chaos_main(["--smoke", "--obs", obs, "--no-progress", "--out", out])
        artifacts = b"".join(Path(out, n).read_bytes() for n in ("BENCH_chaos.json", "report.txt"))
        record = {"exit_status": status, "artifacts_sha256": hashlib.sha256(artifacts).hexdigest()}
        if obs != "off":
            with TraceStore(os.path.join(out, "obs.sqlite")) as store:
                record.update(runs=store.counts()["runs"], store_digest=stripped_digest(store))
    return record


def ppn2_scenario(**kw):
    return small_scenario(**{"procs_per_node": 2, "iters": 2, "ckpt_every": 1, **kw})


class TestProbeDeterminism:
    def test_same_seed_probes_are_identical(self):
        """The probe reads the tracer's phase stream, which is kept per
        rank in program order — so with two ranks per node the whole
        :class:`BaselineProbe`, insertion order included, repeats."""
        a = probe_baseline(ppn2_scenario())
        b = probe_baseline(ppn2_scenario())
        assert list(a.phase_counts.items()) == list(b.phase_counts.items())
        assert list(a.announcements.items()) == list(b.announcements.items())
        assert a == b


class TestPointTriggerPinning:
    def test_unpinned_without_probe(self):
        t = point_trigger(KillPoint(phase="ckpt.begin", occurrence=1, node_id=0))
        assert t.via_rank is None
        assert t.via_occurrence is None
        assert t.fire_clock is None

    def test_pin_resolves_probe_announcement(self):
        probe = probe_baseline(ppn2_scenario())
        point = KillPoint(phase="ckpt.begin", occurrence=2, node_id=0)
        t = point_trigger(point, probe)
        # pinned to the 2nd announcement of the phase on node 0, in the
        # probe's virtual-clock order
        clock, rank, local = probe.announcements[(0, "ckpt.begin")][1]
        assert (t.via_rank, t.via_occurrence, t.fire_clock) == (rank, local, clock)
        # the advertised matrix coordinates are unchanged: provenance
        # (and thus BENCH artifacts) reports the node-wide occurrence
        assert (t.node_id, t.phase, t.occurrence) == (0, "ckpt.begin", 2)
        assert t.rank is None

    def test_occurrence_past_probe_falls_back_unpinned(self):
        probe = probe_baseline(ppn2_scenario())
        point = KillPoint(phase="ckpt.begin", occurrence=999, node_id=0)
        t = point_trigger(point, probe)
        assert t.via_rank is None


class TestPinnedSiblingDeaths:
    def test_pin_dooms_a_sibling_past_its_clock_and_rank(self):
        """The pin alone says where the node's other ranks die: at their
        first check past ``(fire_clock, via_rank)``.  Ranks 2 (same clock,
        higher rank) and 3 (later clock) pass it in an ``elapse`` and die
        at that check, before the wait they would enter next with no
        announcement in between; rank 0 reaches the same clock but is
        lower than ``via_rank``, so it lives on into its wait and learns
        of the death there."""
        pin = PhaseTrigger(
            node_id=0, phase="p", occurrence=1,
            via_rank=1, via_occurrence=1, fire_clock=1.0,
        )
        plan = FailurePlan([pin])

        def main(ctx):
            ctx.elapse(1.5 if ctx.rank == 3 else 1.0)
            if ctx.rank == 1:
                ctx.phase("p")
            ctx.world.recv(1)

        result = Job(
            Cluster(1, NodeSpec(cores=4)), main, 4, failure_plan=plan, procs_per_node=4
        ).run()
        assert result.failed_nodes == [0]
        assert [f.rank for f in plan.fired] == [1]
        assert {r: type(e) for r, e in result.rank_errors.items()} == {
            0: JobAbortedError, 1: NodeFailedError, 2: NodeFailedError, 3: NodeFailedError
        }
        assert result.rank_clocks == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.5}

    def test_a_second_pin_on_one_node_is_refused(self):
        """A node has one death key, so a second pin on it is an error, not
        a silent replacement of the first."""
        pins = [
            PhaseTrigger(
                node_id=0, phase=phase, via_rank=r, via_occurrence=1, fire_clock=c
            )
            for phase, r, c in (("a", 0, 1.0), ("b", 1, 2.0))
        ]
        with pytest.raises(ValueError, match="node 0"):
            FailurePlan(pins)
        plan = FailurePlan([pins[0]])
        plan.add(dataclasses.replace(pins[1], node_id=1))
        assert plan.pin(0) is pins[0] and plan.pin(2) is None
        armed = copy.deepcopy((plan._phase_triggers, plan._watched, plan._pins))
        with pytest.raises(ValueError, match="node 0"):
            plan.add(pins[1])
        # the refused pin is not armed: its phase fires nothing
        assert (plan._phase_triggers, plan._watched, plan._pins) == armed
        assert plan.announce(0, 1, "b", 2.0) is None and not plan.fired

    def test_siblings_die_where_the_merged_order_names(self):
        """Every pinned kill of a two-ranks-per-node matrix: no sibling of
        the announcing rank announces past the death key ``(fire_clock,
        via_rank)``, each sibling that dies of the node failure has a
        final clock past it, and the announcing rank dies at its pinned
        announcement."""
        sc = ppn2_scenario()
        probe = probe_baseline(sc)
        points = enumerate_kill_points(probe, nodes=[0])
        assert len(points) > 10
        for point in points:
            trig = point_trigger(point, probe)
            key = (trig.fire_clock, trig.via_rank)
            inst = sc.make()
            tracer = SpanTracer()
            result = Job(
                inst.cluster, inst.main, inst.n_ranks, args=inst.args,
                procs_per_node=inst.procs_per_node,
                failure_plan=FailurePlan([trig]), tracer=tracer,
            ).run()
            for rank, nid in enumerate(probe.ranklist):
                if nid != 0:
                    continue
                seen, counts = [], {}
                for e in tracer.phases():
                    if e.rank == rank:
                        counts[e.name] = counts.get(e.name, 0) + 1
                        seen.append((e.name, counts[e.name]))
                        if rank != trig.via_rank:
                            assert (e.clock, rank) <= key, (point, rank, e)
                err = result.rank_errors.get(rank)
                if rank == trig.via_rank:
                    assert isinstance(err, NodeFailedError), (point, rank, err)
                    assert seen[-1] == (trig.phase, trig.via_occurrence), (point, rank)
                elif err is None:
                    assert rank in result.rank_results
                elif isinstance(err, NodeFailedError):
                    assert (result.rank_clocks[rank], rank) > key, (point, rank)
                else:
                    assert isinstance(err, JobAbortedError), (point, rank, err)


class TestKilledNodeSuppression:
    def test_second_time_trigger_for_dead_node_is_suppressed(self):
        plan = FailurePlan(
            [TimeTrigger(node_id=1, at_time=0.5), TimeTrigger(node_id=1, at_time=0.7)]
        )
        assert plan.check_time(1, 1.0) is not None
        # both triggers are past due, but node 1 already died — a second
        # firing could only come from a doomed rank's pre-death ghost
        assert plan.check_time(1, 2.0) is None
        assert len(plan.fired) == 1

    def test_dead_extra_does_not_suppress_live_primary(self):
        plan = FailurePlan(
            [
                TimeTrigger(node_id=1, at_time=0.5),
                TimeTrigger(node_id=2, at_time=0.8, extra_nodes=(1,)),
            ]
        )
        assert plan.check_time(1, 1.0) is not None
        # node 2 is alive; its trigger fires even though the extra node
        # it drags down is already dead (killing it again is a no-op)
        fired = plan.check_time(2, 1.0)
        assert fired is not None and fired.node_id == 2

    def test_phase_trigger_for_dead_node_is_suppressed(self):
        plan = FailurePlan(
            [
                TimeTrigger(node_id=0, at_time=0.5),
                PhaseTrigger(node_id=0, phase="ckpt.begin", occurrence=1),
            ]
        )
        assert plan.check_time(0, 1.0) is not None
        assert plan.announce(0, 0, "ckpt.begin", 1.5) is None
        assert len(plan.fired) == 1


class TestRepeatedMatrixTelemetry:
    """Several ranks per node, repeated: the same telemetry every time.
    The smoke golden reads the session's one ``--smoke --obs summary``
    campaign (``filled_run`` in ``tests/conftest.py``, made under the
    0xA5 poison fill of the unzeroed segments); the poison net's 0xA5
    smoke case reads the same run."""

    def test_ppn2_matrix_is_byte_stable_across_runs(self):
        # two independent sweeps of the same several-ranks-per-node
        # matrix: verdicts AND per-attempt telemetry must agree exactly
        sc = ppn2_scenario()
        probe = probe_baseline(sc)
        reps = [
            run_kill_matrix(
                sc, probe=probe, phases=("ckpt.begin", "ckpt.encode"), obs="summary"
            )
            for _ in range(2)
        ]
        a, b = reps
        assert [r.verdict for r in a.results] == [r.verdict for r in b.results]
        assert [r.makespan_s for r in a.results] == [r.makespan_s for r in b.results]
        assert [r.obs for r in a.results] == [r.obs for r in b.results]
        digests = []
        for rep in reps:
            with TraceStore() as store:
                ingest_kill_matrix(
                    store, "cid", sc, rep, seed=0, obs_mode="summary", probe=probe
                )
                digests.append(store.digest())
        assert digests[0] == digests[1]

    def test_smoke_summary_store_reproduces_the_golden(self, filled_run):
        """The ``--smoke`` campaign runs two ranks per node, so its doomed
        attempts' telemetry is what the pins hold fixed: with
        ``point_trigger`` unpinned, ``BENCH_chaos.json`` and the report
        stay byte-identical but this store does not.  The digest is id-
        stripped, so it is comparable across commits."""
        run = filled_run(run_smoke, "summary")
        assert run["exit_status"] == 0
        assert run["runs"] == 176
        assert run["store_digest"] == SMOKE_SUMMARY_DIGEST


class TestScheduleIndependence:
    def test_ppn2_kill_matrix_matches_fifo_under_seeded_schedules(self):
        """Every pop of the ready queue is a legal MPI execution, so the
        whole outcome of each kill unit — verdict, restarts, makespan,
        fired lines, obs summary — must be FIFO's under any of them.
        Unpinning ``point_trigger`` or letting a power-off replace the
        pinned node's death key makes units diverge."""
        plan = plan_campaign(
            [ppn2_scenario(method=m) for m in ("self", "double")], obs="summary"
        )
        assert plan.n_units == 88
        assert schedule_divergence(plan, seeds=range(4)) == {
            seed: [] for seed in range(4)
        }

    def test_skt_hpl_kill_matrix_matches_fifo_under_seeded_schedules(self):
        """SKT-HPL runs each panel's row swaps as one rendezvous of the
        process rows they touch, and its two ranks per node share a node
        across process columns: every kill unit must still keep FIFO's
        whole outcome when the ready queue is popped at random."""
        plan = plan_campaign(
            [skt_scenario(n=64, procs_per_node=2)], obs="summary", max_occurrences=2
        )
        assert plan.n_units == 28
        with count_swap_rendezvous() as runs:
            assert schedule_divergence(plan, seeds=range(2)) == {0: [], 1: []}
        assert runs[0] > 0
