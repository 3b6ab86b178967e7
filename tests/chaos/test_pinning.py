"""Pinned kill points and once-per-node trigger delivery.

A node with several ranks used to deliver injected failures in
host-scheduler order: which rank tripped a node-wide phase count, and how
far its siblings got before observing the power-off, varied run to run.
:func:`point_trigger` now pins each matrix point to the concrete
fault-free announcement it resolves to (``via_rank``/``via_occurrence``)
and carries the probe clock; the failure plan then dooms every sibling
rank at its own first announcement past the kill in ``(clock, rank)``
order, and refuses to fire a trigger whose primary target node already
died.  The payoff asserted here: repeating a ranks-per-node > 1 kill
matrix yields byte-identical telemetry, and so does replaying it under
any other legal schedule.
"""

from repro.chaos import (
    KillPoint,
    chaos_main,
    enumerate_kill_points,
    probe_baseline,
    run_kill_matrix,
    selfckpt_scenario,
    skt_scenario,
)
from repro.chaos.campaign import point_trigger
from repro.chaos.plan import plan_campaign
from repro.obs.spans import SpanTracer
from repro.obs.store import TraceStore, ingest_kill_matrix
from repro.sim.errors import JobAbortedError, NodeFailedError
from repro.sim.failures import FailurePlan, PhaseTrigger, TimeTrigger
from repro.sim.runtime import Job
from tests.chaos.helpers import schedule_divergence, stripped_digest

#: ``stripped_digest`` of ``repro chaos --smoke --obs summary``'s store
SMOKE_SUMMARY_DIGEST = (
    "07ea07a25138dd645c949463d77fbc12042a03e555b52a60c28cde884c1a2672"
)


def ppn2_scenario(**kw):
    kw.setdefault("n_nodes", 2)
    kw.setdefault("procs_per_node", 2)
    kw.setdefault("group_size", 2)
    kw.setdefault("iters", 2)
    kw.setdefault("ckpt_every", 1)
    kw.setdefault("method", "self")
    return selfckpt_scenario(**kw)


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


def merged_order_dooms(probe, node_id, fire_clock, via_rank):
    """Where each sibling of a pinned kill dies, resolved from the probe
    alone: its first announcement strictly after ``(fire_clock,
    via_rank)`` in the node's announcement streams merged into one
    ``(clock, rank)`` order, the reference the failure plan's runtime
    rule must agree with.  ``{rank: (phase, local occurrence)}``; a
    sibling with no later announcement is absent."""
    merged = sorted(
        (clock, rank, local, phase)
        for (nid, phase), anns in probe.announcements.items()
        if nid == node_id
        for clock, rank, local in anns
    )
    dooms = {}
    for clock, rank, local, phase in merged:
        if rank != via_rank and rank not in dooms and (clock, rank) > (
            fire_clock, via_rank
        ):
            dooms[rank] = (phase, local)
    return dooms


class TestPinnedSiblingDeaths:
    def test_pin_dooms_a_sibling_past_its_clock_and_rank(self):
        """The pin alone says where the node's other ranks die."""
        pin = PhaseTrigger(
            node_id=0, phase="ckpt.encode", occurrence=3,
            via_rank=1, via_occurrence=2, fire_clock=5.0,
        )
        plan = FailurePlan([pin])
        # before the pin in (clock, rank) order: the sibling lives on
        assert plan.announce(0, 0, "ckpt.flush", 5.0) == (None, None)
        assert plan.announce(0, 2, "ckpt.flush", 4.0) == (None, None)
        # past it: a same-clock higher rank, or any later clock, dies
        assert plan.announce(0, 2, "ckpt.flush", 5.0) == (None, pin)
        assert plan.announce(0, 0, "ckpt.flush", 5.5) == (None, pin)
        # the pinned rank dies at its pinned announcement and no other
        assert plan.announce(0, 1, "ckpt.encode", 5.0) == (None, None)
        assert plan.announce(0, 1, "ckpt.encode", 5.0) == (pin, pin)
        # a rank of another node is untouched; the exemption is per node
        assert plan.announce(1, 2, "ckpt.flush", 6.0) == (None, None)
        assert plan.rank_doomed(0) and not plan.rank_doomed(1)

    def test_siblings_die_where_the_merged_order_names(self):
        """Every pinned kill of a two-ranks-per-node matrix: each sibling
        of the announcing rank dies at the announcement the probe's merged
        order names, or inside a wait before reaching it, or — with none
        named — runs out its program; the announcing rank dies at its
        pinned announcement."""
        sc = ppn2_scenario()
        probe = probe_baseline(sc)
        points = enumerate_kill_points(probe, nodes=[0])
        assert len(points) > 10
        for point in points:
            trig = point_trigger(point, probe)
            dooms = merged_order_dooms(probe, 0, trig.fire_clock, trig.via_rank)
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
                err = result.rank_errors.get(rank)
                named = (
                    (trig.phase, trig.via_occurrence)
                    if rank == trig.via_rank
                    else dooms.get(rank)
                )
                if err is None:
                    assert named is None and rank in result.rank_results
                elif isinstance(err, NodeFailedError):
                    assert seen[-1] == named, (point, rank)
                else:
                    assert isinstance(err, JobAbortedError), (point, rank, err)
                    assert rank != trig.via_rank and named not in seen, (point, rank)


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
        assert plan.announce(0, 0, "ckpt.begin", 1.5)[0] is None
        assert len(plan.fired) == 1


class TestRepeatedMatrixTelemetry:
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

    def test_smoke_summary_store_reproduces_the_golden(self, tmp_path, capsys):
        """The ``--smoke`` campaign runs two ranks per node, so its doomed
        attempts' telemetry is what the pins hold fixed: with
        ``point_trigger`` unpinned, ``BENCH_chaos.json`` and the report
        stay byte-identical but this store does not.  The digest is id-
        stripped, so it is comparable across commits."""
        out = tmp_path / "out"
        assert chaos_main(
            ["--smoke", "--obs", "summary", "--no-progress", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        with TraceStore(str(out / "obs.sqlite")) as store:
            assert store.counts()["runs"] == 176
            assert stripped_digest(store) == SMOKE_SUMMARY_DIGEST


class TestScheduleIndependence:
    def test_ppn2_kill_matrix_matches_fifo_under_seeded_schedules(self):
        """Every pop of the ready queue is a legal MPI execution, so the
        whole outcome of each kill unit — verdict, restarts, makespan,
        fired lines, obs summary — must be FIFO's under any of them.
        Unpinning ``point_trigger`` or dropping the pinned node's clock
        exemption makes units diverge."""
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
        plan = plan_campaign([skt_scenario(procs_per_node=2)], obs="summary")
        assert plan.n_units == 40
        assert schedule_divergence(plan, seeds=range(2)) == {0: [], 1: []}
