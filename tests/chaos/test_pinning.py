"""Pinned kill points and once-per-node trigger delivery.

A node with several ranks used to deliver injected failures in
host-scheduler order: which rank tripped a node-wide phase count, and how
far its siblings got before observing the power-off, varied run to run.
:func:`point_trigger` now pins each matrix point to the concrete
fault-free announcement it resolves to (``via_rank``/``via_occurrence``),
carries the probe clock, and dooms every sibling rank at its own first
announcement after the kill; :class:`FailurePlan` additionally refuses to
fire a trigger whose primary target node already died.  The payoff
asserted here: repeating a ranks-per-node > 1 kill matrix yields
byte-identical telemetry.
"""

from repro.chaos import (
    KillPoint,
    chaos_main,
    probe_baseline,
    run_kill_matrix,
    selfckpt_scenario,
)
from repro.chaos.campaign import point_trigger
from repro.obs.store import TraceStore, ingest_kill_matrix
from repro.sim.failures import FailurePlan, PhaseTrigger, TimeTrigger
from tests.chaos.helpers import stripped_digest

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
        assert t.doom_points == ()

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

    def test_doom_points_cover_every_sibling_rank(self):
        probe = probe_baseline(ppn2_scenario())
        point = KillPoint(phase="ckpt.begin", occurrence=1, node_id=0)
        t = point_trigger(point, probe)
        node_ranks = {r for r, nid in enumerate(probe.ranklist) if nid == 0}
        doomed = {rank for rank, _, _ in t.doom_points}
        # every rank of the node except the announcing one has a doom
        # point (possibly the phase="" wait-only sentinel)
        assert doomed == node_ranks - {t.via_rank}
        for rank, phase, local in t.doom_points:
            if phase:
                assert local >= 1
            else:
                assert local == 0  # wait-only sentinel

    def test_occurrence_past_probe_falls_back_unpinned(self):
        probe = probe_baseline(ppn2_scenario())
        point = KillPoint(phase="ckpt.begin", occurrence=999, node_id=0)
        t = point_trigger(point, probe)
        assert t.via_rank is None and t.doom_points == ()


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
