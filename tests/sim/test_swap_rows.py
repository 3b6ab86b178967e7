"""``Communicator.swap_rows`` against the per-message loop it replaced.

The loop is kept here as the reference: one ``sendrecv`` of the row tuple
per remote pivot, in pivot order, and rows swapped in place for a local
one.  Each case runs the same job twice, once through the loop and once
through the primitive, and everything a job leaves behind must be equal:
every rank's arrays, clock, return value and error (type, message and
the clock in it), the metrics registry and each rank's own observer
stream.

World rank 0 owns no rows.  It runs first under FIFO and sets the
failure up before any row owner moves: it crosses a time trigger of node
0 (with two ranks per node, process row 0 dies where its clock crosses
the trigger's instant, inside the chain or before entering it), or it
issues a hard abort.  In ``pin`` mode it does nothing: node 0 carries a
pin that never fires, and process row 0 powers the node off itself at
its first check past the pin's death key.  Process row ``p`` is world
rank ``p + 1``.
"""

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hpl.grid import BlockCyclicMap, swap_plan
from repro.obs.metrics import MetricsObserver
from repro.sim import Cluster, Job, Topology
from repro.sim.errors import JobAbortedError, NodeFailedError, SimError
from repro.sim.failures import FailurePlan, PhaseTrigger, TimeTrigger
from repro.sim.observer import SimObserver, install_observer

TAG = 1000


def reference_swap_rows(comm, arrays, steps, tag):
    """The per-message loop: one ``sendrecv`` per remote step."""
    for j, row, partner, other in steps:
        if partner is None:
            for a in arrays:
                kept = a[row].copy()
                a[row] = a[other]
                a[other] = kept
        else:
            got = comm.sendrecv(
                tuple(a[row] for a in arrays),
                dest=partner, source=partner, sendtag=tag + j, recvtag=tag + j,
            )
            for a, value in zip(arrays, got):
                a[row] = value


class RankStreams(SimObserver):
    """Each rank's own observer stream, keyed by the event's rank."""

    def __init__(self):
        self.streams = defaultdict(list)

    def on_send(self, src, dst, tag, nbytes, clock):
        self.streams[src].append(("send", dst, tag, nbytes, clock))

    def on_recv(self, dst, src, tag, nbytes, clock, waited_s=0.0):
        self.streams[dst].append(("recv", src, tag, nbytes, clock, waited_s))

    def on_collective_enter(self, comm, size, rank, clock):
        self.streams[rank].append(("enter", comm, size, clock))

    def on_collective_exit(self, comm, size, rank, clock):
        self.streams[rank].append(("exit", comm, size, clock))


class Case:
    """One panel's interchanges over ``P`` process rows, with the failure
    set-up and the entry-clock skew of each row owner."""

    def __init__(self, P, n, nb, k, piv, ncols, skew, ppn, racks, mode, t_fail=0.0, seed=0):
        self.P, self.n, self.nb, self.k0 = P, n, nb, k * nb
        self.piv = np.asarray(piv, dtype=np.int64)
        self.skew, self.ppn, self.racks = skew, ppn, racks
        self.mode, self.t_fail = mode, t_fail
        self.rowmap = BlockCyclicMap(n, nb, P)
        rng = np.random.default_rng(seed)
        self.arrays = {
            p + 1: (
                rng.standard_normal((self.rowmap.local_count(p), ncols)),
                rng.standard_normal(self.rowmap.local_count(p)),
            )
            for p in range(P)
        }

    def plan(self, prow):
        """Process row ``prow``'s steps and the participants, in world ranks."""
        steps, participants = swap_plan(self.rowmap, self.piv, self.k0, prow)
        return (
            [
                (j, row, None if partner is None else partner + 1, other)
                for j, row, partner, other in steps
            ],
            [p + 1 for p in participants],
        )

    def run(self, primitive):
        """Run the case; returns what the job leaves behind."""
        held = {}

        def main(ctx):
            if ctx.rank == 0:
                if self.mode == "abort":
                    ctx.job.abort()
                elif self.mode == "fail":
                    ctx.elapse(self.t_fail)
                return None
            arrays = held[ctx.rank] = [a.copy() for a in self.arrays[ctx.rank]]
            if self.mode == "abort":
                ctx.clock += self.skew[ctx.rank]  # a check would raise before the swap
            else:
                ctx.elapse(self.skew[ctx.rank])
            steps, participants = self.plan(ctx.rank - 1)
            if primitive:
                ctx.world.swap_rows(arrays, steps, participants, tag=TAG)
            else:
                reference_swap_rows(ctx.world, arrays, steps, TAG)
            return ctx.clock

        n_ranks = self.P + 1
        plan = {
            "fail": FailurePlan([TimeTrigger(0, self.t_fail)]),
            "pin": FailurePlan([PhaseTrigger(
                0, "never", via_rank=0, via_occurrence=1, fire_clock=self.t_fail
            )]),
        }.get(self.mode)
        job = Job(
            Cluster(math.ceil(n_ranks / self.ppn)), main, n_ranks,
            procs_per_node=self.ppn, failure_plan=plan,
            topology=Topology(nodes_per_rack=1, inter_rack_bw_factor=0.5) if self.racks else None,
        )
        metrics, streams = MetricsObserver(), RankStreams()
        install_observer(job, metrics)
        install_observer(job, streams)
        res = job.run()
        # both observers share one MultiObserver: each sees every delivery's bytes
        assert metrics.registry.total("mpi.bytes_recv") == sum(
            e[3] for s in streams.streams.values() for e in s if e[0] == "recv"
        )
        return {
            "clocks": res.rank_clocks,
            "results": res.rank_results,
            "errors": {r: (type(e), str(e)) for r, e in res.rank_errors.items()},
            "arrays": {r: [a.tobytes() for a in arrays] for r, arrays in held.items()},
            "metrics": metrics.registry.samples(),
            "streams": dict(streams.streams),
        }

    def check(self):
        """The primitive leaves exactly what the loop leaves; returns it."""
        got = self.run(primitive=True)
        assert got == self.run(primitive=False)
        return got


@st.composite
def cases(draw):
    P = draw(st.integers(1, 4))
    nb = draw(st.integers(1, 4))
    n = draw(st.integers(nb, 3 * nb * P + 3))
    k = draw(st.integers(0, -(-n // nb) - 1))
    k0 = k * nb
    # partial pivoting swaps row k0 + j with a row at or below it
    piv = [draw(st.integers(k0 + j, n - 1)) for j in range(min(nb, n - k0))]
    skew = [draw(st.floats(0.0, 2e-5)) for _ in range(P + 1)]
    mode = draw(st.sampled_from(["none", "fail", "pin", "abort"]))
    # two messages a step at most ~4 us each: the draw spans entry to past the end
    t_fail = draw(st.floats(0.0, 1.0)) * (2e-5 + 8e-6 * len(piv))
    return Case(
        P, n, nb, k, piv,
        ncols=draw(st.sampled_from([0, 1, 5])),
        skew=skew,
        ppn=draw(st.sampled_from([1, 2])),
        racks=draw(st.booleans()),
        mode=mode,
        t_fail=t_fail,
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=150, deadline=None)
@given(cases())
def test_swap_rows_is_the_per_message_loop(case):
    case.check()


def _two_row_case(mode, t_fail=0.0):
    """P = 2, nb = 4: every pivot of panel 0 is an exchange between process
    rows 0 and 1 (world ranks 1 and 2, one node each with ``ppn`` 2: world
    rank 0 shares node 0 with process row 0)."""
    return Case(
        2, 16, 4, 0, [4, 5, 6, 7], ncols=3, skew=[0.0, 3e-6, 1e-6],
        ppn=2, racks=False, mode=mode, t_fail=t_fail,
    )


class TestFailureDelivery:
    def test_a_sibling_dies_inside_the_chain(self):
        clean = _two_row_case("none").check()
        entry, end = 3e-6, clean["clocks"][1]
        got = _two_row_case("fail", t_fail=(entry + end) / 2).check()
        kind, _ = got["errors"][1]
        assert kind is NodeFailedError
        assert entry < got["clocks"][1] < end  # died mid-chain
        assert got["errors"][2][0] is JobAbortedError
        assert got["arrays"][1] != [a.tobytes() for a in _two_row_case("none").arrays[1]]

    def test_a_pinned_sibling_powers_its_node_off_inside_the_chain(self):
        clean = _two_row_case("none").check()
        entry, end = 3e-6, clean["clocks"][1]
        got = _two_row_case("pin", t_fail=(entry + end) / 2).check()
        assert got["errors"][1][0] is NodeFailedError
        assert entry < got["clocks"][1] < end
        assert got["errors"][2][0] is JobAbortedError

    def test_a_participant_terminated_before_entering(self):
        got = _two_row_case("fail", t_fail=1e-6).check()
        assert got["errors"][1][0] is NodeFailedError
        assert got["clocks"][1] == 3e-6  # died in its elapse, before the swap
        assert got["errors"][2][0] is JobAbortedError

    def test_hard_abort(self):
        got = _two_row_case("abort").check()
        assert {r: kind for r, (kind, _) in got["errors"].items()} == {
            1: JobAbortedError, 2: JobAbortedError
        }
        assert got["clocks"] == {0: 0.0, 1: 3e-6, 2: 1e-6}


def _deadlock_report(main):
    errors = [e for e in Job(Cluster(2), main, 2).run().rank_errors.values() if type(e) is SimError]
    assert len(errors) == 1, errors
    return str(errors[0])


class TestRendezvous:
    def test_a_rank_without_an_exchange_neither_waits_nor_moves_its_clock(self):
        def main(ctx):
            a = np.arange(4.0)
            ctx.world.swap_rows([a], [(0, 0, None, 3), (1, 1, None, 3)], [], tag=0)
            return ctx.clock, a.tolist()

        res = Job(Cluster(1), main, 1).run()
        assert res.rank_results[0] == (0.0, [3.0, 0.0, 2.0, 1.0])

    def test_participants_must_match_the_steps(self):
        def main(ctx):
            a = np.zeros(2)
            with pytest.raises(ValueError, match="not a participant"):
                ctx.world.swap_rows([a], [(0, 0, 1 - ctx.rank, 0)], [], tag=0)
            with pytest.raises(ValueError, match="no exchange"):
                ctx.world.swap_rows([a], [], [0, 1], tag=0)
            return True

        assert Job(Cluster(2), main, 2).run().completed

    def test_a_participant_that_never_comes_is_a_deadlock_naming_the_receive(self):
        def main(ctx):
            if ctx.rank == 0:
                ctx.world.swap_rows([np.zeros(2)], [(0, 0, 1, 0)], [0, 1], tag=7)
            return True

        assert "rank 0 in recv src=1 tag=7 on job.world" in _deadlock_report(main)

    def test_a_parked_participant_is_named_in_a_deadlock(self):
        def main(ctx):
            if ctx.rank == 1:
                ctx.world.recv(0)  # never sent: rank 0 waits in its swap
            else:
                ctx.world.swap_rows([np.zeros(2)], [(0, 0, 1, 0)], [0, 1], tag=7)
            return True

        report = _deadlock_report(main)
        assert "rank 0 in swap_rows on job.world, waiting for ranks [1]" in report
        assert "rank 1 in recv src=0 tag=0 on job.world" in report
