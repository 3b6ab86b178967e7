"""The baton scheduler: one rank runs at a time, in a schedule that is a pure
function of the program, and collectives complete in one hand-off."""

import gc
import multiprocessing
import os
import sys
import threading
import time
import weakref

import pytest

from repro.chaos.campaign import run_with_triggers
from repro.chaos.scenarios import selfckpt_scenario
from repro.hpl import JobDaemon
from repro.obs.metrics import MetricsObserver
from repro.obs.spans import SpanTracer
from repro.sim import Cluster, FailurePlan, Job, PhaseTrigger
from repro.sim.errors import JobAbortedError, NodeFailedError, SimError, UnrecoverableError
from repro.sim.observer import SimObserver
from repro.sim.runtime import RankExit


class EventLog(SimObserver):
    """Every observer event of a run, in the one order it happened."""

    def __init__(self):
        self.events = []

    def on_send(self, src, dst, tag, nbytes, clock):
        self.events.append(("send", src, dst, tag, nbytes, clock))

    def on_recv(self, dst, src, tag, nbytes, clock, waited_s=0.0):
        self.events.append(("recv", dst, src, tag, clock, waited_s))

    def on_collective_enter(self, comm, size, rank, clock):
        self.events.append(("enter", comm, size, rank, clock))

    def on_collective_exit(self, comm, size, rank, clock):
        self.events.append(("exit", comm, size, rank, clock))

    def on_shm(self, node_id, name, kind, nbytes=0):
        self.events.append(("shm", node_id, name, kind, nbytes))


class CountingJob(Job):
    """Counts the ranks between park points: up when a rank starts or comes
    back from a park, down when it parks or returns."""

    def __init__(self, cluster, main, n_ranks, **kw):
        self.count_lock = threading.Lock()
        self.running = 0
        self.peak = 0
        self.stretches = 0

        def counted(ctx, *args):
            self.step(+1)
            try:
                return main(ctx, *args)
            finally:
                self.step(-1)

        super().__init__(cluster, counted, n_ranks, **kw)

    def step(self, delta):
        with self.count_lock:
            self.running += delta
            self.peak = max(self.peak, self.running)
            self.stretches += delta > 0

    def _park(self, rank, comm, key):
        self.step(-1)
        try:
            super()._park(rank, comm, key)
        finally:
            self.step(+1)


def test_at_most_one_rank_runs_between_park_points():
    seen = []

    def main(ctx):
        comm = ctx.world
        right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        for i in range(20):
            seen.append(ctx.job.running)  # a stretch of rank code
            comm.barrier()
            got = comm.sendrecv(i, dest=right, source=left, sendtag=i, recvtag=i)
            seen.append(ctx.job.running)
            assert got == i
            sub = comm.split(comm.rank % 2)
            assert sub.allgather(comm.rank) == list(range(comm.rank % 2, 8, 2))
        return True

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # invite pre-emption: there must be none to give
    try:
        job = CountingJob(Cluster(4), main, 8, procs_per_node=2)
        result = job.run()
    finally:
        sys.setswitchinterval(old)
    assert result.completed, result.rank_errors
    assert job.peak == 1 and job.running == 0
    assert set(seen) == {1}
    assert job.stretches > 8 * 20  # the ranks really did park and resume


def _two_kill_run():
    scenario = selfckpt_scenario(
        n_nodes=8, procs_per_node=2, group_size=4, iters=6, ckpt_every=2
    )
    log = EventLog()
    triggers = [
        PhaseTrigger(node_id=1, phase="ckpt.encode", occurrence=1),
        PhaseTrigger(node_id=5, phase="ckpt.flush", occurrence=3),
    ]
    inst, plan, report = run_with_triggers(scenario, triggers, observer=log)
    assert len(plan.fired) == 2 and report.completed and inst.check(report.result)
    return log.events


def test_total_event_order_repeats_across_runs():
    """Not just each rank's own stream: the interleaving of all 16 ranks'
    events, through two node losses and two restarts, is the same list."""
    first, second = _two_kill_run(), _two_kill_run()
    assert len(first) > 600
    assert first == second


def test_collective_instances_do_not_overlap_and_blocks_are_matched():
    def main(ctx):
        row = ctx.world.split(ctx.rank // 4)
        for i in range(6):
            ctx.elapse(1e-3 * ((ctx.rank + i) % 5))  # vary who arrives last
            ctx.world.barrier()
            row.allgather(ctx.rank)
            ctx.world.allreduce_obj(ctx.rank, max)
        return True

    log = EventLog()
    result = Job(Cluster(8), main, 8, procs_per_node=1, observer=log).run()
    assert result.completed, result.rank_errors

    inside = {}  # comm -> ranks inside the current instance
    exits = {}  # comm -> exits of the current instance seen so far
    for ev in log.events:
        if ev[0] == "enter":
            _, comm, size, rank, _ = ev
            # no exit of this instance yet: every exit of instance k comes
            # before any enter of k+1
            assert exits.get(comm, 0) == 0, (comm, rank)
            assert rank not in inside.setdefault(comm, set())
            inside[comm].add(rank)
        elif ev[0] == "exit":
            _, comm, size, rank, _ = ev
            assert len(inside[comm]) == size and rank in inside[comm]
            exits[comm] = exits.get(comm, 0) + 1
            if exits[comm] == size:
                inside[comm], exits[comm] = set(), 0
    assert all(n == 0 for n in exits.values())


def _mismatch(ctx):
    comm = ctx.world
    comm.barrier()
    if comm.rank == 0:
        comm.barrier()
    else:
        comm.recv(0, tag=7)  # BUG (on purpose): rank 0 is in a barrier
    return True


def test_true_deadlock_is_reported_at_once_and_exactly():
    t0 = time.monotonic()
    result = Job(Cluster(2), _mismatch, 2, procs_per_node=1, name="dl").run()
    assert time.monotonic() - t0 < 1.0
    assert not result.completed
    errors = [e for e in result.rank_errors.values() if type(e) is SimError]
    assert len(errors) == 1
    message = str(errors[0])
    assert "rank 0 in collective on dl.world" in message
    assert "rank 1 in recv src=0 tag=7 on dl.world" in message


@pytest.mark.parametrize("broken", ["compute", "cost"])
def test_exception_in_a_collective_reaches_every_member(broken):
    def boom(data):
        raise ValueError(f"bad {broken}")

    def main(ctx):
        comm = ctx.world
        ok = lambda data: {r: sum(data.values()) for r in data}  # noqa: E731
        try:
            comm.custom_collective(
                comm.rank,
                compute=boom if broken == "compute" else ok,
                cost=boom if broken == "cost" else (lambda data: 1.0),
            )
        except ValueError as e:
            caught = str(e)
        # the communicator is still usable, by everyone
        return caught, comm.allgather(comm.rank)

    result = Job(Cluster(4), main, 4, procs_per_node=1).run()
    assert result.completed, result.rank_errors
    assert result.rank_results == {
        r: (f"bad {broken}", [0, 1, 2, 3]) for r in range(4)
    }


def test_peers_of_a_rank_that_skipped_the_collective_are_aborted_not_deadlocked():
    def main(ctx):
        if ctx.rank == 3:
            ctx.job.fail_node(ctx.node.node_id, when=ctx.clock)
            return "left early"  # never joins the barrier
        ctx.world.barrier()
        return True

    result = Job(Cluster(4), main, 4, procs_per_node=1).run()
    assert result.aborted and result.rank_results == {3: "left early"}
    assert sorted(result.rank_errors) == [0, 1, 2]
    for err in result.rank_errors.values():
        assert isinstance(err, JobAbortedError)
        assert "deadlock" not in str(err)


def test_member_that_died_waiting_contributes_but_collects_nothing():
    """Ranks 0 and 1 share node 0.  Rank 0 is parked in the barrier, ahead
    of the power-off instant, when rank 1 fails the node; rank 0 dies in the
    wait, yet its contribution lets the barrier complete for ranks 1 and 2 —
    with no exit reported, and no result left behind, for the dead member."""

    def main(ctx):
        comm = ctx.world
        if ctx.rank == 0:
            ctx.elapse(10.0)
        elif ctx.rank == 1:
            comm.recv(2, tag=9)  # rank 2 is parked in its recv by now
            ctx.job.fail_node(0, when=5.0)
            comm.send(None, 2, tag=1)
        else:
            comm.send(None, 1, tag=9)
            comm.recv(1, tag=1)
        comm.barrier()
        return True

    log = EventLog()
    job = Job(Cluster(2), main, 3, ranklist=[0, 0, 1], observer=log)
    result = job.run()
    assert result.aborted and result.rank_results == {1: True, 2: True}
    assert isinstance(result.rank_errors[0], NodeFailedError)
    assert [ev[3] for ev in log.events if ev[0] == "exit"] == [1, 2]
    assert job.world._slot.outbox == {}


# -- carriers: rank threads outlive their job --------------------------------------


def _ring(ctx):
    comm = ctx.world
    ctx.elapse(1e-3 * (ctx.rank % 3))
    got = comm.sendrecv(
        ctx.rank, dest=(comm.rank + 1) % comm.size, source=(comm.rank - 1) % comm.size
    )
    return got, comm.allgather(threading.current_thread().name), ctx.clock


def _ring_outcome(n_ranks=8):
    result = Job(Cluster(4), _ring, n_ranks, name="ring").run()
    assert result.completed, result.rank_errors
    return result.rank_results, result.rank_clocks


def test_carrier_pool_does_not_grow_across_jobs():
    Job(Cluster(8), _ring, 16).run()  # warm-up: the pool now holds 16
    before = threading.active_count()
    for n in (16, 8, 16):
        assert Job(Cluster(8), _ring, n).run().completed
        assert threading.active_count() == before


def test_carriers_are_named_after_the_rank_they_run():
    results, _ = _ring_outcome()
    assert results[0][1] == [f"ring-r{r}" for r in range(8)]
    names = {t.name for t in threading.enumerate() if t is not threading.main_thread()}
    assert "repro-carrier" in names and not any(n.startswith("ring-") for n in names)


def _crash(ctx):
    if ctx.rank == 1:
        raise ValueError("user bug")
    ctx.world.barrier()


def _exit_early(ctx):
    if ctx.rank == 2:
        raise RankExit("early")
    return ctx.rank


def _lose_node(ctx):
    if ctx.rank == 3:
        ctx.job.fail_node(ctx.node.node_id, when=ctx.clock)
        ctx.check()
    ctx.world.barrier()


def test_carriers_stay_reusable_after_every_way_a_rank_ends():
    fresh = _in_fresh_process(_ring_outcome)
    with pytest.raises(SimError, match="rank 1 crashed"):
        Job(Cluster(4), _crash, 8).run()
    assert _ring_outcome() == fresh
    exited = Job(Cluster(4), _exit_early, 8).run()
    assert exited.rank_results[2] == "early"
    assert _ring_outcome() == fresh
    lost = Job(Cluster(4), _lose_node, 8).run()
    assert lost.aborted and isinstance(lost.rank_errors[3], NodeFailedError)
    assert _ring_outcome() == fresh


def test_finished_job_is_not_pinned_by_its_carriers():
    class Payload:
        pass

    def main(ctx):
        ctx.world.barrier()
        return Payload()

    job = Job(Cluster(4), main, 8)
    result = job.run()
    job_ref, payload_ref = weakref.ref(job), weakref.ref(result.rank_results[5])
    del job, result
    gc.collect()
    assert job_ref() is None and payload_ref() is None


# -- ownership: a finished job is freed by reference counting ------------------------
#
# Owners hold strong references, back-references are weak or absent, and a
# rank's error keeps no traceback, so dropping a finished job's last
# reference frees the Job, its Cluster and its SHM arrays at once: with the
# cyclic collector off, nothing else would.


@pytest.fixture
def jobs_run(monkeypatch):
    """Weak references to every Job run by the test, which runs with the
    cyclic collector off."""
    refs = []
    run = Job.run

    def recording(job):
        refs.append(weakref.ref(job))
        return run(job)

    monkeypatch.setattr(Job, "run", recording)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _watch(cluster):
    """Weak references to ``cluster`` and to every SHM array left on it."""
    arrays = [seg.array for node in cluster.all_nodes() for seg in node.shm]
    assert arrays
    return [weakref.ref(cluster)] + [weakref.ref(a) for a in arrays]


def _shm_rank(ctx):
    ctx.shm_create(f"buf{ctx.rank}", 1024, exist_ok=True)
    ctx.phase("work")
    ctx.world.barrier()


def _shm_rank_losing_node(ctx):
    ctx.shm_create(f"buf{ctx.rank}", 1024)
    _lose_node(ctx)


def _fault_free():
    cluster = Cluster(4)
    assert Job(cluster, _shm_rank, 8, procs_per_node=2).run().completed
    return _watch(cluster)


def _node_lost():
    cluster = Cluster(4)
    result = Job(cluster, _shm_rank_losing_node, 8, procs_per_node=2).run()
    assert result.aborted and isinstance(result.rank_errors[3], NodeFailedError)
    return _watch(cluster)


def _daemon_restart():
    cluster = Cluster(4, n_spares=1)
    plan = FailurePlan([PhaseTrigger(node_id=1, phase="work", occurrence=1)])
    report = JobDaemon(cluster, _shm_rank, 8, procs_per_node=2, failure_plan=plan).run()
    assert report.completed and report.n_restarts == 1
    return _watch(cluster)


def _single_gives_up():
    kill = PhaseTrigger(node_id=1, phase="ckpt.update", occurrence=1)
    inst, _, report = run_with_triggers(selfckpt_scenario(method="single"), [kill])
    errors = report.result.rank_errors.values()
    assert errors and all(isinstance(e, UnrecoverableError) for e in errors)
    return _watch(inst.cluster)


def _obs_replay():
    kill = PhaseTrigger(node_id=1, phase="ckpt.encode", occurrence=2)
    inst, _, report = run_with_triggers(
        selfckpt_scenario(), [kill], tracer=SpanTracer(), observer=MetricsObserver()
    )
    assert report.completed and report.n_restarts == 1
    return _watch(inst.cluster)


@pytest.mark.parametrize(
    "case",
    [_fault_free, _node_lost, _daemon_restart, _single_gives_up, _obs_replay],
    ids=lambda case: case.__name__.strip("_"),
)
def test_finished_job_is_freed_by_reference_counting(case, jobs_run):
    refs = case() + jobs_run
    assert jobs_run and [r for r in refs if r() is not None] == []


def test_rank_errors_carry_no_traceback():
    kill = PhaseTrigger(node_id=1, phase="ckpt.update", occurrence=1)
    _, _, report = run_with_triggers(selfckpt_scenario(method="single"), [kill])
    for err in report.result.rank_errors.values():
        assert err.__traceback__ is None
        assert err.__context__ is None or err.__context__.__traceback__ is None


def _in_fresh_process(fn):
    with multiprocessing.get_context("fork").Pool(1) as pool:
        return pool.apply_async(fn).get(timeout=60)


def test_forked_child_runs_a_job_of_its_own():
    parent = _ring_outcome()  # the parent's idle list is populated now
    assert _in_fresh_process(_ring_outcome) == parent


def _carrier_policies():
    return {
        os.sched_getscheduler(t.native_id)
        for t in threading.enumerate()
        if t.name == "repro-carrier"
    }


@pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"), reason="no SCHED_BATCH here")
def test_carriers_run_under_sched_batch_and_the_caller_keeps_its_policy():
    before = os.sched_getscheduler(0)
    _ring_outcome()
    assert os.sched_getscheduler(0) == before
    assert _carrier_policies() == {os.SCHED_BATCH}


def _ring_outcome_with_the_policy_refused():
    refused = []

    def refuse(*args):
        refused.append(args)
        raise PermissionError("sched_setscheduler: operation not permitted")

    os.sched_setscheduler = refuse  # this forked child's own os module
    return _ring_outcome(), len(refused), _carrier_policies(), os.sched_getscheduler(0)


@pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"), reason="no SCHED_BATCH here")
def test_a_refused_policy_costs_speed_not_the_job():
    outcome, n_refused, carriers, caller = _in_fresh_process(
        _ring_outcome_with_the_policy_refused
    )
    assert outcome == _ring_outcome()
    assert n_refused == 8  # every carrier asked, none died of the answer
    assert carriers == {caller}


class _BrokenTracer:
    """Closing rank 2's spans fails; every other tracer call is a no-op."""

    def __getattr__(self, name):
        return lambda *a, **kw: None

    def close_rank(self, rank, clock):
        if rank == 2:
            raise OSError("trace sink gone")


def test_an_epilogue_exception_surfaces_instead_of_hanging():
    def main(ctx):
        ctx.world.barrier()
        return ctx.rank

    t0 = time.monotonic()
    with pytest.raises(SimError, match=r"rank 2 crashed: OSError"):
        Job(Cluster(4), main, 8, tracer=_BrokenTracer()).run()
    assert time.monotonic() - t0 < 1.0
    assert _ring_outcome()[0][0][0] == 7  # and the carriers came back
