"""Tests for the vector-clock SHM race detector."""

from repro.sancheck import RaceDetector, VectorClock, merge_all
from repro.sancheck.scenarios import run_clean_selfckpt, run_seeded_race
from repro.sim import Cluster, Job


def run_two_ranks_on_one_node(app):
    """``(result, race detector)`` of ``app`` as a 2-rank job on one node."""
    job = Job(Cluster(1), app, 2, ranklist=[0, 0])
    det = RaceDetector(2)
    det.install(job)
    return job.run(), det


class TestVectorClock:
    def test_ordering(self):
        a = VectorClock.of([1, 0])
        b = VectorClock.of([1, 1])
        assert a <= b and not (b <= a)
        assert not a.concurrent(b)

    def test_concurrency(self):
        a = VectorClock.of([2, 0])
        b = VectorClock.of([0, 2])
        assert a.concurrent(b) and b.concurrent(a)

    def test_merge_all(self):
        m = merge_all([VectorClock.of([2, 0, 1]), VectorClock.of([0, 3, 1])])
        assert m.ticks == [2, 3, 1]

    def test_copy_is_independent(self):
        a = VectorClock.of([1, 1])
        c = a.copy()
        a.tick(0)
        assert c.ticks == [1, 1]


class TestSeededRace:
    def test_unsynchronized_write_is_flagged(self):
        """The issue's acceptance fixture: a deliberate unsynchronized SHM
        write must be reported as a race with the offending ranks."""
        result, det = run_seeded_race()
        assert result.completed
        assert len(det.findings) >= 1
        f = det.findings[0]
        assert f.tool == "race" and f.rule == "shm-race"
        assert set(f.ranks) == {0, 1}
        assert "race.target" in f.message

    def test_message_creates_happens_before(self):
        """Same access pattern, but ordered by a send/recv: no race."""

        def app(ctx):
            if ctx.world.rank == 0:
                seg = ctx.shm_create("sync.target", 8)
                seg.write(1.0)
                ctx.world.send(None, dest=1, tag=7)  # hand the segment over
            else:
                ctx.world.recv(source=0, tag=7)  # happens-before edge
                seg = ctx.shm_create("sync.target", 8, exist_ok=True)
                seg.write(2.0)
            return True

        result, det = run_two_ranks_on_one_node(app)
        assert result.completed
        assert det.findings == []

    def test_collective_creates_happens_before(self):
        """A barrier between the two writes also orders them."""

        def app(ctx):
            if ctx.world.rank == 0:
                seg = ctx.shm_create("c.target", 4)
                seg.write(1.0)
            ctx.world.barrier()
            if ctx.world.rank == 1:
                seg = ctx.shm_create("c.target", 4, exist_ok=True)
                seg.write(2.0)
            return True

        result, det = run_two_ranks_on_one_node(app)
        assert result.completed, result.rank_errors
        assert det.findings == []

    def test_read_read_never_conflicts(self):
        def app(ctx):
            seg = ctx.shm_create("rr", 4, exist_ok=True)
            seg.read()
            return True

        result, det = run_two_ranks_on_one_node(app)
        assert result.completed
        # create vs attach/read may race (create is a write); but two pure
        # reads after a common create must not add a second finding pair
        reads = [f for f in det.findings if "read" in f.message and "create" not in f.message]
        assert reads == []

    def test_duplicate_pairs_reported_once(self):
        result, det = run_seeded_race()
        keys = {(f.rule, tuple(sorted(f.ranks))) for f in det.findings}
        assert len(keys) == len(det.findings)


class TestCleanRun:
    def test_self_checkpoint_run_has_zero_findings(self):
        """A correct self-checkpoint HPL-style run must certify clean."""
        result, race = run_clean_selfckpt()
        assert result.completed, result.rank_errors
        assert race.findings == []


class TestObserverComposition:
    def test_vc_tokens_survive_multi_observer(self):
        """With two observers installed, envelope tokens are routed back to
        the right one (the MultiObserver tuple path).  The metrics observer
        goes first: its token is the message size, never None, so a wrong
        split hands the race detector an int instead of a vector clock."""
        from repro.obs.metrics import MetricsObserver

        def app(ctx):
            if ctx.world.rank == 0:
                seg = ctx.shm_create("m.target", 4)
                seg.write(1.0)
                ctx.world.send(None, dest=1)
            else:
                ctx.world.recv(source=0)
                seg = ctx.shm_create("m.target", 4, exist_ok=True)
                seg.write(2.0)
            return True

        cluster = Cluster(1)
        race = RaceDetector(2)
        metrics = MetricsObserver()
        job = Job(cluster, app, 2, ranklist=[0, 0])
        metrics.install(job)  # install FIRST so race rides a MultiObserver
        race.install(job)
        result = job.run()
        assert result.completed, result.rank_errors
        assert race.findings == []  # the happens-before edge must survive
        # ... and so must the metrics observer's byte count of the message
        assert metrics.registry.total("mpi.bytes_recv", rank=1) == 64
