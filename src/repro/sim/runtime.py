"""Job runtime: one rank runs at a time, with virtual clocks and aborts.

A :class:`Job` runs each MPI rank's ``main(ctx)`` to completion or abort,
bound to a :class:`RankContext` (virtual clock, node handle, failure
checks), on a *carrier*: a daemon thread that outlives the job.  Carriers
park on a process-wide idle list between jobs (a forked child starts with an
empty one); ``Job.run`` takes one per rank, creating one only when the list
is empty.  Exactly one rank holds the *baton* at any moment.  Every rank
sleeps on its own gate (a plain lock); a rank that must wait parks on a
channel and opens the gate of the next rank in the ready queue, and a rank
that returns hands the baton on the same way — the last one releases
``Job.run`` instead.  The queue is FIFO in wake order — seeded in rank
order, a wake-up appends the woken ranks in rank order — so the schedule is
a pure function of the program, never of the host scheduler.  Parking when
the queue is empty means every live rank is parked: that *is* deadlock, and
it raises :class:`~repro.sim.errors.SimError` at once — the simulator's only
deadlock report, naming each wait, any mismatched tag and the phase timeline.

Failure semantics reproduce the environment the paper assumes:

* a failure plan powers a node off at a virtual time or protocol phase;
* the first rank to observe its node dead raises
  :class:`~repro.sim.errors.NodeFailedError`, which flips the job into the
  aborting state;
* every other rank raises :class:`~repro.sim.errors.JobAbortedError` when
  it blocks on communication that terminated ranks can no longer satisfy —
  the abort cascades along the communication graph, so each rank dies at a
  point fixed by virtual program order, never by thread scheduling, and
  runs with one seed produce bit-identical traces even through failures;
* :meth:`Job.abort` (MPI_Abort semantics — a rank's user bug) is the
  *hard* variant: it is delivered at every rank's next runtime
  interaction, scheduling-dependent but immediate;
* SHM on healthy nodes survives (see :mod:`repro.sim.shm`), which is what
  the restarted job recovers from.

``Job.run`` returns a :class:`JobResult` carrying per-rank return values,
errors, final virtual clocks and the set of failed nodes — everything the
job daemon needs to decide on a restart.
"""

from __future__ import annotations

import os
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim import _tls
from repro.sim.cluster import Cluster
from repro.sim.errors import JobAbortedError, NodeFailedError, SimError
from repro.sim.failures import FailurePlan
from repro.sim.mpi import Communicator
from repro.sim.node import Node
from repro.sim.observer import SimObserver
from repro.sim.shm import ShmSegment
from repro.sim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.spans import SpanTracer


class RankExit(Exception):
    """Raised by rank code to terminate its main early with a value."""

    def __init__(self, value: Any = None):
        super().__init__("rank exited early")
        self.value = value


@dataclass
class JobResult:
    """Outcome of one job incarnation."""

    completed: bool
    aborted: bool
    failed_nodes: List[int]
    rank_results: Dict[int, Any]
    rank_errors: Dict[int, BaseException]
    rank_clocks: Dict[int, float]

    @property
    def makespan(self) -> float:
        """Virtual end-to-end time (slowest rank)."""
        return max(self.rank_clocks.values()) if self.rank_clocks else 0.0


class _SpanHandle:
    """Context manager behind :meth:`RankContext.span`.

    Reads the rank's virtual clock at enter/exit; a no-op when the job
    carries no tracer, so instrumented protocol code costs nothing in
    untraced runs.  An exception unwinding through the span closes it
    with ``status="interrupted"`` — partial checkpoints stay visible.
    """

    __slots__ = ("_ctx", "_name", "_attrs")

    def __init__(self, ctx: "RankContext", name: str, attrs: Dict[str, Any]):
        self._ctx = ctx
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        tracer = self._ctx.job.tracer
        if tracer is not None:
            tracer.begin(self._ctx.rank, self._name, self._ctx.clock, self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._ctx.job.tracer
        if tracer is not None:
            status = "ok" if exc_type is None else "interrupted"
            tracer.end(self._ctx.rank, self._ctx.clock, status)
        return False


class RankContext:
    """Per-rank execution context handed to the user main function."""

    def __init__(self, job: "Job", rank: int, node: Node):
        self.job = job
        self.rank = rank
        self.node = node
        self.clock: float = 0.0
        self.world: Communicator = job.world

    # -- liveness / failure delivery ------------------------------------------
    def check(self) -> None:
        """Raise if this rank's node died or a hard abort was requested.

        Own-node death is delivered by *virtual time*: the rank dies at its
        first check whose clock has reached the node's power-off instant
        (``Node.failed_at``).  A sibling rank that is virtually *behind*
        the failure keeps executing its pre-death program segment instead
        of being cut down wherever host scheduling happened to put it —
        the death point depends on virtual program order, not thread
        interleaving.

        Ranks whose death point a *pinned* trigger owns (see
        :meth:`~repro.sim.failures.FailurePlan.rank_doomed`) are exempt
        from the clock fallback entirely: they die at their resolved doom
        announcement in :meth:`phase`, or inside a communicator wait a
        dead peer can no longer satisfy — so their death point does not
        even depend on *when* (in host time) the failure flag was set.

        A *failure* abort is still not delivered to healthy ranks here:
        they learn of it only inside communicator waits that terminated
        ranks can no longer satisfy.
        """
        failed_at = self.node.failed_at
        if failed_at is not None and self.clock >= failed_at:
            if not self.job.failure_plan.rank_doomed(self.node.node_id, self.rank):
                raise NodeFailedError(self.node.node_id, self.clock)
        if self.job.abort_requested:
            raise JobAbortedError(f"rank {self.rank}: job aborting")

    def _check_eager(self) -> None:
        """Like :meth:`check`, but a dead node kills even a virtually-behind
        rank immediately.

        Used by the SHM entry points: a failed node's segment store is
        already cleared, so letting a doomed rank touch it would surface
        as a spurious :class:`~repro.sim.errors.ShmError` (a world-aborting
        "user bug") instead of the node failure it really is.
        """
        if not self.node.alive:
            raise NodeFailedError(self.node.node_id, self.clock)
        self.check()

    # -- virtual time -----------------------------------------------------------
    def elapse(self, seconds: float) -> None:
        """Advance this rank's virtual clock by ``seconds`` of local work."""
        if seconds < 0:
            raise ValueError("cannot elapse negative time")
        self.check()
        self.clock += seconds
        trigger = self.job.failure_plan.check_time(
            self.node.node_id, self.clock, rank=self.rank
        )
        if trigger is not None:
            # the node powers off at the scheduled deadline, not at the
            # (scheduler-dependent) clock of whichever rank noticed first:
            # every affected rank then dies at its own crossing of at_time
            for nid in trigger.all_nodes:
                self.job.fail_node(nid, when=trigger.at_time)
        self.check()

    def compute(self, flops: float, efficiency: float = 1.0) -> None:
        """Charge ``flops`` of floating-point work at this rank's core speed."""
        if flops < 0:
            raise ValueError("flops must be >= 0")
        if not 0 < efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        rate = self.node.spec.flops_per_core * efficiency
        self.elapse(flops / rate)

    def phase(self, name: str) -> None:
        """Announce a protocol phase (failure-injection hook)."""
        self.check()
        tracer = self.job.tracer
        if tracer is not None:
            tracer.phase(self.rank, self.clock, name)
        plan = self.job.failure_plan
        trigger = plan.check_phase(
            self.node.node_id, self.rank, name, clock=self.clock
        )
        if trigger is not None:
            for nid in trigger.all_nodes:
                self.job.fail_node(nid, when=self.clock)
        doomed = plan.check_doom(self.node.node_id, self.rank, name)
        if doomed is not None:
            # this rank's pinned death point: mark the node failed even if
            # the announcing rank has not tripped the trigger yet (this
            # rank may have outrun it in host time) and die here
            when = (
                doomed.fire_clock if doomed.fire_clock is not None else self.clock
            )
            for nid in doomed.all_nodes:
                self.job.fail_node(nid, when=when)
            raise NodeFailedError(self.node.node_id, self.clock)
        self.check()

    # -- observability -----------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a nested, attributed span on this rank's virtual clock.

        Usage: ``with ctx.span("ckpt.encode", nbytes=n): ...``.  Spans
        nest per rank (the tracer keeps an open-span stack); with no
        tracer attached to the job this is a no-op.
        """
        return _SpanHandle(self, name, attrs)

    # -- memory ----------------------------------------------------------------------
    def shm_create(
        self,
        name: str,
        shape,
        dtype=np.float64,
        *,
        exist_ok: bool = False,
    ) -> ShmSegment:
        """Create (or re-attach, with ``exist_ok``) an SHM segment on this
        rank's node.  Names are global per node; embed the rank if needed."""
        self._check_eager()
        return self.node.shm.create(name, shape, dtype, exist_ok=exist_ok)

    def shm_exists(self, name: str) -> bool:
        return self.node.shm.exists(name)

    def shm_unlink(self, name: str) -> None:
        if not self.node.alive:
            raise NodeFailedError(self.node.node_id, self.clock)
        self.node.shm.unlink(name)


#: carriers parked between jobs; a forked child's have no thread behind them
_idle: List["_Carrier"] = []
os.register_at_fork(after_in_child=_idle.clear)


class _Carrier:
    """A daemon thread that runs one rank of one job at a time, parked on its
    own task lock in between — named ``repro-carrier`` there, and holding no
    reference to the job it last ran."""

    __slots__ = ("_lock", "_task")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()
        threading.Thread(target=self._loop, name="repro-carrier", daemon=True).start()

    def start(self, job: "Job", rank: int) -> None:
        self._task = (job, rank)
        self._lock.release()

    def _loop(self) -> None:
        me = threading.current_thread()
        while True:
            self._lock.acquire()
            job, rank = self._task
            self._task = None
            me.name = f"{job.name}-r{rank}"
            handoff = job._bootstrap(rank)
            del job
            me.name = "repro-carrier"
            _idle.append(self)
            handoff.release()


class Job:
    """One incarnation of an SPMD program on the simulated cluster.

    Parameters
    ----------
    cluster:
        The cluster to run on; persists across incarnations.
    main:
        ``main(ctx, *args) -> Any``, executed once per rank.
    n_ranks:
        World size.
    ranklist:
        Node id per rank.  Defaults to the cluster's block placement.
    failure_plan:
        Triggers consulted on clock advances and phase announcements.
    observer:
        Optional :class:`~repro.sim.observer.SimObserver` receiving
        communication and SHM events from every rank — the hook the
        :mod:`repro.sancheck` race detector and the metrics observer
        install through.
    tracer:
        Optional :class:`~repro.obs.spans.SpanTracer`; when set,
        ``ctx.span(...)`` records nested virtual-time spans, spans a
        failure leaves open are closed as interrupted, and every
        ``ctx.phase(...)`` announcement is recorded with its clock.
    """

    def __init__(
        self,
        cluster: Cluster,
        main: Callable[..., Any],
        n_ranks: int,
        *,
        args: Sequence[Any] = (),
        ranklist: Optional[Sequence[int]] = None,
        failure_plan: Optional[FailurePlan] = None,
        procs_per_node: Optional[int] = None,
        topology: Optional["Topology"] = None,
        observer: Optional["SimObserver"] = None,
        tracer: Optional["SpanTracer"] = None,
        name: str = "job",
    ):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.cluster = cluster
        self.main = main
        self.args = tuple(args)
        self.name = name
        self.failure_plan = failure_plan or FailurePlan()
        #: optional instrumentation observer; must be set before the world
        #: communicator is built so every operation is visible to it
        self.observer = observer
        #: optional :class:`~repro.obs.spans.SpanTracer` behind
        #: :meth:`RankContext.span` and :meth:`RankContext.phase`; spans
        #: left open when a rank unwinds are closed as interrupted in
        #: :meth:`_bootstrap`
        self.tracer = tracer
        #: optional rack topology: point-to-point messages crossing racks
        #: pay the inter-rack bandwidth penalty
        self.topology = topology
        if ranklist is None:
            ranklist = cluster.default_ranklist(n_ranks, procs_per_node=procs_per_node)
        if len(ranklist) != n_ranks:
            raise ValueError(f"ranklist length {len(ranklist)} != n_ranks {n_ranks}")
        for nid in ranklist:
            if not cluster.node(nid).alive:
                raise SimError(f"ranklist places a rank on dead node {nid}")
        self.ranklist: List[int] = list(ranklist)
        self.n_ranks = n_ranks

        self._abort_lock = threading.Lock()
        self._aborting = False
        self._abort_hard = False
        self._done_ranks: set = set()
        self._failed_nodes: List[int] = []
        #: the baton: rank threads sleep on their own gate; ``_ready`` is
        #: the FIFO of ranks free to run, ``_parked`` maps a wait channel to
        #: the ``(rank, mailbox key or None)`` pairs parked on it
        self._gates = [threading.Lock() for _ in range(n_ranks)]
        for gate in self._gates:
            gate.acquire()
        self._ready: Deque[int] = deque(range(n_ranks))
        self._parked: Dict[Any, List[Tuple[int, Any]]] = {}
        #: ranks not yet returned; only the baton holder touches it, and the
        #: last rank releases ``_finished``, on which :meth:`run` blocks
        self._live = n_ranks
        self._finished = threading.Lock()
        self._finished.acquire()

        # the world communicator; must exist before contexts are built
        self.world = Communicator(self, list(range(n_ranks)), name=f"{name}.world")

        self._results: Dict[int, Any] = {}
        self._errors: Dict[int, BaseException] = {}
        self._clocks: Dict[int, float] = {}

    # -- abort machinery -------------------------------------------------------------
    @property
    def abort_requested(self) -> bool:
        """A hard :meth:`abort` was issued (vs a node-failure abort)."""
        return self._abort_hard

    @property
    def failed_nodes(self) -> List[int]:
        return list(self._failed_nodes)

    def wait_unsatisfiable(self, ranks: Sequence[int]) -> bool:
        """True when the job is aborting and one of ``ranks`` (world ranks
        whose progress could satisfy a blocked communicator wait) has
        terminated.  The communicator consults this from its wait loops —
        it is how a failure reaches healthy ranks: deterministically, via
        the communication graph, instead of via a racy global flag."""
        if not self._aborting:
            return False
        with self._abort_lock:
            return any(r in self._done_ranks for r in ranks)

    def _hand_on(self) -> None:
        """Open the gate of the next ready rank, if there is one."""
        if self._ready:
            self._gates[self._ready.popleft()].release()

    def _park(self, rank: int, comm: Communicator, key: Any) -> None:
        """Park ``rank`` and hand the baton on; returns once a wake-up made
        the rank ready and the baton came round to it.  The channel it parks
        on is ``(comm, mailbox owner)`` when ``key`` is the mailbox key it
        awaits, ``(comm, None)`` — the collective slot — when it is None.

        With no rank ready, every live rank is parked: the deadlock
        :class:`SimError` names each wait in world ranks, adds a line per
        receive whose sender queued it other tags, and ends in the phase
        timeline, parked ranks starred, when the job's tracer has one."""
        if not self._ready:
            waits = sorted(
                [(rank, comm, key)]
                + [(r, c, k) for (c, _), entries in self._parked.items() for r, k in entries],
                key=lambda wait: wait[0],
            )
            lines = [
                "deadlock: every live rank is parked — "
                + "; ".join(f"rank {r} in {c._describe_wait(k)}" for r, c, k in waits)
            ]
            lines += [
                f"  {stuck}" for _, c, k in waits if k is not None for stuck in c._stuck_tags(k)
            ]
            if self.tracer is not None and self.tracer.phases():
                from repro.obs.spans import render_timeline

                lines.append(render_timeline(self.tracer, focus=[r for r, _, _ in waits]))
            raise SimError("\n".join(lines))
        channel = (comm, None if key is None else key[0])
        self._parked.setdefault(channel, []).append((rank, key))
        self._hand_on()
        self._gates[rank].acquire()

    def _notify(self, channel: Any) -> None:
        """Make the ranks parked on ``channel`` ready, in rank order."""
        parked = self._parked.pop(channel, None)
        if parked:
            self._ready.extend(sorted(r for r, _ in parked))

    def _wake_all(self) -> None:
        """Make every parked rank ready, in rank order, to re-evaluate."""
        self._ready.extend(
            sorted(r for entries in self._parked.values() for r, _ in entries)
        )
        self._parked.clear()

    def fail_node(self, node_id: int, when: float = 0.0) -> None:
        """Power off a node mid-run and abort the job."""
        with self._abort_lock:
            node = self.cluster.node(node_id)
            if node.alive:
                node.fail(when)
            if node_id not in self._failed_nodes:
                self._failed_nodes.append(node_id)
            self._aborting = True
        self._wake_all()

    def abort(self) -> None:
        """Hard abort without a node failure (MPI_Abort semantics):
        delivered to every rank at its next runtime interaction."""
        with self._abort_lock:
            self._aborting = True
            self._abort_hard = True
        self._wake_all()

    # -- execution ----------------------------------------------------------------------
    def _bootstrap(self, rank: int) -> threading.Lock:
        """Run ``rank``; return the lock whose release hands the baton on (the
        next ready rank's gate, or ``_finished``) for the carrier to release."""
        node = self.cluster.node(self.ranklist[rank])
        ctx = RankContext(self, rank, node)
        _tls.bind(ctx)
        self._gates[rank].acquire()
        try:
            result = self.main(ctx, *self.args)
            self._results[rank] = result
        except RankExit as e:
            self._results[rank] = e.value
        except (NodeFailedError, JobAbortedError) as e:
            # a dead rank's memory goes with it: the stored traceback would
            # otherwise pin every frame's buffers in a Job <-> frame cycle
            # until the cyclic collector happens by
            traceback.clear_frames(e.__traceback__)
            self._errors[rank] = e
            with self._abort_lock:
                self._aborting = True
            self._wake_all()
        except BaseException as e:  # user bug: abort the world, re-raise later
            self._errors[rank] = e
            self.abort()
        finally:
            self._clocks[rank] = ctx.clock
            _tls.unbind()
            # mark this rank terminated and wake parked peers so waits
            # that can no longer be satisfied re-evaluate and raise
            with self._abort_lock:
                self._done_ranks.add(rank)
            try:
                self._wake_all()
                if self.tracer is not None:
                    self.tracer.close_rank(rank, ctx.clock)
            except BaseException as e:  # a crash of this rank, not a lost baton
                self._errors[rank] = e
                with self._abort_lock:
                    self._aborting = self._abort_hard = True
            finally:
                # live ranks but none ready: the epilogue broke, end the run
                self._live -= 1
                if self._live and self._ready:
                    handoff = self._gates[self._ready.popleft()]
                else:
                    handoff = self._finished
        return handoff

    def run(self) -> JobResult:
        """Execute all ranks, one at a time, each on a carrier; block until
        the last rank returns."""
        for rank in range(self.n_ranks):
            (_idle.pop() if _idle else _Carrier()).start(self, rank)
        self._hand_on()
        self._finished.acquire()

        unexpected = {
            r: e
            for r, e in self._errors.items()
            if not isinstance(e, (NodeFailedError, JobAbortedError, SimError))
        }
        if unexpected:
            rank, err = sorted(unexpected.items())[0]
            raise SimError(f"rank {rank} crashed: {err!r}") from err

        aborted = self._aborting
        return JobResult(
            completed=not aborted and not self._errors,
            aborted=aborted,
            failed_nodes=list(self._failed_nodes),
            rank_results=dict(self._results),
            rank_errors=dict(self._errors),
            rank_clocks=dict(self._clocks),
        )
