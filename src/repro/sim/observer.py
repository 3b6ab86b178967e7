"""Observer hook points for simulator instrumentation.

The runtime, communicator and SHM store expose a small set of callbacks so
that tooling (the metrics observer, the campaign traffic totals, custom
profilers) can watch a job run without monkeypatching.  An observer sees
messages with their sizes, collectives, and the lifecycle of a segment
(create/attach/unlink); no hook sees a segment's contents being read or
written.  A job carries at most one :class:`SimObserver`;
:func:`install_observer` transparently fans out to several via
:class:`MultiObserver`.

Design rules observers must follow:

* callbacks run on **rank threads**, one at a time (the rank holding the
  baton); observers reachable from the driver thread too still guard their
  state.  The ``rank`` argument, not the calling thread, says whom an event
  is about: the rank completing a collective reports
  ``on_collective_exit`` for every member, so that all exits of one
  instance precede any entry of the next;
* an observer must never block on simulator state from inside a callback
  (never call into a communicator, never wait on a job).

All rank arguments are **world** ranks; ``clock`` arguments are virtual
seconds on that rank's clock.
"""

from __future__ import annotations

from typing import Any, List


class SimObserver:
    """No-op base class; subclass and override what you need."""

    # -- point to point -------------------------------------------------------
    def on_send(self, src: int, dst: int, tag: int, nbytes: int, clock: float) -> None:
        """A message posted: ``nbytes`` is its payload size."""
        pass

    def on_recv(
        self,
        dst: int,
        src: int,
        tag: int,
        nbytes: int,
        clock: float,
        waited_s: float = 0.0,
    ) -> None:
        """Message delivery of the ``nbytes`` the matching send posted.
        ``waited_s`` is the *virtual* time the receiver's clock jumped
        waiting for the sender's arrival (0 when the message was already
        there) — deterministic, unlike whether the rank physically
        parked."""
        pass

    # -- collectives ----------------------------------------------------------
    def on_collective_enter(
        self, comm: str, size: int, rank: int, clock: float
    ) -> None:
        pass

    def on_collective_exit(
        self, comm: str, size: int, rank: int, clock: float
    ) -> None:
        pass

    # -- shared memory --------------------------------------------------------
    def on_shm(self, node_id: int, name: str, kind: str, nbytes: int = 0) -> None:
        """SHM segment lifecycle: ``kind`` is one of ``create``,
        ``attach``, ``unlink``; ``nbytes`` is the segment's size.  No rank
        is named: every event comes from one
        :meth:`~repro.sim.runtime.RankContext.shm_create` or
        :meth:`~repro.sim.runtime.RankContext.shm_unlink` call, which does
        not park, so a recorder can take the acting rank from there."""
        pass


class MultiObserver(SimObserver):
    """Fan a job's single observer slot out to several observers."""

    def __init__(self, observers: List[SimObserver]):
        self.observers = list(observers)

    def on_send(self, src: int, dst: int, tag: int, nbytes: int, clock: float) -> None:
        for o in self.observers:
            o.on_send(src, dst, tag, nbytes, clock)

    def on_recv(
        self,
        dst: int,
        src: int,
        tag: int,
        nbytes: int,
        clock: float,
        waited_s: float = 0.0,
    ) -> None:
        for o in self.observers:
            o.on_recv(dst, src, tag, nbytes, clock, waited_s)

    def on_collective_enter(self, comm: str, size: int, rank: int, clock: float) -> None:
        for o in self.observers:
            o.on_collective_enter(comm, size, rank, clock)

    def on_collective_exit(self, comm: str, size: int, rank: int, clock: float) -> None:
        for o in self.observers:
            o.on_collective_exit(comm, size, rank, clock)

    def on_shm(self, node_id: int, name: str, kind: str, nbytes: int = 0) -> None:
        for o in self.observers:
            o.on_shm(node_id, name, kind, nbytes)


def install_observer(job: Any, observer: SimObserver) -> None:
    """Attach ``observer`` to ``job`` (or to an SHM store), composing with
    any already installed; attaching it again is a no-op."""
    current = getattr(job, "observer", None)
    if current is None:
        job.observer = observer
    elif isinstance(current, MultiObserver):
        if observer not in current.observers:
            current.observers.append(observer)
    elif current is not observer:
        job.observer = MultiObserver([current, observer])
