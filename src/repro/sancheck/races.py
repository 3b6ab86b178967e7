"""Vector-clock data-race detection over SHM segment accesses.

The self-checkpoint protocol's safety argument (paper §3.2) assumes SHM
accesses by co-resident ranks are ordered by communication: a segment
written during the flush phase must not be read or written concurrently by
a sibling rank, or the "recoverable at every instant" invariant silently
breaks.  This detector checks that **dynamically**: it installs as a
:class:`~repro.sim.observer.SimObserver`, maintains one vector clock per
world rank (ticked on sends, merged on receives and collectives — the
happens-before edges :mod:`repro.sim.mpi` actually provides), records every
SHM event (``create``/``attach``/``read``/``write``/``unlink`` from
:mod:`repro.sim.shm`), and reports two accesses to the same segment as a
race when they touch the same node, come from different ranks, at least one
is a write, and their vector clocks are concurrent.

Usage::

    det = RaceDetector(n_ranks)
    job = Job(cluster, app, n_ranks, observer=det)   # or det.install(job)
    job.run()
    report = det.findings          # [] on a race-free run

Thread-safety: callbacks arrive concurrently from rank threads; all state
is guarded by one internal lock.  Callbacks never touch simulator locks
(see the observer contract in :mod:`repro.sim.observer`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.sancheck.findings import Finding
from repro.sancheck.vectorclock import VectorClock, merge_all
from repro.sim._tls import current_ctx
from repro.sim.observer import SimObserver

#: SHM event kinds that modify the segment (conflict if concurrent with
#: anything); ``attach``/``read`` only conflict with writes
WRITE_KINDS = {"create", "write", "unlink"}

#: accesses kept per segment; old ordered accesses age out first
HISTORY_LIMIT = 128


@dataclass(frozen=True)
class ShmAccess:
    """One recorded access to a segment."""

    rank: int
    kind: str
    vc: VectorClock
    clock: float

    @property
    def is_write(self) -> bool:
        return self.kind in WRITE_KINDS


class _CollectiveState:
    """Entry snapshots of one in-flight collective instance."""

    def __init__(self, size: int):
        self.size = size
        self.entries: List[VectorClock] = []
        self.merged: Optional[VectorClock] = None
        self.exits = 0


class RaceDetector(SimObserver):
    """Happens-before race detector for SHM segment accesses."""

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        self._lock = threading.Lock()  # simlint: allow[threading] -- detector-internal state guard
        self._vc: List[VectorClock] = [VectorClock(n_ranks) for _ in range(n_ranks)]
        self._history: Dict[Tuple[int, str], List[ShmAccess]] = {}
        self._reported: Set[Tuple[int, str, int, int]] = set()
        self._pending: Dict[str, _CollectiveState] = {}
        self.findings: List[Finding] = []

    # -- installation ----------------------------------------------------------
    def install(self, job: Any) -> "RaceDetector":
        """Attach to a job: communicator events plus every node's SHM store."""
        from repro.sim.observer import install_observer

        install_observer(job, self)
        self.watch_cluster(job.cluster)
        return self

    def watch_cluster(self, cluster: Any) -> None:
        """Subscribe to SHM events on every node of ``cluster``."""
        from repro.sim.observer import install_observer

        for node in cluster.nodes:
            install_observer(node.shm, self)  # composes via MultiObserver

    # -- happens-before edges from communication --------------------------------
    def on_send(self, src: int, dst: int, tag: int, nbytes: int, clock: float) -> Any:
        with self._lock:
            self._vc[src].tick(src)
            return self._vc[src].copy()

    def on_recv(
        self, dst: int, src: int, tag: int, token: Any, clock: float, waited_s: float = 0.0
    ) -> None:
        with self._lock:
            if isinstance(token, VectorClock):
                self._vc[dst].merge(token)
            self._vc[dst].tick(dst)

    def on_collective_enter(self, comm: str, size: int, rank: int, clock: float) -> None:
        with self._lock:
            self._vc[rank].tick(rank)
            state = self._pending.setdefault(comm, _CollectiveState(size))
            state.entries.append(self._vc[rank].copy())

    def on_collective_exit(self, comm: str, size: int, rank: int, clock: float) -> None:
        with self._lock:
            state = self._pending.get(comm)
            if state is None:  # exit without enter: observer attached mid-run
                return
            if state.merged is None:
                state.merged = merge_all(state.entries)
            self._vc[rank].merge(state.merged)
            self._vc[rank].tick(rank)
            state.exits += 1
            if state.exits >= state.size:
                del self._pending[comm]

    # -- SHM access recording ----------------------------------------------------
    def on_shm(self, node_id: int, name: str, kind: str, nbytes: int = 0) -> None:
        try:
            ctx = current_ctx()
        except RuntimeError:
            return  # access from a non-rank thread (test harness, daemon)
        rank, clock = ctx.rank, ctx.clock
        with self._lock:
            if rank >= self.n_ranks:
                return
            self._vc[rank].tick(rank)
            access = ShmAccess(
                rank=rank, kind=kind, vc=self._vc[rank].copy(), clock=clock
            )
            history = self._history.setdefault((node_id, name), [])
            for prior in history:
                if prior.rank == rank:
                    continue
                if not (prior.is_write or access.is_write):
                    continue
                if prior.vc.concurrent(access.vc):
                    self._record_race(node_id, name, prior, access)
            history.append(access)
            if len(history) > HISTORY_LIMIT:
                # drop the oldest accesses that are already ordered before
                # everything new; keeps memory bounded on long runs
                del history[: len(history) - HISTORY_LIMIT]

    def _record_race(
        self, node_id: int, name: str, a: ShmAccess, b: ShmAccess
    ) -> None:
        key = (node_id, name, min(a.rank, b.rank), max(a.rank, b.rank))
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(
            Finding(
                tool="race",
                rule="shm-race",
                message=(
                    f"concurrent {a.kind} by rank {a.rank} and {b.kind} by "
                    f"rank {b.rank} on SHM segment {name!r} (node {node_id}) "
                    "with no happens-before edge"
                ),
                ranks=(a.rank, b.rank),
                clock=max(a.clock, b.clock),
                detail=(
                    f"  rank {a.rank}: {a.kind} @ t={a.clock:.4g}s vc={a.vc.ticks}\n"
                    f"  rank {b.rank}: {b.kind} @ t={b.clock:.4g}s vc={b.vc.ticks}\n"
                    "  order these accesses with a message or collective "
                    "between the two ranks"
                ),
            )
        )
