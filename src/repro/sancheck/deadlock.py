"""Wait-for-graph deadlock detection over blocked MPI calls.

The runtime detects deadlock itself — a rank that parks when no other rank
is ready to run raises :class:`~repro.sim.errors.SimError` naming every
parked rank and its wait — but only once *every* live rank is parked, and
without saying why.  This detector adds the diagnosis, and finds a cycle
among a few ranks while the rest still run: it installs as a
:class:`~repro.sim.observer.SimObserver`, tracks which ranks are blocked
and on what (pt2pt receives with their ``(source, tag)``, collectives with
their member sets), maintains send/recv counters mirroring the mailboxes,
and on every block event searches the wait-for graph for a cycle.

Edges:

* a rank blocked in ``recv(src, tag)`` waits for ``src`` — unless a
  matching message is already in flight (counter > 0), in which case the
  rank is satisfiable and contributes no edge;
* a rank blocked in a collective waits for every member that has not yet
  entered the rendezvous.

Only currently-blocked ranks appear in the graph, so a cycle is a true
"everyone waits on everyone" witness.  On detection the detector records a
:class:`~repro.sancheck.findings.Finding` carrying a **stuck-tag
diagnosis** (a queued message whose tag differs from the one the receiver
asked for — the classic mismatched-tag bug) and, when the job's tracer
recorded phase announcements, the rendered timeline with the deadlocked
ranks marked.  It then aborts the job (configurable), so every rank ends in
``JobAbortedError`` rather than one of them in the runtime's deadlock error.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.sancheck.findings import Finding
from repro.sim.observer import BlockDesc, SimObserver


class DeadlockDetector(SimObserver):
    """Cycle detection over the wait-for graph of blocked ranks."""

    def __init__(self, abort_on_deadlock: bool = True):
        self.abort_on_deadlock = abort_on_deadlock
        self._lock = threading.Lock()  # simlint: allow[threading] -- detector-internal state guard
        #: world rank -> its current BlockDesc
        self._blocked: Dict[int, BlockDesc] = {}
        #: (comm, dst, src, tag) -> messages sent but not yet received
        self._in_flight: Dict[Tuple[str, int, int, int], int] = {}
        #: comm name -> world ranks inside the current collective instance
        self._entered: Dict[str, set] = {}
        #: comm name -> exits still owed before the instance resets
        self._exits_due: Dict[str, int] = {}
        self.findings: List[Finding] = []
        self._reported: set = set()
        self._job: Any = None

    # -- installation ----------------------------------------------------------
    def install(self, job: Any) -> "DeadlockDetector":
        from repro.sim.observer import install_observer

        install_observer(job, self)
        self._job = job
        return self

    # -- message accounting ------------------------------------------------------
    def on_send(self, src: int, dst: int, tag: int, nbytes: int, clock: float) -> Any:
        with self._lock:
            # comm name is not on the send path; key by ranks+tag only —
            # a message on *any* communicator between the pair satisfies
            # the matching (dst, src, tag) wait on that communicator, and
            # over-approximating satisfiability only suppresses reports,
            # never fabricates them
            self._in_flight[("", dst, src, tag)] = (
                self._in_flight.get(("", dst, src, tag), 0) + 1
            )
        return None

    def on_recv(
        self, dst: int, src: int, tag: int, token: Any, clock: float, waited_s: float = 0.0
    ) -> None:
        with self._lock:
            key = ("", dst, src, tag)
            n = self._in_flight.get(key, 0)
            if n <= 1:
                self._in_flight.pop(key, None)
            else:
                self._in_flight[key] = n - 1

    # -- collective membership tracking ------------------------------------------
    def on_collective_enter(self, comm: str, size: int, rank: int, clock: float) -> None:
        with self._lock:
            self._entered.setdefault(comm, set()).add(rank)
            self._exits_due[comm] = size

    def on_collective_exit(self, comm: str, size: int, rank: int, clock: float) -> None:
        with self._lock:
            due = self._exits_due.get(comm, 0) - 1
            if due <= 0:
                self._entered.pop(comm, None)
                self._exits_due.pop(comm, None)
            else:
                self._exits_due[comm] = due

    # -- blocking and cycle search -------------------------------------------------
    def on_block(self, rank: int, desc: BlockDesc) -> None:
        cycle: Optional[List[int]] = None
        with self._lock:
            self._blocked[rank] = desc
            cycle = self._find_cycle()
            if cycle is not None:
                self._report(cycle)
        # abort only after releasing our lock (observer lock-order contract)
        if cycle is not None and self.abort_on_deadlock and self._job is not None:
            self._job.abort()

    def on_unblock(self, rank: int) -> None:
        with self._lock:
            self._blocked.pop(rank, None)

    # -- graph ---------------------------------------------------------------------
    def _edges_of(self, rank: int, desc: BlockDesc) -> List[int]:
        if desc.kind == "recv":
            assert desc.peer is not None
            key = ("", rank, desc.peer, desc.tag if desc.tag is not None else 0)
            if self._in_flight.get(key, 0) > 0:
                return []  # satisfiable: the matching message is in flight
            return [desc.peer]
        entered = self._entered.get(desc.comm, set())
        return [m for m in desc.members if m != rank and m not in entered]

    def _find_cycle(self) -> Optional[List[int]]:
        """A cycle through currently-blocked ranks, or None."""
        graph = {
            r: [p for p in self._edges_of(r, d) if p in self._blocked]
            for r, d in self._blocked.items()
        }
        WHITE, GREY, BLACK = 0, 1, 2
        color = {r: WHITE for r in graph}
        stack: List[int] = []

        def dfs(r: int) -> Optional[List[int]]:
            color[r] = GREY
            stack.append(r)
            for p in graph[r]:
                if color[p] == GREY:
                    return stack[stack.index(p):]
                if color[p] == WHITE:
                    found = dfs(p)
                    if found is not None:
                        return found
            stack.pop()
            color[r] = BLACK
            return None

        for r in graph:
            if color[r] == WHITE:
                cycle = dfs(r)
                if cycle is not None:
                    return cycle
        return None

    # -- reporting --------------------------------------------------------------------
    def _stuck_tag_diagnosis(self, rank: int, desc: BlockDesc) -> Optional[str]:
        """A queued message from the awaited peer under a *different* tag —
        the signature of a mismatched send/recv tag pair."""
        if desc.kind != "recv" or desc.peer is None:
            return None
        for (_, dst, src, tag), n in self._in_flight.items():
            if dst == rank and src == desc.peer and tag != desc.tag and n > 0:
                return (
                    f"rank {rank} waits for tag={desc.tag} from rank "
                    f"{desc.peer}, but {n} message(s) with tag={tag} are "
                    "queued from that rank — mismatched send/recv tags"
                )
        return None

    def _report(self, cycle: List[int]) -> None:
        key = frozenset(cycle)
        if key in self._reported:
            return
        self._reported.add(key)
        waits = []
        diagnoses = []
        for r in cycle:
            desc = self._blocked[r]
            if desc.kind == "recv":
                waits.append(
                    f"  rank {r}: recv(src={desc.peer}, tag={desc.tag}) "
                    f"on {desc.comm}"
                )
            else:
                missing = [
                    m
                    for m in desc.members
                    if m != r and m not in self._entered.get(desc.comm, set())
                ]
                waits.append(
                    f"  rank {r}: collective on {desc.comm}, waiting for "
                    f"ranks {missing} to arrive"
                )
            diag = self._stuck_tag_diagnosis(r, desc)
            if diag is not None:
                diagnoses.append("  " + diag)
        detail = "\n".join(waits + diagnoses)
        tracer = getattr(self._job, "tracer", None)
        if tracer is not None and tracer.phases():
            from repro.obs.spans import render_timeline

            detail += "\n" + render_timeline(tracer, focus=cycle)
        self.findings.append(
            Finding(
                tool="deadlock",
                rule="deadlock-cycle",
                message=(
                    "wait-for cycle among ranks "
                    + " -> ".join(str(r) for r in cycle + [cycle[0]])
                ),
                ranks=tuple(cycle),
                detail=detail,
            )
        )
