"""Failure injection: scheduled, phase-triggered, and MTBF-driven.

The paper validates its protocols by powering off nodes at adversarial
moments — mid-computation (Fig. 2 CASE 1), while calculating a new checksum
(Fig. 4 CASE 1), and while flushing the new checkpoint (Fig. 4 CASE 2).
Phase triggers let tests aim a failure at exactly those protocol steps:
rank code announces named phases via ``ctx.phase(name)`` and a trigger fires
on the k-th announcement, counted per node — or, with ``rank=`` set, per
that specific rank (see :class:`PhaseTrigger`).

Time triggers fire when a rank on the node advances its virtual clock past
the deadline.  The MTBF generator draws exponential inter-failure times to
build whole failure schedules — *repeated* failures per node up to the
horizon — for reliability sweeps and the :mod:`repro.chaos` campaigns.

Every fired trigger leaves a :class:`FiredTrigger` provenance record
(which rank tripped it, at what virtual clock, at which count) so campaign
reports can attribute each injected failure to the exact announcement that
caused it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.util.rng import seeded_rng


@dataclass
class TimeTrigger:
    """Power off ``node_id`` once any of its ranks reaches ``at_time``.

    ``extra_nodes`` die at the same instant — correlated failures (rack /
    switch loss, simultaneous double faults for the RAID-6 protocols).
    """

    node_id: int
    at_time: float
    extra_nodes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.at_time) and self.at_time >= 0):
            raise ValueError(f"at_time must be finite and >= 0; got {self.at_time}")

    @property
    def all_nodes(self) -> Tuple[int, ...]:
        return (self.node_id, *self.extra_nodes)


@dataclass
class PhaseTrigger:
    """Power off ``node_id`` on the ``occurrence``-th announcement of
    ``phase``.

    With ``rank=None`` (the default) announcements are counted per
    ``(node, phase)``: the trigger fires on the ``occurrence``-th
    announcement of ``phase`` by *any* rank running on that node.

    With ``rank`` set, announcements are counted per
    ``(node, phase, rank)``: ``occurrence=k`` means the k-th announcement
    *by that rank*, regardless of how many times other ranks on the same
    node announced the phase first — which is what makes
    multi-rank-per-node tests deterministic.

    ``extra_nodes`` die at the same instant as ``node_id``.

    ``via_rank``/``via_occurrence`` pin a *node-wide* trigger to one
    concrete announcement — "the node-wide ``occurrence``-th announcement
    is rank ``via_rank``'s ``via_occurrence``-th" — and ``fire_clock`` is
    that announcement's virtual clock.  With several ranks per node the
    node-wide count is incremented in host-scheduler order, so which
    same-instant announcement lands on the count is otherwise a matter of
    schedule; campaigns that know the announcement schedule in advance
    (the kill matrix resolves it from the fault-free probe, see
    :func:`repro.chaos.campaign.point_trigger`) pin the trigger so the
    node's death is a pure function of the scenario.  The fired
    provenance still reports the advertised node-wide ``occurrence``,
    keeping reports and artifacts identical to the unpinned trigger's.

    A pin also fixes the node's death key, ``(fire_clock, via_rank)``:
    every rank of the node dies at its first runtime check whose
    ``(clock, rank)`` is past it (see :meth:`RankContext.check
    <repro.sim.runtime.RankContext.check>`), or inside a communicator wait
    a dead peer can no longer satisfy, whichever its program reaches
    first.  The key is known before the node fails and no later power-off
    replaces it, so no rank of the node dies at a point that depends on
    where host scheduling put it.  A pin keys one node: it takes no
    ``extra_nodes``, and a node takes at most one pin.
    """

    node_id: int
    phase: str
    occurrence: int = 1
    rank: Optional[int] = None
    extra_nodes: Tuple[int, ...] = ()
    via_rank: Optional[int] = None
    via_occurrence: Optional[int] = None
    fire_clock: Optional[float] = None

    def __post_init__(self) -> None:
        if self.occurrence < 1:
            raise ValueError("occurrence must be >= 1")
        if (self.via_rank is None) != (self.via_occurrence is None):
            raise ValueError("via_rank and via_occurrence come as a pair")
        if self.via_rank is not None and self.rank is not None:
            raise ValueError("via_rank pins a node-wide trigger; rank= is set")
        if self.via_rank is not None and self.fire_clock is None:
            raise ValueError("a via_rank pin needs its fire_clock")
        if self.via_rank is not None and self.extra_nodes:
            raise ValueError("a via_rank pin keys one node's death; extra_nodes is set")
        if self.via_occurrence is not None and self.via_occurrence < 1:
            raise ValueError("via_occurrence must be >= 1")

    @property
    def all_nodes(self) -> Tuple[int, ...]:
        return (self.node_id, *self.extra_nodes)


AnyTrigger = Union[TimeTrigger, PhaseTrigger]


@dataclass(frozen=True)
class FiredTrigger:
    """Provenance of one fired trigger.

    ``count`` is the occurrence count that tripped a phase trigger (None
    for time triggers); ``rank`` is the announcing/advancing rank when the
    runtime supplied it.  Campaign reports (:mod:`repro.chaos`) use these
    to attribute each injected failure to the exact announcement that
    caused it.
    """

    trigger: AnyTrigger
    node_id: int
    clock: float
    rank: Optional[int] = None
    phase: Optional[str] = None
    count: Optional[int] = None

    def describe(self) -> str:
        """One-line human summary for reports.

        Deterministic across replays: the announcing rank is named only
        for rank-restricted triggers.  For an unpinned node-wide trigger
        with several ranks per node, *which* rank's same-instant
        announcement trips the count is scheduler order — naming it would
        leak thread interleaving into otherwise byte-stable campaign
        artifacts.  (Pinned triggers — ``via_rank`` set — resolve that
        race, but stay unnamed so their summary is byte-identical to the
        unpinned form's.)
        """
        if isinstance(self.trigger, PhaseTrigger):
            who = (
                f" (announced by rank {self.rank})"
                if self.trigger.rank is not None
                else ""
            )
            return (
                f"node {self.node_id} killed at phase {self.phase!r} "
                f"count {self.count}{who}, t={self.clock:.3f}s"
            )
        return f"node {self.node_id} killed at t={self.clock:.3f}s (time trigger)"


class FailurePlan:
    """A set of pending triggers consulted by the runtime.

    Thread-safe; each trigger fires at most once.  The runtime calls
    :meth:`check_time` on every clock advance and :meth:`announce` on
    every phase announcement, and powers off the returned node ids.

    Triggers are indexed when they are armed: phase triggers by the
    ``(node, phase)`` pair they watch, time triggers by node.  An
    announcement of a pair no phase trigger watches, or a clock advance
    on a node with no pending time trigger, returns None without taking
    the lock, and nothing counts it.  A watched pair is counted from the
    moment it is armed, node-wide and per rank, and stays watched after
    its triggers fire.  So once an announcement has reached the plan,
    :meth:`add` refuses a phase trigger on a pair the plan does not
    watch yet (that pair's earlier announcements went uncounted); arming
    on a watched pair, or a time trigger, stays exact.

    The plan is shared across job incarnations (the daemon re-arms
    nothing): phase counts keep accumulating over restarts, and triggers
    that have not fired stay armed.  :attr:`fired` lists the
    :class:`FiredTrigger` provenance of the fired triggers in firing
    order.
    """

    def __init__(
        self,
        triggers: Optional[List[AnyTrigger]] = None,
    ):
        self._lock = threading.Lock()
        #: pending time triggers of each node, in arming order
        self._time_triggers: Dict[int, List[TimeTrigger]] = {}
        #: pending phase triggers of each watched ``(node, phase)`` pair,
        #: in arming order
        self._phase_triggers: Dict[Tuple[int, str], List[PhaseTrigger]] = {}
        #: the phases each node's phase triggers watch: the only pairs
        #: :meth:`announce` counts (per node, so the unwatched path
        #: builds no tuple key)
        self._watched: Dict[int, Set[str]] = {}
        #: set by the first announcement: from then on an unwatched pair
        #: has uncounted announcements, so no trigger may start watching it
        self._announced = False
        #: announcement counts of the watched pairs, keyed by ``(node,
        #: phase, rank_or_None)``; the ``None`` slot is the node-wide
        #: count, the rank slots are what rank-restricted triggers consult
        self._phase_counts: Dict[Tuple[int, str, Optional[int]], int] = {}
        #: the pinned trigger of each node that has one (see
        #: :attr:`PhaseTrigger.via_rank`); it stays after firing, since it
        #: holds the node's death key
        self._pins: Dict[int, PhaseTrigger] = {}
        #: nodes some fired trigger already killed.  A node dies once —
        #: replacements get fresh ids — so a later trigger whose *primary*
        #: target is already dead is suppressed (its ranks could only reach
        #: the trigger as doomed ghosts draining their pre-death program
        #: segment, which would make the fired list a thread race).  A dead
        #: node listed only in ``extra_nodes`` does not suppress: the live
        #: primary still dies, the dead extra is a no-op.  The
        #: check-and-mark is atomic under the plan lock.
        self._killed_nodes: set = set()
        self.fired: List[FiredTrigger] = []
        for t in triggers or []:
            self.add(t)

    def add(self, trigger: AnyTrigger) -> None:
        """Arm ``trigger``.

        Raises ValueError for a second pin on one node and RuntimeError
        for a phase trigger on a pair the plan does not watch once an
        announcement has reached it; a refused trigger leaves the plan
        unchanged.
        """
        with self._lock:
            if isinstance(trigger, TimeTrigger):
                self._time_triggers.setdefault(trigger.node_id, []).append(trigger)
            elif isinstance(trigger, PhaseTrigger):
                node, phase = trigger.node_id, trigger.phase
                if trigger.via_rank is not None and node in self._pins:
                    raise ValueError(
                        f"node {node} is already pinned; a node has one death key"
                    )
                if self._announced and phase not in self._watched.get(node, ()):
                    raise RuntimeError(
                        f"(node {node}, phase {phase!r}) is not watched and "
                        "announcements have already gone uncounted; arm its "
                        "triggers before the run"
                    )
                self._watched.setdefault(node, set()).add(phase)
                self._phase_triggers.setdefault((node, phase), []).append(trigger)
                if trigger.via_rank is not None:
                    self._pins[node] = trigger
            else:
                raise TypeError(f"not a trigger: {trigger!r}")

    def pin(self, node_id: int) -> Optional[PhaseTrigger]:
        """The pinned trigger of ``node_id``, whose ``(fire_clock,
        via_rank)`` is the node's death key, or None.  Read without the
        lock: a pin is set once, when it is armed, and never replaced."""
        return self._pins.get(node_id)

    def _fire(self, pending: list, record: FiredTrigger) -> bool:
        """Fire ``record.trigger`` unless its primary node already died;
        call with the lock held."""
        trigger = record.trigger
        if trigger.node_id in self._killed_nodes:
            return False
        pending.remove(trigger)
        self._killed_nodes.update(trigger.all_nodes)
        self.fired.append(record)
        return True

    def check_time(
        self, node_id: int, now: float, rank: Optional[int] = None
    ) -> Optional[TimeTrigger]:
        """The fired trigger if one for ``node_id`` has come due at ``now``.

        Triggers targeting a node some earlier trigger already killed are
        skipped: a node dies once, and only a doomed rank draining its
        pre-death program segment could even reach such a trigger.
        """
        pending = self._time_triggers.get(node_id)
        if not pending:
            return None
        with self._lock:
            for t in pending:
                if now >= t.at_time:
                    record = FiredTrigger(t, node_id, now, rank=rank)
                    if self._fire(pending, record):
                        return t
            return None

    def announce(
        self, node_id: int, rank: int, phase: str, clock: float
    ) -> Optional[PhaseTrigger]:
        """Record a phase announcement and return the trigger it trips,
        None when there is none.

        Only a ``(node, phase)`` pair some trigger watches is counted; any
        other announcement returns None at once, without the lock.
        Counting is exact (``count == occurrence``), not a threshold: a
        trigger armed *after* its target count has already passed stays
        silent instead of firing on the next unrelated announcement.
        Node-wide triggers consult the ``(node, phase)`` count;
        rank-restricted triggers consult the announcing rank's own
        ``(node, phase, rank)`` count, so ``occurrence=k`` always means
        the k-th announcement by that rank even when other ranks on the
        node announce the same phase first.  A pinned trigger fires on its
        ``via_rank``'s ``via_occurrence``-th announcement.  Where the
        node's other ranks die is no business of this method: the death
        key decides it (see :class:`PhaseTrigger`).
        """
        self._announced = True
        watched = self._watched.get(node_id)
        if watched is None or phase not in watched:
            return None
        with self._lock:
            counts = self._phase_counts
            node_key = (node_id, phase, None)
            rank_key = (node_id, phase, rank)
            node_count = counts[node_key] = counts.get(node_key, 0) + 1
            rank_count = counts[rank_key] = counts.get(rank_key, 0) + 1
            pending = self._phase_triggers[(node_id, phase)]
            for t in pending:
                if t.via_rank is not None:
                    # pinned node-wide trigger: fire on the resolved rank's
                    # own announcement; report the advertised node count
                    if t.via_rank != rank or rank_count != t.via_occurrence:
                        continue
                    count = t.occurrence
                elif t.rank is None:
                    count = node_count
                elif t.rank == rank:
                    count = rank_count
                else:
                    continue
                if count == t.occurrence:
                    record = FiredTrigger(t, node_id, clock, rank, phase, count)
                    if self._fire(pending, record):
                        return t
            return None


class MTBFFailureGenerator:
    """Draws node failure times from an exponential distribution.

    ``mtbf_node_s`` is the per-node mean time between failures; system MTBF
    is ``mtbf_node_s / n_nodes``.  Used by the reliability analyses, the
    long-running failure-storm integration tests, and the randomized
    :mod:`repro.chaos` campaigns.
    """

    def __init__(self, mtbf_node_s: float, seed: int = 0):
        if not (math.isfinite(mtbf_node_s) and mtbf_node_s > 0):
            raise ValueError(f"mtbf must be finite and > 0; got {mtbf_node_s}")
        self.mtbf_node_s = mtbf_node_s
        self._rng = seeded_rng(seed)

    def draw_failure_time(self) -> float:
        """One exponential failure time for a single node."""
        return float(self._rng.exponential(self.mtbf_node_s))

    def schedule(
        self,
        node_ids: List[int],
        horizon_s: float,
        *,
        max_failures_per_node: int = 8,
    ) -> List[TimeTrigger]:
        """Every failure of each node within ``horizon_s``.

        Inter-failure gaps are drawn per node until the accumulated time
        leaves the horizon (a failed-and-replaced node slot can fail
        again), capped at ``max_failures_per_node`` draws so a tiny MTBF
        cannot produce an unbounded schedule.
        """
        if max_failures_per_node < 1:
            raise ValueError("max_failures_per_node must be >= 1")
        triggers = []
        for nid in node_ids:
            t = 0.0
            for _ in range(max_failures_per_node):
                t += self.draw_failure_time()
                if t > horizon_s:
                    break
                triggers.append(TimeTrigger(node_id=nid, at_time=t))
        return sorted(triggers, key=lambda t: (t.at_time, t.node_id))

    def system_mtbf(self, n_nodes: int) -> float:
        """MTBF of an ``n_nodes`` system (minimum of exponentials)."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        return self.mtbf_node_s / n_nodes
