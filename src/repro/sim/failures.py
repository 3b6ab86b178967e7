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
from typing import Dict, List, Optional, Tuple, Union

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
    is rank ``via_rank``'s ``via_occurrence``-th".  With several ranks per
    node the node-wide count is incremented in host-scheduler order, so
    which same-instant announcement lands on the count is otherwise a
    thread race; campaigns that know the announcement schedule in advance
    (the kill matrix resolves it from the fault-free probe's virtual-clock
    order, see :func:`repro.chaos.campaign.point_trigger`) pin the trigger
    so the fire clock — and hence the doomed node's death time — is a
    pure function of the scenario.  The fired provenance still reports the
    advertised node-wide ``occurrence``, keeping reports and artifacts
    identical to the unpinned trigger's.

    ``doom_points`` extends the pin to the node's *other* ranks: each
    ``(rank, phase, local_occurrence)`` entry names the announcement at
    which that sibling rank dies — its first announcement at-or-after the
    pinned one in virtual-clock order, again resolved from the probe.  A
    sibling that blocks on a dead peer before reaching its doom point dies
    inside the communicator wait instead; ``phase=""`` marks a rank with
    no post-kill announcement (wait-delivery only).  Doom-pinned ranks are
    exempt from the runtime's clock-based death fallback, so every rank of
    the killed node dies at a point that is a pure function of its own
    program — never of where host scheduling happened to put it.
    ``fire_clock`` carries the pinned announcement's probe clock so a
    sibling that reaches its doom point *before* the announcing rank (in
    host time) can still stamp the node's power-off instant correctly.
    """

    node_id: int
    phase: str
    occurrence: int = 1
    rank: Optional[int] = None
    extra_nodes: Tuple[int, ...] = ()
    via_rank: Optional[int] = None
    via_occurrence: Optional[int] = None
    fire_clock: Optional[float] = None
    doom_points: Tuple[Tuple[int, str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.occurrence < 1:
            raise ValueError("occurrence must be >= 1")
        if (self.via_rank is None) != (self.via_occurrence is None):
            raise ValueError("via_rank and via_occurrence come as a pair")
        if self.via_rank is not None and self.rank is not None:
            raise ValueError("via_rank pins a node-wide trigger; rank= is set")
        if self.via_occurrence is not None and self.via_occurrence < 1:
            raise ValueError("via_occurrence must be >= 1")
        if self.doom_points and self.via_rank is None:
            raise ValueError("doom_points require a via_rank pin")

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
    :meth:`check_time` on every clock advance and :meth:`check_phase` on
    every phase announcement, and powers off the returned node ids.

    The plan is shared across job incarnations (the daemon re-arms
    nothing): phase counts keep accumulating over restarts, and triggers
    that have not fired stay armed.  :attr:`fired` lists the fired
    triggers in firing order; :attr:`fired_records` carries the matching
    :class:`FiredTrigger` provenance.
    """

    def __init__(
        self,
        triggers: Optional[List[AnyTrigger]] = None,
    ):
        self._lock = threading.Lock()
        self._time_triggers: List[TimeTrigger] = []
        self._phase_triggers: List[PhaseTrigger] = []
        #: announcement counts keyed by ``(node, phase, rank_or_None)``;
        #: the ``None`` slot is the node-wide count, the rank slots are
        #: what rank-restricted triggers consult
        self._phase_counts: Dict[Tuple[int, str, Optional[int]], int] = {}
        #: per-rank doom points of pinned triggers, keyed ``(node, rank)``
        #: -> ``(phase, local_occurrence, trigger)`` — see
        #: :attr:`PhaseTrigger.doom_points`
        self._rank_dooms: Dict[Tuple[int, int], Tuple[str, int, PhaseTrigger]] = {}
        #: nodes some fired trigger already killed.  A node dies once —
        #: replacements get fresh ids — so a later trigger whose *primary*
        #: target is already dead is suppressed (its ranks could only reach
        #: the trigger as doomed ghosts draining their pre-death program
        #: segment, which would make the fired list a thread race).  A dead
        #: node listed only in ``extra_nodes`` does not suppress: the live
        #: primary still dies, the dead extra is a no-op.  The
        #: check-and-mark is atomic under the plan lock.
        self._killed_nodes: set = set()
        self.fired: List[AnyTrigger] = []
        self.fired_records: List[FiredTrigger] = []
        for t in triggers or []:
            self.add(t)

    def add(self, trigger: AnyTrigger) -> None:
        with self._lock:
            if isinstance(trigger, TimeTrigger):
                self._time_triggers.append(trigger)
            elif isinstance(trigger, PhaseTrigger):
                self._phase_triggers.append(trigger)
                for rank, phase, local in trigger.doom_points:
                    self._rank_dooms[(trigger.node_id, rank)] = (
                        phase, local, trigger,
                    )
                if trigger.via_rank is not None:
                    # the announcing rank's own doom is the pinned
                    # announcement itself
                    self._rank_dooms[(trigger.node_id, trigger.via_rank)] = (
                        trigger.phase, trigger.via_occurrence, trigger,
                    )
            else:
                raise TypeError(f"not a trigger: {trigger!r}")

    @property
    def empty(self) -> bool:
        with self._lock:
            return not self._time_triggers and not self._phase_triggers

    def pending(self) -> List[AnyTrigger]:
        """Triggers that have not fired yet (time first, then phase)."""
        with self._lock:
            return [*self._time_triggers, *self._phase_triggers]

    def rank_doomed(self, node_id: int, rank: int) -> bool:
        """True when a pinned trigger owns this rank's death point.

        Such a rank is exempt from the runtime's clock-based node-death
        fallback: it dies exactly at its doom announcement (see
        :meth:`check_doom`) or inside a communicator wait a dead peer can
        no longer satisfy — both pure functions of virtual program order.
        """
        with self._lock:
            return (node_id, rank) in self._rank_dooms

    def check_doom(
        self, node_id: int, rank: int, phase: str
    ) -> Optional[PhaseTrigger]:
        """The pinned trigger whose doom point this announcement is, if any.

        Consulted by ``RankContext.phase`` *after* :meth:`check_phase` has
        counted the announcement: a doomed rank matches when its own
        ``(node, phase, rank)`` count has just reached the resolved local
        occurrence.  Returns the owning trigger so the caller can stamp
        the node's power-off instant with :attr:`PhaseTrigger.fire_clock`
        even when this rank outran the announcing one.
        """
        with self._lock:
            spec = self._rank_dooms.get((node_id, rank))
            if spec is None:
                return None
            doom_phase, local, trigger = spec
            if doom_phase != phase:
                return None
            if self._phase_counts.get((node_id, phase, rank), 0) != local:
                return None
            return trigger

    def check_time(
        self, node_id: int, now: float, rank: Optional[int] = None
    ) -> Optional[TimeTrigger]:
        """The fired trigger if one for ``node_id`` has come due at ``now``.

        Triggers targeting a node some earlier trigger already killed are
        skipped: a node dies once, and only a doomed rank draining its
        pre-death program segment could even reach such a trigger.
        """
        with self._lock:
            for t in self._time_triggers:
                if t.node_id == node_id and now >= t.at_time:
                    if t.node_id in self._killed_nodes:
                        continue
                    self._time_triggers.remove(t)
                    self._killed_nodes.update(t.all_nodes)
                    self.fired.append(t)
                    self.fired_records.append(
                        FiredTrigger(
                            trigger=t, node_id=node_id, clock=now, rank=rank
                        )
                    )
                    return t
            return None

    def check_phase(
        self, node_id: int, rank: int, phase: str, clock: float = 0.0
    ) -> Optional[PhaseTrigger]:
        """Record a phase announcement; returns the tripped trigger if any.

        Counting is exact (``count == occurrence``), not a threshold: a
        trigger armed *after* its target count has already passed stays
        silent instead of firing on the next unrelated announcement.
        Node-wide triggers consult the ``(node, phase)`` count;
        rank-restricted triggers consult the announcing rank's own
        ``(node, phase, rank)`` count, so ``occurrence=k`` always means
        the k-th announcement by that rank even when other ranks on the
        node announce the same phase first.
        """
        with self._lock:
            node_key = (node_id, phase, None)
            rank_key = (node_id, phase, rank)
            self._phase_counts[node_key] = self._phase_counts.get(node_key, 0) + 1
            self._phase_counts[rank_key] = self._phase_counts.get(rank_key, 0) + 1
            node_count = self._phase_counts[node_key]
            rank_count = self._phase_counts[rank_key]
            for t in self._phase_triggers:
                if t.node_id != node_id or t.phase != phase:
                    continue
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
                    if t.node_id in self._killed_nodes:
                        continue
                    self._phase_triggers.remove(t)
                    self._killed_nodes.update(t.all_nodes)
                    self.fired.append(t)
                    self.fired_records.append(
                        FiredTrigger(
                            trigger=t,
                            node_id=node_id,
                            clock=clock,
                            rank=rank,
                            phase=phase,
                            count=count,
                        )
                    )
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
