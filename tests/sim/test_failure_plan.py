"""The indexed failure plan against the unindexed one it replaced.

:class:`ReferencePlan` counts every announcement under the lock and
scans every pending trigger on every call; :class:`FailurePlan` indexes
its triggers when they are armed and answers an announcement or a clock
advance that nothing watches without the lock.  Whatever the triggers
and the interleaving of calls, both return the same triggers and record
the same fired provenance, and the fast path takes no lock.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import Cluster, FailurePlan, Job, NodeSpec, PhaseTrigger, TimeTrigger
from repro.sim.failures import AnyTrigger, FiredTrigger

NODES = (0, 1)
PHASES = ("a", "b")
RANKS = (0, 1)


class ReferencePlan:
    """The unindexed plan the index must agree with: every announcement
    is counted under the lock and every pending trigger is scanned.

    Thread-safe; each trigger fires at most once.  The runtime calls
    :meth:`check_time` on every clock advance and :meth:`announce` on
    every phase announcement, and powers off the returned node ids.

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
        self._time_triggers: List[TimeTrigger] = []
        self._phase_triggers: List[PhaseTrigger] = []
        #: announcement counts keyed by ``(node, phase, rank_or_None)``;
        #: the ``None`` slot is the node-wide count, the rank slots are
        #: what rank-restricted triggers consult
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
        with self._lock:
            if isinstance(trigger, TimeTrigger):
                self._time_triggers.append(trigger)
            elif isinstance(trigger, PhaseTrigger):
                self._phase_triggers.append(trigger)
                if trigger.via_rank is not None:
                    if trigger.node_id in self._pins:
                        raise ValueError(
                            f"node {trigger.node_id} is already pinned; "
                            "a node has one death key"
                        )
                    self._pins[trigger.node_id] = trigger
            else:
                raise TypeError(f"not a trigger: {trigger!r}")

    def pin(self, node_id: int) -> Optional[PhaseTrigger]:
        """The pinned trigger of ``node_id``, whose ``(fire_clock,
        via_rank)`` is the node's death key, or None."""
        with self._lock:
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
        with self._lock:
            for t in self._time_triggers:
                if t.node_id == node_id and now >= t.at_time:
                    record = FiredTrigger(t, node_id, now, rank=rank)
                    if self._fire(self._time_triggers, record):
                        return t
            return None

    def announce(
        self, node_id: int, rank: int, phase: str, clock: float
    ) -> Optional[PhaseTrigger]:
        """Record a phase announcement and return the trigger it trips,
        None when there is none.

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
        with self._lock:
            counts = self._phase_counts
            node_key = (node_id, phase, None)
            rank_key = (node_id, phase, rank)
            node_count = counts[node_key] = counts.get(node_key, 0) + 1
            rank_count = counts[rank_key] = counts.get(rank_key, 0) + 1
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
                    record = FiredTrigger(t, node_id, clock, rank, phase, count)
                    if self._fire(self._phase_triggers, record):
                        return t
            return None


# -- the sweep -------------------------------------------------------------------
def _phase_trigger(kind: str, node: int, phase: str, k: int, rank: int, extra: int):
    if kind == "node":
        return PhaseTrigger(node, phase, occurrence=k)
    if kind == "rank":
        return PhaseTrigger(node, phase, occurrence=k, rank=rank)
    if kind == "extra":
        return PhaseTrigger(node, phase, occurrence=k, extra_nodes=(extra,))
    return PhaseTrigger(
        node, phase, occurrence=k, via_rank=rank, via_occurrence=k, fire_clock=float(k)
    )


_triggers = st.one_of(
    st.builds(
        _phase_trigger,
        st.sampled_from(["node", "rank", "extra", "pin"]),
        st.sampled_from(NODES),
        st.sampled_from(PHASES),
        st.integers(1, 4),
        st.sampled_from(RANKS),
        st.sampled_from(NODES),
    ),
    st.builds(
        TimeTrigger,
        st.sampled_from(NODES),
        st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        st.sampled_from([(), (0,), (1,)]),
    ),
)

_announce = st.tuples(
    st.just("announce"),
    st.sampled_from(NODES),
    st.sampled_from(RANKS),
    st.sampled_from(PHASES + ("unwatched",)),
    st.sampled_from([0.0, 1.0, 2.5]),
)
_advance = st.tuples(
    st.just("time"),
    st.sampled_from(NODES),
    st.sampled_from(RANKS),
    st.sampled_from([0.25, 1.0, 1.5, 2.5, 4.0]),
)
# three announcements to a clock advance: a time trigger kills its node
# at its first due advance, after which nothing of that node fires
_calls = st.lists(st.one_of(_announce, _announce, _announce, _advance), max_size=60)


def _one_pin_per_node(triggers: List[AnyTrigger]) -> List[AnyTrigger]:
    pinned, kept = set(), []
    for t in triggers:
        if isinstance(t, PhaseTrigger) and t.via_rank is not None:
            if t.node_id in pinned:
                continue
            pinned.add(t.node_id)
        kept.append(t)
    return kept


@settings(max_examples=400, deadline=None)
@example(  # a rank's count of one watched phase is not its count of another
    triggers=[PhaseTrigger(0, "a", rank=1), PhaseTrigger(0, "b", occurrence=3)],
    twin=8,
    calls=[("announce", 0, 1, "b", 0.0), ("announce", 0, 1, "a", 0.0)],
)
@example(  # a later-armed trigger can come due first
    triggers=[TimeTrigger(0, at_time=3.0), TimeTrigger(0, at_time=0.5)],
    twin=8,
    calls=[("time", 0, 0, 1.0)],
)
@given(
    triggers=st.lists(_triggers, max_size=8),
    twin=st.integers(0, 8),
    calls=_calls,
)
def test_the_index_agrees_with_the_reference(triggers, twin, calls):
    """Node-wide, rank-scoped, pinned, time and ``extra_nodes`` triggers,
    one of them armed twice as an equal copy, under any interleaving of
    announcements and clock advances over nodes, phases and ranks: every
    return value, every fired record and the suppression of triggers on
    dead nodes are the reference's."""
    triggers = _one_pin_per_node(triggers)
    if twin < len(triggers) and getattr(triggers[twin], "via_rank", None) is None:
        triggers.append(dataclasses.replace(triggers[twin]))
    ref, plan = ReferencePlan(triggers), FailurePlan(triggers)
    for call in calls:
        if call[0] == "announce":
            _, node, rank, phase, clock = call
            want = ref.announce(node, rank, phase, clock)
            got = plan.announce(node, rank, phase, clock)
        else:
            _, node, rank, now = call
            want = ref.check_time(node, now, rank=rank)
            got = plan.check_time(node, now, rank=rank)
        assert got is want, call
    assert plan.fired == ref.fired
    assert all(a.trigger is b.trigger for a, b in zip(plan.fired, ref.fired))
    assert [plan.pin(n) for n in NODES] == [ref.pin(n) for n in NODES]


# -- the fast path takes no lock -------------------------------------------------------
class CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self) -> bool:
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc) -> None:
        self._lock.__exit__(*exc)


class TestFastPath:
    def test_unwatched_announcements_and_idle_clocks_take_no_lock(self):
        plan = FailurePlan(
            [PhaseTrigger(1, "ckpt.flush", occurrence=3), TimeTrigger(1, at_time=5.0)]
        )
        lock = plan._lock = CountingLock()
        assert plan.announce(0, 0, "ckpt.flush", 1.0) is None  # another node
        assert plan.announce(1, 2, "ckpt.begin", 1.0) is None  # another phase
        assert plan.check_time(0, 9.0, rank=0) is None  # no time trigger
        assert plan.pin(1) is None
        assert lock.acquired == 0
        # the watched pair and the node with a deadline do take it
        assert plan.announce(1, 2, "ckpt.flush", 1.0) is None
        assert plan.check_time(1, 1.0, rank=2) is None
        assert lock.acquired == 2

    def test_a_job_nothing_watches_takes_no_lock(self):
        """A whole job whose announcements and clock advances no trigger
        watches: the runtime's every call lands on the fast path."""
        plan = FailurePlan([PhaseTrigger(3, "never"), TimeTrigger(3, at_time=1.0)])
        lock = plan._lock = CountingLock()

        def main(ctx):
            for _ in range(5):
                ctx.phase("ckpt.begin")
                ctx.elapse(1.0)
                ctx.world.barrier()

        result = Job(Cluster(4, NodeSpec(cores=2)), main, 4, failure_plan=plan).run()
        assert result.completed and lock.acquired == 0


# -- the add() contract ------------------------------------------------------------------
class TestLateArming:
    def test_a_new_pair_is_refused_once_announcements_have_passed(self):
        plan = FailurePlan([PhaseTrigger(0, "a", occurrence=5)])
        plan.announce(1, 0, "b", 0.0)  # unwatched: uncounted
        with pytest.raises(RuntimeError, match=r"node 1, phase 'b'"):
            plan.add(PhaseTrigger(1, "b", occurrence=2))
        with pytest.raises(RuntimeError, match=r"node 0, phase 'b'"):
            plan.add(PhaseTrigger(0, "b"))
        assert plan.announce(1, 0, "b", 0.0) is None and not plan.fired
        # a time trigger counts nothing, so it arms at any moment
        plan.add(TimeTrigger(2, at_time=1.0))
        assert plan.check_time(2, 1.0) is not None

    def test_arming_on_a_watched_pair_stays_exact(self):
        """A pair counted since it was first armed: a late trigger on it
        fires on exactly its count, as the reference's does, and one whose
        count has passed stays silent."""
        early = PhaseTrigger(0, "a", occurrence=5)
        late, passed = PhaseTrigger(0, "a", occurrence=4), PhaseTrigger(0, "a", rank=1)
        ref, plan = ReferencePlan([early]), FailurePlan([early])
        for p in (ref, plan):
            for rank in (0, 1, 0):
                assert p.announce(0, rank, "a", 1.0) is None
            p.add(passed)
            p.add(late)
        assert plan.announce(0, 1, "a", 2.0) is ref.announce(0, 1, "a", 2.0) is late
        assert plan.fired == ref.fired and plan.fired[0].count == 4
