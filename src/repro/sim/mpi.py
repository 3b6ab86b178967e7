"""MPI-like communicator with virtual-time accounting; one rank runs at a time.

Semantics follow the subset of MPI the paper's systems need:

* blocking standard-mode ``send``/``recv``/``sendrecv`` with (source, tag)
  matching,
* the collectives HPL and the checkpoint protocols use (``bcast``,
  ``allreduce``, ``allreduce_obj``, ``gather``, ``allgather``,
  ``barrier``), and ``custom_collective`` for the fused stripe encode,
* ``swap_rows`` for one HPL panel's pairwise row interchanges: one
  rendezvous of the ranks they touch, priced and observed as the
  ``sendrecv`` per pivot it stands for,
* ``split`` to build group/row/column communicators,
* abort-on-failure: when any node dies, the abort cascades along the
  communication graph — a rank raises when it blocks on a wait that
  terminated ranks can no longer satisfy (messages posted before the
  failure are still delivered first), mirroring "almost all current MPI
  implementations force the whole program to abort after a node failure"
  (paper section 1) while keeping every rank's death point a function of
  virtual program order, so failure runs replay bit-identically.

Every operation advances the participants' virtual clocks by the
alpha-beta cost from :class:`~repro.sim.netmodel.NetworkModel`; collectives
additionally synchronize clocks to the slowest participant, which is how
real blocking collectives behave.

Payloads are defensively copied (arrays via ``np.copy``, containers rebuilt
element-wise, anything else via ``copy.deepcopy``) so ranks never alias each
other's buffers — matching the value semantics of real message passing.
Deeply immutable payloads are shared instead: no receiver can change them.

Each rank holds its own :class:`Communicator` handle, as an MPI process
holds its own ``MPI_Comm``: ``ctx.world``, and whatever :meth:`~Communicator.split`
returns to it.  A handle carries its rank's context and its communicator
rank; what the members share — mailboxes, the collective and swap slots,
``attrs`` — is one group object per communicator, which is what
:attr:`Job.world <repro.sim.runtime.Job.world>` holds.

Nothing here locks or reads the host clock: one rank runs at a time (see
:mod:`repro.sim.runtime`), so mailboxes and the collective slot are plain
dicts.  A rank that must wait *parks* on a channel of the group — its own
mailbox, or the collective slot — and hands the baton on; ``send`` wakes only
the receiver, and the last arriver of a collective computes every member's
result and wakes them all, one hand-off per member.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.errors import JobAbortedError, SimError
from repro.sim.netmodel import NetworkModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.runtime import Job, RankContext

#: Charged size for payloads whose size we cannot see (python scalars etc.).
_SMALL_OBJ_BYTES = 64

#: atoms whose wire size is :data:`_SMALL_OBJ_BYTES` whatever their value
_SCALAR_TYPES = frozenset((int, float, complex, bool, type(None)))


def _payload_nbytes(obj: Any) -> int:
    """Best-effort wire size of a payload."""
    # exact-type fast path for the atoms every status exchange and p2p
    # header is made of; a subclass (a numpy scalar) falls through to the
    # isinstance chain, which prices it the same
    if type(obj) in _SCALAR_TYPES:
        return _SMALL_OBJ_BYTES
    if isinstance(obj, (list, tuple)):
        return sum(map(_payload_nbytes, obj)) or _SMALL_OBJ_BYTES
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, dict):
        # keys ride the wire too: metadata-heavy payloads (status dicts,
        # epoch tables) would otherwise undercount their alpha-beta cost
        total = sum(_payload_nbytes(k) + _payload_nbytes(v) for k, v in obj.items())
        return total or _SMALL_OBJ_BYTES
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    return _SMALL_OBJ_BYTES


_ATOMS = (int, float, complex, str, bytes, bool, type(None))
_ATOM_TYPES = frozenset(_ATOMS)


def _immutable(obj: Any) -> bool:
    """An atom, or a tuple of immutables: nothing a receiver can mutate."""
    cls = type(obj)
    return cls in _ATOM_TYPES or (cls is tuple and all(map(_immutable, obj)))


def _copy_payload(obj: Any) -> Any:
    """Value-semantics copy: a plain ``tuple`` / ``list`` / ``dict`` is
    rebuilt element-wise, arrays are copied, atoms are immutable and shared,
    and any other shape is ``copy.deepcopy``'s.  A tuple of atoms and such
    tuples is immutable all the way down and is shared too, as ``deepcopy``
    shares it."""
    cls = type(obj)
    if cls is tuple:
        return obj if all(map(_immutable, obj)) else tuple([_copy_payload(x) for x in obj])
    if cls is list:
        return [_copy_payload(x) for x in obj]
    if cls is dict:
        return {k: _copy_payload(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return np.array(obj, copy=True)
    if isinstance(obj, _ATOMS):
        return obj
    return copy.deepcopy(obj)


def _number_rows(steps: Sequence[Any], base: int) -> Dict[int, int]:
    """Number the rows ``steps`` name (both rows of a local swap, this
    rank's row of an exchange) from ``base`` on, each row once."""
    names = [s[1] for s in steps]
    names += [s[3] for s in steps if s[2] is None]
    return {r: i for i, r in enumerate(dict.fromkeys(names), base)}


def _move_rows(
    arrays: Sequence[Sequence[np.ndarray]], rows: Sequence[List[int]], source: List[int]
) -> None:
    """Apply one composed row permutation across ranks.  The rows that
    ``rows[i]`` names on rank ``i`` are numbered in one sequence, rank by
    rank, and row number ``s`` of each array takes the entry content of row
    number ``source[s]`` of the array at the same position on its rank.
    Every row is gathered before any is written."""
    if source == list(range(len(source))):
        return
    take = np.array(source)
    held = [(a, np.array(r)) for a, r in zip(arrays, rows) if r]
    for k in range(len(arrays[0])):
        moved = np.concatenate([a[k][r] for a, r in held])[take]
        lo = 0
        for a, r in held:
            a[k][r] = moved[lo : lo + len(r)]
            lo += len(r)


class ReduceOp:
    """Element-wise reduction operators over numpy arrays.

    ``BXOR`` matches ``MPI_BXOR`` over integer views and is the paper's
    default encoding operator; ``SUM`` is the numeric alternative
    (section 2.2).
    """

    def __init__(self, name: str, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.name = name
        self._fn = fn

    def combine(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        if not arrays:
            raise ValueError("nothing to reduce")
        acc = np.array(arrays[0], copy=True)
        for a in arrays[1:]:
            acc = self._fn(acc, a)
        return acc

    def __repr__(self) -> str:  # pragma: no cover
        return f"ReduceOp({self.name})"


ReduceOp.SUM = ReduceOp("SUM", np.add)  # type: ignore[attr-defined]
ReduceOp.PROD = ReduceOp("PROD", np.multiply)  # type: ignore[attr-defined]
ReduceOp.MAX = ReduceOp("MAX", np.maximum)  # type: ignore[attr-defined]
ReduceOp.MIN = ReduceOp("MIN", np.minimum)  # type: ignore[attr-defined]
ReduceOp.BXOR = ReduceOp("BXOR", np.bitwise_xor)  # type: ignore[attr-defined]


@dataclass
class _Envelope:
    payload: Any
    nbytes: int
    arrival_time: float


class _CollectiveSlot:
    """Rendezvous state for one communicator's ordered collective stream."""

    def __init__(self) -> None:
        #: rank -> (contribution, entry clock) of the instance being gathered
        self.contrib: Dict[int, Tuple[Any, float]] = {}
        #: rank -> (result, finish clock, error) of a completed instance,
        #: left by the completing rank until the member collects it
        self.outbox: Dict[int, Tuple[Any, float, Optional[Exception]]] = {}
        #: members that raised out of the wait: their contribution still
        #: counts, but nobody will collect a result or report an exit
        self.abandoned: set = set()


#: the wait key of a rank parked in :meth:`Communicator.swap_rows`; its
#: channel, ``(group, "swap_rows")``, is apart from every mailbox and from
#: the collective slot
_SWAP_KEY = ("swap_rows",)


class _SwapSlot:
    """Rendezvous state for one communicator's ordered ``swap_rows`` stream."""

    def __init__(self) -> None:
        #: rank -> (context, arrays, steps, tag) of the instance being gathered
        self.arrived: Dict[int, Tuple["RankContext", Sequence[np.ndarray], Sequence[Any], int]] = {}
        #: the instance's participants, as its first arriver named them
        self.participants: Tuple[int, ...] = ()
        #: rank -> (finish clock, error, blocked receive) of a completed
        #: instance, left by the rank that ran it until the member collects it
        self.outbox: Dict[int, Tuple[float, Optional[Exception], Any]] = {}


class _Group:
    """What the members of one communicator share: who they are, its name
    and cost model, and its message and rendezvous state.  Rank code never
    holds one; it holds a :class:`Communicator` handle on it.  The runtime
    parks and wakes ranks on channels keyed by the group."""

    def __init__(self, members: List[int], name: str, net: NetworkModel):
        self._members = list(members)
        self._index: Dict[int, int] = {w: i for i, w in enumerate(members)}
        self.name = name
        self._net = net
        # the network parameters are frozen, so a barrier's price is a
        # constant of the communicator
        barrier_s = net.barrier_time(len(self._members))
        self._barrier_cost: Callable[[Dict[int, Any]], float] = lambda _data: barrier_s
        self._mail: Dict[Tuple[int, int, int], List[_Envelope]] = {}
        self._slot = _CollectiveSlot()
        self._swap = _SwapSlot()
        self._split_counter = 0
        #: attribute caching (``MPI_Comm_set_attr``): state a library
        #: keeps once per communicator, shared by its members' handles
        #: (the checkpoint manager's group layouts, the group encoder's
        #: encode plans)
        self.attrs: Dict[Any, Any] = {}

    # -- deadlock report --------------------------------------------------------
    def _describe_wait(self, key: Optional[Tuple[int, int, int]]) -> str:
        """What a rank parked by :meth:`Communicator._wait` waits for, in
        world ranks."""
        if key is None:
            missing = [w for r, w in enumerate(self._members) if r not in self._slot.contrib]
            return f"collective on {self.name}, waiting for ranks {missing}"
        if key is _SWAP_KEY:
            swap = self._swap
            missing = [self._members[r] for r in swap.participants if r not in swap.arrived]
            return f"swap_rows on {self.name}, waiting for ranks {missing}"
        return f"recv src={self._members[key[1]]} tag={key[2]} on {self.name}"

    def _stuck_tags(self, key: Tuple[int, int, int]) -> List[str]:
        """For a receive parked on ``key = (me, src, tag)``: the messages the
        same sender queued for it under other tags — the signature of a
        mismatched send/recv tag pair."""
        if key is _SWAP_KEY:
            return []
        me, src, tag = key
        return [
            f"rank {self._members[me]} waits for tag={tag} from rank "
            f"{self._members[src]}, but {len(queued)} message(s) with tag={t} "
            "are queued from that rank — mismatched send/recv tags"
            for (dst, s, t), queued in sorted(self._mail.items())
            if dst == me and s == src and t != tag
        ]


class Communicator:
    """One rank's handle on a group of ranks that can exchange messages and
    run collectives.

    The world handle is the rank context's ``ctx.world``; :meth:`split`
    returns each member a handle of its own on the new group.  A handle
    belongs to the rank that received it: it holds that rank's
    :class:`RankContext`, and through it the Job, and its communicator
    :attr:`rank`, so the API reads like mpi4py.  Handing it to another rank
    would make that rank act as its owner.
    """

    __slots__ = ("_group", "_ctx", "rank")

    def __init__(self, group: _Group, ctx: "RankContext"):
        self._group = group
        self._ctx = ctx
        #: rank of the handle's owner within this communicator
        self.rank: int = group._index[ctx.rank]

    # -- identity -------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._group.name

    @property
    def net(self) -> NetworkModel:
        """The cost model pricing this communicator's operations."""
        return self._group._net

    @property
    def size(self) -> int:
        return len(self._group._members)

    @property
    def members(self) -> List[int]:
        """World ranks of the members, in communicator rank order."""
        return list(self._group._members)

    @property
    def attrs(self) -> Dict[Any, Any]:
        """The communicator's attribute cache, one dict its members share."""
        return self._group.attrs

    # -- waiting with failure delivery -----------------------------------------
    def _wait(
        self,
        key: Optional[Tuple[int, int, int]],
        predicate: Callable[[], Any],
        peers: Sequence[int],
    ) -> None:
        """Park the handle's rank until ``predicate`` holds, handing the
        baton on meanwhile; deliver aborts.  ``key`` is the awaited mailbox
        key, ``None`` for this communicator's collective slot.

        ``peers`` lists the world ranks whose progress could satisfy this
        wait.  When the job is aborting and one of them has terminated the
        wait raises :class:`JobAbortedError` — the deterministic failure
        delivery path: the predicate is always tried first, so messages
        posted before the failure are consumed, and the raise point depends
        only on virtual program order.  Parking when no rank is ready to
        run is deadlock and raises :class:`SimError` at once.
        """
        ctx = self._ctx
        job = ctx.job
        while not predicate():
            ctx.check()
            if job.wait_unsatisfiable(peers):
                raise JobAbortedError(
                    f"rank {ctx.rank}: job aborting and a peer rank "
                    f"terminated; {self._group.name} wait cannot be satisfied"
                )
            job._park(ctx.rank, self._group, key)

    def _p2p_scale(self, job: "Job", my_rank: int, peer_rank: int) -> float:
        """Bandwidth derating for a message between two communicator ranks:
        1.0 within a rack, the topology's inter-rack factor across racks."""
        topo = job.topology
        if topo is None:
            return 1.0
        ranklist = job.ranklist
        members = self._group._members
        a = ranklist[members[my_rank]]
        b = ranklist[members[peer_rank]]
        if topo.rack_of(a) == topo.rack_of(b):
            return 1.0
        return topo.inter_rack_bw_factor

    def _p2p_time_to(self, job: "Job", my_rank: int, peer_rank: int, nbytes: int) -> float:
        scale = self._p2p_scale(job, my_rank, peer_rank)
        net = self._group._net
        base = net.p2p_time(nbytes)
        if scale >= 1.0:
            return base
        # only the bandwidth term is derated, not the latency
        bw_term = nbytes / net.params.bandwidth_Bps
        return base + bw_term * (1.0 / scale - 1.0)

    # -- point to point ----------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send to communicator rank ``dest``."""
        ctx = self._ctx
        ctx.check()
        self._check_rank("dest", dest)
        me = self.rank
        nbytes = _payload_nbytes(obj)
        ctx.clock += self._p2p_time_to(ctx.job, me, dest, nbytes)
        env = _Envelope(payload=_copy_payload(obj), nbytes=nbytes, arrival_time=ctx.clock)
        group = self._group
        obs = ctx.job.observer
        if obs is not None:
            obs.on_send(ctx.rank, group._members[dest], tag, nbytes, ctx.clock)
        group._mail.setdefault((dest, me, tag), []).append(env)
        ctx.job._notify((group, dest))

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive from communicator rank ``source``: takes the
        next message under ``(me, source, tag)``, parking until it is
        posted."""
        ctx = self._ctx
        ctx.check()
        self._check_rank("source", source)
        group = self._group
        mail = group._mail
        key = (self.rank, source, tag)
        self._wait(key, lambda: mail.get(key), peers=(group._members[source],))
        env = mail[key].pop(0)
        if not mail[key]:
            del mail[key]
        # virtual time spent waiting on the sender: how far the arrival
        # outran our own clock-plus-latency (deterministic, unlike whether
        # the rank physically parked)
        latency = group._net.params.latency_s
        before = ctx.clock
        ctx.clock = max(ctx.clock + latency, env.arrival_time)
        obs = ctx.job.observer
        if obs is not None:
            waited = max(0.0, ctx.clock - before - latency)
            obs.on_recv(ctx.rank, group._members[source], tag, env.nbytes, ctx.clock, waited)
        return env.payload

    def sendrecv(
        self, obj: Any, dest: int, source: int, sendtag: int = 0, recvtag: int = 0
    ) -> Any:
        """Simultaneous send+receive (deadlock-free pairwise exchange)."""
        self.send(obj, dest, tag=sendtag)
        return self.recv(source, tag=recvtag)

    # -- row interchanges ------------------------------------------------------------
    def swap_rows(
        self,
        arrays: Sequence[np.ndarray],
        steps: Sequence[Any],
        participants: Sequence[int],
        tag: int = 0,
    ) -> None:
        """One HPL panel's pairwise row interchanges (``pdlaswp``), run as a
        single rendezvous of the ranks they touch.

        ``arrays`` are the calling rank's arrays whose axis-0 rows move
        together.  ``steps`` are its share of the interchanges in pivot
        order, ``(j, row, partner, other)`` tuples as
        :func:`repro.hpl.grid.swap_plan` makes them: with ``partner`` None,
        rows ``row`` and ``other`` swap in place; otherwise row ``row`` is
        exchanged with communicator rank ``partner`` under tag ``tag + j``.
        ``participants`` names every communicator rank with an exchange in
        this instance, the same list on each of them.

        A rank with no exchange swaps its rows in place and returns: it
        neither waits nor moves its clock.  The others park until the last
        of them arrives, or the first of them finds every other one arrived
        or terminated; that rank runs every participant's steps in pivot
        order, each priced and observed as :meth:`sendrecv` of the row
        tuple would be: the participant's :meth:`RankContext.check` at that
        step's clock, the send priced by :meth:`_p2p_time_to` over
        ``_payload_nbytes`` of the row tuple, the receive completing at
        ``max(clock + latency, arrival)``, and ``on_send`` / ``on_recv``
        with the same arguments.  The rows then move as one composed
        permutation: per array, every participant's rows are gathered in one
        go before each participant's are written in one go.  Every
        participant resumes with its own clock.
        One whose check failed raises that error; one whose partner never
        sent a step then waits for that message as :meth:`recv` does, and
        so raises :class:`JobAbortedError` where the receive would.  No
        message enters a mailbox and no collective is reported.
        """
        ctx = self._ctx
        me = self.rank
        if all(s[2] is None for s in steps):
            if me in participants:
                raise ValueError(f"swap_rows: rank {me} is a participant with no exchange")
            rows = _number_rows(steps, 0)
            source = list(range(len(rows)))
            for _, row, _, other in steps:
                a, b = rows[row], rows[other]
                source[a], source[b] = source[b], source[a]
            _move_rows([arrays], [list(rows)], source)
            return
        if me not in participants:
            raise ValueError(f"swap_rows: rank {me} has an exchange but is not a participant")
        group = self._group
        swap = group._swap
        if not swap.arrived:
            swap.participants = tuple(participants)
        swap.arrived[me] = (ctx, arrays, steps, tag)
        job = ctx.job
        done = job._done_ranks
        members = group._members
        try:
            while me not in swap.outbox:
                if all(p in swap.arrived or members[p] in done for p in swap.participants):
                    self._run_swaps(job)
                else:
                    job._park(ctx.rank, group, _SWAP_KEY)
        except BaseException:
            swap.arrived.pop(me, None)
            raise
        ctx.clock, error, blocked = swap.outbox.pop(me)
        if error is not None:
            raise error
        if blocked is not None:
            key, peer = blocked
            self._wait(key, lambda: False, peers=(peer,))

    def _run_swaps(self, job: "Job") -> None:
        """Run one ``swap_rows`` instance for every participant that arrived,
        leave each one's outcome in the outbox and wake them.

        Steps run in pivot order.  Within a pivot both sides send before
        either receives, as their two ``sendrecv`` calls would.  A check
        can only fail where the participant's node has a death key (a pin
        or a failure instant, see :meth:`RankContext.check`) or the job a
        hard abort, and in this loop only a pinned node can gain one, so
        every other participant skips it.  Each row's content is tracked as
        the number of the row that held it at entry, and rows are written
        once, at the end; a step carries its rows' numbers from the start.
        """
        group = self._group
        swap = group._swap
        arrived, swap.arrived = swap.arrived, {}
        members = group._members
        lat = group._net.params.latency_s
        obs = job.observer
        clock = {p: entry[0].clock for p, entry in arrived.items()}
        risky = {
            p for p, entry in arrived.items()
            if entry[0]._pin is not None or entry[0].node._failed_at is not None
            or job._abort_hard
        }
        live = set(arrived)
        outcome: Dict[int, Tuple[float, Optional[Exception], Any]] = {}
        #: per pivot, ``(participant, row, partner, row number, other's
        #: number)`` of each step; the other's number only for a local swap
        by_pivot: List[List[Tuple[int, int, Optional[int], int, int]]] = [
            [] for _ in range(1 + max(entry[2][-1][0] for entry in arrived.values()))
        ]
        #: every row a step names, numbered participant by participant;
        #: ``source[s]`` is the number of the row whose entry content row
        #: ``s`` holds at this point of the chain
        held: List[List[int]] = []
        source: List[int] = []
        for p, entry in arrived.items():
            rows = _number_rows(entry[2], len(source))
            held.append(list(rows))
            source.extend(rows.values())
            for j, row, partner, other in entry[2]:
                by_pivot[j].append(
                    (p, row, partner, rows[row], -1 if partner is not None else rows[other])
                )
        #: (sender, partner) -> (send cost, payload bytes)
        priced: Dict[Tuple[int, int], Tuple[float, int]] = {}

        def failed(p: int) -> bool:
            """Run ``p``'s check at its clock in the chain; a raise ends it."""
            ctx = arrived[p][0]
            ctx.clock = clock[p]
            try:
                ctx.check()
            except SimError as exc:
                outcome[p] = (clock[p], exc, None)
                live.discard(p)
                return True
            return False

        for j, entries in enumerate(by_pivot):
            #: sender -> (partner, tag, source row, arrival clock, payload bytes)
            sent: Dict[int, Tuple[int, int, int, float, int]] = {}
            for p, row, partner, num, other_num in entries:
                if p not in live:
                    continue
                if partner is None:
                    source[num], source[other_num] = source[other_num], source[num]
                    continue
                if p in risky and failed(p):
                    continue
                ctx, arrays, _, tag = arrived[p]
                price = priced.get((p, partner))
                if price is None:
                    nbytes = _payload_nbytes(tuple(a[row] for a in arrays))
                    price = priced[p, partner] = (
                        self._p2p_time_to(job, p, partner, nbytes), nbytes
                    )
                c = clock[p] = clock[p] + price[0]
                if obs is not None:
                    obs.on_send(ctx.rank, members[partner], tag + j, price[1], c)
                sent[p] = (partner, tag, source[num], c, price[1])
            for p, _, partner, num, _ in entries:
                if partner is None or p not in live:
                    continue
                if p in risky and failed(p):
                    continue
                ctx, _, _, tag = arrived[p]
                msg = sent.get(partner)
                if msg is None or msg[:2] != (p, tag):  # the partner never sent it
                    outcome[p] = (clock[p], None, ((p, partner, tag + j), members[partner]))
                    live.discard(p)
                    continue
                _, _, ref, arrival, nbytes = msg
                before = clock[p]
                c = clock[p] = max(before + lat, arrival)
                if obs is not None:
                    obs.on_recv(
                        ctx.rank, members[partner], tag + j, nbytes, c, max(0.0, c - before - lat)
                    )
                source[num] = ref
        for p in live:
            outcome[p] = (clock[p], None, None)
        _move_rows([entry[1] for entry in arrived.values()], held, source)
        swap.outbox.update(outcome)
        job._notify((group, _SWAP_KEY[0]))

    # -- generic custom collective -------------------------------------------------
    def custom_collective(
        self,
        contribution: Any,
        compute: Callable[[Dict[int, Any]], Dict[int, Any]],
        cost: Callable[[Dict[int, Any]], float],
    ) -> Any:
        """Run an arbitrary synchronized collective.

        All members contribute; the last arriver evaluates ``compute`` on
        ``{rank: contribution}`` to produce per-rank results and ``cost`` to
        price the operation.  Every participant leaves with its clock set to
        ``max(entry clocks) + cost``.  This is the extension point the
        checkpoint encoder uses for its fused stripe reduce.

        If ``compute`` or ``cost`` raises, that exception is the collective's
        outcome: every member raises it, and the communicator stays usable.
        """
        ctx = self._ctx
        ctx.check()
        group = self._group
        slot = group._slot
        me = self.rank
        size = len(group._members)
        job = ctx.job
        obs = job.observer
        slot.contrib[me] = (contribution, ctx.clock)
        if obs is not None:
            obs.on_collective_enter(group.name, size, ctx.rank, ctx.clock)
        if len(slot.contrib) == size:
            self._complete(job, compute, cost)
        else:
            try:
                self._wait(
                    None,
                    lambda: me in slot.outbox,
                    peers=group._members,  # self included: it cannot have terminated
                )
            except BaseException:
                slot.abandoned.add(me)
                raise
        # popping releases the slot's reference at delivery, so a result
        # buffer lives no longer than its taker keeps it
        result, finish, error = slot.outbox.pop(me)
        ctx.clock = finish
        if error is not None:
            raise error
        return result

    def _complete(
        self,
        job: "Job",
        compute: Callable[[Dict[int, Any]], Dict[int, Any]],
        cost: Callable[[Dict[int, Any]], float],
    ) -> None:
        """Last arriver: evaluate the collective, reset the slot for the next
        instance, leave every member's outcome in the outbox and wake them.

        The observer hears the whole instance end here —
        ``on_collective_exit`` for all members in rank order — because this
        rank may enter the next instance before the others run again, and
        an exit reported after that entry would be booked against the wrong
        instance.  Every member leaves at exactly ``finish``: it is at least
        ``t_start``, the latest entry clock.
        """
        group = self._group
        slot = group._slot
        contrib, slot.contrib = slot.contrib, {}
        data = {r: c for r, (c, _) in contrib.items()}
        t_start = max(t for _, t in contrib.values())
        try:
            results = compute(data)
            finish, error = t_start + cost(data), None
        except Exception as exc:
            results, finish, error = None, t_start, exc
        takers = [r for r in range(self.size) if r not in slot.abandoned]
        for r in takers:
            slot.outbox[r] = (None if error is not None else results[r], finish, error)
        job._notify((group, None))
        obs = job.observer
        if obs is not None:
            for r in takers:
                obs.on_collective_exit(group.name, self.size, group._members[r], finish)

    # -- standard collectives ---------------------------------------------------------
    def barrier(self) -> None:
        self.custom_collective(None, compute=dict.fromkeys, cost=self._group._barrier_cost)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns its copy."""
        self._check_rank("root", root)

        def compute(data: Dict[int, Any]) -> Dict[int, Any]:
            value = data[root]
            return {r: (value if r == root else _copy_payload(value)) for r in data}

        return self.custom_collective(
            obj if self.rank == root else None,
            compute=compute,
            cost=lambda data: self.net.bcast_time(_payload_nbytes(data[root]), self.size),
        )

    def allreduce(self, array: np.ndarray, op: ReduceOp = ReduceOp.SUM) -> np.ndarray:
        array = np.asarray(array)

        def compute(data: Dict[int, Any]) -> Dict[int, Any]:
            combined = op.combine([data[r] for r in sorted(data)])
            return {r: np.array(combined, copy=True) for r in data}

        return self.custom_collective(
            array,
            compute=compute,
            cost=lambda data: self.net.allreduce_time(int(array.nbytes), self.size),
        )

    def allreduce_obj(self, value: Any, func: Callable[[Any, Any], Any]) -> Any:
        def compute(data: Dict[int, Any]) -> Dict[int, Any]:
            ranks = sorted(data)
            acc = data[ranks[0]]
            for r in ranks[1:]:
                acc = func(acc, data[r])
            return {r: _copy_payload(acc) for r in data}

        return self.custom_collective(
            value,
            compute=compute,
            cost=lambda data: self.net.allreduce_time(_SMALL_OBJ_BYTES, self.size),
        )

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one object per rank into a rank-ordered list on ``root``:
        the root's own object, and a copy of every other member's."""
        self._check_rank("root", root)

        def compute(data: Dict[int, Any]) -> Dict[int, Any]:
            ordered = [data[r] if r == root else _copy_payload(data[r]) for r in range(self.size)]
            return {r: (ordered if r == root else None) for r in data}

        return self.custom_collective(
            obj,
            compute=compute,
            cost=lambda data: self.net.gather_time(
                max(_payload_nbytes(v) for v in data.values()), self.size
            ),
        )

    def allgather(self, obj: Any) -> List[Any]:
        """Every member's ``obj``, in rank order, as a list of its own.  When
        every payload is deeply immutable the members share one tuple and
        each list is made from it on return; otherwise each member gets its
        own copies."""

        def compute(data: Dict[int, Any]) -> Dict[int, Any]:
            ordered = tuple(data[r] for r in range(self.size))
            if all(map(_immutable, ordered)):
                return dict.fromkeys(data, ordered)
            return {r: [_copy_payload(v) for v in ordered] for r in data}

        gathered = self.custom_collective(
            obj,
            compute=compute,
            cost=lambda data: self.net.allgather_time(
                max(_payload_nbytes(v) for v in data.values()), self.size
            ),
        )
        return list(gathered) if type(gathered) is tuple else gathered

    # -- communicator construction ---------------------------------------------------
    def split(self, color: int, key: int | None = None) -> "Communicator":
        """MPI_Comm_split: ranks sharing ``color`` form a new communicator,
        ordered by ``(key, old rank)``.  The completing rank builds each new
        group once; every member returns a handle of its own on its group."""
        sort_key = self.rank if key is None else key
        parent = self._group

        def compute(data: Dict[int, Any]) -> Dict[int, Any]:
            # the completing rank alone numbers the split: split1, split2, ...
            parent._split_counter += 1
            split_id = parent._split_counter
            colors: Dict[int, List[Tuple[int, int]]] = {}
            for r, (c, k) in data.items():
                colors.setdefault(c, []).append((k, r))
            groups: Dict[int, _Group] = {}
            for c, pairs in colors.items():
                pairs.sort()
                members = [parent._members[r] for _, r in pairs]
                groups[c] = _Group(members, f"{parent.name}/split{split_id}.{c}", parent._net)
            return {r: groups[c] for r, (c, _) in data.items()}

        group = self.custom_collective(
            (color, sort_key),
            compute=compute,
            cost=parent._barrier_cost,
        )
        return Communicator(group, self._ctx)

    def _check_rank(self, kind: str, r: int) -> None:
        # a float or a bool would pass the range check and post to, or wait
        # on, a mailbox no rank reads
        if type(r) is not int and (type(r) is bool or not isinstance(r, np.integer)):
            raise TypeError(f"{kind} must be an integer rank, got {r!r}")
        if not 0 <= r < len(self._group._members):
            raise ValueError(f"bad {kind} {r} for size {self.size}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Communicator({self.name}, rank={self.rank}, size={self.size})"
