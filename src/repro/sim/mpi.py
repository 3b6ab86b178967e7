"""MPI-like communicator with virtual-time accounting; one rank runs at a time.

Semantics follow the subset of MPI the paper's systems need:

* blocking standard-mode ``send``/``recv``/``sendrecv`` with (source, tag)
  matching,
* the collectives HPL and the checkpoint protocols use (``bcast``,
  ``allreduce``, ``allreduce_obj``, ``gather``, ``allgather``,
  ``barrier``), and ``custom_collective`` for the fused stripe encode,
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

Nothing here locks or reads the host clock: one rank runs at a time (see
:mod:`repro.sim.runtime`), so mailboxes and the collective slot are plain
dicts.  A rank that must wait *parks* on a channel — its own mailbox, or its
communicator's collective slot — and hands the baton on; ``send`` wakes only
the receiver, and the last arriver of a collective computes every member's
result and wakes them all, one hand-off per member.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim._tls import current_ctx
from repro.sim.errors import JobAbortedError
from repro.sim.netmodel import NetworkModel

#: Charged size for payloads whose size we cannot see (python scalars etc.).
_SMALL_OBJ_BYTES = 64


def _payload_nbytes(obj: Any) -> int:
    """Best-effort wire size of a payload."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(_payload_nbytes(x) for x in obj) or _SMALL_OBJ_BYTES
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
    #: opaque observer token (e.g. the sender's vector-clock snapshot);
    #: handed back to the observer when the message is received
    token: Any = None


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


class Communicator:
    """A group of ranks that can exchange messages and run collectives.

    Created by :class:`~repro.sim.runtime.Job` (the world communicator) or
    by :meth:`split`.  All methods infer the calling rank from the thread's
    bound :class:`RankContext`, so the API reads like mpi4py.
    """

    def __init__(self, job: "Job", members: List[int], name: str = "world"):  # noqa: F821
        self._job = job
        self._members = list(members)
        self._index: Dict[int, int] = {w: i for i, w in enumerate(members)}
        self.name = name
        self._net = NetworkModel(job.cluster.spec.net)
        self._mail: Dict[Tuple[int, int, int], List[_Envelope]] = {}
        self._slot = _CollectiveSlot()
        self._split_counter = 0

    # -- identity -------------------------------------------------------------
    @property
    def net(self) -> NetworkModel:
        """The cost model pricing this communicator's operations."""
        return self._net

    @property
    def size(self) -> int:
        return len(self._members)

    @property
    def rank(self) -> int:
        """Rank of the calling thread within this communicator."""
        return self._index[current_ctx().rank]

    @property
    def members(self) -> List[int]:
        """World ranks of the members, in communicator rank order."""
        return list(self._members)

    # -- deadlock report --------------------------------------------------------
    def _describe_wait(self, key: Optional[Tuple[int, int, int]]) -> str:
        """What a rank parked by :meth:`_wait` waits for, in world ranks."""
        if key is None:
            missing = [w for r, w in enumerate(self._members) if r not in self._slot.contrib]
            return f"collective on {self.name}, waiting for ranks {missing}"
        return f"recv src={self._members[key[1]]} tag={key[2]} on {self.name}"

    def _stuck_tags(self, key: Tuple[int, int, int]) -> List[str]:
        """For a receive parked on ``key = (me, src, tag)``: the messages the
        same sender queued for it under other tags — the signature of a
        mismatched send/recv tag pair."""
        me, src, tag = key
        return [
            f"rank {self._members[me]} waits for tag={tag} from rank "
            f"{self._members[src]}, but {len(queued)} message(s) with tag={t} "
            "are queued from that rank — mismatched send/recv tags"
            for (dst, s, t), queued in sorted(self._mail.items())
            if dst == me and s == src and t != tag
        ]

    # -- observer plumbing -----------------------------------------------------
    def _notify_send(self, dest: int, tag: int, nbytes: int) -> Any:
        """Report a send; returns the observer token to ride the envelope."""
        obs = self._job.observer
        if obs is None:
            return None
        ctx = current_ctx()
        return obs.on_send(ctx.rank, self._members[dest], tag, nbytes, ctx.clock)

    def _notify_recv(
        self, key: Tuple[int, int, int], env: _Envelope, waited_s: float = 0.0
    ) -> None:
        obs = self._job.observer
        if obs is None:
            return
        ctx = current_ctx()
        _, src, tag = key
        obs.on_recv(ctx.rank, self._members[src], tag, env.token, ctx.clock, waited_s)

    # -- waiting with failure delivery -----------------------------------------
    def _wait(
        self,
        key: Optional[Tuple[int, int, int]],
        predicate: Callable[[], Any],
        peers: Sequence[int],
    ) -> None:
        """Park until ``predicate`` holds, handing the baton on meanwhile;
        deliver aborts.  ``key`` is the awaited mailbox key, ``None`` for
        this communicator's collective slot.

        ``peers`` lists the world ranks whose progress could satisfy this
        wait.  When the job is aborting and one of them has terminated the
        wait raises :class:`JobAbortedError` — the deterministic failure
        delivery path: the predicate is always tried first, so messages
        posted before the failure are consumed, and the raise point depends
        only on virtual program order.  Parking when no rank is ready to
        run is deadlock and raises :class:`SimError` at once.
        """
        ctx = current_ctx()
        job = self._job
        while not predicate():
            ctx.check()
            if job.wait_unsatisfiable(peers):
                raise JobAbortedError(
                    f"rank {ctx.rank}: job aborting and a peer rank "
                    f"terminated; {self.name} wait cannot be satisfied"
                )
            job._park(ctx.rank, self, key)

    def _p2p_scale(self, my_rank: int, peer_rank: int) -> float:
        """Bandwidth derating for a message between two communicator ranks:
        1.0 within a rack, the topology's inter-rack factor across racks."""
        topo = self._job.topology
        if topo is None:
            return 1.0
        ranklist = self._job.ranklist
        a = ranklist[self._members[my_rank]]
        b = ranklist[self._members[peer_rank]]
        if topo.rack_of(a) == topo.rack_of(b):
            return 1.0
        return topo.inter_rack_bw_factor

    def _p2p_time_to(self, my_rank: int, peer_rank: int, nbytes: int) -> float:
        scale = self._p2p_scale(my_rank, peer_rank)
        base = self._net.p2p_time(nbytes)
        if scale >= 1.0:
            return base
        # only the bandwidth term is derated, not the latency
        bw_term = nbytes / self._net.params.bandwidth_Bps
        return base + bw_term * (1.0 / scale - 1.0)

    # -- point to point ----------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send to communicator rank ``dest``."""
        ctx = current_ctx()
        ctx.check()
        if not 0 <= dest < self.size:
            raise ValueError(f"bad dest {dest} for size {self.size}")
        nbytes = _payload_nbytes(obj)
        ctx.clock += self._p2p_time_to(self.rank, dest, nbytes)
        env = _Envelope(
            payload=_copy_payload(obj),
            nbytes=nbytes,
            arrival_time=ctx.clock,
            token=self._notify_send(dest, tag, nbytes),
        )
        self._mail.setdefault((dest, self.rank, tag), []).append(env)
        self._job._notify((self, dest))

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive from communicator rank ``source``: takes the
        next message under ``(me, source, tag)``, parking until it is
        posted."""
        ctx = current_ctx()
        ctx.check()
        key = (self.rank, source, tag)
        self._wait(
            key,
            lambda: self._mail.get(key),
            peers=(self._members[source],),
        )
        env = self._mail[key].pop(0)
        if not self._mail[key]:
            del self._mail[key]
        # virtual time spent waiting on the sender: how far the arrival
        # outran our own clock-plus-latency (deterministic, unlike whether
        # the rank physically parked)
        before = ctx.clock
        ctx.clock = max(ctx.clock + self._net.params.latency_s, env.arrival_time)
        waited = max(0.0, ctx.clock - before - self._net.params.latency_s)
        self._notify_recv(key, env, waited)
        return env.payload

    def sendrecv(
        self, obj: Any, dest: int, source: int, sendtag: int = 0, recvtag: int = 0
    ) -> Any:
        """Simultaneous send+receive (deadlock-free pairwise exchange)."""
        self.send(obj, dest, tag=sendtag)
        return self.recv(source, tag=recvtag)

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
        ctx = current_ctx()
        ctx.check()
        slot = self._slot
        me = self.rank
        obs = self._job.observer
        slot.contrib[me] = (contribution, ctx.clock)
        if obs is not None:
            obs.on_collective_enter(self.name, self.size, ctx.rank, ctx.clock)
        if len(slot.contrib) == self.size:
            self._complete(compute, cost)
        else:
            try:
                self._wait(
                    None,
                    lambda: me in slot.outbox,
                    peers=self._members,  # self included: it cannot have terminated
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
        slot = self._slot
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
        self._job._notify((self, None))
        obs = self._job.observer
        if obs is not None:
            for r in takers:
                obs.on_collective_exit(self.name, self.size, self._members[r], finish)

    # -- standard collectives ---------------------------------------------------------
    def barrier(self) -> None:
        self.custom_collective(
            None,
            compute=lambda data: {r: None for r in data},
            cost=lambda data: self._net.barrier_time(self.size),
        )

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns its copy."""

        def compute(data: Dict[int, Any]) -> Dict[int, Any]:
            value = data[root]
            return {r: (value if r == root else _copy_payload(value)) for r in data}

        return self.custom_collective(
            obj if self.rank == root else None,
            compute=compute,
            cost=lambda data: self._net.bcast_time(_payload_nbytes(data[root]), self.size),
        )

    def allreduce(self, array: np.ndarray, op: ReduceOp = ReduceOp.SUM) -> np.ndarray:
        array = np.asarray(array)

        def compute(data: Dict[int, Any]) -> Dict[int, Any]:
            combined = op.combine([data[r] for r in sorted(data)])
            return {r: np.array(combined, copy=True) for r in data}

        return self.custom_collective(
            array,
            compute=compute,
            cost=lambda data: self._net.allreduce_time(int(array.nbytes), self.size),
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
            cost=lambda data: self._net.allreduce_time(_SMALL_OBJ_BYTES, self.size),
        )

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one object per rank into a rank-ordered list on ``root``."""

        def compute(data: Dict[int, Any]) -> Dict[int, Any]:
            ordered = [data[r] for r in range(self.size)]
            return {r: (ordered if r == root else None) for r in data}

        return self.custom_collective(
            obj,
            compute=compute,
            cost=lambda data: self._net.gather_time(
                max(_payload_nbytes(v) for v in data.values()), self.size
            ),
        )

    def allgather(self, obj: Any) -> List[Any]:
        def compute(data: Dict[int, Any]) -> Dict[int, Any]:
            ordered = [data[r] for r in range(self.size)]
            return {r: [_copy_payload(v) for v in ordered] for r in data}

        return self.custom_collective(
            obj,
            compute=compute,
            cost=lambda data: self._net.allgather_time(
                max(_payload_nbytes(v) for v in data.values()), self.size
            ),
        )

    # -- communicator construction ---------------------------------------------------
    def split(self, color: int, key: int | None = None) -> "Communicator":
        """MPI_Comm_split: ranks sharing ``color`` form a new communicator,
        ordered by ``(key, old rank)``."""
        me = self.rank
        sort_key = me if key is None else key

        def compute(data: Dict[int, Any]) -> Dict[int, Any]:
            # the completing rank alone numbers the split: split1, split2, ...
            self._split_counter += 1
            split_id = self._split_counter
            groups: Dict[int, List[Tuple[int, int]]] = {}
            for r, (c, k) in data.items():
                groups.setdefault(c, []).append((k, r))
            comms: Dict[int, Communicator] = {}
            for c, pairs in groups.items():
                pairs.sort()
                members = [self._members[r] for _, r in pairs]
                comms[c] = Communicator(
                    self._job, members, name=f"{self.name}/split{split_id}.{c}"
                )
            return {r: comms[c] for r, (c, _) in data.items()}

        return self.custom_collective(
            (color, sort_key),
            compute=compute,
            cost=lambda data: self._net.barrier_time(self.size),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Communicator({self.name}, size={self.size})"
