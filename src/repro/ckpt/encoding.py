"""Group encoder: stripe parity over a group communicator.

Wraps the pure stripe math of :mod:`repro.ckpt.stripes` in collective
operations on the simulated runtime.  :meth:`GroupEncoder.encode` is the
paper's **stripe-based rotating-root** scheme (§2.1): conceptually N
concurrent reduces, one rooted at each member, so no single NIC becomes a
hot spot — implemented as one fused collective priced by
:meth:`NetworkModel.stripe_encode_time`.  (The naive single-root
alternative exists only as a cost function,
:meth:`NetworkModel.single_root_encode_time`, for the ablation.)

One encoder serves every ``(N, m)`` layout: ``parity`` is the number of
parity stripes per slot row (1 = the paper's XOR/SUM checksum, 2 = the
RAID-6 style (P, Q) pair), and everything a member hosts travels as one
contiguous *checksum segment* of ``m`` stripes.

Recovery (:meth:`recover`) is the same collective shape in reverse: the
survivors contribute buffers and checksum segments, the replacement ranks
contribute nothing and receive their reconstructed state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ckpt import stripes
from repro.ckpt.kernels import codec_for
from repro.sim.mpi import Communicator

Contribution = Optional[Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class EncodeResult:
    """Outcome of one group encode."""

    checksum: np.ndarray  # this rank's checksum segment: its m parity stripes (uint8)
    data_bytes: int  # protected bytes per rank
    checksum_bytes: int
    seconds: float  # modeled encode time charged to the virtual clock


class GroupEncoder:
    """Parity encode/recover over one encoding group.

    Parameters
    ----------
    comm:
        Group communicator; communicator rank == group rank.
    op:
        ``"xor"`` (default, bit-exact) or ``"sum"`` (single parity only).
    parity:
        Parity stripes per slot row — the number of simultaneous member
        losses the group survives.
    """

    def __init__(self, comm: Communicator, op: str = "xor", parity: int = 1):
        # both raise ValueError: group too small for the layout, unknown
        # op, or an (op, parity) pair no row codec implements
        layout = stripes.layout_for(comm.size, parity)
        codec_for(layout.n_stripes, parity, op)
        self.comm = comm
        self.op = op
        self.parity = parity

    @property
    def group_size(self) -> int:
        return self.comm.size

    def padded_size(self, nbytes: int) -> int:
        return stripes.padded_size(nbytes, self.group_size, self.parity)

    def checksum_size(self, nbytes_padded: int) -> int:
        return stripes.checksum_size(nbytes_padded, self.group_size, self.parity)

    def _encode_cost(self, nbytes: int) -> float:
        """Every byte crosses the network once whatever the parity count;
        each parity beyond the first adds one bandwidth round's worth of
        work."""
        net = self.comm.net
        extra = (nbytes / net.params.per_process_bandwidth_Bps) * (
            net.params.stripe_round_overhead
        )
        return net.stripe_encode_time(nbytes, self.group_size) + (self.parity - 1) * extra

    # -- encode -----------------------------------------------------------------
    def encode(
        self, flat: np.ndarray, *, effective_bytes: int | None = None
    ) -> EncodeResult:
        """Stripe-encode the group's buffers; returns this rank's checksum
        segment — a zero-copy view of the group's parity block.

        ``flat`` must be the padded uint8 buffer, the same length on every
        member (enforced).  ``effective_bytes`` overrides the byte count
        used for cost accounting — the incremental protocol encodes a
        mostly-zero delta buffer but only moves its dirty pages.
        """
        self._check_flat(flat)
        n = self.group_size
        cost_bytes = int(flat.nbytes) if effective_bytes is None else effective_bytes
        t = self._encode_cost(cost_bytes)

        def compute(data: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
            sizes = {r: len(b) for r, b in data.items()}
            if len(set(sizes.values())) != 1:
                raise ValueError(f"group members disagree on flat size: {sizes}")
            block = stripes.build_parity(
                [data[r] for r in range(n)], self.parity, self.op
            )
            return {r: block[r].reshape(-1) for r in range(n)}

        checksum = self.comm.custom_collective(
            flat, compute=compute, cost=lambda data: t
        )
        return EncodeResult(
            checksum=checksum,
            data_bytes=int(flat.nbytes),
            checksum_bytes=int(checksum.nbytes),
            seconds=t,
        )

    # -- recover -----------------------------------------------------------------
    def recover(
        self,
        flat: Optional[np.ndarray],
        checksum: Optional[np.ndarray],
        missing: Union[int, Sequence[int]],
    ) -> Contribution:
        """Group-reconstruct the ``missing`` member(s)' buffer and checksum
        segment.

        Every *live* member calls this: survivors pass their buffer and
        checksum segment, replacement ranks pass ``None`` for both.
        Returns ``(flat, checksum)`` on a replacement rank, ``None``
        elsewhere.  The paper measures recovery as "similar to calculating
        the checksum ... a little longer" (§6.3); we price it as one encode
        plus the delivery of each rebuilt buffer.
        """
        me = self.comm.rank
        n = self.group_size
        m = self.parity
        lost = sorted(set(np.atleast_1d(missing).tolist()))
        if me in lost:
            if flat is not None or checksum is not None:
                raise ValueError("a missing rank must contribute None")
            contribution: Contribution = None
        else:
            if flat is None or checksum is None:
                raise ValueError("survivors must contribute buffer and checksum")
            self._check_flat(flat)
            contribution = (flat, checksum)

        def compute(data: Dict[int, Contribution]) -> Dict[int, Contribution]:
            live = {r: v for r, v in data.items() if v is not None}
            rebuilt = stripes.reconstruct_members(
                {r: v[0] for r, v in live.items()},
                {r: v[1].reshape(m, -1) for r, v in live.items()},
                lost,
                n,
                m,
                self.op,
            )
            return {
                r: (rebuilt[r][0], rebuilt[r][1].reshape(-1)) if r in rebuilt else None
                for r in data
            }

        def cost(data: Dict[int, Contribution]) -> float:
            nbytes = max(
                (int(v[0].nbytes) for v in data.values() if v is not None), default=0
            )
            return self._encode_cost(nbytes) + len(lost) * self.comm.net.p2p_time(nbytes)

        return self.comm.custom_collective(contribution, compute=compute, cost=cost)

    def _check_flat(self, flat: np.ndarray) -> None:
        if flat.dtype != np.uint8:
            raise TypeError("flat buffer must be uint8")
        if len(flat) != self.padded_size(len(flat)):
            raise ValueError(
                f"flat buffer length {len(flat)} is not stripe-aligned for "
                f"group size {self.group_size} with {self.parity} parity stripe(s)"
            )
