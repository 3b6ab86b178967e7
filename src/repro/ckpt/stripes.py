"""The ``(N, m)`` stripe layout and parity arithmetic for group encoding
(paper §2.1).

A group of ``N`` processes protects each member's buffer with ``m``
parity stripes per *slot row*.  Every member splits its padded buffer
into ``N - m`` equal data stripes and additionally hosts ``m`` parity
stripes.  Conceptually there are ``N`` slot rows; in row ``r``

* parity ``j`` (``j = 0 … m-1``) lives on member ``(r + j) mod N``,
* the other ``N - m`` members each contribute one data stripe, in
  member order, each member handing out its stripes in row order.

With ``m = 1`` this *is* the paper's RAID-5 picture (Fig. 1): row ``i``
is "slot ``i``", process ``i`` hosts checksum ``i``, and the data
stripes of process ``p`` fill the remaining slots in order
(:func:`slot_of_stripe` / :func:`stripe_in_slot`), so

    X_S = X_1 (+) X_2 (+) ... (+) X_{N-1}            (paper Eq. 1)

where ``(+)`` is bitwise XOR (``MPI_BXOR``, the default as in §2.2) or
numeric addition over doubles (``MPI_SUM``).  With ``m = 2`` it is the
"RAID-6 and Reed-Solomon" extension the same section names: P (XOR) on
member ``r``, Q (GF(2^8)) on member ``r + 1``, any two members of a group
may be lost.  Losing ``<= m`` members removes at most ``m`` entries from
each row — data and/or parity — which the row codec decodes.

The combinatorics depend only on ``(N, m)`` and are computed once
(:func:`layout_for`).  The arithmetic of one row — how many parities, in
which field — is the *row codec* (:func:`repro.ckpt.kernels.codec_for`);
nothing in this module depends on the parity count beyond array shapes.

Hot paths are zero-copy: each member buffer is reshaped once into an
``(N - m, stripe)`` view, encode writes every row's parity straight into
one ``(N, m, stripe)`` block — ``block[i]`` is everything member ``i``
hosts, contiguous, so a protocol stores ``block[i].reshape(-1)`` as its
checksum segment without packing — and reconstruction decodes straight
through stripe views of the rebuilt members.

All functions are pure numpy; the communication side lives in
:mod:`repro.ckpt.encoding`.  Buffers must be ``uint8`` arrays whose length
is a multiple of ``8 * (N - m)`` (see :func:`padded_size`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.ckpt.kernels import codec_for

#: what one member hosts: its ``m`` parity stripes, indexable ``[j]``
#: (a ``(m, stripe)`` array, or any sequence of stripes)
MemberParity = Sequence[np.ndarray]


@dataclass(frozen=True)
class StripeLayout:
    """Row combinatorics of one ``(group_size, parity)`` pair.

    ``rows[r]`` is ``(holders, cells)``: ``holders[j]`` is the member
    hosting parity ``j`` of slot row ``r``, and ``cells`` lists the row's
    data contributions as ``(member, local stripe index)`` in codec
    position order.
    """

    group_size: int
    parity: int
    rows: Tuple[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]], ...]

    @property
    def n_stripes(self) -> int:
        """Data stripes per member (= data contributions per row)."""
        return self.group_size - self.parity


@lru_cache(maxsize=None)
def layout_for(group_size: int, parity: int = 1) -> StripeLayout:
    """The cached :class:`StripeLayout` for ``group_size`` members."""
    n, m = group_size, parity
    if m < 1 or n < 2 * m:
        raise ValueError(
            f"a group with {m} parity stripe(s) per row needs >= {max(2, 2 * m)} "
            f"members; got {n}"
        )
    handed_out = [0] * n
    rows = []
    for r in range(n):
        holders = tuple((r + j) % n for j in range(m))
        cells = []
        for member in range(n):
            if member not in holders:
                cells.append((member, handed_out[member]))
                handed_out[member] += 1
        rows.append((holders, tuple(cells)))
    return StripeLayout(group_size=n, parity=m, rows=tuple(rows))


def padded_size(nbytes: int, group_size: int, parity: int = 1) -> int:
    """Smallest buffer size >= ``nbytes`` divisible into ``group_size -
    parity`` stripes of whole 64-bit words."""
    unit = 8 * layout_for(group_size, parity).n_stripes
    return ((max(1, nbytes) + unit - 1) // unit) * unit


def checksum_size(nbytes_padded: int, group_size: int, parity: int = 1) -> int:
    """Parity bytes hosted per member: ``m/(N-m)`` of the protected
    buffer (paper §3.1 for ``m = 1``)."""
    n_stripes = layout_for(group_size, parity).n_stripes
    if nbytes_padded % (8 * n_stripes):
        raise ValueError(f"{nbytes_padded} not a multiple of {8 * n_stripes}")
    return parity * (nbytes_padded // n_stripes)


def slot_of_stripe(proc: int, stripe: int) -> int:
    """Slot index hosting data stripe ``stripe`` of process ``proc`` in the
    single-parity layout (paper Fig. 1).

    Process ``proc``'s checksum occupies slot ``proc``; its data stripes
    fill the remaining slots in increasing order.
    """
    return stripe if stripe < proc else stripe + 1


def stripe_in_slot(proc: int, slot: int) -> int:
    """Inverse of :func:`slot_of_stripe`; ``slot`` must differ from ``proc``."""
    if slot == proc:
        raise ValueError(f"slot {slot} is process {proc}'s checksum slot")
    return slot if slot < proc else slot - 1


def _stripe_matrix(buf: np.ndarray, n_stripes: int) -> np.ndarray:
    """One zero-copy ``(n_stripes, stripe)`` view of a member buffer: row
    ``i`` is data stripe ``i``."""
    if buf.dtype != np.uint8:
        raise TypeError(f"expected uint8 buffer, got {buf.dtype}")
    if len(buf) % (8 * n_stripes):
        raise ValueError("buffer not divisible into word stripes; pad first")
    return buf.reshape(n_stripes, len(buf) // n_stripes)


def build_parity(
    buffers: Sequence[np.ndarray], parity: int = 1, op: str = "xor"
) -> np.ndarray:
    """Compute every parity stripe of a group.

    Parameters
    ----------
    buffers:
        One padded ``uint8`` buffer per group member, all the same length.
    parity:
        Parity stripes per row (``m``).
    op:
        ``"xor"`` (bit-exact) or ``"sum"`` (numeric doubles, ``m = 1``).

    Returns
    -------
    An ``(N, m, stripe)`` uint8 block — the only allocation made here —
    whose ``[i][j]`` is parity ``j`` hosted by member ``i`` (of slot row
    ``i - j``).
    """
    n = len(buffers)
    layout = layout_for(n, parity)
    size = len(buffers[0])
    if any(len(b) != size for b in buffers):
        raise ValueError("group buffers must share one padded size")
    codec = codec_for(layout.n_stripes, parity, op)
    mats = [_stripe_matrix(b, layout.n_stripes) for b in buffers]
    block = np.empty((n, parity, size // layout.n_stripes), dtype=np.uint8)
    for holders, cells in layout.rows:
        codec.encode(
            [mats[j][s] for j, s in cells],
            *[block[h, i] for i, h in enumerate(holders)],
        )
    return block


def reconstruct_members(
    survivors: Mapping[int, np.ndarray],
    survivor_parity: Mapping[int, MemberParity],
    missing: Sequence[int],
    group_size: int,
    parity: int = 1,
    op: str = "xor",
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Rebuild up to ``parity`` lost members' buffers and parity stripes.

    Parameters
    ----------
    survivors:
        ``{member: padded uint8 buffer}`` for every healthy member.
    survivor_parity:
        ``{member: its m parity stripes}`` for the same members.
    missing:
        The lost member indices.

    Returns
    -------
    ``{member: (buffer, (m, stripe) parity block)}`` for each lost member.

    Raises
    ------
    ValueError when more members are missing than the layout has parity
    stripes — never a wrong answer.
    """
    n = group_size
    layout = layout_for(n, parity)
    lost = sorted(set(missing))
    if not 1 <= len(lost) <= parity:
        raise ValueError(
            f"{parity}-parity stripes rebuild 1..{parity} lost members; "
            f"got {len(lost)} ({lost})"
        )
    expect = set(range(n)) - set(lost)
    if set(survivors) != expect or set(survivor_parity) != expect:
        raise ValueError(
            f"need buffers+parity from exactly the {len(expect)} survivors "
            f"{sorted(expect)}; got {sorted(survivors)} / {sorted(survivor_parity)}"
        )
    k = layout.n_stripes
    codec = codec_for(k, parity, op)
    surv = {j: _stripe_matrix(b, k) for j, b in survivors.items()}
    stripe = next(iter(surv.values())).shape[1]
    rebuilt = {x: np.empty((k, stripe), dtype=np.uint8) for x in lost}
    rebuilt_parity = {x: np.empty((parity, stripe), dtype=np.uint8) for x in lost}
    # lands the parities a re-encode produces but a survivor still holds
    scratch = np.empty((parity, stripe), dtype=np.uint8)

    for holders, cells in layout.rows:
        present: Dict[int, np.ndarray] = {}
        lost_views: Dict[int, np.ndarray] = {}  # codec position -> out stripe
        for pos, (j, s) in enumerate(cells):
            if j in rebuilt:
                lost_views[pos] = rebuilt[j][s]
            else:
                present[pos] = surv[j][s]
        # decode writes straight through the rebuilt members' stripe views
        codec.decode(
            present,
            *[
                None if h in rebuilt else survivor_parity[h][i]
                for i, h in enumerate(holders)
            ],
            out=lost_views,
        )
        # a lost holder's parity is re-encoded from the now complete row
        if not expect.issuperset(holders):
            row = {**present, **lost_views}
            codec.encode(
                [row[pos] for pos in range(k)],
                *[
                    rebuilt_parity[h][i] if h in rebuilt else scratch[i]
                    for i, h in enumerate(holders)
                ],
            )
    return {x: (rebuilt[x].reshape(-1), rebuilt_parity[x]) for x in lost}


def verify_parity(
    buffers: Sequence[np.ndarray],
    member_parity: Sequence[MemberParity],
    parity: int = 1,
    op: str = "xor",
) -> bool:
    """True when the stored parity is consistent with ``buffers``.

    Checks row by row and returns ``False`` at the first mismatching
    stripe — a corrupted group is detected after one row's worth of
    encoding.  For ``op="sum"`` float checksums are compared to within a
    few ulps of accumulated rounding.
    """
    n = len(buffers)
    if len(member_parity) != n:
        raise ValueError(f"need {n} buffers and {n} members' parity")
    layout = layout_for(n, parity)
    k = layout.n_stripes
    codec = codec_for(k, parity, op)
    mats = [_stripe_matrix(b, k) for b in buffers]
    fresh = np.empty((parity, mats[0].shape[1]), dtype=np.uint8)
    for holders, cells in layout.rows:
        codec.encode([mats[j][s] for j, s in cells], *fresh)
        for i, h in enumerate(holders):
            if not codec.matches(fresh[i], member_parity[h][i]):
                return False
    return True


# -- the paper's single-checksum API (Fig. 1): the m = 1 bindings -----------------
def build_checksums(
    buffers: Sequence[np.ndarray], op: str = "xor"
) -> List[np.ndarray]:
    """All ``N`` checksum stripes of a group; element ``i`` is the stripe
    hosted by process ``i`` (combining slot ``i`` of every other process)."""
    return list(build_parity(buffers, 1, op)[:, 0])


def reconstruct(
    survivors: Dict[int, np.ndarray],
    survivor_checksums: Dict[int, np.ndarray],
    missing: int,
    group_size: int,
    op: str = "xor",
) -> Tuple[np.ndarray, np.ndarray]:
    """Rebuild the one lost process's ``(buffer, checksum stripe)``."""
    buf, cs = reconstruct_members(
        survivors,
        {r: (c,) for r, c in survivor_checksums.items()},
        [missing],
        group_size,
        1,
        op,
    )[missing]
    return buf, cs[0]


def verify_group(
    buffers: Sequence[np.ndarray],
    checksums: Sequence[np.ndarray],
    op: str = "xor",
) -> bool:
    """True when ``checksums`` are consistent with ``buffers``."""
    return verify_parity(buffers, [(c,) for c in checksums], 1, op)
