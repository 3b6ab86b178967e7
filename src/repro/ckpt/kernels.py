"""GF(2^8) arithmetic, its batched folds and the row codecs of the group
encoding: XOR / RAID-6 style (P, Q) parity and the float-sum single parity.

A *row codec* turns the data stripes of one slot row of the ``(N, m)``
layout (:mod:`repro.ckpt.stripes`) into its ``m`` parity stripes and back.
The paper's scheme is the single P parity (§2.1, Eq. 1); it also notes that
"more complex encoding methods, such as RAID-6 and Reed-Solomon, [can]
tolerate more node failures" — the second, Q, parity, which recovers any
**two** lost members at the cost of a second checksum stripe.

Arithmetic is the standard RAID-6 construction over GF(2^8) with the
primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D):

    P = D_0 ^ D_1 ^ ... ^ D_{n-1}
    Q = g^0*D_0 ^ g^1*D_1 ^ ... ^ g^{n-1}*D_{n-1},   g = 0x02

The codecs' hot loops funnel through three folds:

``xor_fold(rows, out)``
    ``out = rows[0] ^ rows[1] ^ ...`` — the P parity.
``gpow_fold(rows, exps, out)``
    ``out = g^e0*rows[0] ^ g^e1*rows[1] ^ ...`` with strictly increasing
    exponents — the Q parity (``exps = 0..k-1``) and the decode syndromes
    (arbitrary surviving exponents).
``scale(c, v, out)``
    ``out = c*v`` for an arbitrary field constant — the final division in
    the 1-loss-via-Q and 2-loss solves.

The GF(2^8) folds pick one of two algorithms by stripe size; both compute
exact field arithmetic, so the choice never changes a byte, which the
equivalence suite in ``tests/ckpt/test_kernels.py`` enforces.

Table gather (stripes below ``BITSLICE_MIN_BYTES``)
    One 256-entry table gather per row via :meth:`GF256.vec_mul_xor` —
    numpy per-call overhead dominates at protocol-size stripes, and this
    is also the oracle the tests compare the lanes against.
Bitsliced lanes (stripes of ``BITSLICE_MIN_BYTES`` and up)
    Horner evaluation with eight bytes packed per ``uint64`` lane: the
    whole-vector multiply-by-``g`` is five SIMD-friendly ops
    (shift/mask/xor) instead of a table gather:

        hi   = (v >> 7) & 0x0101...01     # the bytes about to overflow
        v    = ((v & 0x7f7f...7f) << 1) ^ hi * 0x1d

    Q then folds from the highest exponent down —
    ``Q = D_0 ^ g*(D_1 ^ g*(D_2 ^ ...))`` — so the only per-row work is
    one xor plus ``gap`` cheap multiplies (the gap between consecutive
    exponents), never a per-constant gather.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: Supported combine operators: bitwise XOR over GF(2^8) bytes (the
#: default, bit-exact) or numeric addition over doubles.
OPS = ("xor", "sum")

#: Stripe sizes below this use the table-gather fold: the bitsliced pass
#: is ~6 numpy calls per row and per-call overhead swamps the arithmetic
#: under ~4 KiB (measured crossover).
BITSLICE_MIN_BYTES = 4096

_MASK7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_LSB = np.uint64(0x0101010101010101)
_POLY64 = np.uint64(0x1D)
_POLY8 = np.uint8(0x1D)
_ONE = np.uint64(1)
_SEVEN = np.uint64(7)


class GF256:
    """The field GF(2^8) with log/antilog tables for fast vector ops."""

    POLY = 0x11D
    GENERATOR = 0x02

    def __init__(self) -> None:
        exp = np.zeros(512, dtype=np.uint8)
        log = np.zeros(256, dtype=np.int32)
        x = 1
        for i in range(255):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & 0x100:
                x ^= self.POLY
        exp[255:510] = exp[0:255]  # wraparound so exp[a+b] needs no mod
        self._exp = exp
        self._log = log
        # full 256x256 multiplication table, row c being the lookup table
        # v -> c*v: 64 KiB once per field instance instead of a fresh
        # 256-entry table per vec_mul call
        idx = (log[:, None] + log[None, :]) % 255
        table = exp[idx]
        table[0, :] = 0
        table[:, 0] = 0
        table.setflags(write=False)
        self._mul_table = table

    # -- scalar ops (used in solving the 2x2 erasure system) -------------------
    def mul(self, a: int, b: int) -> int:
        return int(self._mul_table[a, b])

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("GF256 division by zero")
        if a == 0:
            return 0
        return int(self._exp[(self._log[a] - self._log[b]) % 255])

    def inv(self, a: int) -> int:
        return self.div(1, a)

    def pow_g(self, k: int) -> int:
        """g^k for the generator g = 2."""
        return int(self._exp[k % 255])

    # -- vector ops ---------------------------------------------------------------
    def vec_mul(
        self, c: int, v: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Scale a uint8 vector by the field constant ``c``.

        With ``out=`` the product is written in place and ``out`` is
        returned — including for the trivial constants, so ``c == 1``
        into a distinct ``out`` is a copy and into ``out is v`` a no-op
        (no defensive allocation on hot paths).
        """
        if v.dtype != np.uint8:
            raise TypeError("GF256 vectors are uint8")
        if out is None:
            if c == 0:
                return np.zeros_like(v)
            if c == 1:
                return v.copy()
            # ndarray.take is measurably faster than fancy indexing here:
            # it skips the index-array promotion to intp that row[v] pays
            return self._mul_table[c].take(v)
        if c == 0:
            out[:] = 0
        elif c == 1:
            if out is not v:
                np.copyto(out, v)
        elif out is v:
            # take() with an out that aliases its index array is undefined
            np.copyto(out, self._mul_table[c].take(v))
        else:
            self._mul_table[c].take(v, out=out)
        return out

    def vec_mul_xor(self, c: int, v: np.ndarray, acc: np.ndarray) -> None:
        """In-place ``acc ^= c*v`` — the encode inner loop, without the
        intermediate scaled copy for the trivial constants."""
        if c == 0:
            return
        if c == 1:
            acc ^= v
            return
        np.bitwise_xor(acc, self._mul_table[c].take(v), out=acc)


_GF = GF256()

#: one slot row of a planned encode: its data stripes and its parity outs
Row = Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]


class _Lanes:
    """A uint8 vector split into uint64 lanes plus a ragged uint8 tail.

    numpy permits the zero-copy ``view(np.uint64)`` at any byte offset as
    long as the viewed length is a multiple of 8, so the head covers the
    largest such prefix and the tail (< 8 bytes) runs the same recurrence
    in uint8.  Both forms compute exact field arithmetic, so head/tail
    splitting can never change a byte.
    """

    __slots__ = ("head", "tail", "_hs", "_ts")

    def __init__(self, v: np.ndarray, scratch: Optional[np.ndarray] = None) -> None:
        """``scratch`` (uint8, at least ``v.size`` bytes) holds the
        overflow bits; lanes that share it must not run interleaved."""
        n8 = v.size & ~7
        head: Optional[np.ndarray] = None
        if n8:
            try:
                head = v[:n8].view(np.uint64)
            except ValueError:  # non-contiguous caller buffer: stay uint8
                n8 = 0
        if scratch is None:
            scratch = np.empty(v.size, dtype=np.uint8)
        self.head = head
        self.tail = v[n8:]
        self._hs = None if head is None else scratch[:n8].view(np.uint64)
        self._ts = scratch[n8 : v.size]

    def gmul(self) -> None:
        """In-place multiply of every byte by the generator g = 0x02."""
        h, hs = self.head, self._hs
        if h is not None:
            assert hs is not None
            np.right_shift(h, _SEVEN, out=hs)
            hs &= _LSB
            h &= _MASK7
            h <<= _ONE
            hs *= _POLY64
            h ^= hs
        t, ts = self.tail, self._ts
        if t.size:
            np.right_shift(t, 7, out=ts)
            t <<= 1
            ts *= _POLY8
            t ^= ts


def xor_fold(rows: Sequence[np.ndarray], out: np.ndarray) -> None:
    """``out = rows[0] ^ rows[1] ^ ...`` (P parity): one pass over ``out``
    per row after the first, no copy pass."""
    if len(rows) == 1:
        np.copyto(out, rows[0])
        return
    np.bitwise_xor(rows[0], rows[1], out=out)
    for r in rows[2:]:
        np.bitwise_xor(out, r, out=out)


def gpow_fold(
    rows: Sequence[np.ndarray],
    exps: Sequence[int],
    out: np.ndarray,
    lanes: Optional[_Lanes] = None,
) -> None:
    """``out = XOR_i g^exps[i] * rows[i]`` (exps strictly increasing).

    ``lanes`` is a :class:`_Lanes` over ``out`` that a planned encode
    built once; without it a lanes-size fold allocates its own scratch."""
    if out.size < BITSLICE_MIN_BYTES:
        _gpow_fold_table(rows, exps, out)
    else:
        _gpow_fold_lanes(rows, exps, out, lanes)


def _gpow_fold_table(
    rows: Sequence[np.ndarray], exps: Sequence[int], out: np.ndarray
) -> None:
    out[:] = 0
    for r, e in zip(rows, exps):
        _GF.vec_mul_xor(_GF.pow_g(e), r, out)


def _gpow_fold_lanes(
    rows: Sequence[np.ndarray],
    exps: Sequence[int],
    out: np.ndarray,
    lanes: Optional[_Lanes] = None,
) -> None:
    # Horner from the highest exponent down: between consecutive rows
    # multiply by g once per exponent gap, then a final e_min lift.
    np.copyto(out, rows[-1])
    if lanes is None:
        lanes = _Lanes(out)
    prev = exps[-1]
    for i in range(len(rows) - 2, -1, -1):
        for _ in range(prev - exps[i]):
            lanes.gmul()
        np.bitwise_xor(out, rows[i], out=out)
        prev = exps[i]
    for _ in range(prev):
        lanes.gmul()


def scale(c: int, v: np.ndarray, out: np.ndarray) -> None:
    """``out = c * v`` for a field constant ``c`` (``out is v`` allowed)."""
    if c > 1 and out.size >= BITSLICE_MIN_BYTES:
        _scale_lanes(c, v, out)
    else:
        _GF.vec_mul(c, v, out=out)


def _scale_lanes(c: int, v: np.ndarray, out: np.ndarray) -> None:
    # c*v = XOR of g^i*v over the set bits of c: walk a running g^i*v and
    # fold the selected powers (8 cheap passes beats the 256-entry gather
    # at MB scale)
    run = np.array(v, copy=True)
    lanes = _Lanes(run)
    first = True
    while c:
        if c & 1:
            if first:
                np.copyto(out, run)
                first = False
            else:
                np.bitwise_xor(out, run, out=out)
        c >>= 1
        if c:
            lanes.gmul()


class RSCodec:
    """Row codec over ``group_size`` equal-length uint8 buffers: the P
    (xor) parity and, with ``parity == 2``, the Q (GF(2^8)) parity.

    This is the one place below the stripe layout that consumes the
    parity count: :mod:`repro.ckpt.stripes` hands every slot row to
    ``encode`` / ``decode`` with as many parity stripes as the layout
    has, and single parity (the paper's Fig. 1 XOR scheme) is simply the
    codec that stops after P — an in-place xor fold into the output
    stripe, never a GF(2^8) table.
    """

    def __init__(self, group_size: int, parity: int = 2):
        if parity not in (1, 2):
            raise ValueError(f"parity must be 1 (P) or 2 (P, Q); got {parity}")
        if not parity <= group_size <= 255:
            raise ValueError(f"group_size must be in [{parity}, 255]")
        self.group_size = group_size
        self.parity = parity
        self.gf = _GF
        self._exps = range(group_size)  # Q's exponents, data position order

    def encode(
        self,
        buffers: Sequence[np.ndarray],
        out_p: Optional[np.ndarray] = None,
        out_q: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, ...]:
        """Compute the parity stripes of ``buffers``: ``(P,)`` or ``(P, Q)``.

        ``out_p``/``out_q`` accept preallocated uint8 arrays (e.g. rows of
        a parity block) so the batched stripe paths allocate nothing per
        row; the stripes written (or allocated) are returned either way.
        """
        self._check(buffers)
        if out_p is None:
            out_p = np.empty_like(buffers[0])
        xor_fold(buffers, out_p)
        if self.parity == 1:
            return (out_p,)
        if out_q is None:
            out_q = np.empty_like(buffers[0])
        gpow_fold(buffers, self._exps, out_q)
        return out_p, out_q

    def plan_rows(self, rows: Sequence[Row]) -> Tuple[tuple, ...]:
        """The fold arguments of a planned encode of ``rows`` (one slot
        row each), for :meth:`encode_rows`.

        The caller has checked the stripes: ``group_size`` data and
        ``parity`` outs per row, all ``uint8`` of one length
        (:class:`repro.ckpt.stripes.EncodePlan` checks each member once).
        Each lanes-size Q out gets its :class:`_Lanes`, all of them over
        one stripe of scratch — the rows fold one after another, so they
        can share it.
        """
        size = len(rows[0][1][0])
        scratch = None
        planned = []
        for data, outs in rows:
            q = lanes = None
            if self.parity == 2:
                q = outs[1]
                if size >= BITSLICE_MIN_BYTES:
                    if scratch is None:
                        scratch = np.empty(size, dtype=np.uint8)
                    lanes = _Lanes(q, scratch)
            planned.append((tuple(data), outs[0], q, lanes))
        return tuple(planned)

    def encode_rows(self, planned: Tuple[tuple, ...]) -> None:
        """Write every planned row's parity: the folds and nothing else."""
        exps = self._exps
        for data, p, q, lanes in planned:
            xor_fold(data, p)
            if q is not None:
                gpow_fold(data, exps, q, lanes)

    def _check(self, buffers: Sequence[np.ndarray]) -> None:
        if len(buffers) != self.group_size:
            raise ValueError(
                f"expected {self.group_size} buffers, got {len(buffers)}"
            )
        size = len(buffers[0])
        for b in buffers:
            if b.dtype != np.uint8 or len(b) != size:
                raise ValueError("buffers must be equal-length uint8 arrays")

    def decode(
        self,
        survivors: Dict[int, np.ndarray],
        p: np.ndarray | None,
        q: np.ndarray | None = None,
        out: Optional[Dict[int, np.ndarray]] = None,
    ) -> Dict[int, np.ndarray]:
        """Recover up to ``parity`` lost data buffers.

        ``survivors`` maps surviving indices to their buffers; ``p``/``q``
        are the parities (pass ``None`` for a lost parity; ``q`` is not
        consulted by a single-parity codec).  Handles every erasure case:
        one data loss (via P or Q), two data losses (via P and Q), and
        data+parity losses.

        ``out`` optionally maps missing indices to preallocated result
        buffers (e.g. stripe views of a rebuilt member) — each recovered
        vector is written through the provided array, so reconstruction
        never copies stripes twice.

        Returns ``{index: recovered buffer}`` for each missing data index.
        """
        n = self.group_size
        missing = sorted(set(range(n)) - set(survivors))
        if self.parity == 1:
            q = None
        lost_parities = sum(x is None for x in (p, q)[: self.parity])
        if len(missing) + lost_parities > self.parity:
            raise ValueError(
                f"this code tolerates {self.parity} erasures; lost "
                f"{len(missing)} data buffers and {lost_parities} parities"
            )
        if not missing:
            return {}
        gf = self.gf
        surv_idx = sorted(survivors)
        surv_rows = [survivors[j] for j in surv_idx]
        template = surv_rows[0] if surv_rows else (p if p is not None else q)
        assert template is not None

        def _out(idx: int) -> np.ndarray:
            if out is not None and idx in out:
                return out[idx]
            return np.empty_like(template)

        if len(missing) == 1:
            x = missing[0]
            res = _out(x)
            if p is not None:
                # in-place fold into the result: no stacked temporary
                xor_fold([p, *surv_rows], res)
                return {x: res}
            # recover through Q: D_x = (Q ^ sum g^j D_j) / g^x
            assert q is not None
            if surv_rows:
                gpow_fold(surv_rows, surv_idx, res)
                np.bitwise_xor(res, q, out=res)
            else:
                np.copyto(res, q)
            scale(gf.inv(gf.pow_g(x)), res, res)
            return {x: res}

        # two data losses: solve
        #   D_x ^ D_y                 = P'   (P minus survivors)
        #   g^x D_x ^ g^y D_y         = Q'   (Q minus survivors)
        assert p is not None and q is not None
        x, y = missing
        res_x, res_y = _out(x), _out(y)
        # P' lands in res_y (it finishes as D_y), Q' in a scratch vector
        xor_fold([p, *surv_rows], res_y)
        qq = np.empty_like(res_y)
        if surv_rows:
            gpow_fold(surv_rows, surv_idx, qq)
            np.bitwise_xor(qq, q, out=qq)
        else:
            np.copyto(qq, q)
        gx, gy = gf.pow_g(x), gf.pow_g(y)
        denom = gx ^ gy  # g^x + g^y in GF(2^8)
        a = gf.div(gy, denom)
        b = gf.inv(denom)
        # D_x = a*P' ^ b*Q';  D_y = P' ^ D_x
        scale(a, res_y, res_x)
        scale(b, qq, qq)
        np.bitwise_xor(res_x, qq, out=res_x)
        np.bitwise_xor(res_y, res_x, out=res_y)
        return {x: res_x, y: res_y}

    @staticmethod
    def matches(fresh: np.ndarray, stored: np.ndarray) -> bool:
        """True when a re-encoded parity stripe equals the stored one."""
        return bool(np.array_equal(fresh, stored))


def _sum_fold(words: Sequence[np.ndarray], acc: np.ndarray) -> None:
    """``acc = words[0] + words[1] + ...``, strictly left to right."""
    np.copyto(acc, words[0])
    for w in words[1:]:
        acc += w


class SumCodec:
    """Single-parity row codec adding float64 words (``MPI_SUM``, paper
    §2.2) — same interface as :class:`RSCodec` with ``parity == 1``.

    Words fold strictly left to right in buffer order, so a checksum is
    reproducible bit for bit; reconstruction by subtraction is exact only
    to rounding, which is why XOR is the default.
    """

    parity = 1

    def __init__(self, group_size: int):
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        self.group_size = group_size

    def encode(
        self, buffers: Sequence[np.ndarray], out_p: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, ...]:
        if len(buffers) != self.group_size:
            raise ValueError(
                f"expected {self.group_size} buffers, got {len(buffers)}"
            )
        if out_p is None:
            out_p = np.empty_like(buffers[0])
        _sum_fold([b.view(np.float64) for b in buffers], out_p.view(np.float64))
        return (out_p,)

    def plan_rows(self, rows: Sequence[Row]) -> Tuple[tuple, ...]:
        """The float64 views a planned encode of ``rows`` folds, for
        :meth:`encode_rows` (the stripes checked as for
        :meth:`RSCodec.plan_rows`)."""
        return tuple(
            (tuple(b.view(np.float64) for b in data), p.view(np.float64))
            for data, (p,) in rows
        )

    @staticmethod
    def encode_rows(planned: Tuple[tuple, ...]) -> None:
        """Write every planned row's checksum."""
        for words, acc in planned:
            _sum_fold(words, acc)

    def decode(
        self,
        survivors: Dict[int, np.ndarray],
        p: np.ndarray | None,
        out: Optional[Dict[int, np.ndarray]] = None,
    ) -> Dict[int, np.ndarray]:
        missing = sorted(set(range(self.group_size)) - set(survivors))
        if len(missing) + (p is None) > 1:
            raise ValueError(
                f"this code tolerates 1 erasure; lost {len(missing)} data "
                f"buffers and {int(p is None)} parities"
            )
        if not missing:
            return {}
        assert p is not None
        x = missing[0]
        res = out[x] if out is not None and x in out else np.empty_like(p)
        acc = res.view(np.float64)
        np.copyto(acc, p.view(np.float64))
        for j in sorted(survivors):
            acc -= survivors[j].view(np.float64)
        return {x: res}

    @staticmethod
    def matches(fresh: np.ndarray, stored: np.ndarray) -> bool:
        """Float checksums agree to within a few ulps of accumulated
        rounding."""
        return bool(
            np.allclose(
                fresh.view(np.float64),
                stored.view(np.float64),
                rtol=1e-12,
                atol=1e-300,
            )
        )


@lru_cache(maxsize=None)
def codec_for(n_stripes: int, parity: int, op: str = "xor") -> RSCodec | SumCodec:
    """The shared row codec for ``n_stripes`` data stripes, ``parity``
    parity stripes and combine operator ``op``."""
    if op == "xor":
        return RSCodec(n_stripes, parity)
    if op == "sum":
        if parity != 1:
            raise ValueError(
                f"op='sum' is a single-parity codec; parity={parity} needs op='xor'"
            )
        return SumCodec(n_stripes)
    raise ValueError(f"unknown op {op!r}; choose from {OPS}")


def resolve_backend_name() -> str:
    """The kernel name the e2e benchmark records in its environment
    record; there is one kernel, so it is a constant."""
    return "numpy"
