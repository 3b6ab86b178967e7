"""Row codecs of the group encoding: GF(2^8) arithmetic, XOR / RAID-6
style (P, Q) parity, and the float-sum single parity.

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

All byte-wise operations are vectorized: scalar helpers and the small-
stripe paths go through numpy lookup tables, while the batched encode and
decode folds run on the selectable kernels in :mod:`repro.ckpt.kernels`
(bitsliced uint64 Horner by default; ``REPRO_KERNEL_BACKEND``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.ckpt import kernels as _kernels

#: Supported combine operators: bitwise XOR over GF(2^8) bytes (the
#: default, bit-exact) or numeric addition over doubles.
OPS = ("xor", "sum")


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
    def mul_table(self, c: int) -> np.ndarray:
        """Read-only lookup row ``v -> c*v`` (a view into the cached
        256x256 table; no allocation)."""
        return self._mul_table[c]

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
        kern = _kernels.get_kernels()
        if self.parity == 1:
            kern.xor_fold(buffers, out_p)
            return (out_p,)
        if out_q is None:
            out_q = np.empty_like(buffers[0])
        kern.encode_pq(buffers, out_p, out_q)
        return out_p, out_q

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
        kern = _kernels.get_kernels()
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
                kern.xor_fold([p, *surv_rows], res)
                return {x: res}
            # recover through Q: D_x = (Q ^ sum g^j D_j) / g^x
            assert q is not None
            if surv_rows:
                kern.gpow_fold(surv_rows, surv_idx, res)
                np.bitwise_xor(res, q, out=res)
            else:
                np.copyto(res, q)
            kern.scale(gf.inv(gf.pow_g(x)), res, res)
            return {x: res}

        # two data losses: solve
        #   D_x ^ D_y                 = P'   (P minus survivors)
        #   g^x D_x ^ g^y D_y         = Q'   (Q minus survivors)
        assert p is not None and q is not None
        x, y = missing
        res_x, res_y = _out(x), _out(y)
        # P' lands in res_y (it finishes as D_y), Q' in a scratch vector
        kern.xor_fold([p, *surv_rows], res_y)
        qq = np.empty_like(res_y)
        if surv_rows:
            kern.gpow_fold(surv_rows, surv_idx, qq)
            np.bitwise_xor(qq, q, out=qq)
        else:
            np.copyto(qq, q)
        gx, gy = gf.pow_g(x), gf.pow_g(y)
        denom = gx ^ gy  # g^x + g^y in GF(2^8)
        a = gf.div(gy, denom)
        b = gf.inv(denom)
        # D_x = a*P' ^ b*Q';  D_y = P' ^ D_x
        kern.scale(a, res_y, res_x)
        kern.scale(b, qq, qq)
        np.bitwise_xor(res_x, qq, out=res_x)
        np.bitwise_xor(res_y, res_x, out=res_y)
        return {x: res_x, y: res_y}

    @staticmethod
    def matches(fresh: np.ndarray, stored: np.ndarray) -> bool:
        """True when a re-encoded parity stripe equals the stored one."""
        return bool(np.array_equal(fresh, stored))


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
        acc = out_p.view(np.float64)
        np.copyto(acc, buffers[0].view(np.float64))
        for b in buffers[1:]:
            acc += b.view(np.float64)
        return (out_p,)

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
