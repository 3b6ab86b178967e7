"""Batched GF(2^8) encode/decode kernels behind selectable backends.

The row-codec hot loops (:class:`repro.ckpt.raid6.RSCodec`, driven by
the stripe paths in :mod:`repro.ckpt.stripes`) funnel through three
primitives:

``xor_fold(rows, out)``
    ``out = rows[0] ^ rows[1] ^ ...`` — the P parity.
``gpow_fold(rows, exps, out)``
    ``out = g^e0*rows[0] ^ g^e1*rows[1] ^ ...`` with strictly increasing
    exponents — the Q parity (``exps = 0..k-1``) and the decode syndromes
    (arbitrary surviving exponents).
``scale(c, v, out)``
    ``out = c*v`` for an arbitrary field constant — the final division in
    the 1-loss-via-Q and 2-loss solves.

Two interchangeable backends implement them, selected through the
``REPRO_KERNEL_BACKEND`` environment variable (``numpy`` | ``reference``);
both produce byte-identical output, which the equivalence suite in
``tests/ckpt/test_kernels.py`` enforces.

``numpy`` (default)
    Bitsliced Horner evaluation.  Eight bytes are packed per ``uint64``
    lane and the whole-vector multiply-by-``g`` is five SIMD-friendly
    ops (shift/mask/xor) instead of a 256-entry table gather:

        hi   = (v >> 7) & 0x0101...01     # the bytes about to overflow
        v    = ((v & 0x7f7f...7f) << 1) ^ hi * 0x1d

    Q then folds by Horner's rule from the highest exponent down —
    ``Q = D_0 ^ g*(D_1 ^ g*(D_2 ^ ...))`` — so the only per-row work is
    one xor plus ``gap`` cheap multiplies (the gap between consecutive
    exponents), never a per-constant gather.  Below
    ``bitslice_min_bytes`` (numpy per-call overhead dominates at
    protocol-size stripes) the fold drops back to the cached-table
    gathers, byte-identically.
``reference``
    The pre-batching formulation — one 256-entry table gather per row via
    :meth:`GF256.vec_mul_xor` — kept as the semantic oracle the sweep
    compares against.

Backend objects are stateless; :func:`get_kernels` memoizes the backend
the environment names and :func:`use_backend` re-selects it.
"""

from __future__ import annotations

import os
from functools import lru_cache as _lru_cache
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: Environment variable naming the backend: numpy | reference.
BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Stripe sizes below this use the table-gather fold even on the numpy
#: backend: the bitsliced pass is ~6 numpy calls per row and per-call
#: overhead swamps the arithmetic under ~4 KiB (measured crossover).
BITSLICE_MIN_BYTES = 4096

_MASK7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_LSB = np.uint64(0x0101010101010101)
_POLY64 = np.uint64(0x1D)
_POLY8 = np.uint8(0x1D)
_ONE = np.uint64(1)
_SEVEN = np.uint64(7)


def _gf():
    # lazy: raid6 imports this module at its top, so the reverse import
    # must wait until call time
    from repro.ckpt.raid6 import _GF

    return _GF


class _Lanes:
    """A uint8 vector split into uint64 lanes plus a ragged uint8 tail.

    numpy permits the zero-copy ``view(np.uint64)`` at any byte offset as
    long as the viewed length is a multiple of 8, so the head covers the
    largest such prefix and the tail (< 8 bytes) runs the same recurrence
    in uint8.  Both forms compute exact field arithmetic, so head/tail
    splitting can never change a byte.
    """

    __slots__ = ("head", "tail", "_hs", "_ts")

    def __init__(self, v: np.ndarray) -> None:
        n8 = v.size & ~7
        head: Optional[np.ndarray] = None
        if n8:
            try:
                head = v[:n8].view(np.uint64)
            except ValueError:  # non-contiguous caller buffer: stay uint8
                n8 = 0
        self.head = head
        self.tail = v[n8:]
        self._hs = None if head is None else np.empty_like(head)
        self._ts = np.empty_like(self.tail)

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


class KernelBackend:
    """Interface every kernel backend implements (byte-identical output)."""

    name = "abstract"

    def xor_fold(self, rows: Sequence[np.ndarray], out: np.ndarray) -> None:
        """``out = rows[0] ^ rows[1] ^ ...`` (P parity)."""
        np.copyto(out, rows[0])
        for r in rows[1:]:
            np.bitwise_xor(out, r, out=out)

    def gpow_fold(
        self, rows: Sequence[np.ndarray], exps: Sequence[int], out: np.ndarray
    ) -> None:
        """``out = XOR_i g^exps[i] * rows[i]`` (exps strictly increasing)."""
        raise NotImplementedError

    def encode_pq(
        self, rows: Sequence[np.ndarray], out_p: np.ndarray, out_q: np.ndarray
    ) -> None:
        """Fused P+Q: ``out_p = xor_fold(rows)``, ``out_q = gpow_fold(rows, 0..k-1)``."""
        self.xor_fold(rows, out_p)
        self.gpow_fold(rows, range(len(rows)), out_q)

    def scale(self, c: int, v: np.ndarray, out: np.ndarray) -> None:
        """``out = c * v`` for a field constant ``c`` (``out is v`` allowed)."""
        raise NotImplementedError


class ReferenceKernels(KernelBackend):
    """The pre-batching per-row table-gather loops — the semantic oracle."""

    name = "reference"

    def gpow_fold(
        self, rows: Sequence[np.ndarray], exps: Sequence[int], out: np.ndarray
    ) -> None:
        gf = _gf()
        out[:] = 0
        for r, e in zip(rows, exps):
            gf.vec_mul_xor(gf.pow_g(e), r, out)

    def scale(self, c: int, v: np.ndarray, out: np.ndarray) -> None:
        gf = _gf()
        if out is v:
            np.copyto(out, gf.vec_mul(c, v))
        else:
            gf.vec_mul(c, v, out=out)


class NumpyKernels(KernelBackend):
    """Bitsliced uint64 Horner folds (default; see module docstring)."""

    name = "numpy"

    def __init__(self, bitslice_min_bytes: int = BITSLICE_MIN_BYTES) -> None:
        self.bitslice_min_bytes = bitslice_min_bytes

    def gpow_fold(
        self, rows: Sequence[np.ndarray], exps: Sequence[int], out: np.ndarray
    ) -> None:
        if out.size < self.bitslice_min_bytes:
            ReferenceKernels.gpow_fold(self, rows, exps, out)  # type: ignore[arg-type]
            return
        exps = list(exps)
        # Horner from the highest exponent down: between consecutive rows
        # multiply by g once per exponent gap, then a final e_min lift.
        np.copyto(out, rows[-1])
        lanes = _Lanes(out)
        prev = exps[-1]
        for i in range(len(rows) - 2, -1, -1):
            for _ in range(prev - exps[i]):
                lanes.gmul()
            np.bitwise_xor(out, rows[i], out=out)
            prev = exps[i]
        for _ in range(prev):
            lanes.gmul()

    def scale(self, c: int, v: np.ndarray, out: np.ndarray) -> None:
        c = int(c)
        if c == 0:
            out[:] = 0
            return
        if c == 1:
            if out is not v:
                np.copyto(out, v)
            return
        if out.size < self.bitslice_min_bytes:
            ReferenceKernels.scale(self, c, v, out)  # type: ignore[arg-type]
            return
        # c*v = XOR of g^i*v over the set bits of c: walk a running
        # g^i*v and fold the selected powers (8 cheap passes beats the
        # 256-entry gather at MB scale)
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


_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {
    "numpy": NumpyKernels,
    "reference": ReferenceKernels,
}


def available_backends() -> List[str]:
    """Backend names, default first."""
    return list(_FACTORIES)


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve an explicit name or the ``REPRO_KERNEL_BACKEND`` setting."""
    raw = name if name is not None else os.environ.get(BACKEND_ENV, "")
    raw = (raw or "numpy").strip().lower()
    if raw not in _FACTORIES:
        raise ValueError(
            f"unknown GF(256) kernel backend {raw!r} (via {BACKEND_ENV}): "
            f"choose one of {', '.join(sorted(_FACTORIES))}"
        )
    return raw


def make_backend(name: Optional[str] = None) -> KernelBackend:
    """Construct a backend by name (``None`` reads the environment)."""
    return _FACTORIES[resolve_backend_name(name)]()


@_lru_cache(maxsize=None)
def get_kernels() -> KernelBackend:
    """The process-wide active backend: the one ``REPRO_KERNEL_BACKEND``
    names, resolved once and then a pure read on the hot path."""
    return make_backend(None)


def use_backend(name: Optional[str] = None) -> KernelBackend:
    """Select (and return) the process-wide backend: records ``name`` in
    ``REPRO_KERNEL_BACKEND`` — so worker processes started afterwards
    agree — and re-resolves; ``None`` just re-reads the environment."""
    if name is not None:
        os.environ[BACKEND_ENV] = resolve_backend_name(name)
    get_kernels.cache_clear()
    return get_kernels()
