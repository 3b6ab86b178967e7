"""Flat serialization of protected state (the A1 array + A2 local variables).

Every checkpoint protocol reasons about one *flat buffer* per rank: the
bytes of the one registered workspace array (the paper's A1) followed by
a fixed-capacity area holding the pickled local-variable dict (the
paper's A2 — "loop iterators or other scalar variables", §3.1), then zero
padding up to the group's agreed stripe-aligned size.  An application
with several arrays allocates one and takes contiguous views of it, so
its workspace already is the head of this buffer.

Layout::

    [array bytes][u64 a2_len][a2 pickle][zeros.....]

The fixed A2 capacity mirrors the paper's "small second-buffer (B2)
allocated for simplicity"; overflowing it raises.
"""

from __future__ import annotations

import math
import pickle
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.sim.shm import shape_tuple


class StateLayout:
    """Describes how the named workspace array and the A2 dict map into a
    flat buffer.

    Register the array with :meth:`add`, then :meth:`freeze`; afterwards
    :meth:`pack`/:meth:`unpack_into` convert between live arrays and flat
    ``uint8`` buffers of length :attr:`raw_size` (or longer — padding is
    ignored on unpack).
    """

    def __init__(self, a2_capacity: int = 4096):
        if a2_capacity < 64:
            raise ValueError("a2_capacity must be >= 64")
        self.a2_capacity = a2_capacity
        #: the workspace array's ``(name, shape, dtype)``, once added
        self.spec: Optional[Tuple[str, Tuple[int, ...], np.dtype]] = None
        #: its bytes: where the A2 blob starts
        self.array_size = 0
        self._frozen = False

    def add(self, name: str, shape, dtype) -> None:
        """Register the workspace array before freezing; a layout holds
        one, and its shape is any integer or iterable of integers."""
        if self._frozen:
            raise RuntimeError("layout already frozen")
        if self.spec is not None:
            raise ValueError(
                f"the workspace is one array, {self.spec[0]!r}: allocate it "
                f"once and take contiguous views of it instead of adding {name!r}"
            )
        shape = shape_tuple(shape)
        self.spec = (name, shape, np.dtype(dtype))
        self.array_size = math.prod(shape) * self.spec[2].itemsize

    def freeze(self) -> None:
        self._frozen = True

    @property
    def raw_size(self) -> int:
        """Bytes needed before stripe padding: array + A2 header + A2 area."""
        return self.array_size + 8 + self.a2_capacity

    @property
    def a2_region(self) -> slice:
        """Where the packed A2 blob (header + area) sits in a flat buffer."""
        return slice(self.array_size, self.raw_size)

    def spec_of(self, name: str) -> Tuple[Tuple[int, ...], np.dtype]:
        if self.spec is None or self.spec[0] != name:
            raise KeyError(name)
        return self.spec[1:]

    # -- pack / unpack -----------------------------------------------------------
    def _require_frozen(self) -> None:
        if not self._frozen:
            raise RuntimeError("freeze() the layout first")

    def pack_a2(self, local: Dict[str, Any], out: np.ndarray | None = None) -> np.ndarray:
        """Serialize the A2 dict into a ``uint8`` blob of fixed size
        ``8 + a2_capacity`` (length header + padded pickle), written into
        ``out`` when given."""
        blob = pickle.dumps(dict(local), protocol=pickle.HIGHEST_PROTOCOL)
        if len(blob) > self.a2_capacity:
            raise ValueError(
                f"A2 state is {len(blob)}B, exceeds a2_capacity="
                f"{self.a2_capacity}B; shrink local state"
            )
        if out is None:
            out = np.empty(8 + self.a2_capacity, dtype=np.uint8)
        n = len(blob)
        raw = memoryview(out)
        # explicit little-endian length header: checkpoint images (and every
        # fingerprint derived from them) must be byte-stable across platforms
        raw[:8] = n.to_bytes(8, "little")
        raw[8 : 8 + n] = blob
        out[8 + n :] = 0
        return out

    def unpack_a2(self, blob: np.ndarray) -> Dict[str, Any]:
        raw = memoryview(blob)
        n = int.from_bytes(raw[:8], "little")
        if n > self.a2_capacity:
            raise ValueError(f"corrupt A2 header: length {n}")
        return pickle.loads(raw[8 : 8 + n])

    def pack(
        self,
        arrays: Dict[str, np.ndarray],
        local: Dict[str, Any],
        out: np.ndarray | None = None,
        total_size: int | None = None,
    ) -> np.ndarray:
        """Serialize the array + local dict into a flat ``uint8`` buffer.

        ``total_size`` (>= :attr:`raw_size`) adds zero padding, used to meet
        the group's stripe-aligned size.
        """
        self._require_frozen()
        size = total_size or self.raw_size
        if size < self.raw_size:
            raise ValueError(f"total_size {size} < raw_size {self.raw_size}")
        if out is None:
            out = np.empty(size, dtype=np.uint8)
        elif len(out) != size or out.dtype != np.uint8:
            raise ValueError("out buffer has wrong size/dtype")
        # every byte below raw_size is written below: zero only the pad
        out[self.raw_size :] = 0
        if self.spec is not None:
            name, shape, dtype = self.spec
            a = arrays[name]
            if a.shape != shape or a.dtype != dtype:
                raise ValueError(
                    f"array {name!r} is {a.shape}/{a.dtype}, layout expects {shape}/{dtype}"
                )
            out[: self.array_size] = np.ascontiguousarray(a).view(np.uint8).reshape(-1)
        self.pack_a2(local, out=out[self.a2_region])
        return out

    def unpack_into(
        self, flat: np.ndarray, arrays: Dict[str, np.ndarray]
    ) -> Dict[str, Any]:
        """Write the array contents from ``flat`` into the given live array
        (in place) and return the A2 dict."""
        self._require_frozen()
        if len(flat) < self.raw_size:
            raise ValueError(f"flat buffer too small: {len(flat)} < {self.raw_size}")
        if self.spec is not None:
            name, shape, dtype = self.spec
            dst = arrays[name]
            if dst.shape != shape or dst.dtype != dtype:
                raise ValueError(f"array {name!r} mismatch on unpack")
            if not dst.flags.c_contiguous:
                raise ValueError(f"array {name!r} must be C-contiguous for in-place restore")
            dst.reshape(-1).view(np.uint8)[:] = flat[: self.array_size]
        return self.unpack_a2(flat[self.a2_region])
