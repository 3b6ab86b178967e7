"""Per-node shared-memory segment store.

Mirrors Linux SHM semantics as the paper uses them (section 2.3): a segment
created by a rank persists after the rank (and the whole job) exits, and is
only lost when the node itself is powered off or the segment is explicitly
unlinked.  Checkpoint buffers and the self-checkpoint workspace live here.

A segment is its numpy buffer and nothing else: the checkpoint protocols
keep the epoch flags that must survive a restart in a small control
segment of their own.

Instrumentation: a store may carry an
:class:`~repro.sim.observer.SimObserver`; every ``create``/``attach``/
``unlink`` is reported to it.  A segment's contents are read and written
through its ``array``, which no observer sees: each rank keeps its
segments to itself, and the protocols order their phases with
collectives (paper section 3).
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.sim.errors import ShmError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.observer import SimObserver

#: allocator of a ``zeroed=False`` segment, whose contents are unspecified
#: (the poison-fill net in ``tests/ckpt/test_poison_net.py`` swaps it for
#: one that fills fresh segments with a byte pattern)
_alloc_unzeroed = np.empty


def shape_tuple(shape: Any) -> Tuple[int, ...]:
    """``shape`` — an integer or an iterable of integers — as the tuple of
    ints numpy would read it as.  Anything ``operator.index`` refuses
    (floats, bools, strings) raises ``TypeError``; the sign of a dimension
    is the caller's to check."""
    # a plain int or tuple of ints is already what the numpy path returns
    if type(shape) is int:
        return (shape,)
    if type(shape) is tuple and all(type(d) is int for d in shape):
        return shape
    return tuple(map(operator.index, np.atleast_1d(shape)))


@dataclass
class ShmSegment:
    """A named, node-resident array that outlives its creating process."""

    name: str
    array: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    def write(self, value: Any, where: Union[slice, Tuple[Any, ...]] = slice(None)) -> None:
        """Store ``value`` at ``where`` (the whole segment by default)."""
        self.array[where] = value


class ShmStore:
    """All SHM segments of one node.

    Thread-safe: multiple ranks co-resident on a node may create/attach
    concurrently.
    """

    def __init__(self, node_id: int):
        self._segments: Dict[str, ShmSegment] = {}
        self._lock = threading.Lock()  # simlint: allow[threading] -- node-internal store lock
        self.node_id = node_id
        #: optional :class:`~repro.sim.observer.SimObserver` receiving
        #: ``on_shm`` events for every segment operation on this node
        self.observer: Optional["SimObserver"] = None

    def _notify(self, name: str, kind: str, nbytes: int = 0) -> None:
        obs = self.observer
        if obs is not None:
            obs.on_shm(self.node_id, name, kind, nbytes)

    def create(
        self,
        name: str,
        shape: Union[Tuple[int, ...], int],
        dtype: Union[np.dtype, str] = np.float64,
        *,
        exist_ok: bool = False,
        zeroed: bool = True,
    ) -> ShmSegment:
        """Allocate a zero-filled segment — or, with ``zeroed=False``, one
        of unspecified contents, for a caller that writes it in full
        before it reads it (a checkpoint copy or checksum slot).

        With ``exist_ok`` an existing segment of the same name, shape and
        dtype is returned instead (the attach-or-create idiom a restarted
        rank uses); its contents are kept, whatever ``zeroed`` says.
        """
        with self._lock:
            existing = self._segments.get(name)
            if existing is not None:
                if not exist_ok:
                    raise ShmError(f"SHM segment {name!r} already exists")
                want_shape = shape_tuple(shape)
                if existing.array.shape != want_shape or existing.array.dtype != np.dtype(dtype):
                    raise ShmError(
                        f"SHM segment {name!r} exists with shape "
                        f"{existing.array.shape}/{existing.array.dtype}, "
                        f"requested {want_shape}/{np.dtype(dtype)}"
                    )
                seg = existing
                kind = "attach"
            else:
                alloc = np.zeros if zeroed else _alloc_unzeroed
                arr = alloc(shape, dtype=dtype)
                seg = ShmSegment(name=name, array=arr)
                self._segments[name] = seg
                kind = "create"
        self._notify(name, kind, seg.nbytes)
        return seg

    def exists(self, name: str) -> bool:
        with self._lock:
            return name in self._segments

    def unlink(self, name: str, *, missing_ok: bool = False) -> None:
        """Free a segment."""
        with self._lock:
            seg = self._segments.pop(name, None)
            if seg is None:
                if missing_ok:
                    return
                raise ShmError(f"no SHM segment named {name!r}")
        self._notify(name, "unlink", seg.nbytes)

    def clear(self) -> None:
        """Destroy everything (node power-off)."""
        with self._lock:
            self._segments.clear()

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._segments)

    def snapshot(self) -> List[ShmSegment]:
        """A point-in-time view of all segments.

        Returns fresh :class:`ShmSegment` objects sharing the live arrays,
        so callers iterating the result see a consistent set of segments
        even while other ranks keep creating/unlinking.  (The arrays stay
        live views — copying checkpoint-sized buffers here would be
        wrong for a diagnostics path.)  This is the only sanctioned way to
        enumerate segments concurrently; iterating the store goes through
        it.
        """
        with self._lock:
            return [
                ShmSegment(name=s.name, array=s.array)
                for s in self._segments.values()
            ]

    def __iter__(self) -> Iterator[ShmSegment]:
        return iter(self.snapshot())

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)
