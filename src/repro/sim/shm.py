"""Per-node shared-memory segment store.

Mirrors Linux SHM semantics as the paper uses them (section 2.3): a segment
created by a rank persists after the rank (and the whole job) exits, and is
only lost when the node itself is powered off or the segment is explicitly
unlinked.  Checkpoint buffers and the self-checkpoint workspace live here.

Each segment carries a small metadata dict alongside its numpy buffer; the
checkpoint protocols use it for epoch/phase flags that must survive restart.

Instrumentation: a store may carry an
:class:`~repro.sim.observer.SimObserver`; every ``create``/``attach``/
``unlink`` and every access through :meth:`ShmSegment.read` /
:meth:`ShmSegment.write` is reported to it.  The race detector in
:mod:`repro.sancheck.races` derives its access history from exactly these
events.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.sim.errors import ShmError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.observer import SimObserver


@dataclass
class ShmSegment:
    """A named, node-resident array that outlives its creating process.

    ``array`` may be used directly (the checkpoint protocols keep raw
    references for speed); code that wants its accesses visible to the
    sanitizer tooling goes through :meth:`read` / :meth:`write` instead.
    """

    name: str
    array: np.ndarray
    meta: Dict[str, Any] = field(default_factory=dict)
    _store: Optional["ShmStore"] = field(default=None, repr=False, compare=False)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    def _notify(self, kind: str) -> None:
        if self._store is not None:
            self._store._notify(self.name, kind, self.nbytes)

    def read(self) -> np.ndarray:
        """Instrumented read: report the access, return the live array."""
        self._notify("read")
        return self.array

    def write(self, value: Any, where: Union[slice, Tuple[Any, ...]] = slice(None)) -> None:
        """Instrumented write: report the access, then store ``value`` at
        ``where`` (the whole segment by default)."""
        self._notify("write")
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
    ) -> ShmSegment:
        """Allocate a zero-filled segment.

        With ``exist_ok`` an existing segment of the same name, shape and
        dtype is returned instead (the attach-or-create idiom a restarted
        rank uses).
        """
        with self._lock:
            existing = self._segments.get(name)
            if existing is not None:
                if not exist_ok:
                    raise ShmError(f"SHM segment {name!r} already exists")
                want_shape = (shape,) if isinstance(shape, int) else tuple(shape)
                if existing.array.shape != want_shape or existing.array.dtype != np.dtype(dtype):
                    raise ShmError(
                        f"SHM segment {name!r} exists with shape "
                        f"{existing.array.shape}/{existing.array.dtype}, "
                        f"requested {want_shape}/{np.dtype(dtype)}"
                    )
                seg = existing
                kind = "attach"
            else:
                arr = np.zeros(shape, dtype=dtype)
                seg = ShmSegment(name=name, array=arr, _store=self)
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

        Returns fresh :class:`ShmSegment` objects sharing the live arrays
        but carrying **copies** of the ``meta`` dicts, so callers iterating
        the result see a consistent set of segments and metadata even while
        other ranks keep creating/unlinking/mutating.  (The arrays stay
        live views — copying checkpoint-sized buffers here would be
        wrong for a diagnostics path.)  This is the only sanctioned way to
        enumerate segments concurrently; iterating the store goes through
        it.
        """
        with self._lock:
            return [
                ShmSegment(name=s.name, array=s.array, meta=dict(s.meta))
                for s in self._segments.values()
            ]

    def __iter__(self) -> Iterator[ShmSegment]:
        return iter(self.snapshot())

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)
