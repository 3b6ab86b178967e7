"""Metrics registry and the observer that feeds it from simulator hooks.

:class:`MetricsRegistry` holds counters, gauges and histograms keyed by
``(name, labels)`` — ranks and nodes ride in the labels, so per-rank
traffic and per-node SHM pressure fall out of the same instruments.  All
values are driven by *virtual* quantities (bytes, virtual seconds), never
wall time, so snapshots are bit-deterministic across runs with one seed.

:class:`MetricsObserver` rides the :class:`~repro.sim.observer.SimObserver`
hook layer, so it composes with any other observer through
:class:`~repro.sim.observer.MultiObserver`.

Accounting contract (also in :mod:`repro.obs.labels`):

* ``mpi.bytes_posted``/``mpi.msgs_posted`` count at **send** time — they
  include messages a failure strands in flight;
* ``mpi.bytes_sent``/``mpi.bytes_recv`` count at **delivery** time, the
  sender's bytes read from the delivered envelope.  Aggregated over a
  job, sent == recv by construction, and a send retried after a restore
  is counted once per actual delivery — never double-counted.
* ``mpi.blocked_s`` is the *virtual* wait a receive experienced — how far
  the sender's arrival outran the receiver's own clock (the ``waited_s``
  the communicator reports at delivery; deterministic, unlike whether the
  rank's thread physically parked); ``mpi.collective_s`` is time inside
  collectives, synchronization included.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.labels import METRIC_NAMES, tag_class
from repro.sim.observer import SimObserver, install_observer

#: histogram bucket upper bounds (virtual seconds), log-spaced; the last
#: implicit bucket is +inf
DEFAULT_BUCKETS_S = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)

LabelsKey = Tuple[Tuple[str, Any], ...]


def _labels_key(labels: Dict[str, Any]) -> LabelsKey:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing value (bytes, events)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that is set, not accumulated (completion flag, makespan)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram (counts per bucket + sum + count)."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self) -> None:
        self.buckets = DEFAULT_BUCKETS_S
        self.counts = [0] * (len(self.buckets) + 1)  # last = overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def percentile_from_buckets(
    buckets: Tuple[float, ...], counts: Sequence[int], q: float
) -> float:
    """Deterministic nearest-rank percentile from a histogram's exported
    buckets (``MetricSample.extra``) — what the report and the trace store
    compute from flattened samples.

    Returns the *upper bound* of the bucket holding the q-th ranked
    observation — a conservative estimate whose error is bounded by the
    log-spaced bucket width and which never depends on arrival order, so
    two same-seed runs report identical percentiles.  Observations that
    landed in the overflow bucket report ``inf``.
    """
    total = sum(counts)
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile q must be in (0, 1], got {q!r}")
    if total == 0:
        return 0.0
    target = math.ceil(q * total)
    cum = 0
    for i, c in enumerate(counts):
        cum += c
        if cum >= target:
            return buckets[i] if i < len(buckets) else math.inf
    return math.inf  # pragma: no cover - counts always sum to total


@dataclass(frozen=True)
class MetricSample:
    """One (name, labels) instrument flattened for export."""

    name: str
    labels: Dict[str, Any]
    kind: str  # "counter" | "gauge" | "histogram"
    value: float
    extra: Optional[Dict[str, Any]] = None  # histogram buckets etc.


class MetricsRegistry:
    """Thread-safe instrument store keyed by (name, labels).

    Metric names must come from :data:`repro.obs.labels.METRIC_NAMES`
    (checked at creation and, statically, by the simlint ``obs-label``
    rule), so every consumer — exporters, reports, dashboards — can rely
    on one closed vocabulary.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()  # simlint: allow[threading] -- registry-internal state guard
        self._instruments: Dict[Tuple[str, str, LabelsKey], Any] = {}

    def _get(self, kind: str, factory, name: str, labels: Dict[str, Any]):
        if name not in METRIC_NAMES:
            raise ValueError(
                f"unregistered metric name {name!r}; add it to "
                "repro.obs.labels.METRIC_NAMES"
            )
        key = (kind, name, _labels_key(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = factory()
                self._instruments[key] = inst
            return inst

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", Histogram, name, labels)

    # -- queries ----------------------------------------------------------------
    def samples(self) -> List[MetricSample]:
        """Deterministic flat view: sorted by (name, kind, labels)."""
        with self._lock:
            items = sorted(self._instruments.items(), key=lambda kv: (kv[0][1], kv[0][0], kv[0][2]))
        out: List[MetricSample] = []
        for (kind, name, lkey), inst in items:
            labels = dict(lkey)
            if kind == "histogram":
                out.append(
                    MetricSample(
                        name=name,
                        labels=labels,
                        kind=kind,
                        value=inst.total,
                        extra={
                            "count": inst.count,
                            "buckets": list(inst.buckets),
                            "counts": list(inst.counts),
                        },
                    )
                )
            else:
                out.append(MetricSample(name=name, labels=labels, kind=kind, value=inst.value))
        return out

    def total(self, name: str, **labels: Any) -> float:
        """Sum of a counter/gauge over all label sets matching ``labels``."""
        want = set(labels.items())
        with self._lock:
            matching = [
                (kind, lkey, inst)
                for (kind, n, lkey), inst in self._instruments.items()
                if n == name and kind != "histogram" and want <= set(lkey)
            ]
        out = 0.0
        # summed in samples() order, so the float sum is the same
        for _kind, _lkey, inst in sorted(matching, key=lambda m: m[:2]):
            out += inst.value
        return out


class MetricsObserver(SimObserver):
    """Feeds a :class:`MetricsRegistry` from the simulator's hook layer."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()  # simlint: allow[threading] -- observer-internal state guard
        #: rank -> clock at collective entry
        self._coll_entered_at: Dict[int, float] = {}

    # -- installation ------------------------------------------------------------
    def watch_cluster(self, cluster: Any) -> None:
        """Subscribe to SHM events on every node of ``cluster`` —
        spares included, so replacement nodes report from the moment
        they are swapped in.  Watching a cluster twice is a no-op."""
        nodes = cluster.all_nodes() if hasattr(cluster, "all_nodes") else cluster.nodes
        for node in nodes:
            install_observer(node.shm, self)

    # -- point to point ----------------------------------------------------------
    def on_send(self, src: int, dst: int, tag: int, nbytes: int, clock: float) -> None:
        cls = tag_class(tag)
        self.registry.counter("mpi.bytes_posted", rank=src, cls=cls).inc(nbytes)
        self.registry.counter("mpi.msgs_posted", rank=src, cls=cls).inc()
        # delivery-time accounting happens in on_recv, so stranded
        # in-flight messages never count as "sent"

    def on_recv(
        self,
        dst: int,
        src: int,
        tag: int,
        nbytes: int,
        clock: float,
        waited_s: float = 0.0,
    ) -> None:
        cls = tag_class(tag)
        self.registry.counter("mpi.bytes_sent", rank=src, cls=cls).inc(nbytes)
        self.registry.counter("mpi.bytes_recv", rank=dst, cls=cls).inc(nbytes)
        self.registry.counter("mpi.msgs_recv", rank=dst, cls=cls).inc()
        self.registry.histogram("mpi.blocked_s", rank=dst).observe(waited_s)

    # -- collectives -------------------------------------------------------------
    def on_collective_enter(self, comm: str, size: int, rank: int, clock: float) -> None:
        with self._lock:
            self._coll_entered_at[rank] = clock

    def on_collective_exit(self, comm: str, size: int, rank: int, clock: float) -> None:
        with self._lock:
            entered = self._coll_entered_at.pop(rank, None)
        self.registry.counter("mpi.collectives", rank=rank).inc()
        if entered is not None:
            self.registry.counter("mpi.collective_s", rank=rank).inc(
                max(0.0, clock - entered)
            )

    # -- shared memory ------------------------------------------------------------
    def on_shm(self, node_id: int, name: str, kind: str, nbytes: int = 0) -> None:
        self.registry.counter("shm.ops", node=node_id, kind=kind).inc()
        if kind == "create":
            self.registry.counter("shm.bytes_written", node=node_id).inc(nbytes)
