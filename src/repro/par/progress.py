"""Campaign progress/throughput reporting.

A wall-clock consumer, with the shard queue's leases the only ones:
throughput of the *host* replay engine is a wall-clock quantity by definition, and none of
it ever feeds virtual time or a campaign artifact — progress lines go to
stderr, deterministic counts go to the metrics registry from the engine
itself.  (The simlint ``wallclock`` allowlist names this module for
exactly that reason.)
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional


class ProgressReporter:
    """Throttled ``done/total`` + runs/s + utilization line, engine-driven.

    The engine calls :meth:`start` once, :meth:`update` after every
    resolved task (cache hits included) and :meth:`finish` at the end.
    ``workers`` is the requested width, ``running`` the processes that
    width keeps busy on this host: occupancy is reckoned on ``running``,
    and the line names it when it is the smaller (``2 workers (1
    running)``).
    ``min_interval_s`` throttles redraws so tiny campaigns don't spam —
    but only *intermediate* redraws: :meth:`finish` always emits one
    final, un-throttled summary line, so a campaign that resolves
    entirely inside a single throttle window still reports its totals
    instead of ending with a stale (or blank) line.
    """

    def __init__(
        self,
        label: str = "chaos",
        stream: Optional[IO[str]] = None,
        min_interval_s: float = 0.5,
    ) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self._t0 = 0.0
        self._last: Optional[float] = None
        self._running = 0

    def _now(self) -> float:
        return time.monotonic()

    def start(self, total: int, workers: int, running: int) -> None:
        self._t0 = self._now()
        self._last = None
        self._running = running
        self._emit(0, total, 0, workers)

    def update(self, done: int, total: int, cache_hits: int, workers: int) -> None:
        now = self._now()
        if (
            done < total
            and self._last is not None
            and (now - self._last) < self.min_interval_s
        ):
            return
        self._last = now
        self._emit(done, total, cache_hits, workers)

    def finish(self, done: int, total: int, cache_hits: int, workers: int) -> None:
        # unconditionally final: never throttled, always newline-terminated
        self._emit(done, total, cache_hits, workers, final=True)
        self.stream.write("\n")
        self.stream.flush()

    def _emit(
        self,
        done: int,
        total: int,
        cache_hits: int,
        workers: int,
        final: bool = False,
    ) -> None:
        elapsed = max(self._now() - self._t0, 1e-9)
        rate = done / elapsed
        hits = f", {cache_hits} cached" if cache_hits else ""
        live = min(workers, self._running)
        if final:
            extra = f", {elapsed:.1f}s"
        else:
            # live pool occupancy: every running process is busy until
            # fewer tasks remain than processes (the tail drain), plus the
            # backlog still queued behind them
            inflight = max(0, min(live, total - done))
            queued = max(0, total - done - inflight)
            util = (inflight / live) if live else 0.0
            extra = f", {util:.0%} util, {queued} queued"
        self.stream.write(
            f"\r{self.label}: {done}/{total} replays "
            f"({rate:.1f}/s, {describe_width(workers, live)}{extra}{hits})"
        )
        self.stream.flush()


def describe_width(workers: int, running: int) -> str:
    """``N workers``, naming the running processes when a host caps them
    (``2 workers (1 running)``)."""
    desc = f"{workers} worker{'s' if workers != 1 else ''}"
    return desc if running >= workers else f"{desc} ({running} running)"


class NullProgress:
    """No-op reporter (the engine default)."""

    def start(self, total: int, workers: int, running: int) -> None:
        pass

    def update(self, done: int, total: int, cache_hits: int, workers: int) -> None:
        pass

    def finish(self, done: int, total: int, cache_hits: int, workers: int) -> None:
        pass
