"""Content-addressed memoization of replay outcomes.

Campaign runs are deterministic: the same scenario parameters, seed and
trigger set always produce the same verdict (virtual clocks, byte-exact
failure delivery).  That makes a replay a pure function of its
:class:`~repro.par.replay.ReplaySpec` — so repeated sweeps (a shrinker
delta-debug run re-probing overlapping schedules, a benchmark re-running
the smoke matrix) can skip points that were already classified.

The fingerprint covers everything the verdict depends on:

* the scenario (kind + canonical kwargs; a protocol factory by its
  ``module.qualname``),
* the trigger set, field by field, in order,
* a **code fingerprint** — a digest over every ``*.py`` source file of the
  installed ``repro`` package — plus :data:`CACHE_SCHEMA_VERSION`.

The code fingerprint is the invalidation rule: touch any source file of
the simulator, protocols, drivers or campaign engine and every cached
outcome misses.  Coarse on purpose — a stale hit would silently report
verdicts of code that no longer exists, and hashing ~200 small files
costs milliseconds, once per process.

:class:`MemoCache` layers an in-memory dict over an optional on-disk
directory of ``<fingerprint>.json`` files, so the cache can persist
across invocations (``repro chaos --cache DIR``) or stay process-local
(the default inside one campaign, where it already deduplicates shrinker
re-probes).  Unreadable or corrupt entries count as misses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from functools import lru_cache
from typing import Any, Dict, Optional

from repro.par.replay import ReplayOutcome, ReplaySpec

#: bump to invalidate every cached outcome on an incompatible layout change
#: (v2: outcomes may carry an obs payload; fingerprints cover the obs mode)
CACHE_SCHEMA_VERSION = 2


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest over the installed ``repro`` package's source files."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    h = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in filenames:
            if name.endswith(".py"):
                paths.append(os.path.join(dirpath, name))
    for path in sorted(paths):
        h.update(os.path.relpath(path, root).encode("utf-8"))
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _trigger_doc(trigger: Any) -> Dict[str, Any]:
    doc = dataclasses.asdict(trigger)
    doc["kind"] = type(trigger).__name__
    return doc


def _by_reference(obj: Any) -> Any:
    """JSON for what the encoder cannot spell: a protocol factory as its
    ``module.qualname`` (scenarios only hold module-level ones), anything
    else iterable as a list."""
    if callable(obj):
        return f"{obj.__module__}.{obj.__qualname__}"
    return list(obj)


def replay_fingerprint(spec: ReplaySpec) -> str:
    """The content address of one replay job.

    Covers the obs sampling mode too: an outcome replayed with spans
    attached carries a payload an ``off`` replay does not, so the two
    must never share a cache entry (or a store run id).
    """
    doc = {
        "schema": CACHE_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "scenario": {"kind": spec.scenario.kind, "kwargs": dict(spec.scenario.kwargs)},
        "triggers": [_trigger_doc(t) for t in spec.triggers],
        "obs": getattr(spec, "obs", "off"),
    }
    blob = json.dumps(doc, sort_keys=True, default=_by_reference)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class MemoCache:
    """In-memory (and optionally on-disk) store of classified outcomes.

    The parallel engine counts hits and misses itself
    (``par.cache_hits`` / ``par.cache_misses``); the one count only the
    cache can see rides on it, :attr:`corrupt`, which the engine surfaces
    as ``par.cache_corrupt``, so a disk entry that existed but failed to
    parse is a *visible* event in campaign telemetry rather than a silent
    re-run.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._mem: Dict[str, ReplayOutcome] = {}
        #: disk entries that existed but could not be read/parsed
        #: (counted as misses too; the entry is rewritten on put)
        self.corrupt = 0
        if path is not None:
            os.makedirs(path, exist_ok=True)

    def __len__(self) -> int:
        return len(self._mem)

    def _file_for(self, key: str) -> Optional[str]:
        return None if self.path is None else os.path.join(self.path, f"{key}.json")

    def get(self, key: str) -> Optional[ReplayOutcome]:
        hit = self._mem.get(key)
        if hit is not None:
            return hit
        file = self._file_for(key)
        if file is None or not os.path.exists(file):
            return None
        try:
            with open(file, "r", encoding="utf-8") as f:
                outcome = ReplayOutcome.from_json(json.load(f))
        except (OSError, ValueError, KeyError):
            self.corrupt += 1
            return None  # corrupt entry == miss; it will be rewritten
        self._mem[key] = outcome
        return outcome

    def put(self, key: str, outcome: ReplayOutcome) -> None:
        self._mem[key] = outcome
        file = self._file_for(key)
        if file is not None:
            tmp = f"{file}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(outcome.to_json(), f, sort_keys=True)
            os.replace(tmp, file)
