"""Shard planner: a campaign plan becomes content-addressed shards.

Planning itself — probe each method's baseline, enumerate the kill
matrix, draw the randomized schedules from the campaign seed, freeze the
ordered :class:`~repro.chaos.plan.PlannedUnit` list — is
:func:`repro.chaos.plan.plan_campaign`, shared with the in-process
engines.  What is shard-specific lives here: the units are striped over
``n_shards`` :class:`ShardPlan` partitions, and the plan gets an identity
a queue can be bound to.

Identity is content-addressed at every level, reusing the memo cache's
vocabulary:

* **unit id** = :func:`~repro.par.cache.replay_fingerprint` of its spec
  (scenario kwargs + triggers + obs mode + code fingerprint) — the same
  key the cache and the trace store use, so one fact names the work
  everywhere;
* **shard id** = digest over its member unit fingerprints, in order;
* **plan fingerprint** = digest over the shard ids.

A queue created from one plan refuses to resume under another: edit any
source file, change any campaign knob, and the plan fingerprint moves —
a stale queue is an error, never silently-wrong artifacts.

Everything in a plan is deterministic (probes ride virtual clocks,
schedules derive from the seed), so a resumed driver re-plans from the
command line alone and lands on the identical plan.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from repro.chaos import plan as chaos_plan
from repro.chaos.plan import (  # noqa: F401  (the plan vocabulary, re-exported)
    KIND_KILL,
    KIND_RANDOM,
    CampaignPlan,
    MatrixPlan,
    PlannedUnit,
    merge_campaign,
)
from repro.par.cache import code_fingerprint

#: bump when the plan/queue layout changes incompatibly
PLAN_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ShardPlan:
    """One content-addressed partition of the campaign's units."""

    shard_id: str
    index: int
    unit_ords: Tuple[int, ...]


def _shard_id(unit_fingerprints: Sequence[str]) -> str:
    doc = {"schema": PLAN_SCHEMA_VERSION, "units": list(unit_fingerprints)}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _plan_fingerprint(shards: Sequence[ShardPlan], obs: str, seed: int) -> str:
    doc = {
        "schema": PLAN_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "obs": obs,
        "seed": seed,
        "shards": [s.shard_id for s in shards],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def partition(n_units: int, n_shards: int) -> List[Tuple[int, ...]]:
    """Round-robin striping of unit ordinals over ``n_shards`` — the
    deterministic partition that balances a heterogeneous tail (random
    schedules are costlier than single kill points) without needing cost
    estimates.  Empty stripes are dropped, so ``n_shards`` larger than
    the campaign degrades gracefully."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    stripes = [
        tuple(range(i, n_units, n_shards)) for i in range(n_shards)
    ]
    return [s for s in stripes if s]


def plan_campaign(
    scenarios: Sequence[Any], *, n_shards: int, **plan_kw: Any
) -> CampaignPlan:
    """Freeze one ``repro chaos`` campaign into a sharded plan:
    :func:`repro.chaos.plan.plan_campaign` (``plan_kw``: the same campaign,
    hence the same units, as on every other engine), then the partition
    and the identities.

    Raises :class:`~repro.chaos.campaign.ChaosError` for a campaign with
    no units.
    """
    plan = chaos_plan.plan_campaign(scenarios, **plan_kw)
    plan.shards = [
        ShardPlan(
            shard_id=_shard_id([plan.units[o].fingerprint for o in ords]),
            index=i,
            unit_ords=ords,
        )
        for i, ords in enumerate(partition(plan.n_units, n_shards))
    ]
    plan.fingerprint = _plan_fingerprint(plan.shards, plan.obs, plan.seed)
    return plan
