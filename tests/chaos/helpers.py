"""Helpers shared by the chaos tests."""

import contextlib
import hashlib
import json
import random
from unittest import mock

import numpy as np

from repro.chaos import bench as chaos_bench
from repro.chaos import selfckpt_scenario
from repro.chaos.plan import KIND_KILL
from repro.ckpt.self_ckpt import SelfCheckpoint
from repro.par.replay import run_units
from repro.sim.mpi import Communicator
from repro.sim.runtime import Job


#: the poison fill the goldens' shared campaigns run under (the poison
#: net's first).  The production allocator, ``np.empty``, promises no
#: contents either, so a golden holds under any fill or none.
GOLDEN_FILL = 0xA5


def poison_alloc(fill):
    """An unzeroed allocator (``repro.sim.shm._alloc_unzeroed``'s
    signature) that hands out segments filled with byte ``fill``."""

    def alloc(shape, dtype=np.float64):
        arr = np.empty(shape, dtype=dtype)
        arr.reshape(-1).view(np.uint8)[:] = fill
        return arr

    return alloc


def small_scenario(**kw):
    """A 2-node, 1-rank-per-node ``self`` scenario, 4 iterations with a
    checkpoint every 2: the smallest campaign the chaos tests share."""
    kw.setdefault("n_nodes", 2)
    kw.setdefault("procs_per_node", 1)
    kw.setdefault("group_size", 2)
    kw.setdefault("iters", 4)
    kw.setdefault("ckpt_every", 2)
    kw.setdefault("method", "self")
    return selfckpt_scenario(**kw)


def bench_bytes(matrices, schedules=None, seed=0):
    """The ``BENCH_chaos.json`` bytes of a campaign's results."""
    return chaos_bench.bench_json(chaos_bench.bench_record(matrices, schedules, None, seed=seed))


def stripped_digest(store, tables=("runs", "summaries", "spans", "metrics"), keep=None):
    """Store content with the code-fingerprint-derived ids (run id,
    campaign id) replaced by the run's ordinal: comparable across
    commits, where :meth:`TraceStore.digest` is only comparable within
    one.  ``tables`` narrows the dump; ``keep(table, doc)`` filters its
    rows."""
    ords = dict(store.query("SELECT run_id, ord FROM runs"))
    lines = []
    for table in tables:
        cols = [r[1] for r in store.query(f"PRAGMA table_info({table})")]
        rows = []
        for row in store.query(f"SELECT * FROM {table}"):
            doc = dict(zip(cols, row))
            doc["run_id"] = ords[doc["run_id"]]
            doc.pop("campaign_id", None)
            if keep is None or keep(table, doc):
                rows.append(json.dumps({"table": table, **doc}, sort_keys=True))
        lines.extend(sorted(rows))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class SilentCorruptRecover(SelfCheckpoint):
    """Deliberately broken variant: the rebuilt member's payload is
    corrupted, so recovery "succeeds" but the restored data is wrong —
    exactly the silent-corruption failure the wrong-answer oracle exists
    to catch."""

    def _do_recover(self, flat, checksum, missing):
        out = super()._do_recover(flat, checksum, missing)
        if out is not None:
            rebuilt, cs = out
            bad = np.array(rebuilt, copy=True)
            bad[:8] ^= 0x01  # flip bytes inside the first data array
            out = (bad, cs)
        return out


@contextlib.contextmanager
def seeded_schedule(seed):
    """Inside the block every job takes the next rank to run from its
    ready queue at random, seeded, instead of first in first out.  Each
    pick is as legal an MPI execution as FIFO's, so no virtual clock,
    answer or verdict may change."""
    rng = random.Random(seed)

    def next_ready(job):
        ready = job._ready
        i = rng.randrange(len(ready))
        rank = ready[i]
        del ready[i]
        return rank

    with mock.patch.object(Job, "_next_ready", next_ready):
        yield


@contextlib.contextmanager
def count_swap_rendezvous():
    """Inside the block every ``Communicator._run_swaps`` call — one
    ``swap_rows`` rendezvous run — adds one to the yielded ``[count]``, so
    a net can assert that the rendezvous it means to cover ran at all."""
    runs = [0]
    run_swaps = Communicator._run_swaps

    def counted(comm, job):
        runs[0] += 1
        return run_swaps(comm, job)

    with mock.patch.object(Communicator, "_run_swaps", counted):
        yield runs


#: what FIFO's contract holds for a random (MTBF) schedule under any order
RANDOM_FIELDS = ("verdict", "n_restarts", "gave_up_reason")


def _contract(outcome):
    return tuple(getattr(outcome, f) for f in RANDOM_FIELDS)


def schedule_divergence(plan, seeds):
    """Replay every unit of ``plan`` (a :class:`~repro.chaos.plan.
    CampaignPlan`) serially under FIFO, then once per seed under
    :func:`seeded_schedule`; returns ``{seed: [divergent unit ordinals]}``.

    A kill unit must match FIFO's whole outcome: verdict, restarts,
    makespan, fired lines and obs payload.  A random schedule must match
    its verdict, restarts and give-up reason (:data:`RANDOM_FIELDS`):
    its time triggers and unpinned ``restore.begin`` kill fire on
    whichever rank gets there first, which can change the fired lines,
    the obs payload and the makespan under another order."""
    specs = [u.spec for u in plan.units]
    fifo = run_units(specs)
    divergent = {}
    for seed in seeds:
        with seeded_schedule(seed):
            outcomes = run_units(specs)
        divergent[seed] = [
            u.ord
            for u, a, b in zip(plan.units, fifo, outcomes)
            if (a != b if u.kind == KIND_KILL else _contract(a) != _contract(b))
        ]
    return divergent
