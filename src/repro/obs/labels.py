"""Canonical span labels and metric names for the observability layer.

Every span a protocol opens and every metric the observers feed is named
here, once.  The :mod:`repro.sancheck.simlint` ``obs-label`` rule checks
string literals at ``ctx.span(...)`` / ``registry.counter(...)`` call
sites against these sets, so a typo in an instrumentation label is a lint
failure rather than a silently empty dashboard panel.

Naming scheme: ``<subsystem>.<operation>`` with dots, lowercase.  Span
labels parallel the ``ctx.phase`` announcements where one exists (e.g.
the ``ckpt.encode`` span covers the work announced by the ``ckpt.encode``
phase) but spans carry begin/end clocks and attributes, not just a point
event.  Units are part of the metric contract: ``*_s`` are virtual
seconds, ``*bytes*`` are bytes, everything else is a count.
"""

from __future__ import annotations

#: Span labels the protocols and drivers may open (see docs/OBSERVABILITY.md).
SPAN_LABELS = frozenset(
    {
        # checkpoint protocols (self/self-rs/double/buddy/...)
        "ckpt",  # one whole checkpoint, root of the ckpt.* children
        "ckpt.copy_a2",  # A2 -> B2 shadow copy (self-checkpoint step 1)
        "ckpt.encode",  # group checksum / parity encode collective
        "ckpt.exchange",  # buddy full-copy exchange (replication "encode")
        "ckpt.commit",  # flush + license barriers up to ckpt.done
        # recovery paths
        "restore",  # one whole restore, root of the restore.* children
        "restore.rebuild",  # survivor-assisted reconstruction of lost members
        "restore.commit",  # rewrite of the clean (B, C) pair + barriers
        # HPL driver
        "hpl.panel",  # one elimination iteration (attr k = panel index)
        "hpl.backsub",  # back substitution
        "hpl.verify",  # residual verification
        "hpl.generate",  # fixed-seed matrix/rhs generation
    }
)

#: Metric names the observers and scenario runner register.
METRIC_NAMES = frozenset(
    {
        # MPI traffic: *_posted counts at send time (includes messages lost
        # to a failure mid-flight); bytes_sent/bytes_recv count at delivery
        # time, attributed to the sender/receiver rank — so aggregated over
        # a job, bytes_sent == bytes_recv by construction
        "mpi.bytes_posted",
        "mpi.msgs_posted",
        "mpi.bytes_sent",
        "mpi.bytes_recv",
        "mpi.msgs_recv",
        "mpi.blocked_s",  # histogram: virtual seconds blocked per receive
        "mpi.collective_s",  # virtual seconds inside collectives (sync + cost)
        "mpi.collectives",  # collective operations completed
        # shared memory (store create/attach/unlink; reads and writes through
        # a segment's array are invisible)
        "shm.ops",
        "shm.bytes_written",
        # job lifecycle (fed by the scenario runner from the daemon report)
        "job.restarts",
        "job.failures_injected",
        "job.completed",
        "job.makespan_s",
        # checkpoint/recovery aggregates (derived from the span stream)
        "ckpt.count",
        "ckpt.bytes_encoded",
        "restore.count",
        # chaos campaign engine (src/repro/chaos): per-campaign verdict
        # accounting — kill_points counts matrix cells, runs counts every
        # supervised job the engine launched (matrix + random + shrink)
        "chaos.kill_points",
        "chaos.runs",
        "chaos.survived",
        "chaos.wrong_answer",
        "chaos.unrecoverable",
        "chaos.gave_up",
        "chaos.not_fired",
        # parallel replay engine (src/repro/par): tasks counts every spec
        # the engine resolved (cache hits included); cache_hits/cache_misses
        # partition the memoized-lookup outcomes; cache_corrupt counts disk
        # entries that existed but failed to parse (counted as misses);
        # workers is a gauge of the pool width actually used for the map;
        # worker_tasks is labelled by dispatch slot (submission-order
        # round-robin attribution — which OS process actually ran a task is
        # host scheduling, so accounting is by deterministic dispatch slot);
        # queue_depth is the peak backlog beyond the pool width
        "par.tasks",
        "par.cache_hits",
        "par.cache_misses",
        "par.cache_corrupt",
        "par.workers",
        "par.worker_tasks",
        "par.queue_depth",
        # sharded campaign engine health (src/repro/shard): respawns counts
        # supervisor-replaced crashed executors; quarantined counts poison
        # units journaled as synthesized gave-up outcomes; fence_rejections
        # counts journal/commit/renew writes refused because the claimant's
        # fencing token was superseded (zombie executors)
        "shard.respawns",
        "shard.quarantined",
        "shard.fence_rejections",
    }
)

#: Message tag classes for per-tag-class traffic accounting: HPL row swaps
#: use ``tag_base * nb + j + 1000``, the buddy rescue path uses tag 999,
#: everything else (checkpoint status, app traffic) is plain point-to-point.
TAG_CLASS_SWAP = "swap"
TAG_CLASS_RESCUE = "rescue"
TAG_CLASS_PT2PT = "pt2pt"


def tag_class(tag: int) -> str:
    """Coarse traffic class of a message tag (see module docstring)."""
    if tag >= 1000:
        return TAG_CLASS_SWAP
    if tag == 999:
        return TAG_CLASS_RESCUE
    return TAG_CLASS_PT2PT
