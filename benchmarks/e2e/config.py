"""Constants of the benchmark: paths, pinned environment, workload shapes.

Everything here is identical on every commit the benchmark is run
against; a later change that edits one of these values has redefined the
benchmark and must re-measure the baseline.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS_DIR = os.path.join(HERE, "results")
#: scratch space of a run (chaos ``--out`` directories, span files); the
#: benchmark reads and writes only inside its checkout, so not ``/tmp``
TMP_DIR = os.path.join(RESULTS_DIR, "tmp")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
GOLDEN_JSON = os.path.join(HERE, "golden.json")
RUN_PY = os.path.join(HERE, "run.py")

#: glibc allocator settings every measured process runs under.  Freshly
#: mapped pages cost ~17 ms/MiB to touch on the sandbox hypervisor, and the
#: default allocator returns and re-maps multi-MiB buffers on every
#: checkpoint; one arena that never trims or mmaps keeps the heap the
#: process grew during warm-up (see README "Noise control").
MALLOC_ENV = {
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_THRESHOLD_": "33554432",
    "MALLOC_TRIM_THRESHOLD_": "8589934592",
    "MALLOC_TOP_PAD_": "268435456",
}
#: one BLAS thread: the measured process tree is pinned to one CPU
PINNED_ENV = dict(MALLOC_ENV, OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
#: the parent's affinity mask before pinning, for the convoy probe
ENV_ORIG_AFFINITY = "E2E_ORIG_AFFINITY"

#: child rounds per run: each sets up from scratch (``setup_s`` is their
#: median) and then runs its share of the measured seconds
ROUNDS = 3

#: stolen-time correction (``rounds.steal_slowdown``): with a share f of the
#: wall clock stolen by the hypervisor, the seconds the vCPU did get are
#: slower by 1 + STEAL_SLOWDOWN * f (measured: README "Noise control")
STEAL_SLOWDOWN = 1.0
#: the calibration pass (``rounds.handoff_pass``): hand-offs per pass, and
#: the CPU seconds a pass takes on the sandbox (2.1 GHz Xeon guest, one CPU)
#: in its usual state — end-to-end times are reported at that hand-off cost.
#: A block of passes opens a round and follows every op, sized as a share
#: of the op.
HANDOFFS_PER_PASS = 400
REF_PASS_CPU_S = 0.0085
CAL_FIRST_S = 0.3
CAL_SHARE = 0.3

GROUP_SIZE = 4
METHODS = ("self", "self-rs", "double")


@dataclass(frozen=True)
class CkptShape:
    """Shape of one checkpoint-cycle workload (see ``workloads.CkptCycles``)."""

    n_ranks: int
    n_nodes: int
    n_spares: int
    procs_per_node: int
    n_elems: int  # float64 elements per rank
    iters: int
    #: (node, phase, rank, that rank's occurrence) of the two kills
    kills: Tuple[Tuple[int, str, int, int], ...]


#: 8 ranks on 8 nodes, 2 MiB per rank, 3 checkpoints, 2 kills.  (The issue
#: prototyped 8 MiB; growing that heap costs 8-31 s of first-touch faults
#: per fresh process here, which no set-up budget survives.)
CKPT_BULK = CkptShape(
    n_ranks=8, n_nodes=8, n_spares=4, procs_per_node=1, n_elems=1 << 18, iters=3,
    kills=((1, "ckpt.flush", 1, 2), (2, "ckpt.begin", 2, 3)),
)
#: 16 ranks at 2 per node, 4 KiB per rank, 40 checkpoints, same two kills
CKPT_TINY = CkptShape(
    n_ranks=16, n_nodes=8, n_spares=4, procs_per_node=2, n_elems=512, iters=40,
    kills=((1, "ckpt.flush", 2, 10), (2, "ckpt.begin", 4, 15)),
)
#: miniature shape for ``selftest``
CKPT_MINI = CkptShape(
    n_ranks=8, n_nodes=8, n_spares=4, procs_per_node=1, n_elems=512, iters=3,
    kills=((1, "ckpt.flush", 1, 2), (2, "ckpt.begin", 2, 3)),
)

HPL = dict(n=1024, nb=32, p=2, q=4)
HPL_MINI = dict(n=128, nb=16, p=2, q=4)
HPL_KILL = (5, "ckpt.flush", 5, 2)
HPL_KILL_MINI = (5, "ckpt.flush", 5, 1)
RESTART_POLICY = (63.0, 10.0, 9.0)

#: workload -> warm-up ops per round (the "why" of each is in BENCHMARK.json)
WORKLOADS: Dict[str, int] = {
    "ckpt_bulk": 2,
    "ckpt_tiny": 2,
    "skt_hpl": 2,
    "chaos_serial": 1,
    "chaos_pool2": 1,
    "chaos_shard2": 1,
}


#: workload -> share of an op's seconds that follows the host's hand-off
#: cost (the exponent of the hand-off scaling): all of it where rank
#: hand-off or job start-up do the work, half where kernels and copies do
HANDOFF_SHARE: Dict[str, float] = {
    "ckpt_bulk": 0.5,
    "ckpt_tiny": 1.0,
    "skt_hpl": 1.0,
    "chaos_serial": 1.0,
    "chaos_pool2": 1.0,
    "chaos_shard2": 1.0,
}


def load_benchmark_json() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as f:
        return json.load(f)
