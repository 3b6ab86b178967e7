"""SKT-HPL pinned bit for bit.

``skt_golden.json`` holds, for two SKT-HPL runs, everything they compute
and charge: the makespan, and per rank the solution bytes, residual, phase
timers, checkpoint seconds and what the rank restored from.  One run loses
a node at its 2nd ``ckpt.flush`` under :class:`JobDaemon` and recovers;
the other is a clean 3 x 2 run whose last block is an edge block and whose
row exchanges cross three process rows.

The golden was captured before matrix generation was batched and row
swaps were planned per panel, by running this module
(``PYTHONPATH=src python -m tests.hpl.test_skt_golden``) on that tree;
recapture the same way, and only when a change of the solve's arithmetic
or charged virtual time is intended.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.hpl import HPLConfig, JobDaemon, RestartPolicy, SKTConfig, skt_hpl_main
from repro.sim import Cluster, FailurePlan, Job, PhaseTrigger

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "skt_golden.json")


def _rank_doc(out, clock):
    t = out.hpl.timers
    return {
        "x_sha256": hashlib.sha256(out.hpl.x.tobytes()).hexdigest(),
        "residual": out.hpl.residual.hex(),
        "passed": out.hpl.passed,
        "restored_panel": out.restored_panel,
        "restore_source": out.restore_source,
        "n_checkpoints": out.n_checkpoints,
        "ckpt_s": [out.ckpt_encode_s.hex(), out.ckpt_flush_s.hex()],
        "timers": [v.hex() for v in (t.panel, t.swap, t.update, t.backsub)],
        "clock": clock.hex(),
    }


def daemon_node_loss():
    """n = 200, nb = 16 on 2 x 4: node 5 dies at rank 5's 2nd flush."""
    scfg = SKTConfig(
        hpl=HPLConfig(n=200, nb=16, p=2, q=4), method="self", group_size=4,
        interval_panels=4,
    )
    report = JobDaemon(
        Cluster(8, n_spares=2), skt_hpl_main, 8, args=(scfg,), procs_per_node=1,
        failure_plan=FailurePlan(
            [PhaseTrigger(node_id=5, phase="ckpt.flush", occurrence=2, rank=5)]
        ),
        policy=RestartPolicy(),
    ).run()
    assert report.completed and report.n_restarts == 1, report.gave_up_reason
    res = report.result
    return {
        "makespan": report.total_virtual_s.hex(),
        "ranks": [_rank_doc(res.rank_results[r], res.rank_clocks[r]) for r in range(8)],
    }


def clean_3x2():
    """n = 150, nb = 16 on 3 x 2: an edge block, three process rows."""
    scfg = SKTConfig(
        hpl=HPLConfig(n=150, nb=16, p=3, q=2, seed=7), method="self", group_size=3,
        interval_panels=3,
    )
    res = Job(Cluster(6), skt_hpl_main, 6, args=(scfg,), procs_per_node=1).run()
    assert res.completed, res.rank_errors
    return {
        "makespan": res.makespan.hex(),
        "ranks": [_rank_doc(res.rank_results[r], res.rank_clocks[r]) for r in range(6)],
    }


GOLDEN_RUNS = {"daemon-200-2x4": daemon_node_loss, "clean-150-3x2": clean_3x2}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_skt_hpl_is_bit_identical_to_the_golden(name):
    with open(GOLDEN_PATH) as f:
        want = json.load(f)[name]
    got = GOLDEN_RUNS[name]()
    assert all(r["passed"] for r in got["ranks"])
    assert got == want


if __name__ == "__main__":  # capture: rewrites the golden from this tree
    with open(GOLDEN_PATH, "w") as f:
        json.dump(
            {name: run() for name, run in sorted(GOLDEN_RUNS.items())},
            f, indent=1, sort_keys=True,
        )
        f.write("\n")
    sys.exit(0)
