"""Lifecycle goldens: the checkpoint protocols' wire format, pinned.

``lifecycle_golden.json`` was captured at the commit *before* the protocol
family was collapsed onto one lifecycle (ISSUE 17), by running this module
(``PYTHONPATH=src python -m tests.chaos.test_lifecycle_golden``) on that
tree.  Each campaign is the full kill matrix ``repro chaos`` runs from a
shell — 4 nodes x 1 rank, 6 iterations, ``--obs full`` — so phase names
and order, span names and attributes, every barrier and every charged
virtual second of every method are in the pinned bytes:

* **G1** ``self, self-rs, double, multilevel`` at group size 4 and
  **G2** ``buddy`` at group size 2: ``BENCH_chaos.json``, the report and
  the whole trace store (runs, summaries, spans, metrics).
* **G3** ``single, incremental, disk-ssd`` opened no spans at capture
  time (a bug, since fixed), so their store is pinned on what spans do
  not feed: the runs and every metric row except the span-derived
  ``ckpt.count`` / ``ckpt.bytes_encoded`` / ``restore.count`` — i.e.
  every virtual-time gauge and histogram and all traffic.
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from repro.chaos import chaos_main
from repro.obs.store import TraceStore
from tests.chaos.helpers import stripped_digest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "lifecycle_golden.json")
CAMPAIGNS = {
    "G1": ("self,self-rs,double,multilevel", 4),
    "G2": ("buddy", 2),
    "G3": ("single,incremental,disk-ssd", 4),
}
SPAN_DERIVED = ("ckpt.count", "ckpt.bytes_encoded", "restore.count")


def _not_span_derived(table, doc):
    return table != "metrics" or doc["name"] not in SPAN_DERIVED


def run_campaign_cli(name, out):
    methods, group_size = CAMPAIGNS[name]
    status = chaos_main(
        [
            "--methods", methods, "--nodes", "4", "--ppn", "1",
            "--group-size", str(group_size), "--iters", "6",
            "--obs", "full", "--no-progress", "--out", str(out),
        ]
    )
    with open(os.path.join(out, "BENCH_chaos.json"), "rb") as f:
        bench_sha256 = hashlib.sha256(f.read()).hexdigest()
    with open(os.path.join(out, "report.txt"), encoding="utf-8") as f:
        report = f.read()
    with TraceStore(os.path.join(out, "obs.sqlite")) as store:
        counts = store.counts()
        return {
            "exit_status": status,
            "bench_sha256": bench_sha256,
            "report": report,
            "runs": counts["runs"],
            "spans": counts["spans"],
            "store_digest": stripped_digest(store),
            "virtual_time_digest": stripped_digest(
                store, tables=("runs", "metrics"), keep=_not_span_derived
            ),
        }


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_reproduces_the_pre_collapse_golden(tmp_path, capsys, name):
    with open(GOLDEN_PATH) as f:
        want = json.load(f)[name]
    got = run_campaign_cli(name, tmp_path)
    capsys.readouterr()  # the report went to stdout; it is compared from the file
    if name == "G3":
        # these methods gained their spans after the capture: only the
        # span-fed store content may differ
        for key in ("spans", "store_digest"):
            del got[key], want[key]
    assert got == want


if __name__ == "__main__":  # capture: rewrites the golden from this tree
    golden = {}
    for campaign in sorted(CAMPAIGNS):
        with tempfile.TemporaryDirectory() as tmp:
            golden[campaign] = run_campaign_cli(campaign, tmp)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    sys.exit(0)
