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

The goldens read their campaigns from the session's ``filled_run``
(``tests/conftest.py``), made under the 0xA5 poison fill of the unzeroed
segments; the poison net's 0xA5 cases (``tests/ckpt/test_poison_net.py``)
read the same three runs and assert the same record.  A golden holds
under any fill: the production allocator, ``np.empty``, promises no
contents either.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

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


def run_campaign_cli(name, obs):
    """``repro chaos --obs obs`` of campaign ``name``: its exit status, the
    sha256 of ``BENCH_chaos.json`` and the report, and — unless ``obs`` is
    ``off`` — the store's run and span counts and digests."""
    methods, group_size = CAMPAIGNS[name]
    with tempfile.TemporaryDirectory() as out:
        status = chaos_main(
            [
                "--methods", methods, "--nodes", "4", "--ppn", "1",
                "--group-size", str(group_size), "--iters", "6",
                "--obs", obs, "--no-progress", "--out", out,
            ]
        )
        record = {
            "exit_status": status,
            "bench_sha256": hashlib.sha256(Path(out, "BENCH_chaos.json").read_bytes()).hexdigest(),
            "report": Path(out, "report.txt").read_text(encoding="utf-8"),
        }
        if obs != "off":
            with TraceStore(os.path.join(out, "obs.sqlite")) as store:
                counts = store.counts()
                record.update(
                    runs=counts["runs"],
                    spans=counts["spans"],
                    store_digest=stripped_digest(store),
                    virtual_time_digest=stripped_digest(
                        store, tables=("runs", "metrics"), keep=_not_span_derived
                    ),
                )
    return record


def pinned(name, record):
    """The part of a :func:`run_campaign_cli` record the golden pins: all
    of it, but G3's span-fed store content (these methods gained their
    spans after the capture)."""
    if name == "G3":
        return {k: v for k, v in record.items() if k not in ("spans", "store_digest")}
    return record


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_reproduces_the_pre_collapse_golden(filled_run, name):
    with open(GOLDEN_PATH) as f:
        want = json.load(f)[name]
    assert pinned(name, filled_run(run_campaign_cli, name, "full")) == pinned(name, want)


if __name__ == "__main__":  # capture: rewrites the golden from this tree
    golden = {campaign: run_campaign_cli(campaign, "full") for campaign in sorted(CAMPAIGNS)}
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    sys.exit(0)
