"""Helpers shared by the chaos tests."""

import hashlib
import json

import numpy as np

from repro.ckpt.self_ckpt import SelfCheckpoint


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
