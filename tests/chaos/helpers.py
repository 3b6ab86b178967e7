"""Helpers shared by the chaos golden tests."""

import hashlib
import json


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
