"""Campaign-scale telemetry store: persistent cross-run traces in SQLite.

One ``repro chaos --obs summary`` campaign resolves hundreds of attempts;
a perf trajectory spans many invocations over weeks.  The per-run JSON
artifacts (``BENCH_obs.json``, ``BENCH_chaos.json``, ``trace.json``) are
snapshots of *one* run — this module gives them a durable home that
queries across runs: a :class:`TraceStore` backed by a single SQLite file
(stdlib :mod:`sqlite3`, no services, no daemons) holding runs, spans,
metric samples and flat summary rollups — every row keyed by its run.

Identity is content-addressed, not autoincremented.  An attempt's
``run_id`` is the same :func:`~repro.par.cache.replay_fingerprint` the
memo cache uses — scenario + triggers + obs mode + code fingerprint
— so re-ingesting the same campaign is idempotent (``INSERT OR
REPLACE``), a serial and a ``--workers N`` sweep land byte-identically,
and two *different* code versions never collide on one id.  A ``repro
obs`` profile run is stored under the same fingerprint (``kind="obs"``):
it is a chaos recipe plus at most one trigger at obs mode ``full``.

Determinism contract: every stored value derives from virtual clocks and
seeds.  :meth:`TraceStore.digest` hashes the *logical* content (canonical
``ORDER BY``-ed dump, not file bytes — SQLite page layout is not stable),
so two same-seed campaigns produce stores with equal digests; the tests
pin this.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sqlite3
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: bump when the table layout changes incompatibly
STORE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id      TEXT PRIMARY KEY,
    campaign_id TEXT NOT NULL,
    ord         INTEGER NOT NULL,
    kind        TEXT NOT NULL,
    scenario    TEXT NOT NULL,
    method      TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    label       TEXT NOT NULL,
    verdict     TEXT NOT NULL,
    n_restarts  INTEGER NOT NULL,
    makespan_s  REAL NOT NULL,
    obs_mode    TEXT NOT NULL,
    params_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS spans (
    run_id      TEXT NOT NULL,
    span_id     TEXT NOT NULL,
    parent_id   TEXT,
    incarnation INTEGER NOT NULL,
    rank        INTEGER NOT NULL,
    seq         INTEGER NOT NULL,
    name        TEXT NOT NULL,
    begin_s     REAL NOT NULL,
    end_s       REAL,
    status      TEXT NOT NULL,
    attrs_json  TEXT NOT NULL,
    PRIMARY KEY (run_id, span_id)
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id      TEXT NOT NULL,
    name        TEXT NOT NULL,
    kind        TEXT NOT NULL,
    labels_json TEXT NOT NULL,
    value       REAL NOT NULL,
    extra_json  TEXT,
    PRIMARY KEY (run_id, name, kind, labels_json)
);
CREATE TABLE IF NOT EXISTS summaries (
    run_id TEXT NOT NULL,
    key    TEXT NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (run_id, key)
);
"""

#: tables in canonical dump order, with their deterministic row ordering
_DUMP_ORDER: Tuple[Tuple[str, str], ...] = (
    ("store_meta", "key"),
    ("runs", "run_id"),
    ("spans", "run_id, span_id"),
    ("metrics", "run_id, name, kind, labels_json"),
    ("summaries", "run_id, key"),
)


def _canon(doc: Any) -> str:
    """Canonical JSON: the single spelling every key/digest hashes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha(doc: Any) -> str:
    return hashlib.sha256(_canon(doc).encode("utf-8")).hexdigest()


def attempt_run_id(scenario: Any, triggers: Iterable[Any], obs_mode: str) -> str:
    """Content address of one campaign attempt: the memo cache's
    :func:`~repro.par.cache.replay_fingerprint` verbatim — store identity
    and cache identity are the same fact."""
    from repro.par.cache import replay_fingerprint
    from repro.par.replay import ReplaySpec

    return replay_fingerprint(ReplaySpec(scenario, tuple(triggers), obs=obs_mode))


class NotATraceStore(ValueError):
    """A read-only open found no file, or a file that is not a trace store."""


def _connect_readonly(path: str) -> sqlite3.Connection:
    """A ``mode=ro`` connection to an existing store: without it SQLite
    creates a missing file, and the writer's ``CREATE TABLE IF NOT EXISTS``
    would plant the store's tables in whatever SQLite file it was given."""
    uri = pathlib.Path(path).absolute().as_uri() + "?mode=ro"
    conn = None
    try:
        conn = sqlite3.connect(uri, uri=True)
        if conn.execute(
            "SELECT 1 FROM sqlite_master "
            "WHERE type = 'table' AND name = 'store_meta'"
        ).fetchone():
            return conn
        reason = "no store_meta table"
    except sqlite3.Error as exc:  # no such file, or not SQLite at all
        reason = str(exc)
    if conn is not None:
        conn.close()
    raise NotATraceStore(f"not a trace store ({reason}): {path}")


class TraceStore:
    """SQLite-backed store of campaign runs, spans, metrics and summaries.

    ``path`` may be ``":memory:"`` for tests.  All writers are idempotent
    (``INSERT OR REPLACE`` keyed by content addresses), so re-running an
    ingestion is a no-op rather than a duplication.  ``readonly=True`` is
    for commands that only read: the file must already be a trace store
    (else :class:`NotATraceStore`) and is neither created nor altered.
    """

    def __init__(self, path: str = ":memory:", *, readonly: bool = False) -> None:
        self.path = path
        if readonly:
            self._conn = _connect_readonly(path)
            return
        self._conn = sqlite3.connect(path)
        self._conn.executescript(_SCHEMA)
        self._conn.execute(
            "INSERT OR REPLACE INTO store_meta (key, value) VALUES (?, ?)",
            ("schema", str(STORE_SCHEMA_VERSION)),
        )
        self._conn.commit()

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        """Commit what was ingested and close."""
        self._conn.commit()
        self._conn.close()

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, exc_type: Any, *exc: Any) -> None:
        """One ``with`` block is one transaction: its rows land all or none."""
        if exc_type is not None:
            self._conn.rollback()
        self.close()

    # -- ingestion --------------------------------------------------------------
    def ingest_attempt(
        self,
        *,
        run_id: str,
        campaign_id: str,
        ord: int,
        kind: str,
        scenario: str,
        method: str,
        seed: int,
        label: str,
        verdict: str,
        n_restarts: int,
        makespan_s: float,
        params: Dict[str, Any],
        obs: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Store one campaign attempt and its obs payload (if sampled).

        ``obs`` is the :attr:`~repro.par.replay.ReplayOutcome.obs` payload
        — ``None`` (mode ``off``: the run row alone), a summary rollup, or
        the full span/metric streams (see
        :func:`repro.obs.rollup.attempt_payload`).  It commits nothing.
        """
        obs_mode = "off" if obs is None else str(obs.get("mode", "summary"))
        self._conn.execute(
            "INSERT OR REPLACE INTO runs (run_id, campaign_id, ord, kind, "
            "scenario, method, seed, label, verdict, n_restarts, makespan_s, "
            "obs_mode, params_json) VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?)",
            (
                run_id,
                campaign_id,
                ord,
                kind,
                scenario,
                method,
                seed,
                label,
                verdict,
                n_restarts,
                makespan_s,
                obs_mode,
                _canon(params),
            ),
        )
        if obs is not None:
            self._put_summary(run_id, obs.get("summary", {}))
            self._put_spans(run_id, obs.get("spans", ()))
            self._put_metrics(run_id, obs.get("metrics", ()))
        return run_id

    def _put_summary(self, run_id: str, summary: Dict[str, float]) -> None:
        self._conn.executemany(
            "INSERT OR REPLACE INTO summaries (run_id, key, value) "
            "VALUES (?,?,?)",
            [(run_id, k, float(v)) for k, v in sorted(summary.items())],
        )

    def _put_spans(
        self, run_id: str, span_docs: Iterable[Dict[str, Any]]
    ) -> None:
        rows = []
        for seq, doc in enumerate(span_docs):
            rows.append(
                (
                    run_id,
                    doc["span_id"],
                    doc.get("parent_id"),
                    int(doc.get("incarnation", 0)),
                    int(doc["rank"]),
                    seq,
                    doc["name"],
                    float(doc["begin"]),
                    None if doc.get("end") is None else float(doc["end"]),
                    str(doc.get("status", "ok")),
                    _canon(doc.get("attrs", {})),
                )
            )
        self._conn.executemany(
            "INSERT OR REPLACE INTO spans (run_id, span_id, parent_id, "
            "incarnation, rank, seq, name, begin_s, end_s, status, "
            "attrs_json) VALUES (?,?,?,?,?,?,?,?,?,?,?)",
            rows,
        )

    def _put_metrics(
        self, run_id: str, metric_docs: Iterable[Dict[str, Any]]
    ) -> None:
        self._conn.executemany(
            "INSERT OR REPLACE INTO metrics (run_id, name, kind, "
            "labels_json, value, extra_json) VALUES (?,?,?,?,?,?)",
            [
                (
                    run_id,
                    doc["name"],
                    doc["kind"],
                    _canon(doc.get("labels", {})),
                    float(doc["value"]),
                    None
                    if doc.get("extra") is None
                    else _canon(doc["extra"]),
                )
                for doc in metric_docs
            ],
        )

    # -- reads ------------------------------------------------------------------
    def query(self, sql: str, params: Tuple[Any, ...] = ()) -> List[Tuple]:
        return list(self._conn.execute(sql, params))

    def counts(self) -> Dict[str, int]:
        """Rows per table — the smoke check's one-line inventory."""
        return {
            table: self.query(f"SELECT COUNT(*) FROM {table}")[0][0]
            for table, _ in _DUMP_ORDER
        }

    def dump_canonical(self) -> str:
        """The store's logical content as deterministic JSON lines."""
        lines = []
        for table, order in _DUMP_ORDER:
            cols = [
                r[1]
                for r in self.query(f"PRAGMA table_info({table})")
            ]
            for row in self.query(
                f"SELECT * FROM {table} ORDER BY {order}"
            ):
                lines.append(_canon({"table": table, **dict(zip(cols, row))}))
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """sha256 over the canonical dump — equal iff logically equal."""
        return hashlib.sha256(self.dump_canonical().encode("utf-8")).hexdigest()


# -- campaign ingestion helpers -------------------------------------------------

def campaign_id_for(seed: int, scenario: str, methods: Iterable[str]) -> str:
    """Deterministic campaign identity from the invocation's knobs."""
    from repro.par.cache import code_fingerprint

    return _sha(
        {
            "code": code_fingerprint(),
            "scenario": scenario,
            "methods": list(methods),
            "seed": seed,
        }
    )[:16]


def ingest_kill_matrix(
    store: TraceStore,
    campaign_id: str,
    scenario: Any,
    report: Any,
    *,
    seed: int,
    obs_mode: str,
    ord_base: int = 0,
    probe: Any = None,
) -> int:
    """Ingest every kill-point attempt of one campaign matrix; returns the
    next ordinal (attempts are ordered canonically: matrix order, then
    schedule order — identical for serial and pooled sweeps).

    ``probe`` must be the same :class:`~repro.chaos.campaign.BaselineProbe`
    the matrix ran with (or ``None`` for both): the run id is the replay
    fingerprint of the attempt's trigger, and a probe-pinned trigger
    fingerprints differently from an unpinned one."""
    from repro.chaos.campaign import point_trigger

    ord_ = ord_base
    for r in report.results:
        store.ingest_attempt(
            run_id=attempt_run_id(
                scenario, (point_trigger(r.point, probe),), obs_mode
            ),
            campaign_id=campaign_id,
            ord=ord_,
            kind="kill",
            scenario=report.scenario,
            method=report.method,
            seed=seed,
            label=r.point.label,
            verdict=r.verdict,
            n_restarts=r.n_restarts,
            makespan_s=r.makespan_s,
            params=dict(report.params),
            obs=r.obs,
        )
        ord_ += 1
    return ord_


def ingest_schedules(
    store: TraceStore,
    campaign_id: str,
    scenario: Any,
    schedules: Iterable[Any],
    *,
    seed: int,
    obs_mode: str,
    ord_base: int = 0,
) -> int:
    """Ingest the randomized-campaign attempts; returns the next ordinal."""
    ord_ = ord_base
    params = scenario.params
    for r in schedules:
        store.ingest_attempt(
            run_id=attempt_run_id(scenario, r.triggers, obs_mode),
            campaign_id=campaign_id,
            ord=ord_,
            kind="random",
            scenario=scenario.name,
            method=params["method"],
            seed=seed,
            label=f"random:{r.index}",
            verdict=r.verdict,
            n_restarts=r.n_restarts,
            makespan_s=r.makespan_s,
            params=params,
            obs=r.obs,
        )
        ord_ += 1
    return ord_
