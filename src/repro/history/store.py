"""Durable verdict history: an append-only sqlite epoch/verdict store.

The paper's deployment model is *always on*: an operator runs Hodor
for months, and the value of validation is the rare epoch where it
fires.  Everything the engine knows today evaporates at process exit;
:class:`HistoryStore` is the persistence layer underneath the
long-horizon story -- per-epoch verdict rows, compacted
:class:`~repro.obs.provenance.VerdictProvenance` payloads for every
input that failed validation, periodic snapshots of the
``engine_registry`` counter families, and the alert ledger.

Design points:

* **sqlite, WAL mode, schema-versioned.**  One file, crash-safe
  (committed epochs survive a process kill and replay from the WAL on
  reopen), readable while a writer is live.  ``PRAGMA user_version``
  pins :data:`SCHEMA_VERSION`; opening a store written by a different
  schema refuses loudly rather than guessing.
* **Single-writer discipline.**  A second writer interleaving epoch
  rows would corrupt the append-only ordering the analytics layer
  depends on, so the writer takes an advisory ``flock`` on a sibling
  ``<path>.lock`` file at open.  The lock dies with the process, so a
  crashed writer never wedges the store.  Readers skip the lock.
* **Deterministic bytes.**  Nothing in the schema requires a wall
  clock: ``recorded_at`` is whatever the caller anchors it to (the
  sink's deterministic mode uses the epoch's own virtual timestamp),
  and all iteration feeding rows is explicitly ordered.  Two identical
  seeded runs that write through the store produce byte-identical
  files -- the reproducibility tests compare them with ``cmp``.
* **Size/age retention + compaction.**  :meth:`enforce_retention`
  deletes exactly the oldest epochs (and their verdicts, provenance,
  counters, and alerts via cascading deletes) until the
  :class:`RetentionPolicy` holds; :meth:`compact` checkpoints the WAL
  and rewrites the file so reclaimed pages are returned to the
  filesystem.  This module is the one sanctioned wall-clock reader
  outside ``obs/clock.py`` (``LintConfig.clock_seam_paths`` pins it):
  months-long age retention is inherently wall-time-based, and every
  caller that cares about determinism passes ``now`` explicitly.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "HistoryError",
    "SchemaMismatchError",
    "ConcurrentWriterError",
    "RetentionPolicy",
    "EpochRow",
    "VerdictRow",
    "AlertRow",
    "CounterSample",
    "CompactionResult",
    "HistoryStore",
]

#: Bump whenever the table layout changes; old stores refuse to open.
SCHEMA_VERSION = 1

#: Tables retention cascades over, in deletion order (children first).
_EPOCH_TABLES = ("provenance", "verdicts", "counters", "alerts")


class HistoryError(RuntimeError):
    """Base error for the verdict history store."""


class SchemaMismatchError(HistoryError):
    """The on-disk schema version is not the one this code writes."""


class ConcurrentWriterError(HistoryError):
    """A second writer tried to open a store that is already owned."""


@dataclass(frozen=True)
class RetentionPolicy:
    """Bounds on how much history a store keeps.

    Attributes:
        max_epochs: Keep at most this many epoch rows (oldest deleted
            first).  ``None`` means unbounded.
        max_age_s: Drop epochs whose ``recorded_at`` is further than
            this behind ``now``.  ``None`` means unbounded.
        max_bytes: Target file-size ceiling; oldest epochs are deleted
            until the store's page usage fits.  ``None`` = unbounded.
    """

    max_epochs: Optional[int] = None
    max_age_s: Optional[float] = None
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.max_age_s is not None and self.max_age_s < 0.0:
            raise ValueError(f"max_age_s must be >= 0, got {self.max_age_s}")
        if self.max_bytes is not None and self.max_bytes < 4096:
            raise ValueError(f"max_bytes must be >= 4096, got {self.max_bytes}")

    @property
    def bounded(self) -> bool:
        return (
            self.max_epochs is not None
            or self.max_age_s is not None
            or self.max_bytes is not None
        )


@dataclass(frozen=True)
class EpochRow:
    """One validated epoch as stored (see the ``epochs`` table)."""

    epoch_id: int
    ts: float
    recorded_at: float
    source: str
    mode: str
    backend: str
    sealed_by: str
    complete: bool
    updates: int
    missing: int
    elapsed_s: float
    detected: bool
    violations: int
    signals_confirmed: int
    signals_repaired: int
    signals_raw: int
    signals_unknown: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch_id": self.epoch_id,
            "ts": self.ts,
            "recorded_at": self.recorded_at,
            "source": self.source,
            "mode": self.mode,
            "backend": self.backend,
            "sealed_by": self.sealed_by,
            "complete": self.complete,
            "updates": self.updates,
            "missing": self.missing,
            "elapsed_s": self.elapsed_s,
            "detected": self.detected,
            "violations": self.violations,
            "signals_confirmed": self.signals_confirmed,
            "signals_repaired": self.signals_repaired,
            "signals_raw": self.signals_raw,
            "signals_unknown": self.signals_unknown,
        }


@dataclass(frozen=True)
class VerdictRow:
    """One per-input verdict row."""

    epoch_id: int
    input_name: str
    valid: bool
    num_violations: int
    num_evaluated: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch_id": self.epoch_id,
            "input": self.input_name,
            "valid": self.valid,
            "num_violations": self.num_violations,
            "num_evaluated": self.num_evaluated,
        }


@dataclass(frozen=True)
class AlertRow:
    """One fired alert as stored in the ledger."""

    alert_id: int
    epoch_id: int
    ts: float
    rule: str
    key: str
    severity: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "alert_id": self.alert_id,
            "epoch_id": self.epoch_id,
            "ts": self.ts,
            "rule": self.rule,
            "key": self.key,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass(frozen=True)
class CounterSample:
    """One metric sample inside a counter snapshot."""

    snapshot_id: int
    epoch_id: int
    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float


@dataclass(frozen=True)
class CompactionResult:
    """What one :meth:`HistoryStore.compact` pass achieved."""

    bytes_before: int
    bytes_after: int
    epochs_deleted: int

    @property
    def reclaimed(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)


_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE epochs (
    epoch_id          INTEGER PRIMARY KEY,
    ts                REAL NOT NULL,
    recorded_at       REAL NOT NULL,
    source            TEXT NOT NULL,
    mode              TEXT NOT NULL,
    backend           TEXT NOT NULL,
    sealed_by         TEXT NOT NULL,
    complete          INTEGER NOT NULL,
    updates           INTEGER NOT NULL,
    missing           INTEGER NOT NULL,
    elapsed_s         REAL NOT NULL,
    detected          INTEGER NOT NULL,
    violations        INTEGER NOT NULL,
    signals_confirmed INTEGER NOT NULL,
    signals_repaired  INTEGER NOT NULL,
    signals_raw       INTEGER NOT NULL,
    signals_unknown   INTEGER NOT NULL
);
CREATE INDEX epochs_by_ts ON epochs (ts);
CREATE TABLE verdicts (
    epoch_id       INTEGER NOT NULL REFERENCES epochs (epoch_id) ON DELETE CASCADE,
    input_name     TEXT NOT NULL,
    valid          INTEGER NOT NULL,
    num_violations INTEGER NOT NULL,
    num_evaluated  INTEGER NOT NULL,
    PRIMARY KEY (epoch_id, input_name)
) WITHOUT ROWID;
CREATE TABLE provenance (
    epoch_id   INTEGER NOT NULL REFERENCES epochs (epoch_id) ON DELETE CASCADE,
    input_name TEXT NOT NULL,
    payload    TEXT NOT NULL,
    PRIMARY KEY (epoch_id, input_name)
) WITHOUT ROWID;
CREATE TABLE counters (
    snapshot_id INTEGER NOT NULL,
    epoch_id    INTEGER NOT NULL REFERENCES epochs (epoch_id) ON DELETE CASCADE,
    name        TEXT NOT NULL,
    labels      TEXT NOT NULL,
    value       REAL NOT NULL,
    PRIMARY KEY (snapshot_id, name, labels)
) WITHOUT ROWID;
CREATE TABLE alerts (
    alert_id INTEGER PRIMARY KEY,
    epoch_id INTEGER NOT NULL REFERENCES epochs (epoch_id) ON DELETE CASCADE,
    ts       REAL NOT NULL,
    rule     TEXT NOT NULL,
    key      TEXT NOT NULL,
    severity TEXT NOT NULL,
    message  TEXT NOT NULL
);
"""


def _canonical_labels(labels: Dict[str, str]) -> str:
    """Label dict -> canonical JSON text (sorted, compact)."""
    return json.dumps(
        {str(k): str(v) for k, v in labels.items()},
        sort_keys=True,
        separators=(",", ":"),
    )


class HistoryStore:
    """Append-only epoch/verdict store over one sqlite file.

    Args:
        path: The database file.  A writer creates it (and the schema)
            when absent; a reader requires it to exist.
        writer: ``True`` (default) opens for appending and takes the
            single-writer lock; ``False`` opens read-only and never
            locks, so queries can run against a live store.
        clock: Wall-clock seconds source for the default
            ``recorded_at`` anchor and age retention; ``time.time``
            when omitted (this module is the sanctioned seam).  Tests
            inject a :class:`~repro.obs.clock.ManualClock`.
    """

    def __init__(
        self,
        path: str,
        writer: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.path = str(path)
        self.writer = bool(writer)
        self._clock = clock if clock is not None else time.time
        self._lock_fd: Optional[int] = None
        self._conn: Optional[sqlite3.Connection] = None
        if self.writer:
            self._lock_fd = self._acquire_lock(self.path)
            try:
                self._conn = self._open_writer(self.path)
            except BaseException:
                self._release_lock()
                raise
        else:
            self._conn = self._open_reader(self.path)

    # -- open/close ----------------------------------------------------

    @staticmethod
    def _acquire_lock(path: str) -> Optional[int]:
        """Advisory single-writer lock on ``<path>.lock``.

        ``flock`` locks belong to the open file description, so two
        writers conflict even inside one process, and the lock
        evaporates when the holder's fd closes -- including on a crash
        -- so reopen-after-crash needs no stale-lock cleanup.
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX fallback
            return None
        fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise ConcurrentWriterError(
                f"{path} already has a live writer (hold is advisory via "
                f"{path}.lock); open with writer=False to query it"
            ) from None
        return fd

    def _release_lock(self) -> None:
        if self._lock_fd is not None:
            os.close(self._lock_fd)
            self._lock_fd = None

    def _open_writer(self, path: str) -> sqlite3.Connection:
        exists = os.path.exists(path)
        conn = sqlite3.connect(path, timeout=0.0)
        conn.execute("PRAGMA foreign_keys = ON")
        if not exists:
            # auto_vacuum must be configured before the first table.
            conn.execute("PRAGMA auto_vacuum = INCREMENTAL")
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
            try:
                conn.executescript(_SCHEMA)
                conn.execute(f"PRAGMA user_version = {int(SCHEMA_VERSION)}")
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
                conn.commit()
            except sqlite3.Error:
                conn.rollback()
                conn.close()
                raise
        else:
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
            self._check_schema(conn, path)
        return conn

    def _open_reader(self, path: str) -> sqlite3.Connection:
        if not os.path.exists(path):
            raise HistoryError(f"history store not found: {path}")
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, timeout=0.0)
        self._check_schema(conn, path)
        return conn

    @staticmethod
    def _check_schema(conn: sqlite3.Connection, path: str) -> None:
        try:
            (version,) = conn.execute("PRAGMA user_version").fetchone()
        except sqlite3.Error as exc:  # pragma: no cover - corrupt file
            conn.close()
            raise HistoryError(f"cannot read schema version from {path}: {exc}") from exc
        if version != SCHEMA_VERSION:
            conn.close()
            raise SchemaMismatchError(
                f"{path} has schema version {version}, this build writes "
                f"{SCHEMA_VERSION}; refusing to open (migrate or archive it)"
            )

    def close(self) -> None:
        """Checkpoint the WAL and release the writer lock."""
        if self._conn is not None:
            if self.writer:
                try:
                    self._conn.commit()
                    self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                except sqlite3.Error:
                    self._conn.rollback()
            self._conn.close()
            self._conn = None
        self._release_lock()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def _db(self) -> sqlite3.Connection:
        if self._conn is None:
            raise HistoryError("history store is closed")
        return self._conn

    def _require_writer(self) -> sqlite3.Connection:
        if not self.writer:
            raise HistoryError("history store opened read-only")
        return self._db

    # -- appends -------------------------------------------------------

    def append_epoch(
        self,
        ts: float,
        *,
        source: str = "engine",
        mode: str = "full",
        backend: str = "python",
        sealed_by: str = "batch",
        complete: bool = True,
        updates: int = 0,
        missing: int = 0,
        elapsed_s: float = 0.0,
        detected: bool = False,
        violations: int = 0,
        signals: Tuple[int, int, int, int] = (0, 0, 0, 0),
        verdicts: Sequence[Tuple[str, bool, int, int]] = (),
        provenance: Sequence[Tuple[str, str]] = (),
        recorded_at: Optional[float] = None,
    ) -> int:
        """Append one epoch with its verdict and provenance rows.

        Args:
            ts: The epoch's virtual (snapshot) timestamp.
            mode: Kept so existing stores open without a migration;
                the engine has one epoch path, recorded as ``"full"``.
            signals: ``(confirmed, repaired, raw, unknown)`` hardened
                signal disposition counts for the epoch.
            verdicts: ``(input_name, valid, num_violations,
                num_evaluated)`` per input, in a caller-fixed order.
            provenance: ``(input_name, compact_json_payload)`` rows;
                by convention only inputs that failed validation.
            recorded_at: Durable wall anchor; the store clock when
                omitted.  Deterministic writers pass the epoch ``ts``.

        Returns:
            The new epoch's ``epoch_id`` (monotonically increasing).
        """
        conn = self._require_writer()
        anchor = self._clock() if recorded_at is None else float(recorded_at)
        confirmed, repaired, raw, unknown = signals
        try:
            cursor = conn.execute(
                "INSERT INTO epochs (ts, recorded_at, source, mode, backend,"
                " sealed_by, complete, updates, missing, elapsed_s, detected,"
                " violations, signals_confirmed, signals_repaired,"
                " signals_raw, signals_unknown)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    float(ts), anchor, source, mode, backend, sealed_by,
                    int(bool(complete)), int(updates), int(missing),
                    float(elapsed_s), int(bool(detected)), int(violations),
                    int(confirmed), int(repaired), int(raw), int(unknown),
                ),
            )
            epoch_id = int(cursor.lastrowid)
            conn.executemany(
                "INSERT INTO verdicts (epoch_id, input_name, valid,"
                " num_violations, num_evaluated) VALUES (?, ?, ?, ?, ?)",
                [
                    (epoch_id, name, int(bool(valid)), int(nviol), int(neval))
                    for name, valid, nviol, neval in verdicts
                ],
            )
            conn.executemany(
                "INSERT INTO provenance (epoch_id, input_name, payload)"
                " VALUES (?, ?, ?)",
                [(epoch_id, name, payload) for name, payload in provenance],
            )
            conn.commit()
        except sqlite3.Error:
            conn.rollback()
            raise
        return epoch_id

    def append_counters(
        self, epoch_id: int, samples: Sequence[Tuple[str, Dict[str, str], float]]
    ) -> int:
        """Snapshot metric samples against an epoch; returns snapshot id."""
        conn = self._require_writer()
        (previous,) = conn.execute(
            "SELECT COALESCE(MAX(snapshot_id), 0) FROM counters"
        ).fetchone()
        snapshot_id = int(previous) + 1
        try:
            conn.executemany(
                "INSERT INTO counters (snapshot_id, epoch_id, name, labels, value)"
                " VALUES (?, ?, ?, ?, ?)",
                [
                    (snapshot_id, int(epoch_id), name, _canonical_labels(labels), float(value))
                    for name, labels, value in samples
                ],
            )
            conn.commit()
        except sqlite3.Error:
            conn.rollback()
            raise
        return snapshot_id

    def append_alert(
        self,
        epoch_id: int,
        ts: float,
        rule: str,
        key: str,
        severity: str,
        message: str,
    ) -> int:
        """Append one fired alert to the ledger."""
        conn = self._require_writer()
        try:
            cursor = conn.execute(
                "INSERT INTO alerts (epoch_id, ts, rule, key, severity, message)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (int(epoch_id), float(ts), rule, key, severity, message),
            )
            conn.commit()
        except sqlite3.Error:
            conn.rollback()
            raise
        return int(cursor.lastrowid)

    # -- shape ---------------------------------------------------------

    def epoch_count(self) -> int:
        (count,) = self._db.execute("SELECT COUNT(*) FROM epochs").fetchone()
        return int(count)

    def row_counts(self) -> Dict[str, int]:
        """Row count per table (the ``history_rows_total`` source)."""
        out: Dict[str, int] = {}
        for table in ("epochs",) + _EPOCH_TABLES:
            (count,) = self._db.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
            out[table] = int(count)
        return out

    def store_bytes(self) -> int:
        """Bytes the main database file currently occupies."""
        row = self._db.execute(
            "SELECT page_count * page_size FROM pragma_page_count(),"
            " pragma_page_size()"
        ).fetchone()
        return int(row[0])

    def ts_range(self) -> Optional[Tuple[float, float]]:
        row = self._db.execute("SELECT MIN(ts), MAX(ts) FROM epochs").fetchone()
        if row is None or row[0] is None:
            return None
        return float(row[0]), float(row[1])

    # -- queries -------------------------------------------------------

    _EPOCH_COLUMNS = (
        "epoch_id, ts, recorded_at, source, mode, backend, sealed_by,"
        " complete, updates, missing, elapsed_s, detected, violations,"
        " signals_confirmed, signals_repaired, signals_raw, signals_unknown"
    )

    @staticmethod
    def _epoch_row(row: Tuple) -> EpochRow:
        return EpochRow(
            epoch_id=int(row[0]),
            ts=float(row[1]),
            recorded_at=float(row[2]),
            source=str(row[3]),
            mode=str(row[4]),
            backend=str(row[5]),
            sealed_by=str(row[6]),
            complete=bool(row[7]),
            updates=int(row[8]),
            missing=int(row[9]),
            elapsed_s=float(row[10]),
            detected=bool(row[11]),
            violations=int(row[12]),
            signals_confirmed=int(row[13]),
            signals_repaired=int(row[14]),
            signals_raw=int(row[15]),
            signals_unknown=int(row[16]),
        )

    def tail(self, n: int = 10) -> List[EpochRow]:
        """The newest ``n`` epochs, oldest of them first."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        rows = self._db.execute(
            f"SELECT {self._EPOCH_COLUMNS} FROM epochs"
            " ORDER BY epoch_id DESC LIMIT ?",
            (int(n),),
        ).fetchall()
        return [self._epoch_row(row) for row in reversed(rows)]

    def epochs(
        self,
        since: Optional[float] = None,
        until: Optional[float] = None,
        detected_only: bool = False,
        limit: Optional[int] = None,
    ) -> List[EpochRow]:
        """Epoch rows in append order, optionally filtered."""
        clauses: List[str] = []
        params: List[object] = []
        if since is not None:
            clauses.append("ts >= ?")
            params.append(float(since))
        if until is not None:
            clauses.append("ts <= ?")
            params.append(float(until))
        if detected_only:
            clauses.append("detected = 1")
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        tail = " LIMIT ?" if limit is not None else ""
        if limit is not None:
            params.append(int(limit))
        rows = self._db.execute(
            f"SELECT {self._EPOCH_COLUMNS} FROM epochs{where} ORDER BY epoch_id{tail}",
            tuple(params),
        ).fetchall()
        return [self._epoch_row(row) for row in rows]

    def verdicts_for(
        self, epoch_id: Optional[int] = None, input_name: Optional[str] = None
    ) -> List[VerdictRow]:
        clauses: List[str] = []
        params: List[object] = []
        if epoch_id is not None:
            clauses.append("epoch_id = ?")
            params.append(int(epoch_id))
        if input_name is not None:
            clauses.append("input_name = ?")
            params.append(input_name)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        rows = self._db.execute(
            "SELECT epoch_id, input_name, valid, num_violations, num_evaluated"
            f" FROM verdicts{where} ORDER BY epoch_id, input_name",
            tuple(params),
        ).fetchall()
        return [
            VerdictRow(int(r[0]), str(r[1]), bool(r[2]), int(r[3]), int(r[4]))
            for r in rows
        ]

    def provenance_for(self, epoch_id: int) -> Dict[str, Dict[str, object]]:
        """Decoded provenance payloads for one epoch, keyed by input."""
        rows = self._db.execute(
            "SELECT input_name, payload FROM provenance WHERE epoch_id = ?"
            " ORDER BY input_name",
            (int(epoch_id),),
        ).fetchall()
        return {str(name): json.loads(payload) for name, payload in rows}

    def alerts(self, limit: Optional[int] = None) -> List[AlertRow]:
        tail = " LIMIT ?" if limit is not None else ""
        params: Tuple = (int(limit),) if limit is not None else ()
        rows = self._db.execute(
            "SELECT alert_id, epoch_id, ts, rule, key, severity, message"
            f" FROM alerts ORDER BY alert_id{tail}",
            params,
        ).fetchall()
        return [
            AlertRow(int(r[0]), int(r[1]), float(r[2]), str(r[3]), str(r[4]), str(r[5]), str(r[6]))
            for r in rows
        ]

    def counter_series(self, name: str) -> List[Tuple[int, Dict[str, str], float]]:
        """``(epoch_id, labels, value)`` per snapshot for one family."""
        rows = self._db.execute(
            "SELECT epoch_id, labels, value FROM counters WHERE name = ?"
            " ORDER BY snapshot_id, labels",
            (name,),
        ).fetchall()
        return [(int(r[0]), json.loads(r[1]), float(r[2])) for r in rows]

    # -- retention and compaction --------------------------------------

    def enforce_retention(
        self, policy: RetentionPolicy, now: Optional[float] = None
    ) -> int:
        """Delete the oldest epochs until the policy holds.

        Deletion is strictly oldest-first by ``epoch_id`` (append
        order), so retention can never punch holes in the middle of the
        history.  Returns the number of epoch rows deleted; cascading
        deletes remove their verdicts, provenance, counters and alerts
        in the same transaction.
        """
        if not policy.bounded:
            return 0
        conn = self._require_writer()
        cutoff_id = 0
        total = self.epoch_count()
        if policy.max_epochs is not None and total > policy.max_epochs:
            row = conn.execute(
                "SELECT epoch_id FROM epochs ORDER BY epoch_id LIMIT 1 OFFSET ?",
                (total - policy.max_epochs,),
            ).fetchone()
            if row is not None:
                cutoff_id = max(cutoff_id, int(row[0]))
        if policy.max_age_s is not None:
            horizon = (self._clock() if now is None else float(now)) - policy.max_age_s
            row = conn.execute(
                "SELECT MAX(epoch_id) FROM epochs WHERE recorded_at < ?",
                (horizon,),
            ).fetchone()
            if row is not None and row[0] is not None:
                cutoff_id = max(cutoff_id, int(row[0]) + 1)
        deleted = self._delete_below(cutoff_id)
        if policy.max_bytes is not None:
            deleted += self._shrink_to_bytes(policy.max_bytes)
        return deleted

    def _delete_below(self, cutoff_id: int) -> int:
        """Delete every epoch with ``epoch_id < cutoff_id``."""
        if cutoff_id <= 0:
            return 0
        conn = self._require_writer()
        try:
            cursor = conn.execute(
                "DELETE FROM epochs WHERE epoch_id < ?", (int(cutoff_id),)
            )
            conn.commit()
        except sqlite3.Error:
            conn.rollback()
            raise
        return int(cursor.rowcount)

    def _shrink_to_bytes(self, max_bytes: int) -> int:
        """Drop oldest epochs in batches until page usage fits."""
        deleted = 0
        while self.store_bytes() > max_bytes:
            rows = self._db.execute(
                "SELECT epoch_id FROM epochs ORDER BY epoch_id LIMIT 1 OFFSET 15"
            ).fetchone()
            oldest_batch_end = (
                int(rows[0])
                if rows is not None
                else None
            )
            if oldest_batch_end is None:
                row = self._db.execute(
                    "SELECT MAX(epoch_id) FROM epochs"
                ).fetchone()
                if row is None or row[0] is None:
                    break  # nothing left to delete
                oldest_batch_end = int(row[0]) + 1
            removed = self._delete_below(oldest_batch_end)
            if removed == 0:
                break
            deleted += removed
            self._db.execute("PRAGMA incremental_vacuum")
            self._db.commit()
        return deleted

    def compact(
        self,
        policy: Optional[RetentionPolicy] = None,
        now: Optional[float] = None,
    ) -> CompactionResult:
        """Enforce retention, checkpoint the WAL, and rewrite the file.

        ``VACUUM`` rebuilds the database into the minimum number of
        pages, returning every page freed by retention to the
        filesystem -- this is what keeps months-long stores sublinear
        in epochs streamed.
        """
        conn = self._require_writer()
        before = self.store_bytes()
        deleted = self.enforce_retention(policy, now=now) if policy is not None else 0
        try:
            conn.commit()
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            conn.execute("VACUUM")
            conn.commit()
        except sqlite3.Error:
            conn.rollback()
            raise
        return CompactionResult(
            bytes_before=before,
            bytes_after=self.store_bytes(),
            epochs_deleted=deleted,
        )
