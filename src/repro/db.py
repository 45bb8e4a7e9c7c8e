"""The corpus/results database: fingerprint-keyed, sqlite-backed, shared.

Banks (:mod:`repro.generative.bank`, :mod:`repro.sanval.bank`) are
per-campaign directories; a long-lived validation effort accumulates
many of them across shards and machines.  :class:`CorpusDB` is the
cross-campaign substrate: one sqlite file storing

* **programs** keyed by content fingerprint (the same
  :func:`~repro.parallel.cache.program_fingerprint` the compile cache
  and engine payloads use, so every layer agrees on identity);
* **diagnostics** — UB-oracle checker fingerprints per program;
* **classes** — banked equivalence classes (generative ``corpus_key`` /
  sanval ``finding_key``), each carrying the full banked record so a
  bank can be reconstituted from the DB alone.

``register_class`` is the cross-campaign dedupe primitive: the first
campaign (or shard merge) to insert a class key wins and every later
attempt returns False.  :meth:`CorpusDB.claim` wraps it for one banked
entry; the campaign kernel's banking step consults exactly that bit
before banking a class another campaign already holds, and ``repro db
import`` folds whole banks in through the same claim.

sqlite provides transactional atomicity for the table data; the
repo-wide magic+CRC record discipline (:mod:`repro.persist`) still
guards the *identity* of the file — a ``<db>.meta`` sidecar record pins
the schema version and is verified on every open, so a foreign or
bit-rotten database is refused instead of silently queried.

Schema changes bump :data:`DB_SCHEMA_VERSION`; there is deliberately no
migration machinery — the DB is a cache of bank-derived facts and can
be rebuilt from banks via ``repro db import``.  (Files written before the
unused ``verdicts`` table was dropped still open: they keep the empty
table, which nothing reads.)
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path

from repro.errors import CheckpointError, ReproError
from repro.parallel.cache import program_fingerprint
from repro.persist import write_record, read_record

#: Sidecar meta record magic (8 bytes, persist.MAGIC_LENGTH).
DB_MAGIC = b"RPRDBMT1"
DB_SCHEMA_VERSION = 1
#: Sidecar file suffix, next to the sqlite file.
META_SUFFIX = ".meta"

#: Equivalence-class kinds the bridge understands.
CLASS_GENERATIVE = "generative"
CLASS_SANCHECK = "sancheck"
CLASS_KINDS = (CLASS_GENERATIVE, CLASS_SANCHECK)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS programs (
    fingerprint TEXT PRIMARY KEY,
    name        TEXT NOT NULL DEFAULT '',
    source      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS diagnostics (
    fingerprint      TEXT NOT NULL,
    checker          TEXT NOT NULL,
    diag_fingerprint TEXT NOT NULL,
    PRIMARY KEY (fingerprint, diag_fingerprint)
);
CREATE TABLE IF NOT EXISTS classes (
    kind        TEXT NOT NULL,
    key         TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    record      TEXT NOT NULL,
    PRIMARY KEY (kind, key)
);
"""


class CorpusDB:
    """One shared corpus/results database (open via constructor or
    :func:`open_db`; use as a context manager or call :meth:`close`)."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        existed = self.path.exists()
        self._verify_or_write_meta(existed)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # ------------------------------------------------------------- lifecycle

    @property
    def meta_path(self) -> Path:
        return Path(str(self.path) + META_SUFFIX)

    def _verify_or_write_meta(self, existed: bool) -> None:
        if not existed:
            return  # sidecar written after first successful schema commit
        if not self.meta_path.exists():
            raise ReproError(
                f"{self.path} has no {META_SUFFIX} sidecar — not a repro corpus DB "
                f"(or its identity record was lost); refusing to open"
            )
        try:
            meta = read_record(str(self.meta_path), DB_MAGIC, dict)
        except CheckpointError as exc:
            raise ReproError(f"corpus DB sidecar rejected: {exc}") from exc
        if meta.get("schema_version") != DB_SCHEMA_VERSION:
            raise ReproError(
                f"corpus DB {self.path} has schema version "
                f"{meta.get('schema_version')!r}; this build expects "
                f"{DB_SCHEMA_VERSION} (rebuild via `repro db import`)"
            )

    def _write_meta(self) -> None:
        write_record(
            str(self.meta_path),
            DB_MAGIC,
            {"schema_version": DB_SCHEMA_VERSION, "database": self.path.name},
        )

    def close(self) -> None:
        if self._conn is not None:
            self._conn.commit()
            if not self.meta_path.exists():
                self._write_meta()
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "CorpusDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def commit(self) -> None:
        self._conn.commit()
        if not self.meta_path.exists():
            self._write_meta()

    # -------------------------------------------------------------- programs

    def add_program(self, program, name: str = "") -> str:
        """Store *program* (source string or checked AST) by fingerprint.

        Returns the fingerprint either way; re-adding an existing program
        is a no-op (first write wins, content-addressed).
        """
        fingerprint = program_fingerprint(program)
        source = program if isinstance(program, str) else None
        if source is None:
            from repro.minic.printer import to_source

            source = to_source(program)
        self._conn.execute(
            "INSERT OR IGNORE INTO programs (fingerprint, name, source) VALUES (?, ?, ?)",
            (fingerprint, name, source),
        )
        return fingerprint

    def has_program(self, fingerprint: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM programs WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return row is not None

    def get_source(self, fingerprint: str) -> str | None:
        row = self._conn.execute(
            "SELECT source FROM programs WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        return row[0] if row is not None else None

    # ----------------------------------------------------------- diagnostics

    def add_diagnostic(self, fingerprint: str, checker: str, diag_fingerprint: str) -> None:
        self._conn.execute(
            "INSERT OR IGNORE INTO diagnostics "
            "(fingerprint, checker, diag_fingerprint) VALUES (?, ?, ?)",
            (fingerprint, checker, diag_fingerprint),
        )

    def diagnostics_for(self, fingerprint: str) -> list[tuple[str, str]]:
        return self._conn.execute(
            "SELECT checker, diag_fingerprint FROM diagnostics "
            "WHERE fingerprint = ? ORDER BY diag_fingerprint",
            (fingerprint,),
        ).fetchall()

    # --------------------------------------------------------------- classes

    def register_class(
        self, kind: str, key: str, fingerprint: str, record: dict
    ) -> bool:
        """Claim equivalence class *key*; False when another shard/campaign
        already holds it (the cross-shard dedupe primitive)."""
        if kind not in CLASS_KINDS:
            raise ReproError(f"unknown class kind {kind!r}; expected one of {CLASS_KINDS}")
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO classes (kind, key, fingerprint, record) "
            "VALUES (?, ?, ?, ?)",
            (kind, key, fingerprint, json.dumps(record, sort_keys=True)),
        )
        return cursor.rowcount > 0

    def claim(self, kind: str, entry) -> bool:
        """Register a banked entry's class, program and diagnostics.

        *entry* is a generative :class:`~repro.generative.bank.BankedRepro`
        or a sanval :class:`~repro.sanval.bank.BankedFinding`; the class
        record is its manifest entry plus its sources, enough for the
        ``export_*`` methods to rebuild it.  False when the class is
        already held; claiming again is a no-op, not an error.
        """
        if kind == CLASS_GENERATIVE:
            name, diagnostics = f"gen/{entry.key}", entry.fingerprints
            record = dict(
                entry.to_json(), _source=entry.source, _good_source=entry.good_source
            )
        elif kind == CLASS_SANCHECK:
            name, diagnostics = f"sanval/{entry.key}", entry.oracle_fingerprints
            record = dict(entry.to_json(), _source=entry.source)
        else:
            raise ReproError(f"unknown class kind {kind!r}; expected one of {CLASS_KINDS}")
        fingerprint = self.add_program(entry.source, name=name)
        for checker, diag in zip(entry.checkers, diagnostics):
            self.add_diagnostic(fingerprint, checker, diag)
        return self.register_class(kind, entry.key, fingerprint, record)

    def has_class(self, kind: str, key: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM classes WHERE kind = ? AND key = ?", (kind, key)
        ).fetchone()
        return row is not None

    def class_keys(self, kind: str) -> set[str]:
        rows = self._conn.execute(
            "SELECT key FROM classes WHERE kind = ?", (kind,)
        ).fetchall()
        return {key for (key,) in rows}

    def class_record(self, kind: str, key: str) -> dict | None:
        row = self._conn.execute(
            "SELECT record FROM classes WHERE kind = ? AND key = ?", (kind, key)
        ).fetchone()
        return json.loads(row[0]) if row is not None else None

    # ------------------------------------------------------------ bank bridge

    def import_bank(self, kind: str, bank) -> int:
        """Claim every entry of a *kind* bank; returns how many were new."""
        imported = sum(self.claim(kind, entry) for entry in bank)
        self.commit()
        return imported

    def export_corpus_bank(self, bank) -> int:
        """Bank every generative class the DB holds that *bank* lacks."""
        from repro.generative.bank import BankedRepro

        exported = 0
        for key in sorted(self.class_keys(CLASS_GENERATIVE)):
            if key in bank:
                continue
            record = self.class_record(CLASS_GENERATIVE, key)
            banked = BankedRepro.from_json(
                record, record["_source"], record["_good_source"]
            )
            if bank.add(banked):
                exported += 1
        return exported

    def export_finding_bank(self, bank) -> int:
        """Bank every sancheck class the DB holds that *bank* lacks."""
        from repro.sanval.bank import BankedFinding

        exported = 0
        for key in sorted(self.class_keys(CLASS_SANCHECK)):
            if key in bank:
                continue
            record = self.class_record(CLASS_SANCHECK, key)
            banked = BankedFinding.from_json(record, record["_source"])
            if bank.add(banked):
                exported += 1
        return exported

    # ----------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Counts per table (``repro db stats``)."""
        counts = {}
        for table in ("programs", "diagnostics", "classes"):
            (counts[table],) = self._conn.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()
        per_kind = dict(
            self._conn.execute(
                "SELECT kind, COUNT(*) FROM classes GROUP BY kind ORDER BY kind"
            ).fetchall()
        )
        return {
            "path": str(self.path),
            "schema_version": DB_SCHEMA_VERSION,
            "programs": counts["programs"],
            "diagnostics": counts["diagnostics"],
            "classes": {"total": counts["classes"], **per_kind},
        }

    def render_stats(self) -> str:
        stats = self.stats()
        lines = [
            f"corpus db: {stats['path']} (schema v{stats['schema_version']})",
            f"  programs:    {stats['programs']}",
            f"  diagnostics: {stats['diagnostics']}",
            f"  classes:     {stats['classes']['total']}",
        ]
        for kind in CLASS_KINDS:
            if kind in stats["classes"]:
                lines.append(f"    {kind:<11} {stats['classes'][kind]}")
        return "\n".join(lines)


def open_db(path: str | os.PathLike) -> CorpusDB:
    """Open (or create) the corpus DB at *path*."""
    return CorpusDB(path)


def verify_bank_against_db(
    root: str | os.PathLike, kind: str, db: CorpusDB
) -> int:
    """Check every key a bank manifest references exists in *db*.

    The refusal half of the bank/DB contract: a bank that claims classes
    the shared database has never seen is out of sync (a partial copy,
    or a bank written against a different DB), and tooling must not
    treat it as authoritative.  Raises :class:`ReproError` listing the
    missing keys; returns the number of verified entries when clean.
    """
    root_path = Path(root)
    manifest = root_path / "manifest.json"
    if not manifest.exists():
        return 0  # both bank classes treat a missing manifest as empty
    try:
        data = json.loads(manifest.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"bank manifest {manifest} is unreadable: {exc}") from exc
    if kind == CLASS_GENERATIVE or (kind == "auto" and "repros" in data):
        kind, records = CLASS_GENERATIVE, data.get("repros", [])
    elif kind == CLASS_SANCHECK or (kind == "auto" and "findings" in data):
        kind, records = CLASS_SANCHECK, data.get("findings", [])
    else:
        raise ReproError(f"{manifest} is not a recognizable bank manifest")
    known = db.class_keys(kind)
    referenced = [
        record["key"]
        for record in records
        if isinstance(record, dict) and isinstance(record.get("key"), str)
    ]
    missing = sorted(key for key in referenced if key not in known)
    if missing:
        raise ReproError(
            f"bank {root_path} references {len(missing)} {kind} class(es) the "
            f"corpus DB does not contain: {', '.join(missing[:8])}"
            + ("…" if len(missing) > 8 else "")
            + " (import the bank with `repro db import` or point --db at the "
            "database this bank was written against)"
        )
    return len(referenced)
