"""The corpus/results database: fingerprint-keyed, sqlite-backed, shared.

Banks (:mod:`repro.bank`) are per-campaign directories; a long-lived
validation effort accumulates many of them across shards and machines.
:class:`CorpusDB` is the cross-campaign substrate: one sqlite file whose
``classes`` table holds every banked equivalence class (generative
``corpus_key`` / sanval ``finding_key``) under its kind, with the
content fingerprint of its program (the same
:func:`~repro.parallel.cache.program_fingerprint` the compile cache and
engine payloads use) and the full banked record, sources and diagnostic
fingerprints included, so a bank can be reconstituted from the DB alone.

``register_class`` is the cross-campaign dedupe primitive: the first
campaign (or shard merge) to insert a class key wins and every later
attempt returns False.  :meth:`CorpusDB.claim` wraps it for one banked
entry; the campaign kernel's banking step consults exactly that bit
before banking a class another campaign already holds, and ``repro db
import`` folds whole banks in through the same claim.  The entry type's
declarations (:mod:`repro.bank`) say how an entry becomes a record and
back, so nothing here branches on the kind.

sqlite provides transactional atomicity for the table data; the
repo-wide magic+CRC record discipline (:mod:`repro.persist`) still
guards the *identity* of the file — a ``<db>.meta`` sidecar record pins
the schema version and is verified on every open, so a foreign or
bit-rotten database is refused instead of silently queried.

Schema changes bump :data:`DB_SCHEMA_VERSION`; there is deliberately no
migration machinery — the DB is a cache of bank-derived facts and can
be rebuilt from banks via ``repro db import``.  (Files written before
the unused ``verdicts``, ``programs`` and ``diagnostics`` tables were
dropped still open: they keep those tables, which nothing reads.)
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path

from repro.bank import MANIFEST, bank_type, open_bank
from repro.errors import CheckpointError, ReproError
from repro.parallel.cache import program_fingerprint
from repro.persist import write_record, read_record

#: Sidecar meta record magic (8 bytes, persist.MAGIC_LENGTH).
DB_MAGIC = b"RPRDBMT1"
DB_SCHEMA_VERSION = 1
#: Sidecar file suffix, next to the sqlite file.
META_SUFFIX = ".meta"

_SCHEMA = """
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
        if existed:
            self._verify_meta()
        self._conn = sqlite3.connect(str(self.path))
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        if not existed:
            self._write_meta()

    # ------------------------------------------------------------- lifecycle

    @property
    def meta_path(self) -> Path:
        return Path(str(self.path) + META_SUFFIX)

    def _verify_meta(self) -> None:
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
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "CorpusDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def commit(self) -> None:
        self._conn.commit()

    # --------------------------------------------------------------- classes

    def register_class(
        self, kind: str, key: str, fingerprint: str, record: dict
    ) -> bool:
        """Claim equivalence class *key*; False when another shard/campaign
        already holds it (the cross-shard dedupe primitive)."""
        bank_type(kind)  # refuses an unknown kind
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO classes (kind, key, fingerprint, record) "
            "VALUES (?, ?, ?, ?)",
            (kind, key, fingerprint, json.dumps(record, sort_keys=True)),
        )
        return cursor.rowcount > 0

    def claim(self, entry) -> bool:
        """Register a banked entry's class.

        *entry* is any bank's entry (:mod:`repro.bank`).  The class
        record is its manifest record plus each program text under
        ``_<field>``, enough for :meth:`export_bank` to rebuild it.
        False when the class is already held; claiming again is a
        no-op, not an error.
        """
        record = entry.to_json()
        for field in entry.PROGRAMS:
            record[f"_{field}"] = getattr(entry, field)
        return self.register_class(
            entry.KIND, entry.key, program_fingerprint(entry.source), record
        )

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

    def import_bank(self, bank) -> int:
        """Claim every entry of *bank*; returns how many were new."""
        imported = sum(self.claim(entry) for entry in bank)
        self.commit()
        return imported

    def export_bank(self, bank) -> int:
        """Bank every class of *bank*'s kind the DB holds that *bank* lacks."""
        declared = bank.entry_type
        exported = 0
        for key in sorted(self.class_keys(declared.KIND) - set(bank.keys())):
            record = self.class_record(declared.KIND, key)
            texts = [record[f"_{field}"] for field in declared.PROGRAMS]
            if bank.add(declared.from_json(record, *texts)):
                exported += 1
        return exported

    # ----------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Class counts, in total and per kind (``repro db stats``)."""
        per_kind = dict(
            self._conn.execute(
                "SELECT kind, COUNT(*) FROM classes GROUP BY kind ORDER BY kind"
            ).fetchall()
        )
        return {
            "path": str(self.path),
            "schema_version": DB_SCHEMA_VERSION,
            "classes": {"total": sum(per_kind.values()), **per_kind},
        }

    def render_stats(self) -> str:
        stats = self.stats()
        classes = stats["classes"]
        lines = [
            f"corpus db: {stats['path']} (schema v{stats['schema_version']})",
            f"  classes:     {classes['total']}",
        ]
        lines += [
            f"    {kind:<11} {count}" for kind, count in classes.items() if kind != "total"
        ]
        return "\n".join(lines)


def open_db(path: str | os.PathLike) -> CorpusDB:
    """Open (or create) the corpus DB at *path*."""
    return CorpusDB(path)


def verify_bank_against_db(root: str | os.PathLike, db: CorpusDB) -> int:
    """Check every key the bank at *root* holds exists in *db*.

    The refusal half of the bank/DB contract: a bank that claims classes
    the shared database has never seen is out of sync (a partial copy,
    or a bank written against a different DB), and tooling must not
    treat it as authoritative.  The bank's kind comes from its manifest
    and it loads strictly.  Raises :class:`ReproError` listing the
    missing keys; returns the number of verified entries when clean.
    """
    if not (Path(root) / MANIFEST).exists():
        return 0  # a bank without a manifest is empty
    bank = open_bank(root)
    kind = bank.entry_type.KIND
    missing = sorted(set(bank.keys()) - db.class_keys(kind))
    if missing:
        raise ReproError(
            f"bank {root} references {len(missing)} {kind} class(es) the "
            f"corpus DB does not contain: {', '.join(missing[:8])}"
            + ("…" if len(missing) > 8 else "")
            + " (import the bank with `repro db import` or point --db at the "
            "database this bank was written against)"
        )
    return len(bank)
