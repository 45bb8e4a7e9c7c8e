"""Corpus salvage: quarantine the broken parts of a bank, keep the rest.

Bank loading (:class:`repro.bank.Bank`) is deliberately strict — a
corrupt manifest or a missing program file raises
:class:`~repro.errors.ReproError` rather than silently dropping
evidence.  ``repro bank fsck`` is the other half of that contract: it
walks a damaged bank, moves everything unsalvageable into a
``corrupt/`` sidecar (with a ledger recording why), rewrites the
manifest over the surviving entries, and leaves a bank that loads
cleanly again.

The bank format comes from the entry type's declarations
(:mod:`repro.bank`): the entry list, the version, the program files per
entry and the key recomputation.  What gets quarantined, per entry:

* manifest entries that do not parse back into a banked record;
* entries with a program file (any of the entry type's ``PROGRAMS``)
  missing or unreadable;
* entries whose recorded dedupe key does not match the key recomputed
  from their own metadata (a tampered or bit-rotten record);
* duplicate keys (first occurrence wins, later ones quarantined);
* every entry of a manifest with the wrong version;
* program files no surviving entry references (orphans).

A manifest that does not parse, is not a JSON object, holds no entry
list of a known kind (a ``null`` list included), or holds another kind
than the one asked for, is quarantined wholesale and **no new manifest
is written**: a bank without a manifest loads as an empty bank, so the
directory still loads — with its programs preserved under ``corrupt/``
for manual recovery.

Sidecar layout (``<root>/corrupt/``)::

    ledger.json          # why each item was quarantined, append-only
    manifest.json        # the quarantined manifest, if it was unreadable
    programs/<file>      # quarantined program files
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.bank import MANIFEST, PROGRAMS_DIR, RECORD_ERRORS, Bank, bank_type, read_manifest
from repro.errors import ReproError
from repro.persist import atomic_write_json, fsync_directory

#: Sidecar directory and ledger names.
CORRUPT_DIR = "corrupt"
LEDGER_FILE = "ledger.json"
#: Sidecar ledger format version.
LEDGER_VERSION = 1


@dataclass
class FsckFinding:
    """One quarantined item and why."""

    #: Manifest key the item belonged to (None for the manifest itself
    #: and for orphaned files).
    key: str | None
    reason: str
    #: Files moved into the sidecar, sidecar-relative.
    files: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"key": self.key, "reason": self.reason, "files": self.files}


@dataclass
class FsckReport:
    """Outcome of one salvage pass."""

    root: str
    kind: str
    #: Entries the manifest claimed before salvage.
    total_entries: int = 0
    #: Entries that survived validation.
    kept: int = 0
    quarantined: list[FsckFinding] = field(default_factory=list)
    #: True when the manifest itself was unreadable and went wholesale
    #: into the sidecar.
    manifest_quarantined: bool = False

    @property
    def clean(self) -> bool:
        return not self.quarantined and not self.manifest_quarantined

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "kind": self.kind,
            "total_entries": self.total_entries,
            "kept": self.kept,
            "manifest_quarantined": self.manifest_quarantined,
            "quarantined": [finding.to_json() for finding in self.quarantined],
        }

    def render(self) -> str:
        if self.clean:
            return (
                f"bank fsck: {self.root} is clean "
                f"({self.kept} of {self.total_entries} entries verified)"
            )
        lines = [
            f"bank fsck: salvaged {self.root} — kept {self.kept} of "
            f"{self.total_entries} entries, quarantined "
            f"{len(self.quarantined)} item(s) into "
            f"{os.path.join(self.root, CORRUPT_DIR)}"
        ]
        for finding in self.quarantined:
            label = finding.key if finding.key is not None else "<bank>"
            lines.append(f"  {label}: {finding.reason}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _sidecar_move(root: Path, source: Path) -> str:
    """Move *source* into the sidecar, never clobbering prior salvage."""
    sidecar = root / CORRUPT_DIR
    relative = source.relative_to(root)
    target = sidecar / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    candidate = target
    serial = 0
    while candidate.exists():
        serial += 1
        candidate = target.with_name(f"{target.name}.{serial}")
    shutil.move(str(source), str(candidate))
    fsync_directory(str(candidate.parent))
    return str(candidate.relative_to(sidecar))


def _append_ledger(root: Path, findings: list[FsckFinding]) -> None:
    path = root / CORRUPT_DIR / LEDGER_FILE
    entries = []
    if path.exists():
        try:
            entries = json.loads(path.read_text()).get("entries", [])
        except (OSError, json.JSONDecodeError):
            # The ledger itself rotted; start a fresh one rather than
            # refuse to salvage the bank.
            entries = []
    entries.extend(finding.to_json() for finding in findings)
    atomic_write_json(path, {"version": LEDGER_VERSION, "entries": entries})


# --------------------------------------------------------------------------
# Salvage
# --------------------------------------------------------------------------


def fsck_bank(root: str | os.PathLike, kind: str = "auto") -> FsckReport:
    """Salvage the bank at *root*; returns what was kept vs quarantined.

    *kind* is ``"auto"`` (detect from the manifest) or a bank kind
    (:func:`repro.bank.bank_type`); the override matters only when the
    manifest is too far gone to detect from.  Raises
    :class:`ReproError` for a directory that is not a bank at all (no
    manifest and no programs).
    """
    if kind != "auto":
        bank_type(kind)  # refuses an unknown kind
    root_path = Path(root)
    manifest_path = root_path / MANIFEST
    programs_dir = root_path / PROGRAMS_DIR
    if not manifest_path.exists() and not programs_dir.is_dir():
        raise ReproError(f"{root_path} is not a corpus bank (no manifest, no programs)")

    report = FsckReport(root=str(root_path), kind=kind)
    found = None
    if manifest_path.exists():
        try:
            found = read_manifest(root_path, kind)
        except ReproError as exc:
            moved = _sidecar_move(root_path, manifest_path)
            report.manifest_quarantined = True
            report.quarantined.append(FsckFinding(key=None, reason=str(exc), files=[moved]))

    kept_records: list[dict] = []
    referenced: set[str] = set()
    if found is not None:
        bank, data = found
        report.kind = bank.entry_type.KIND
        kept_records, referenced = _validate_entries(root_path, bank, data, report)

    # Orphan scan: any program file no surviving entry references.
    if programs_dir.is_dir():
        for entry in sorted(programs_dir.iterdir()):
            # Abandoned ``.tmp`` atomic-write leftovers are never
            # referenced, so they fall through here and get swept too.
            if entry.name in referenced:
                continue
            moved = _sidecar_move(root_path, entry)
            report.quarantined.append(
                FsckFinding(
                    key=None,
                    reason="orphaned program file (no manifest entry references it)",
                    files=[moved],
                )
            )

    if found is not None:
        bank.write_manifest(root_path, kept_records)
    if report.quarantined:
        _append_ledger(root_path, report.quarantined)
    return report


def _validate_entries(
    root: Path, bank: type[Bank], data: dict, report: FsckReport
) -> tuple[list[dict], set[str]]:
    """Validate each manifest entry; quarantine failures via *report*."""
    declared = bank.entry_type
    records = data[declared.LIST_NAME]
    report.total_entries = len(records)
    if data.get("version") != declared.VERSION:
        for record in records:
            key = record.get("key") if isinstance(record, dict) else None
            report.quarantined.append(
                FsckFinding(
                    key=key,
                    reason=(
                        f"manifest version {data.get('version')!r} is not "
                        f"{declared.VERSION}; entry cannot be trusted"
                    ),
                    files=_quarantine_programs(root, key, bank),
                )
            )
        return [], set()

    kept: list[dict] = []
    referenced: set[str] = set()
    seen: set[str] = set()
    for record in records:
        key = record.get("key") if isinstance(record, dict) else None
        if not isinstance(key, str) or not key:
            report.quarantined.append(
                FsckFinding(key=None, reason="manifest entry has no key", files=[])
            )
            continue
        if key in seen:
            report.quarantined.append(
                FsckFinding(
                    key=key,
                    reason="duplicate key (first occurrence kept)",
                    files=[],
                )
            )
            continue
        try:
            expected = bank.read_entry(root, record).recompute_key()
        except ReproError as exc:
            reason = str(exc)
        except RECORD_ERRORS as exc:
            reason = f"metadata does not recompute a key: {exc!r}"
        else:
            reason = None
            if expected != key:
                reason = f"recorded key does not match metadata (recomputed {expected})"
        if reason is not None:
            report.quarantined.append(
                FsckFinding(key=key, reason=reason, files=_quarantine_programs(root, key, bank))
            )
            continue
        seen.add(key)
        kept.append(record)
        referenced.update(bank.program_files(key).values())
    report.kept = len(kept)
    return kept, referenced


def _quarantine_programs(root: Path, key: str | None, bank: type[Bank]) -> list[str]:
    """Move a quarantined entry's program files into the sidecar."""
    if key is None:
        return []
    moved = []
    for name in bank.program_files(key).values():
        path = root / PROGRAMS_DIR / name
        if path.exists():
            moved.append(_sidecar_move(root, path))
    return moved
