"""The bank format: one directory layout, one manifest, one class.

A bank is a campaign's deduped, on-disk product.  ``repro generate``
banks reduced divergent programs
(:class:`~repro.generative.bank.CorpusBank` of
:class:`~repro.generative.bank.BankedRepro`) and ``repro sancheck``
banks confirmed sanitizer FNs/FPs (:class:`~repro.sanval.bank.FindingBank`
of :class:`~repro.sanval.bank.BankedFinding`).  Both use one layout::

    manifest.json            # {"version": V, "<list name>": [record, ...]}
    programs/<key><suffix>   # one file per program field of an entry

What differs between the two is declared once, on the entry type:

* ``KIND`` — the kind string (the campaign state kind and the
  ``--kind`` value);
* ``LIST_NAME`` — the manifest's entry-list name;
* ``VERSION`` — the manifest format version;
* ``PROGRAMS`` — entry field -> program file suffix, in write order;
* ``recompute_key()`` — the dedupe key recomputed from the metadata.

Entry types also provide ``key``, ``to_json()`` (the manifest record)
and ``from_json(record, *program_texts)`` (texts in ``PROGRAMS``
order).  :class:`Bank` and ``repro bank fsck``
(:mod:`repro.campaigns.fsck`) read these declarations; neither
branches on the kind.

The bank directory is the only store of banked classes.  Campaigns
that bank into one shared directory dedupe against each other (a key
already banked is a duplicate), and ``repro bank merge`` folds banks
written elsewhere into one through :meth:`Bank.add`.

Manifest and program writes are atomic and durable (tmp + fsync +
``os.replace`` + directory fsync via :mod:`repro.persist`), and program
files land before the manifest references them, so a campaign killed
mid-bank leaves a bank that loads.  Loading is strict: a damaged bank
raises :class:`~repro.errors.ReproError` naming ``repro bank fsck``,
which salvages it, rather than silently dropping evidence.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import ReproError
from repro.persist import atomic_write_json, atomic_write_text

#: Manifest file and program directory names inside a bank.
MANIFEST = "manifest.json"
PROGRAMS_DIR = "programs"

#: What a malformed manifest record raises when it is parsed.
RECORD_ERRORS = (KeyError, TypeError, ValueError, AttributeError)


class Bank:
    """A bank directory of one entry type: load, dedupe, append, persist.

    Subclasses set :attr:`entry_type`.  The bank is append-only: ``add``
    returns False (and stores nothing) for a key already banked, which
    is what makes resumed and fault-injected campaigns converge on the
    same bank instead of double-banking.
    """

    entry_type: type

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._entries: dict = {}
        declared = self.entry_type
        try:
            found = read_manifest(self.root, declared.KIND)
            if found is None:
                return
            data = found[1]
            if data.get("version") != declared.VERSION:
                raise ReproError(
                    f"manifest version {data.get('version')!r}; expected {declared.VERSION}"
                )
            for record in data[declared.LIST_NAME]:
                entry = self.read_entry(self.root, record)
                self._entries[entry.key] = entry
        except ReproError as exc:
            raise ReproError(
                f"{declared.KIND} bank {self.root}: {exc} "
                f"(salvage with `repro bank fsck {self.root}`)"
            ) from exc

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __iter__(self):
        """Every banked entry, in key order (stable across runs)."""
        return iter([self._entries[key] for key in self.keys()])

    def keys(self) -> list[str]:
        return sorted(self._entries)

    def get(self, key: str):
        return self._entries.get(key)

    # ------------------------------------------------------------ mutation

    def add(self, entry) -> bool:
        """Bank *entry* unless its key is already present.

        Program files land before the manifest references them, and the
        manifest write is atomic, so a kill mid-add leaves a bank that
        loads cleanly (at worst with orphaned program files).
        """
        if entry.key in self._entries:
            return False
        programs = self.root / PROGRAMS_DIR
        programs.mkdir(parents=True, exist_ok=True)
        for field, name in self.program_files(entry.key).items():
            atomic_write_text(programs / name, getattr(entry, field))
        self._entries[entry.key] = entry
        self.write_manifest(self.root, [banked.to_json() for banked in self._entries.values()])
        return True

    # --------------------------------------------------------------- format

    @classmethod
    def program_files(cls, key: str) -> dict[str, str]:
        """Entry field -> program file name of the entry banked under *key*."""
        return {field: f"{key}{suffix}" for field, suffix in cls.entry_type.PROGRAMS.items()}

    @classmethod
    def read_entry(cls, root: Path, record):
        """Rebuild manifest *record* of the bank at *root*, programs included.

        Raises :class:`ReproError` when a program file is missing or
        unreadable, or when the record does not parse.
        """
        try:
            texts = [
                (root / PROGRAMS_DIR / name).read_text()
                for name in cls.program_files(record["key"]).values()
            ]
            return cls.entry_type.from_json(record, *texts)
        except OSError as exc:
            raise ReproError(f"program file missing or unreadable: {exc}") from exc
        except RECORD_ERRORS as exc:
            raise ReproError(f"manifest entry does not parse: {exc!r}") from exc

    @classmethod
    def write_manifest(cls, root: Path, records: list[dict]) -> None:
        """Atomically write the manifest of *records*, in key order."""
        root.mkdir(parents=True, exist_ok=True)
        ordered = sorted(records, key=lambda record: record["key"])
        atomic_write_json(
            root / MANIFEST,
            {"version": cls.entry_type.VERSION, cls.entry_type.LIST_NAME: ordered},
        )


def bank_types() -> tuple[type[Bank], ...]:
    """Every bank class, in ``--kind`` order."""
    from repro.generative.bank import CorpusBank
    from repro.sanval.bank import FindingBank

    return (CorpusBank, FindingBank)


def bank_type(spec: str | dict) -> type[Bank]:
    """The bank class of a kind string, or of a parsed manifest.

    A manifest names its kind by the entry list it holds.  Raises
    :class:`ReproError` for an unknown kind and for a manifest that
    holds no entry list of a known kind.
    """
    banks = bank_types()
    if isinstance(spec, str):
        for bank in banks:
            if bank.entry_type.KIND == spec:
                return bank
        kinds = tuple(bank.entry_type.KIND for bank in banks)
        raise ReproError(f"unknown class kind {spec!r}; expected one of {kinds}")
    for bank in banks:
        if isinstance(spec.get(bank.entry_type.LIST_NAME), list):
            return bank
    raise ReproError("manifest is not a recognizable bank manifest")


def read_manifest(
    root: str | os.PathLike, kind: str = "auto"
) -> tuple[type[Bank], dict] | None:
    """The bank class and parsed manifest of the bank at *root*.

    None when *root* has no manifest (an empty bank).  Raises
    :class:`ReproError` when the manifest does not parse, is not a JSON
    object, holds no entry list of a known kind, or holds another kind
    than *kind* (any kind for ``"auto"``).
    """
    path = Path(root) / MANIFEST
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ReproError(f"manifest unreadable: {exc}") from exc
    if not isinstance(data, dict):
        raise ReproError(
            f"manifest unreadable: manifest root is {type(data).__name__}, not object"
        )
    bank = bank_type(data)
    if kind not in ("auto", bank.entry_type.KIND):
        raise ReproError(f"manifest holds a {bank.entry_type.KIND} bank, not {kind}")
    return bank, data


def open_bank(root: str | os.PathLike, kind: str = "auto") -> Bank:
    """Load the bank at *root* as *kind*, or as the kind its manifest holds.

    With ``kind="auto"``, a directory without a manifest raises
    :class:`ReproError`: there is nothing to tell the kind from.
    """
    if kind != "auto":
        return bank_type(kind)(root)
    try:
        found = read_manifest(root)
    except ReproError as exc:
        raise ReproError(f"cannot detect bank kind of {root}: {exc}") from exc
    if found is None:
        raise ReproError(f"cannot detect bank kind of {root}: it has no {MANIFEST}")
    return found[0](root)
