"""Golden byte-identity gate for the on-disk bank format.

``tests/golden/bank_digests.json`` pins, for every file under a bank
directory, the sha256 of its bank-relative path plus its bytes.  Four
banks are pinned, all built from the hand-made entries of
``tests/test_bank_fsck.py`` (no engine run):

* ``generative`` and ``sancheck`` — the banks as ``add`` writes them,
  and again as ``repro bank merge`` writes them into an empty
  directory;
* ``generative-fsck`` and ``sancheck-fsck`` — each bank after ``repro
  bank fsck`` rewrote a manifest holding a duplicate key.

Regenerate, only after an intended change to the bank format::

    PYTHONPATH=src python -m tests.test_bank_golden
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile

import pytest

from repro.campaigns.fsck import fsck_bank
from repro.cli import main as cli_main
from repro.generative.bank import CorpusBank
from repro.sanval.bank import FindingBank
from tests.test_bank_fsck import _make_finding, _make_repro

pytestmark = pytest.mark.faults

GOLDEN = pathlib.Path(__file__).parent / "golden" / "bank_digests.json"

#: Bank kind -> (bank class, entry factory, tags of the banked entries).
BANKS = {
    "generative": (CorpusBank, _make_repro, ("alpha", "beta", "gamma")),
    "sancheck": (FindingBank, _make_finding, ("alpha", "beta")),
}


def tree_digests(root: pathlib.Path) -> dict[str, str]:
    """sha256 of each file's root-relative path plus its bytes."""
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = pathlib.Path(dirpath) / name
            relative = path.relative_to(root).as_posix()
            blob = relative.encode("utf-8") + b"\0" + path.read_bytes()
            digests[relative] = hashlib.sha256(blob).hexdigest()
    return dict(sorted(digests.items()))


def build_banks(workdir: pathlib.Path) -> dict[str, dict[str, str]]:
    """Build every pinned bank under *workdir*; digests by bank name."""
    out = {}
    for kind, (bank_type, make, tags) in BANKS.items():
        root = workdir / kind
        bank = bank_type(root)
        for tag in tags:
            assert bank.add(make(tag))
        out[kind] = tree_digests(root)

        merged = workdir / f"{kind}-merged"
        assert cli_main(["bank", "merge", str(merged), str(root)]) == 0
        assert tree_digests(merged) == out[kind], f"bank merge drifted from {kind!r}"

        salvaged = workdir / f"{kind}-fsck"
        bank = bank_type(salvaged)
        for tag in tags:
            bank.add(make(tag))
        manifest = salvaged / "manifest.json"
        data = json.loads(manifest.read_text())
        (entries,) = (value for value in data.values() if isinstance(value, list))
        entries.append(dict(entries[0]))
        manifest.write_text(json.dumps(data))
        assert not fsck_bank(salvaged).clean
        out[f"{kind}-fsck"] = tree_digests(salvaged)
    return out


def test_banks_match_golden_digests(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    built = build_banks(tmp_path)
    capsys.readouterr()
    assert sorted(built) == sorted(golden)
    for name in golden:
        assert built[name] == golden[name], f"bank {name!r} drifted"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = build_banks(pathlib.Path(scratch))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
