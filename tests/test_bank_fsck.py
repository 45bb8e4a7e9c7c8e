"""Bank maintenance tests: salvage (``repro bank fsck``) and ``repro bank merge``.

Banks are crafted by hand here — fsck validates metadata consistency
(keys, program files, manifest shape), not program semantics, so no
engine run is needed.  Each salvage test damages a healthy bank in one
specific way, asserts strict loading rejects it (where it should), and
asserts fsck moves exactly the broken parts into the ``corrupt/``
sidecar and leaves a bank that loads cleanly.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaigns.fsck import CORRUPT_DIR, LEDGER_FILE, fsck_bank
from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.generative.bank import BankedRepro, CorpusBank, corpus_key
from repro.sanval.bank import BankedFinding, FindingBank, finding_key

pytestmark = pytest.mark.faults

PARTITION = (("gcc-O0", "clang-O0"), ("gcc-O2",))


def _make_repro(tag: str) -> BankedRepro:
    checkers = (f"UninitLoad-{tag}",)
    key = corpus_key(set(checkers), "baseline", PARTITION)
    return BankedRepro(
        key=key,
        seed=7,
        profile="ub",
        generator_version=1,
        ub_shapes=("uninit_load",),
        source=f"int main(void) {{ return 0; }} /* {tag} */\n",
        good_source=f"int main(void) {{ return 0; }} /* good {tag} */\n",
        inputs=[b""],
        checkers=checkers,
        fingerprints=(f"fp-{tag}",),
        group="uninit",
        partition=PARTITION,
        impl_ref="gcc-O0",
        impl_target="gcc-O2",
    )


def _make_finding(tag: str) -> BankedFinding:
    checkers = (f"OOBRead-{tag}",)
    fingerprints = (f"ofp-{tag}",)
    key = finding_key(
        "asan", "FN", ("heap-buffer-overflow",), checkers, fingerprints, PARTITION
    )
    return BankedFinding(
        key=key,
        sanitizer="asan",
        outcome="FN",
        seed=f"fix-{tag}",
        variant="outline",
        kinds=("heap-buffer-overflow",),
        checkers=checkers,
        oracle_fingerprints=fingerprints,
        partition=PARTITION,
        impl_ref="gcc-O0",
        impl_target="gcc-O2",
        source=f"int main(void) {{ return 0; }} /* {tag} */\n",
        inputs=[b""],
    )


@pytest.fixture
def gen_bank(tmp_path):
    root = tmp_path / "gen-bank"
    bank = CorpusBank(root)
    for tag in ("alpha", "beta", "gamma"):
        assert bank.add(_make_repro(tag))
    return root


@pytest.fixture
def san_bank(tmp_path):
    root = tmp_path / "san-bank"
    bank = FindingBank(root)
    for tag in ("alpha", "beta"):
        assert bank.add(_make_finding(tag))
    return root


def _manifest(root) -> dict:
    return json.loads((root / "manifest.json").read_text())


def _write_manifest(root, data) -> None:
    (root / "manifest.json").write_text(json.dumps(data))


def test_clean_bank_passes_untouched(gen_bank):
    report = fsck_bank(gen_bank)
    assert report.clean
    assert report.kind == "generative"
    assert (report.kept, report.total_entries) == (3, 3)
    assert not (gen_bank / CORRUPT_DIR).exists()
    assert len(CorpusBank(gen_bank)) == 3


def test_missing_program_is_quarantined(gen_bank):
    victim = CorpusBank(gen_bank).keys()[0]
    (gen_bank / "programs" / f"{victim}.c").unlink()
    with pytest.raises(ReproError, match="fsck"):
        CorpusBank(gen_bank)
    report = fsck_bank(gen_bank)
    assert report.kept == 2
    assert [f.key for f in report.quarantined] == [victim]
    # The surviving twin file travelled into the sidecar too.
    assert (gen_bank / CORRUPT_DIR / "programs" / f"{victim}.good.c").exists()
    bank = CorpusBank(gen_bank)
    assert victim not in bank and len(bank) == 2
    ledger = json.loads((gen_bank / CORRUPT_DIR / LEDGER_FILE).read_text())
    assert ledger["entries"][0]["key"] == victim
    assert "missing or unreadable" in ledger["entries"][0]["reason"]


def test_tampered_metadata_fails_key_recomputation(gen_bank):
    data = _manifest(gen_bank)
    data["repros"][1]["checkers"] = ["SomethingElse"]
    _write_manifest(gen_bank, data)
    report = fsck_bank(gen_bank)
    assert report.kept == 2
    assert "does not match metadata" in report.quarantined[0].reason
    assert len(CorpusBank(gen_bank)) == 2


def test_duplicate_key_keeps_first_occurrence(gen_bank):
    data = _manifest(gen_bank)
    data["repros"].append(dict(data["repros"][0]))
    _write_manifest(gen_bank, data)
    report = fsck_bank(gen_bank)
    assert report.kept == 3
    assert "duplicate key" in report.quarantined[0].reason
    assert len(CorpusBank(gen_bank)) == 3


def test_orphans_and_tmp_leftovers_are_swept(gen_bank):
    (gen_bank / "programs" / "deadbeefdeadbeef.c").write_text("int x;\n")
    (gen_bank / "programs" / "manifest.json.1234.tmp").write_text("{}")
    report = fsck_bank(gen_bank)
    assert report.kept == 3
    assert {f.reason for f in report.quarantined} == {
        "orphaned program file (no manifest entry references it)"
    }
    assert (gen_bank / CORRUPT_DIR / "programs" / "deadbeefdeadbeef.c").exists()
    assert not (gen_bank / "programs" / "manifest.json.1234.tmp").exists()
    assert len(CorpusBank(gen_bank)) == 3


def test_sidecar_never_clobbers_prior_salvage(gen_bank):
    for _ in range(2):
        (gen_bank / "programs" / "deadbeefdeadbeef.c").write_text("int x;\n")
        fsck_bank(gen_bank)
    sidecar = gen_bank / CORRUPT_DIR / "programs"
    assert (sidecar / "deadbeefdeadbeef.c").exists()
    assert (sidecar / "deadbeefdeadbeef.c.1").exists()


def test_unparseable_manifest_is_quarantined_wholesale(gen_bank):
    (gen_bank / "manifest.json").write_text("{ this is not json")
    with pytest.raises(ReproError, match="fsck"):
        CorpusBank(gen_bank)
    report = fsck_bank(gen_bank)
    assert report.manifest_quarantined
    # No new manifest is written: the bank loads empty, the programs
    # stay under corrupt/ for manual recovery.
    assert not (gen_bank / "manifest.json").exists()
    assert len(CorpusBank(gen_bank)) == 0
    assert (gen_bank / CORRUPT_DIR / "manifest.json").exists()


def _list_root(data: dict):
    return [data]


def _null_entries(data: dict) -> dict:
    data["repros"] = None
    return data


def _missing_field(data: dict) -> dict:
    del data["repros"][1]["seed"]
    return data


@pytest.mark.parametrize("damage", [_list_root, _null_entries, _missing_field])
def test_malformed_manifest_fails_strict_loading_with_fsck_hint(gen_bank, damage):
    _write_manifest(gen_bank, damage(_manifest(gen_bank)))
    with pytest.raises(ReproError, match="repro bank fsck"):
        CorpusBank(gen_bank)


def test_version_mismatch_distrusts_every_entry(gen_bank):
    data = _manifest(gen_bank)
    data["version"] = 99
    _write_manifest(gen_bank, data)
    report = fsck_bank(gen_bank)
    assert report.kept == 0 and len(report.quarantined) == 3
    assert all("version" in f.reason for f in report.quarantined)
    assert len(CorpusBank(gen_bank)) == 0


def test_kind_override_mismatch_quarantines_manifest(gen_bank):
    report = fsck_bank(gen_bank, kind="sancheck")
    assert report.manifest_quarantined
    assert "holds a generative bank" in report.quarantined[0].reason


def test_sanval_bank_salvage(san_bank):
    victim = FindingBank(san_bank).keys()[0]
    (san_bank / "programs" / f"{victim}.c").unlink()
    with pytest.raises(ReproError, match="fsck"):
        FindingBank(san_bank)
    report = fsck_bank(san_bank)
    assert report.kind == "sancheck"
    assert report.kept == 1
    assert len(FindingBank(san_bank)) == 1


def test_not_a_bank_is_refused(tmp_path):
    with pytest.raises(ReproError, match="not a corpus bank"):
        fsck_bank(tmp_path / "nothing-here")


def test_second_pass_over_salvaged_bank_is_clean(gen_bank):
    victim = CorpusBank(gen_bank).keys()[0]
    (gen_bank / "programs" / f"{victim}.c").unlink()
    assert not fsck_bank(gen_bank).clean
    assert fsck_bank(gen_bank).clean


class TestCLI:
    def test_clean_bank_exits_zero(self, gen_bank, capsys):
        assert cli_main(["bank", "fsck", str(gen_bank)]) == 0
        assert "is clean" in capsys.readouterr().out

    def test_salvage_exits_one_and_reports(self, gen_bank, capsys):
        victim = CorpusBank(gen_bank).keys()[0]
        (gen_bank / "programs" / f"{victim}.c").unlink()
        assert cli_main(["bank", "fsck", str(gen_bank)]) == 1
        out = capsys.readouterr().out
        assert "salvaged" in out and victim in out

    def test_json_output(self, gen_bank, capsys):
        victim = CorpusBank(gen_bank).keys()[0]
        (gen_bank / "programs" / f"{victim}.c").unlink()
        assert cli_main(["bank", "fsck", str(gen_bank), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["kept"] == 2
        assert document["quarantined"][0]["key"] == victim

    @pytest.mark.parametrize("entries", [None, 7])
    def test_non_list_entries_quarantine_the_manifest(self, gen_bank, capsys, entries):
        data = _manifest(gen_bank)
        data["repros"] = entries
        _write_manifest(gen_bank, data)
        assert cli_main(["bank", "fsck", str(gen_bank)]) == 1
        assert "not a recognizable bank manifest" in capsys.readouterr().out
        assert (gen_bank / CORRUPT_DIR / "manifest.json").exists()
        assert len(CorpusBank(gen_bank)) == 0

    def test_not_a_bank_exits_two(self, tmp_path, capsys):
        assert cli_main(["bank", "fsck", str(tmp_path / "void")]) == 2
        capsys.readouterr()

    def test_unknown_kind_exits_two(self, gen_bank, capsys):
        assert cli_main(["bank", "fsck", str(gen_bank), "--kind", "bogus"]) == 2
        assert "unknown class kind 'bogus'" in capsys.readouterr().err


class TestMerge:
    def test_union_keeps_the_first_source_entry(self, gen_bank, tmp_path, capsys):
        shared = _make_repro("beta")
        other = CorpusBank(tmp_path / "other")
        assert other.add(dataclasses.replace(shared, source="int main(void) { return 1; }\n"))
        assert other.add(_make_repro("delta"))
        dst = tmp_path / "merged"
        assert cli_main(["bank", "merge", str(dst), str(gen_bank), str(other.root)]) == 0
        assert capsys.readouterr().out == f"merged 4 new generative class(es) into {dst}\n"
        merged = CorpusBank(dst)
        assert merged.keys() == sorted({*CorpusBank(gen_bank).keys(), *other.keys()})
        assert merged.get(shared.key) == shared

    @pytest.mark.parametrize("into_existing", [True, False], ids=["dst", "sources"])
    def test_mixed_kinds_exit_two(self, gen_bank, san_bank, tmp_path, capsys, into_existing):
        if into_existing:
            dst, sources = gen_bank, [san_bank]
        else:
            dst, sources = tmp_path / "merged", [gen_bank, san_bank]
        before = sorted(p.read_bytes() for p in gen_bank.rglob("*") if p.is_file())
        assert cli_main(["bank", "merge", str(dst), *map(str, sources)]) == 2
        assert "cannot mix generative and sancheck banks" in capsys.readouterr().err
        assert sorted(p.read_bytes() for p in gen_bank.rglob("*") if p.is_file()) == before
        assert not (tmp_path / "merged").exists()
