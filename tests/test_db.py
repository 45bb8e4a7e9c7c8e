"""The shared corpus database: sidecar identity, dedupe, bank bridge.

:class:`repro.db.CorpusDB` is the cross-campaign substrate under the
per-campaign banks.  Its contracts, pinned here:

* identity — a ``.meta`` magic+CRC sidecar is written when the file is
  created and verified on every later open; a missing, corrupt, or
  wrong-schema sidecar refuses the open (docs/ROBUSTNESS.md idiom);
* ``register_class`` — the cross-campaign dedupe primitive: exactly one
  claim per (kind, key) succeeds, and ``claim`` registers one banked
  entry through it, sources and diagnostic fingerprints in its record;
* the bank bridge — a bank imported into the DB exports back
  byte-identically, and :func:`verify_bank_against_db` refuses a bank
  whose manifest references classes the DB has never seen.
"""

from __future__ import annotations

import pytest

from repro.db import (
    DB_MAGIC,
    DB_SCHEMA_VERSION,
    CorpusDB,
    open_db,
    verify_bank_against_db,
)
from repro.errors import ReproError
from repro.generative.bank import BankedRepro, CorpusBank
from repro.parallel.cache import program_fingerprint
from repro.persist import write_record
from repro.sanval.bank import BankedFinding, FindingBank

SRC_A = "int main(void) { return 1; }"
SRC_B = "int main(void) { return 2; }"


def make_repro(key: str = "cafe0001", source: str = SRC_A) -> BankedRepro:
    return BankedRepro(
        key=key,
        seed=7,
        profile="ub",
        generator_version=1,
        ub_shapes=("uninit",),
        source=source,
        good_source=source.replace("return", "return 0 +"),
        inputs=[b"", b"\x01"],
        checkers=("uninit-read",),
        fingerprints=("deadbeef01",),
        group="uninit",
        partition=(("gcc-O0",), ("gcc-O2",)),
        impl_ref="gcc-O0",
        impl_target="gcc-O2",
    )


def make_finding(key: str = "feed0001", source: str = SRC_B) -> BankedFinding:
    return BankedFinding(
        key=key,
        sanitizer="asan",
        outcome="FN",
        seed="fixture/oob",
        variant="outline",
        kinds=("heap-buffer-overflow",),
        checkers=("oob-write",),
        oracle_fingerprints=("beefcafe02",),
        partition=(("gcc-O0", "gcc-O2"),),
        impl_ref="gcc-O0",
        impl_target="gcc-O2",
        source=source,
        inputs=[b""],
    )


class TestIdentitySidecar:
    def test_sidecar_written_on_close(self, tmp_path):
        db = CorpusDB(tmp_path / "corpus.db")
        db.claim(make_repro())
        db.close()
        assert (tmp_path / "corpus.db.meta").exists()
        with open_db(tmp_path / "corpus.db") as reopened:
            assert reopened.stats()["classes"]["total"] == 1

    def test_fresh_db_opens_again_before_its_first_commit(self, tmp_path):
        # A second campaign sharing a fresh --db, or a rerun after a kill
        # before the first banked class, opens it before any commit.
        first = CorpusDB(tmp_path / "corpus.db")
        assert (tmp_path / "corpus.db.meta").exists()
        with CorpusDB(tmp_path / "corpus.db") as second:
            assert second.claim(make_repro())
        first.close()

    def test_missing_sidecar_refused(self, tmp_path):
        with CorpusDB(tmp_path / "corpus.db") as db:
            db.claim(make_repro())
        (tmp_path / "corpus.db.meta").unlink()
        with pytest.raises(ReproError, match="no .meta sidecar"):
            CorpusDB(tmp_path / "corpus.db")

    def test_corrupt_sidecar_refused(self, tmp_path):
        with CorpusDB(tmp_path / "corpus.db"):
            pass
        meta = tmp_path / "corpus.db.meta"
        meta.write_bytes(meta.read_bytes()[:-1] + b"\xff")
        with pytest.raises(ReproError, match="sidecar rejected"):
            CorpusDB(tmp_path / "corpus.db")

    def test_wrong_schema_version_refused(self, tmp_path):
        with CorpusDB(tmp_path / "corpus.db"):
            pass
        write_record(
            str(tmp_path / "corpus.db.meta"),
            DB_MAGIC,
            {"schema_version": DB_SCHEMA_VERSION + 1, "database": "corpus.db"},
        )
        with pytest.raises(ReproError, match="schema version"):
            CorpusDB(tmp_path / "corpus.db")


class TestRegisterClass:
    def test_first_claim_wins(self, tmp_path):
        with CorpusDB(tmp_path / "c.db") as db:
            fp = program_fingerprint(SRC_A)
            assert db.register_class(BankedRepro.KIND, "k1", fp, {"key": "k1"})
            assert not db.register_class(BankedRepro.KIND, "k1", fp, {"key": "k1"})
            # Kinds are separate namespaces.
            assert db.register_class(BankedFinding.KIND, "k1", fp, {"key": "k1"})
            assert db.class_keys(BankedRepro.KIND) == {"k1"}
            assert db.class_record(BankedRepro.KIND, "k1") == {"key": "k1"}

    def test_unknown_kind_rejected(self, tmp_path):
        with CorpusDB(tmp_path / "c.db") as db:
            with pytest.raises(ReproError, match="unknown class kind"):
                db.register_class("bogus", "k", "fp", {})


class TestBankBridge:
    def test_corpus_bank_round_trip(self, tmp_path):
        bank = CorpusBank(tmp_path / "bankA")
        original = make_repro()
        assert bank.add(original)
        with CorpusDB(tmp_path / "c.db") as db:
            assert db.import_bank(bank) == 1
            assert db.import_bank(bank) == 0  # idempotent
            out = CorpusBank(tmp_path / "bankB")
            assert db.export_bank(out) == 1
        (restored,) = list(CorpusBank(tmp_path / "bankB"))
        assert restored == original

    def test_finding_bank_round_trip(self, tmp_path):
        bank = FindingBank(tmp_path / "bankA")
        original = make_finding()
        assert bank.add(original)
        with CorpusDB(tmp_path / "c.db") as db:
            assert db.import_bank(bank) == 1
            out = FindingBank(tmp_path / "bankB")
            assert db.export_bank(out) == 1
        (restored,) = list(FindingBank(tmp_path / "bankB"))
        assert restored == original

    def test_verify_bank_against_db(self, tmp_path):
        bank = CorpusBank(tmp_path / "bank")
        bank.add(make_repro())
        with CorpusDB(tmp_path / "c.db") as db:
            with pytest.raises(ReproError, match="does not contain"):
                verify_bank_against_db(tmp_path / "bank", db)
            db.import_bank(bank)
            assert verify_bank_against_db(tmp_path / "bank", db) == 1
            # A missing manifest is an empty bank, not an error.
            assert verify_bank_against_db(tmp_path / "nosuch", db) == 0


class TestMergeDedupe:
    """The claim behind the banking step of ``--db`` runs and merges."""

    def test_generative_claim_then_skip(self, tmp_path):
        repro = make_repro()
        with CorpusDB(tmp_path / "c.db") as db:
            assert db.claim(repro)
            # Another campaign (or shard merge) loses the claim race.
            assert not db.claim(repro)
            record = db.class_record(BankedRepro.KIND, repro.key)
            assert (record["checkers"], record["fingerprints"]) == (
                ["uninit-read"],
                ["deadbeef01"],
            )
            assert record["_source"] == repro.source

    def test_sancheck_claim_then_skip(self, tmp_path):
        finding = make_finding()
        with CorpusDB(tmp_path / "c.db") as db:
            assert db.claim(finding)
            assert not db.claim(finding)
            assert db.class_keys(BankedFinding.KIND) == {finding.key}
