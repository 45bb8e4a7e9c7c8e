"""Campaign kernel: one banking step for serial runs and shard merges.

A serial walk and a shard merge bank through the same step
(:func:`repro.campaigns.kernel.bank_step`), so with a shared corpus DB
they must make the same decisions: a class the DB already holds is a
duplicate either way.  The step also keeps a bank a subset of its DB
across a kill between the bank write and the DB commit: the rerun
claims the already-banked key again.
"""

from __future__ import annotations

import os
import sqlite3

import pytest

from repro.campaigns.runtime import CampaignRuntime, ShardPolicy
from repro.db import CorpusDB, verify_bank_against_db
from repro.errors import EngineConfigError, ReproError
from repro.generative.bank import BankedRepro, CorpusBank
from repro.generative.campaign import GenerativeCampaign, GenerativeOptions

pytestmark = pytest.mark.faults

#: The 4-seed, no-reduction campaign of tests/test_campaign_runtime.py.
BUDGET = 4

FAST = ShardPolicy(seed_deadline=30.0, backoff_base=0.01, backoff_max=0.05)


def _options(**overrides) -> GenerativeOptions:
    base = dict(seed=0, budget=BUDGET, reduce=False, stabilize_budget=4)
    base.update(overrides)
    return GenerativeOptions(**base)


def _corpus_bytes(root) -> dict[str, bytes]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


def _sharded(tmp_path, bank_dir, db, name="campaign"):
    return CampaignRuntime(
        GenerativeCampaign,
        _options(),
        CorpusBank(bank_dir),
        root=str(tmp_path / name),
        shards=2,
        policy=FAST,
        db=db,
    )


def _fail_first_commit(monkeypatch) -> None:
    """Make the next ``CorpusDB.commit`` fail, as a kill before it would."""
    commit = CorpusDB.commit
    calls = []

    def flaky(self):
        calls.append(None)
        if len(calls) == 1:
            raise sqlite3.OperationalError("injected: died before commit")
        commit(self)

    monkeypatch.setattr(CorpusDB, "commit", flaky)


def test_runtime_refuses_min_banked(tmp_path):
    with pytest.raises(EngineConfigError, match="min_banked"):
        CampaignRuntime(
            GenerativeCampaign,
            _options(min_banked=1),
            CorpusBank(tmp_path / "bank"),
            root=str(tmp_path / "campaign"),
            shards=2,
        )


@pytest.fixture(scope="module")
def first_class(tmp_path_factory):
    """The banked entry of the campaign's first seed, for pre-seeding DBs."""
    root = tmp_path_factory.mktemp("first-seed")
    with GenerativeCampaign(_options(budget=1), CorpusBank(root)) as campaign:
        (key,) = campaign.run().keys
    return CorpusBank(root).get(key)


@pytest.mark.slow
def test_serial_and_sharded_runs_consult_the_db_alike(first_class, tmp_path):
    dbs = []
    for name in ("serial.db", "sharded.db"):
        with CorpusDB(tmp_path / name) as db:
            assert db.claim(first_class)
        dbs.append(CorpusDB(tmp_path / name))
    with GenerativeCampaign(_options(), CorpusBank(tmp_path / "serial"), db=dbs[0]) as campaign:
        serial = campaign.run()
    sharded = _sharded(tmp_path, tmp_path / "sharded", dbs[1]).run()
    assert _corpus_bytes(tmp_path / "serial") == _corpus_bytes(tmp_path / "sharded")
    assert (serial.banked_new, serial.duplicates) == (sharded.banked_new, sharded.duplicates)
    assert first_class.key not in CorpusBank(tmp_path / "serial")
    assert serial.duplicates >= 1
    assert dbs[0].class_keys(BankedRepro.KIND) == dbs[1].class_keys(BankedRepro.KIND)
    for db in dbs:
        db.close()


@pytest.mark.slow
@pytest.mark.parametrize("sharded", [False, True], ids=["serial", "merge"])
def test_rerun_repairs_a_kill_between_bank_write_and_commit(
    tmp_path, monkeypatch, sharded
):
    bank_dir = tmp_path / "bank"
    db = CorpusDB(tmp_path / "c.db")

    def run():
        if sharded:
            return _sharded(tmp_path, bank_dir, db).run()
        with GenerativeCampaign(_options(budget=1), CorpusBank(bank_dir), db=db) as campaign:
            return campaign.run()

    _fail_first_commit(monkeypatch)
    with pytest.raises(sqlite3.OperationalError, match="injected"):
        run()
    db._conn.rollback()  # the process died: its uncommitted claim is gone
    assert len(CorpusBank(bank_dir)) == 1
    with pytest.raises(ReproError, match="does not contain"):
        verify_bank_against_db(bank_dir, db)
    run()  # for the sharded run, a merge-only pass over finished shards
    assert verify_bank_against_db(bank_dir, db) == len(CorpusBank(bank_dir))
    db.close()
