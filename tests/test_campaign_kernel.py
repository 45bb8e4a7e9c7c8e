"""Campaign kernel: one banking step for serial runs and shard merges.

A serial walk and a shard merge bank through the same step
(:func:`repro.campaigns.kernel.bank_step`), so when they bank into a
bank another campaign already filled they must make the same
decisions: a class the bank already holds is a duplicate either way.
"""

from __future__ import annotations

import os

import pytest

from repro.campaigns.runtime import CampaignRuntime, ShardPolicy
from repro.errors import EngineConfigError
from repro.generative.bank import CorpusBank
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


def _sharded(tmp_path, bank_dir, name="campaign"):
    return CampaignRuntime(
        GenerativeCampaign,
        _options(),
        CorpusBank(bank_dir),
        root=str(tmp_path / name),
        shards=2,
        policy=FAST,
    )


def test_runtime_refuses_min_banked(tmp_path):
    with pytest.raises(EngineConfigError, match="min_banked"):
        CampaignRuntime(
            GenerativeCampaign,
            _options(min_banked=1),
            CorpusBank(tmp_path / "bank"),
            root=str(tmp_path / "campaign"),
            shards=2,
        )


def test_zero_checkpoint_cadence_is_refused():
    with pytest.raises(EngineConfigError, match="checkpoint_every"):
        GenerativeCampaign(_options(checkpoint_every=0), None)


@pytest.fixture(scope="module")
def first_class(tmp_path_factory):
    """The banked entry of the campaign's first seed, for pre-seeding banks."""
    root = tmp_path_factory.mktemp("first-seed")
    with GenerativeCampaign(_options(budget=1), CorpusBank(root)) as campaign:
        (key,) = campaign.run().keys
    return CorpusBank(root).get(key)


@pytest.mark.slow
def test_serial_and_sharded_runs_dedupe_against_a_shared_bank_alike(first_class, tmp_path):
    for name in ("serial", "sharded"):
        assert CorpusBank(tmp_path / name).add(first_class)
    with GenerativeCampaign(_options(), CorpusBank(tmp_path / "serial")) as campaign:
        serial = campaign.run()
    sharded = _sharded(tmp_path, tmp_path / "sharded").run()
    assert _corpus_bytes(tmp_path / "serial") == _corpus_bytes(tmp_path / "sharded")
    assert (serial.banked_new, serial.duplicates) == (sharded.banked_new, sharded.duplicates)
    assert serial.keys[0] == sharded.keys[0] == first_class.key
    assert serial.banked_new == len(set(serial.keys)) - 1
