"""Durable-record corruption tests for the campaign state record.

``tests/test_checkpoint.py`` pins these properties for the fuzzer's
``RPRCKPT1`` records; this module pins the same contract for the
campaign kernel's state record (:mod:`repro.campaigns.kernel`), as
written by both campaign kinds as checkpoints and by shard workers as
completed-block results: any truncated, short, empty, wrong-magic, or
bit-flipped record raises :class:`~repro.errors.CheckpointError`
instead of deserializing garbage, a record of the other campaign kind
is refused, and the atomic-write helpers leave no temp droppings.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.campaigns.kernel import STATE_MAGIC, CampaignState, read_state
from repro.errors import CheckpointError
from repro.generative.bank import CorpusBank
from repro.generative.campaign import (
    GenerativeCampaign,
    GenerativeOptions,
    GenerativeResult,
)
from repro.persist import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    write_record,
)
from repro.sanval.campaign import SancheckCampaign, SancheckOptions, SancheckResult

pytestmark = pytest.mark.faults


def _gen_checkpoint() -> CampaignState:
    return CampaignState(
        kind=GenerativeCampaign.kind,
        options_digest="d" * 16,
        start=0,
        offset=3,
        result=GenerativeResult(
            generated=3, divergent=1, banked_new=1, keys=["abcd" * 4]
        ),
    )


def _san_checkpoint() -> CampaignState:
    return CampaignState(
        kind=SancheckCampaign.kind,
        options_digest="e" * 16,
        start=0,
        offset=2,
        result=SancheckResult(
            seeds=2, variants=4, screened=1, banked_new=1, duplicates=1
        ),
    )


def _shard_record() -> CampaignState:
    # A shard's result.rec: the state of a walk that finished its block.
    return CampaignState(
        kind=GenerativeCampaign.kind,
        options_digest="f" * 16,
        start=2,
        offset=4,
        result=GenerativeResult(generated=2, divergent=1, banked_new=1),
    )


FORMATS = [
    pytest.param(_gen_checkpoint, id="generative"),
    pytest.param(_san_checkpoint, id="sancheck"),
    pytest.param(_shard_record, id="shard"),
]


def _read(path, state: CampaignState) -> CampaignState:
    """Load *path* the way the walk and the shard merge do."""
    return read_state(str(path), state.kind, state.options_digest)


@pytest.mark.parametrize("make", FORMATS)
def test_round_trip(tmp_path, make):
    path = str(tmp_path / "state.rec")
    original = make()
    write_record(path, STATE_MAGIC, original)
    assert _read(path, original) == original


@pytest.mark.parametrize("make", FORMATS)
def test_empty_record_is_rejected(tmp_path, make):
    path = tmp_path / "state.rec"
    path.write_bytes(b"")
    with pytest.raises(CheckpointError):
        _read(path, make())


@pytest.mark.parametrize("make", FORMATS)
def test_short_record_is_rejected(tmp_path, make):
    # Shorter than magic + CRC: no payload to even checksum.
    path = tmp_path / "state.rec"
    path.write_bytes(STATE_MAGIC[:5])
    with pytest.raises(CheckpointError):
        _read(path, make())


@pytest.mark.parametrize("make", FORMATS)
def test_truncated_record_is_rejected(tmp_path, make):
    path = str(tmp_path / "state.rec")
    write_record(path, STATE_MAGIC, make())
    blob = open(path, "rb").read()
    for cut in (len(blob) // 2, len(blob) - 1):
        open(path, "wb").write(blob[:cut])
        with pytest.raises(CheckpointError):
            _read(path, make())


@pytest.mark.parametrize("make", FORMATS)
def test_wrong_magic_is_rejected(tmp_path, make):
    # Also how a checkpoint in an older per-campaign format is refused.
    path = str(tmp_path / "state.rec")
    write_record(path, b"RPRWRNG1", make())
    with pytest.raises(CheckpointError, match="move or delete"):
        _read(path, make())


def test_generative_state_is_refused_by_a_sancheck_campaign(tmp_path):
    # One magic serves both kinds, so the kind field is what keeps a
    # generative checkpoint from resuming a sancheck campaign.
    ckpt = tmp_path / "ckpt"
    options = GenerativeOptions(budget=0, checkpoint_dir=str(ckpt))
    with GenerativeCampaign(options, CorpusBank(tmp_path / "bank")) as campaign:
        campaign.run()
    shutil.copy(
        ckpt / GenerativeCampaign.checkpoint_file,
        ckpt / SancheckCampaign.checkpoint_file,
    )
    san_options = SancheckOptions(checkpoint_dir=str(ckpt))
    with SancheckCampaign(san_options) as campaign:
        with pytest.raises(CheckpointError, match="generative campaign state"):
            campaign.run()


@pytest.mark.parametrize("make", FORMATS)
def test_bit_flip_fails_integrity_check(tmp_path, make):
    path = str(tmp_path / "state.rec")
    write_record(path, STATE_MAGIC, make())
    blob = bytearray(open(path, "rb").read())
    blob[len(STATE_MAGIC) + 6] ^= 0x40
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError):
        _read(path, make())


@pytest.mark.parametrize("make", FORMATS)
def test_foreign_payload_type_is_rejected(tmp_path, make):
    path = str(tmp_path / "state.rec")
    write_record(path, STATE_MAGIC, {"not": "a checkpoint"})
    with pytest.raises(CheckpointError):
        _read(path, make())


def test_atomic_writers_leave_no_temp_files(tmp_path):
    atomic_write_bytes(tmp_path / "a.bin", b"\x00\x01")
    atomic_write_text(tmp_path / "b.txt", "hello\n")
    atomic_write_json(tmp_path / "c.json", {"k": [1, 2]})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.txt", "c.json"]
    assert (tmp_path / "a.bin").read_bytes() == b"\x00\x01"
    assert json.loads((tmp_path / "c.json").read_text()) == {"k": [1, 2]}


def test_atomic_write_replaces_existing_content(tmp_path):
    target = tmp_path / "state.json"
    atomic_write_json(target, {"generation": 1})
    atomic_write_json(target, {"generation": 2})
    assert json.loads(target.read_text()) == {"generation": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
