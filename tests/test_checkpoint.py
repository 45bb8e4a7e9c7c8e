"""Checkpoint/resume round-trip and integrity tests (ISSUE 3 layer 2).

The headline property: a campaign checkpointed at *any* iteration
boundary and resumed in a fresh process produces a result byte-identical
to a never-interrupted campaign — same diffs, same checksums, same
corpus, same engine counters.  Plus the failure-path contracts: torn or
corrupted records, cross-program resumes, and option drift are all
refused with :class:`~repro.errors.CheckpointError` instead of silently
resuming from garbage.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CheckpointError
from repro.fuzzing import CompDiffFuzzer, FuzzerOptions, load_checkpoint, save_checkpoint
from repro.fuzzing.checkpoint import (
    MAGIC,
    CampaignCheckpoint,
    checkpoint_path,
)
from repro.targets import build_all_targets

pytestmark = pytest.mark.faults

TOTAL_EXECUTIONS = 300
RNG_SEED = 7


@pytest.fixture(scope="module")
def target():
    return build_all_targets()[0]


def _options(**overrides) -> FuzzerOptions:
    base = dict(
        rng_seed=RNG_SEED,
        max_executions=TOTAL_EXECUTIONS,
        compdiff_stride=2,
        fuel=200_000,
    )
    base.update(overrides)
    return FuzzerOptions(**base)


def _signature(result):
    """Everything a campaign consumer can observe, in comparable form."""
    return (
        result.executions,
        result.oracle_executions,
        result.diffs_found,
        result.crashes_found,
        result.edges_covered,
        result.queue_size,
        [
            (d.input, d.checksums, d.observations, d.divergent, d.groups(), d.dropped)
            for d in result.diffs
        ],
        sorted(result.sites_reached),
        sorted(result.sites_diverged),
        result.sites_by_input,
        result.signatures(),
    )


def _run_campaign(target, options, resume_from=None):
    fuzzer = CompDiffFuzzer(target.source, target.seeds, options, name=target.name)
    result = fuzzer.run(resume_from=resume_from)
    stats = fuzzer.oracle_stats
    return result, (stats.exec_counts, stats.inputs_checked)


@pytest.fixture(scope="module")
def uninterrupted(target):
    """The fault-free reference campaign (no checkpointing at all)."""
    result, stats = _run_campaign(target, _options())
    return _signature(result), stats


@settings(max_examples=3, deadline=None)
@given(split=st.integers(min_value=1, max_value=TOTAL_EXECUTIONS - 1))
def test_round_trip_resume_property(target, uninterrupted, split):
    """Property: for any split point, campaign-to-split + resume-to-end
    equals one uninterrupted campaign, verdicts and engine counters."""
    expected_signature, expected_stats = uninterrupted
    with tempfile.TemporaryDirectory() as ckdir:
        _run_campaign(
            target,
            _options(max_executions=split, checkpoint_dir=ckdir, checkpoint_every=97),
        )
        resumed, stats = _run_campaign(
            target,
            _options(checkpoint_dir=ckdir, checkpoint_every=97),
            resume_from=ckdir,
        )
    assert _signature(resumed) == expected_signature
    assert stats == expected_stats


def test_sigint_flushes_consistent_checkpoint(target, uninterrupted):
    """Ctrl-C mid-campaign: SIGINT is deferred to the iteration boundary,
    a final checkpoint is flushed, KeyboardInterrupt propagates — and the
    resumed campaign still matches the uninterrupted one exactly."""
    expected_signature, _ = uninterrupted
    with tempfile.TemporaryDirectory() as ckdir:
        options = _options(checkpoint_dir=ckdir, checkpoint_every=50)
        fuzzer = CompDiffFuzzer(target.source, target.seeds, options, name=target.name)
        original_run = fuzzer.fuzz_server.run
        calls = {"n": 0}

        def interrupting_run(data, **kwargs):
            calls["n"] += 1
            if calls["n"] == TOTAL_EXECUTIONS // 2:
                signal.raise_signal(signal.SIGINT)
            return original_run(data, **kwargs)

        fuzzer.fuzz_server.run = interrupting_run
        with pytest.raises(KeyboardInterrupt):
            fuzzer.run()
        flushed = load_checkpoint(ckdir)
        assert 0 < flushed.result.executions < TOTAL_EXECUTIONS
        resumed, _ = _run_campaign(
            target, _options(checkpoint_dir=ckdir), resume_from=ckdir
        )
    assert _signature(resumed) == expected_signature
    # The fuzzer restored the previous SIGINT disposition on exit.
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


# ----------------------------------------------------------- format integrity


def _minimal_checkpoint() -> CampaignCheckpoint:
    return CampaignCheckpoint(
        program_fingerprint="fp",
        options_digest="digest",
        generated=0,
        rng_state=random.Random(0).getstate(),
        result=None,
    )


def test_save_is_atomic_and_leaves_no_temp_files():
    with tempfile.TemporaryDirectory() as ckdir:
        path = save_checkpoint(ckdir, _minimal_checkpoint())
        assert path == checkpoint_path(ckdir)
        assert sorted(os.listdir(ckdir)) == [os.path.basename(path)]
        # Overwrite is just as atomic.
        save_checkpoint(ckdir, _minimal_checkpoint())
        assert load_checkpoint(ckdir).options_digest == "digest"


def test_missing_checkpoint_is_rejected():
    with tempfile.TemporaryDirectory() as ckdir:
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(ckdir)


def test_bit_flip_fails_the_integrity_check():
    with tempfile.TemporaryDirectory() as ckdir:
        path = save_checkpoint(ckdir, _minimal_checkpoint())
        with open(path, "rb") as handle:
            record = bytearray(handle.read())
        record[-3] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(record)
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(ckdir)


def test_truncated_record_is_rejected():
    with tempfile.TemporaryDirectory() as ckdir:
        path = save_checkpoint(ckdir, _minimal_checkpoint())
        with open(path, "rb") as handle:
            record = handle.read()
        for cut in (0, len(MAGIC) - 2, len(MAGIC) + 2, len(record) - 5):
            with open(path, "wb") as handle:
                handle.write(record[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(ckdir)


def test_foreign_magic_and_foreign_payload_are_rejected():
    with tempfile.TemporaryDirectory() as ckdir:
        path = checkpoint_path(ckdir)
        with open(path, "wb") as handle:
            handle.write(b"NOTCKPT0" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(ckdir)
        payload = pickle.dumps({"not": "a checkpoint"})
        with open(path, "wb") as handle:
            handle.write(MAGIC + struct.pack(">I", zlib.crc32(payload)) + payload)
        with pytest.raises(CheckpointError, match="not a CampaignCheckpoint"):
            load_checkpoint(ckdir)


# --------------------------------------------------------- compatibility gates


def test_cross_program_resume_is_refused(target):
    with tempfile.TemporaryDirectory() as ckdir:
        _run_campaign(
            target, _options(max_executions=30, checkpoint_dir=ckdir, checkpoint_every=10)
        )
        other = build_all_targets()[1]
        options = _options(checkpoint_dir=ckdir)
        fuzzer = CompDiffFuzzer(other.source, other.seeds, options, name=other.name)
        with pytest.raises(CheckpointError, match="different program"):
            fuzzer.run(resume_from=ckdir)


def test_option_drift_is_refused_but_budget_extension_is_not(target):
    with tempfile.TemporaryDirectory() as ckdir:
        _run_campaign(
            target, _options(max_executions=30, checkpoint_dir=ckdir, checkpoint_every=10)
        )
        drifted = _options(rng_seed=RNG_SEED + 1, checkpoint_dir=ckdir)
        fuzzer = CompDiffFuzzer(target.source, target.seeds, drifted, name=target.name)
        with pytest.raises(CheckpointError, match="different"):
            fuzzer.run(resume_from=ckdir)
        # max_executions is a budget, not a behavior: extending it resumes.
        extended = _options(max_executions=60, checkpoint_dir=ckdir, checkpoint_every=10)
        result, _ = _run_campaign(target, extended, resume_from=ckdir)
        assert result.executions >= 60
