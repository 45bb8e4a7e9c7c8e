"""Atomic campaign checkpointing for CompDiff-AFL++ (ISSUE 3 layer 2).

The paper's real-world campaigns run for days per target (Table 4); a
killed process must not lose the seed pool, corpus, coverage map, or RNG
position.  :class:`CampaignCheckpoint` captures *exactly* the loop state
of :class:`~repro.fuzzing.fuzzer.CompDiffFuzzer` at an iteration
boundary, so a resumed campaign replays the remaining iterations
deterministically — the final verdicts, corpus, and counters are
byte-identical to a never-interrupted run (pinned by
``tests/test_checkpoint.py``).

On-disk format (``checkpoint.ckpt`` inside the checkpoint directory)::

    8 bytes   magic  b"RPRCKPT1"
    4 bytes   CRC32 (big-endian) over the payload
    N bytes   pickled CampaignCheckpoint

Writes are atomic: the record goes to a ``.tmp`` file in the same
directory, is fsync'd, then ``os.replace``-d over the final name — a
kill mid-write leaves the previous checkpoint intact, and a torn or
bit-flipped record fails the CRC on load with a
:class:`~repro.errors.CheckpointError` instead of resuming from garbage.
Compatibility is enforced by content: the checkpoint stores the target
program's fingerprint and a digest of every verdict-relevant option, and
resume refuses a mismatch.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any

from repro.persist import read_record, write_record

#: Format magic; bump the trailing digit on incompatible layout changes.
MAGIC = b"RPRCKPT1"
#: File name inside a checkpoint directory.
CHECKPOINT_FILE = "checkpoint.ckpt"


@dataclass
class CampaignCheckpoint:
    """Everything needed to continue a campaign from an iteration boundary."""

    #: Content hash of the target program (refuses cross-program resume).
    program_fingerprint: str
    #: Digest of verdict-relevant FuzzerOptions (refuses config drift).
    options_digest: str
    #: Mutations generated so far (drives the compdiff_stride phase).
    generated: int
    #: ``random.Random.getstate()`` of the campaign RNG.
    rng_state: tuple
    #: The full CampaignResult accumulated so far (diffs, crashes, sites...).
    result: Any
    #: Seed queue: pickled Seed objects + queue counters.
    pool_seeds: list = field(default_factory=list)
    pool_next_index: int = 0
    pool_dedupe: set = field(default_factory=set)
    #: CoverageMap.virgin — the global edge/bucket map.
    coverage_virgin: dict[int, int] = field(default_factory=dict)
    #: Inputs already pushed through the differential oracle.
    seen_diff_inputs: set = field(default_factory=set)
    #: Divergence signatures already fed back (divergence_feedback mode).
    seen_signatures: set = field(default_factory=set)
    #: Oracle EngineStats counters at the boundary (None when no oracle).
    oracle_stats: Any = None


def options_digest(options, implementation_names: tuple[str, ...]) -> str:
    """Digest of every option that can change campaign verdicts.

    ``max_executions`` is deliberately excluded: it is a budget, not a
    behavior — resuming with a larger budget is the supported way to
    extend a finished campaign.  ``compile_cache`` is excluded because it
    is verdict-transparent by construction.
    """
    normalizer = (
        type(options.normalizer).__name__ if options.normalizer is not None else "none"
    )
    patterns = (
        tuple(options.normalizer.patterns) if options.normalizer is not None else ()
    )
    parts = (
        options.rng_seed,
        options.fuel,
        options.compdiff_stride,
        options.enable_compdiff,
        options.sanitizer,
        tuple(implementation_names),
        options.splice_probability,
        options.max_saved_diffs,
        options.max_saved_crashes,
        options.divergence_feedback,
        options.analysis_boost,
        normalizer,
        patterns,
    )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def checkpoint_path(directory: str) -> str:
    return os.path.join(directory, CHECKPOINT_FILE)


def save_checkpoint(directory: str, checkpoint: CampaignCheckpoint) -> str:
    """Atomically journal *checkpoint* into *directory*; returns the path.

    tmp + fsync + rename (via :func:`repro.persist.write_record`): a
    crash at any point leaves either the old record or the new one,
    never a torn file under the final name.
    """
    return write_record(checkpoint_path(directory), MAGIC, checkpoint)


def load_checkpoint(directory: str) -> CampaignCheckpoint:
    """Load and verify the checkpoint journaled in *directory*."""
    return read_record(checkpoint_path(directory), MAGIC, CampaignCheckpoint)
