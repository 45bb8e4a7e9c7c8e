"""Deterministic fault injection for the supervised worker pool.

Long differential campaigns die to three failure shapes: a worker process
that *crashes* mid-task, a worker that *hangs* past any useful deadline,
and a reply that arrives *corrupted*.  This module injects all three on a
seeded, reproducible schedule so the recovery invariants of
:mod:`repro.parallel.supervisor` can be proven in CI rather than asserted
in prose: with any fault plan active, campaign verdicts must be
byte-identical to a fault-free run (see ``tests/test_faults.py`` and
``docs/ROBUSTNESS.md``).

Decisions are a pure function of ``(plan seed, task seq, attempt)`` —
never of wall-clock time or scheduling — so a given plan always faults
the same tasks no matter how the pool interleaves them.  By default a
plan only faults a task's *first* attempt, modelling transient faults the
supervisor must recover from; ``poison`` entries fault every attempt,
modelling inputs that deterministically kill workers and must end up
quarantined.

The sharded campaign runtime (:mod:`repro.campaigns.runtime`) takes the
same :class:`FaultPlan`, keyed by global seed offset instead of task
``seq``, and carries its decisions out with :func:`execute_shard_fault`.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

#: Fault kinds a plan may inject.
CRASH = "crash"
HANG = "hang"
CORRUPT = "corrupt"
FAULT_KINDS = (CRASH, HANG, CORRUPT)

#: How long an injected hang sleeps.  Far past any sane task deadline; the
#: supervisor reclaims the worker by terminating the pool.
HANG_SECONDS = 600.0

#: XOR mask applied to a reply checksum to simulate payload corruption.
CORRUPT_CRC_MASK = 0x5A5A5A5A


@dataclass
class FaultPlan:
    """A seeded schedule of injectable worker faults.

    A key is a pool task's ``seq``, or a campaign seed offset when the
    plan drives the sharded runtime.  ``crash``/``hang``/``corrupt`` are
    per-key probabilities evaluated on the first attempt only (transient
    faults).  ``once`` maps a key to a fault kind injected
    deterministically on its first attempt (the reproducible test vector
    for each recovery path).  ``poison`` maps a key to a fault kind
    injected on *every* attempt — the quarantine path's test vector.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    #: key -> fault kind, injected on the first attempt only.
    once: dict[int, str] = field(default_factory=dict)
    #: key -> fault kind, injected on every attempt (poison tasks/seeds).
    poison: dict[int, str] = field(default_factory=dict)
    #: Attempts (per key) that rate-based and ``once`` faults may hit;
    #: 1 = first only.
    max_faulted_attempts: int = 1

    def __post_init__(self) -> None:
        total = self.crash + self.hang + self.corrupt
        if not 0.0 <= total <= 1.0:
            raise ValueError(f"fault rates must sum to [0, 1], got {total}")
        for kind in list(self.once.values()) + list(self.poison.values()):
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")

    def decide(self, seq: int, attempt: int) -> str | None:
        """The fault (if any) to inject into attempt *attempt* of key *seq*.

        Pure and order-independent: derived from a private RNG keyed by
        ``(seed, seq, attempt)``.
        """
        if seq in self.poison:
            return self.poison[seq]
        if attempt >= self.max_faulted_attempts:
            return None
        if seq in self.once:
            return self.once[seq]
        roll = random.Random(f"faultplan:{self.seed}:{seq}:{attempt}").random()
        if roll < self.crash:
            return CRASH
        if roll < self.crash + self.hang:
            return HANG
        if roll < self.crash + self.hang + self.corrupt:
            return CORRUPT
        return None


def execute_fault(kind: str) -> None:
    """Carry out an injected fault inside a worker process.

    ``crash`` exits the process without cleanup (the supervisor sees a
    lost task); ``hang`` sleeps far past any deadline (the supervisor
    reclaims the slot by restarting the pool).  ``corrupt`` is not handled
    here — the worker loop mangles the reply checksum instead, so the
    parent's integrity check is what catches it.
    """
    if kind == CRASH:
        os._exit(70)
    if kind == HANG:
        time.sleep(HANG_SECONDS)


# --------------------------------------------------------------------------
# Campaign-layer (shard) fault injection.  A FaultPlan keyed by global seed
# offset strikes a shard worker at the seed boundary, before the seed runs,
# so the shard's checkpoint and bank are always boundary-consistent and
# recovery is exactly a replay.  The invariant the sharded runtime is held
# to (tests/test_campaign_runtime.py, `make chaos`): with any plan active,
# the merged corpus is byte-identical to a fault-free run, except seeds a
# `poison` entry drives into the quarantine ledger.
# --------------------------------------------------------------------------

#: Exit code of a worker killed by an injected shard crash.
SHARD_CRASH_EXIT = 70
#: Exit code of a worker that corrupted its own checkpoint and died.
SHARD_CORRUPT_EXIT = 71


def execute_shard_fault(kind: str, checkpoint_path: str | None = None) -> None:
    """Carry out an injected shard fault inside a shard worker process.

    ``crash`` kills the worker at the seed boundary; ``hang`` sleeps far
    past any seed deadline (the supervisor reclaims the shard by killing
    it); ``corrupt`` flips bits in the shard's own checkpoint record —
    simulating the torn/bit-rotted state a real crash can leave — and
    then dies, so the next launch exercises the corrupt-state self-heal
    path (wipe and deterministically replay the shard's range).
    """
    if kind == CRASH:
        os._exit(SHARD_CRASH_EXIT)
    if kind == HANG:
        time.sleep(HANG_SECONDS)
    if kind == CORRUPT:
        if checkpoint_path is not None and os.path.exists(checkpoint_path):
            with open(checkpoint_path, "r+b") as handle:
                blob = bytearray(handle.read())
                if len(blob) > 12:
                    for i in range(12, len(blob)):
                        blob[i] ^= 0xFF
                handle.seek(0)
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
        os._exit(SHARD_CORRUPT_EXIT)
