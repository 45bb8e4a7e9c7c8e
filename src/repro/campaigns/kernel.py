"""The campaign kernel: one seed walk, one state record, one banking step.

The generative campaign (``repro generate``) and the sanitizer-validation
campaign (``repro sancheck``) are the same walk over different seeds: a
deterministic seed list, one per-seed step, a checkpoint of (offset,
result) at seed boundaries, and a keyed bank that dedupes what the step
finds.  :class:`Campaign` owns that walk.  A campaign subclass supplies
its per-seed step, its seed list and labels, and its result type.

The sharded runtime (:mod:`repro.campaigns.runtime`) drives the same
class over contiguous blocks and merges shard banks through the same
:func:`bank_step` the serial walk uses.  Campaigns that share one bank
directory dedupe against each other through that step too.  This
module must not import the runtime (the runtime imports it), so
importing a campaign stays cheap.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass

from repro.campaigns.sigint import DeferredInterrupt
from repro.core.compdiff import CompDiff
from repro.errors import CheckpointError, EngineConfigError
from repro.parallel.stats import EngineStats
from repro.persist import read_record, write_record

#: Magic of :class:`CampaignState` records (checkpoints and shard results).
STATE_MAGIC = b"RPRCAMP1"


@dataclass
class CampaignState:
    """A walk's durable progress: a checkpoint, or a finished shard's result."""

    #: :attr:`Campaign.kind` of the campaign that wrote the record.
    kind: str
    options_digest: str
    #: First offset of the walk.
    start: int
    #: Offsets ``start .. offset-1`` are processed (or skipped) and banked.
    offset: int
    #: The campaign's own result object as of ``offset``.
    result: object
    #: The walk's engine counters as of ``offset`` (None in records
    #: written before they were kept).
    stats: EngineStats | None = None


def read_state(path: str, kind: str, digest: str) -> CampaignState:
    """Load the state record at *path*, refusing one another campaign wrote.

    A torn, corrupt or foreign record (including a checkpoint written in
    an older per-campaign format), another kind's record, or one written
    under different options raises :class:`CheckpointError`.
    """
    try:
        state = read_record(path, STATE_MAGIC, CampaignState)
    except CheckpointError as exc:
        problem = str(exc)
    else:
        if state.kind != kind:
            problem = f"{path!r} holds {state.kind} campaign state, not {kind}"
        elif state.options_digest != digest:
            problem = f"{kind} checkpoint {path!r} was written with different campaign options"
        else:
            return state
    raise CheckpointError(
        f"{problem}; refusing to resume (move or delete {path!r} to start fresh)"
    )


def bank_step(bank, key: str, make_entry):
    """Bank *key*'s class unless it is held; return the new entry or None.

    A key already in *bank* is a duplicate, whether this walk, an
    earlier shard or another campaign sharing the bank banked it.  Any
    other key is built by *make_entry* and added.
    """
    if key in bank:
        return None
    entry = make_entry()
    bank.add(entry)
    return entry


class Campaign:
    """A checkpointed, interruptible walk over a campaign's seed list.

    Subclasses set :attr:`kind`, :attr:`checkpoint_file`,
    :attr:`result_type` and :attr:`bank_type`, and implement
    :meth:`seeds`, :meth:`label` and :meth:`process`.  The result type
    carries ``keys`` (the ordered key stream) and ``resumed_at``, plus
    three methods: ``absorb(shard_result)`` adds a shard's walk counters,
    ``count(entry)`` counts one banking decision (None is a duplicate)
    and ``finish(bank)`` records the bank's size.

    ``seed_slice`` restricts the walk to offsets ``[lo, hi)`` of the
    seed list (the sharded runtime's partitioning hook).
    ``skip_offsets`` are quarantined poison seeds: they advance the
    checkpoint but never run.  ``progress`` is called with each offset
    before that seed runs.  ``interruptible`` controls deferred-SIGINT
    handling; shard workers turn it off so the supervisor owns
    interrupts.
    """

    #: State-record kind: the bank entry type's ``KIND``.
    kind: str
    #: Checkpoint file name inside ``options.checkpoint_dir``.
    checkpoint_file: str
    result_type: type
    #: Bank class a shard worker banks into.
    bank_type: type

    def __init__(
        self,
        options,
        bank=None,
        *,
        policy=None,
        fault_plan=None,
        seed_slice: tuple[int, int] | None = None,
        skip_offsets: frozenset[int] = frozenset(),
        progress: Callable[[int], None] | None = None,
        interruptible: bool = True,
    ) -> None:
        if options.checkpoint_every < 1:
            raise EngineConfigError(
                f"checkpoint_every must be >= 1, got {options.checkpoint_every}"
            )
        self.options = options
        self.bank = bank
        self.seed_slice = seed_slice
        self.skip_offsets = frozenset(skip_offsets)
        self.progress = progress
        self.interruptible = interruptible
        self.engine = CompDiff(
            workers=options.workers, policy=policy, fault_plan=fault_plan
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the engine's worker pool, if any."""
        self.engine.close()

    # ------------------------------------------------------ subclass hooks

    @staticmethod
    def seeds(options):
        """The deterministic seed list *options* describe (a sequence)."""
        raise NotImplementedError

    @classmethod
    def label(cls, options, offset: int) -> str:
        """Human label of the seed at *offset* (quarantine ledger entries)."""
        raise NotImplementedError

    def process(self, seed, result) -> None:
        """Run one seed, folding what it finds into *result*."""
        raise NotImplementedError

    def stop(self, result) -> bool:
        """True to end the walk early (checked before each seed)."""
        return False

    # ---------------------------------------------------------------- walk

    def run(self):
        options = self.options
        seeds = self.seeds(options)
        lo, hi = self.seed_slice if self.seed_slice is not None else (0, len(seeds))
        state = self._load_state()
        if state is None:
            result, start = self.result_type(), lo
        else:
            result, start = state.result, max(lo, state.offset)
            result.resumed_at = start
            if state.stats is not None:
                self.engine.stats.merge(state.stats)
        reached = start
        with DeferredInterrupt(enabled=self.interruptible) as intr:
            for offset in range(start, hi):
                if intr.pending:
                    self._save_state(lo, reached, result)
                    raise KeyboardInterrupt("campaign interrupted; checkpoint flushed")
                if self.stop(result):
                    break
                if self.progress is not None:
                    self.progress(offset)
                if offset not in self.skip_offsets:
                    self.process(seeds[offset], result)
                reached = offset + 1
                if (
                    options.checkpoint_dir is not None
                    and (reached - start) % options.checkpoint_every == 0
                ):
                    self._save_state(lo, reached, result)
        self._save_state(lo, reached, result)
        result.finish(self.bank)
        return result

    def bank_key(self, key: str, make_entry, result) -> None:
        """Append *key* to the key stream and run it through :func:`bank_step`."""
        result.keys.append(key)
        if self.bank is not None:
            result.count(bank_step(self.bank, key, make_entry))

    # ---------------------------------------------------------- checkpoints

    def _state_path(self) -> str | None:
        if self.options.checkpoint_dir is None:
            return None
        return os.path.join(self.options.checkpoint_dir, self.checkpoint_file)

    def _save_state(self, start: int, offset: int, result) -> None:
        path = self._state_path()
        if path is not None:
            write_record(
                path,
                STATE_MAGIC,
                CampaignState(
                    self.kind, self.options.digest(), start, offset, result,
                    self.engine.stats,
                ),
            )

    def _load_state(self) -> CampaignState | None:
        path = self._state_path()
        if path is None or not os.path.exists(path):
            return None
        return read_state(path, self.kind, self.options.digest())
