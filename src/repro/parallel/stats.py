"""Structured execution metrics for the differential engines.

One :class:`EngineStats` instance rides along with every
:class:`~repro.core.compdiff.CompDiff` (serial or parallel) and records
the operational signals the ROADMAP's scaling work needs: per-
implementation execution counts, compile-cache effectiveness, timeout
retries (the RQ6 path), and batch latency percentiles.  ``snapshot()``
emits the JSON-shaped schema documented in ``docs/PARALLELISM.md``.

Each counter is declared once, as an :class:`EngineStats` field made by
:func:`counter`: its kind and its place in ``snapshot()``.  ``merge``,
``restore``, ``snapshot`` and ``render`` walk those declarations, and the
values derived from counters are declared per section in
:data:`SECTIONS`.  Callers record by incrementing the attribute
(``stats.timeout_retries += 1``, ``stats.exec_counts[name] += 1``).
Engine workers count each task into a fresh instance that travels home
in the reply and is folded with ``merge``.

Latency samples are observability only — no experiment verdict or test
assertion may depend on them (CONTRIBUTING.md rule 5).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any, Callable

#: Percentiles reported by ``snapshot()``/``render()``.
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)


@dataclass(frozen=True)
class Kind:
    """How a counter starts, folds another instance's value into its own,
    and appears in ``snapshot()``."""

    empty: Callable[[], Any]
    fold: Callable[[Any, Any], Any]
    view: Callable[[Any], Any]


def _fold_names(mine: Counter, theirs) -> Counter:
    mine.update(theirs)
    return mine


def _fold_rows(mine: dict, theirs: dict) -> dict:
    for name, row in theirs.items():
        mine[name] = [a + b for a, b in zip(mine.get(name, (0, 0, 0.0)), row)]
    return mine


#: A plain count.
COUNT = Kind(int, operator.add, lambda value: value)
#: name -> count.
PER_NAME = Kind(Counter, _fold_names, lambda counts: dict(sorted(counts.items())))
#: Samples in seconds; ``snapshot()`` shows how many were taken.
SAMPLES = Kind(list, operator.iadd, len)
#: pass name -> [applications, changes, seconds].
PER_PASS = Kind(
    dict,
    _fold_rows,
    lambda rows: {
        name: dict(zip(("applications", "changes", "seconds"), row))
        for name, row in sorted(rows.items())
    },
)


def counter(kind: Kind, section: str, key: str | None = None):
    """Declare one :class:`EngineStats` counter of *kind*, shown in
    ``snapshot()[section][key]`` (the whole section when *key* is None)."""
    return field(default_factory=kind.empty, metadata={"counter": (kind, section, key)})


def _mean_batch_size(stats: "EngineStats") -> float:
    return stats.executor_batch_runs / stats.batches if stats.batches else 0.0


#: ``snapshot()`` sections in order: the title ``render()`` prints, and the
#: values derived from the declared counters.
SECTIONS: dict[str, tuple[str, dict[str, Callable[["EngineStats"], Any]]]] = {
    "executions": ("executions", {"total": lambda s: s.total_executions}),
    "cache": ("compile cache", {"hit_rate": lambda s: s.cache_hit_rate}),
    "timeouts": ("timeouts", {}),
    "executor": (
        "executor",
        {"batches": lambda s: s.batches, "mean_batch_size": _mean_batch_size},
    ),
    "batches": (
        "batches",
        {
            "latency_percentiles": lambda s: {
                f"p{p:g}": value for p, value in s.latency_percentiles().items()
            }
        },
    ),
    "faults": ("faults", {}),
    "shards": ("shards", {}),
    "checkpoints": (
        "checkpoints",
        {"total_seconds": lambda s: sum(s.checkpoint_latencies)},
    ),
    "passes": ("pass pipeline", {}),
    "questions": ("oracle questions", {}),
}


@dataclass
class EngineStats:
    """Counters and latency samples for one engine's lifetime."""

    #: implementation name -> binary executions (RQ6 retries included).
    exec_counts: Counter = counter(PER_NAME, "executions", "per_implementation")
    #: Inputs pushed through the differential oracle.
    inputs_checked: int = counter(COUNT, "executions", "inputs_checked")
    #: Compile-cache activity attributed to this engine (parent and workers).
    cache_hits: int = counter(COUNT, "cache", "hits")
    cache_misses: int = counter(COUNT, "cache", "misses")
    cache_evictions: int = counter(COUNT, "cache", "evictions")
    #: Re-executions forced by partial timeouts (RQ6 retry path).
    timeout_retries: int = counter(COUNT, "timeouts", "retries")
    #: Executions served from decoded instruction tables (PERFORMANCE.md).
    lockstep_runs: int = counter(COUNT, "executor", "lockstep_runs")
    #: Decode cache: a hit reuses a binary's DecodedProgram, a miss decodes
    #: the IR into flat tables (once per binary per process).
    decode_hits: int = counter(COUNT, "executor", "decode_hits")
    decode_misses: int = counter(COUNT, "executor", "decode_misses")
    #: Executions carried by worker replies.
    executor_batch_runs: int = counter(COUNT, "executor", "batch_runs")
    #: Worker-measured wall-clock seconds, one sample per scatter task.
    batch_latencies: list = counter(SAMPLES, "batches", "dispatched")
    #: Worker-pool hard restarts after a crash, hang, or corrupt reply.
    worker_restarts: int = counter(COUNT, "faults", "worker_restarts")
    #: Task re-dispatches after a worker fault (distinct from the RQ6
    #: fuel-escalation ``timeout_retries``).
    task_retries: int = counter(COUNT, "faults", "task_retries")
    #: Poison tasks pulled from the schedule after exhausting retries.
    quarantined: int = counter(COUNT, "faults", "quarantined")
    #: implementation name -> (input, implementation) cells dropped from
    #: a cross-check (k-1 graceful degradation).
    degraded: Counter = counter(PER_NAME, "faults", "degraded")
    #: Shard worker processes killed and relaunched by the sharded
    #: campaign runtime (repro.campaigns.runtime).
    shard_restarts: int = counter(COUNT, "shards", "restarts")
    #: Dead shards whose remaining seed ranges were finished in-process.
    shard_adoptions: int = counter(COUNT, "shards", "adoptions")
    #: Poison seeds recorded in the quarantine ledger and skipped.
    seeds_quarantined: int = counter(COUNT, "shards", "seeds_quarantined")
    #: Campaign checkpoint write durations in seconds.
    checkpoint_latencies: list = counter(SAMPLES, "checkpoints", "written")
    #: pass name -> [applications, changes, seconds] over every fresh
    #: (non-cache-hit) compile, in the parent and in workers.
    pass_timings: dict = counter(PER_PASS, "passes")
    #: Yes/no oracle questions (``CompDiff.diverges``) asked.
    questions_asked: int = counter(COUNT, "questions", "asked")
    #: Implementations a lazy answer never compiled or ran.
    builds_skipped: int = counter(COUNT, "questions", "builds_skipped")
    #: Answers read off a full check: a fallback, or the worker pool's.
    full_checks: int = counter(COUNT, "questions", "full_checks")

    def merge(self, other: "EngineStats") -> None:
        """Fold another instance's counters into this one."""
        for name, (kind, _section, _key) in DECLARATIONS:
            # An instance pickled before a counter was declared (an older
            # fuzz checkpoint) lacks it: that counter folds nothing.
            theirs = getattr(other, name, None)
            if theirs is not None:
                setattr(self, name, kind.fold(getattr(self, name), theirs))

    def restore(self, other: "EngineStats") -> None:
        """Overwrite every counter in place with *other*'s values.

        Used by checkpoint resume: engines share one stats instance by
        reference, so restoring must mutate rather than reassign.
        """
        self.__init__()
        self.merge(other)

    # ---------------------------------------------------------------- queries

    @property
    def total_executions(self) -> int:
        return sum(self.exec_counts.values())

    @property
    def cache_hit_rate(self) -> float:
        requests = self.cache_hits + self.cache_misses
        return self.cache_hits / requests if requests else 0.0

    @property
    def batches(self) -> int:
        """Scatter tasks dispatched (one latency sample each)."""
        return len(self.batch_latencies)

    def latency_percentiles(
        self, percentiles: tuple[float, ...] = DEFAULT_PERCENTILES
    ) -> dict[float, float]:
        """Nearest-rank percentiles of the recorded batch latencies: for
        ``p``, the sample of rank ``ceil(p/100 * n)`` in ascending order."""
        if not self.batch_latencies:
            return {p: 0.0 for p in percentiles}
        ordered = sorted(self.batch_latencies)
        n = len(ordered)
        return {p: ordered[min(n, max(1, math.ceil(p * n / 100))) - 1] for p in percentiles}

    # --------------------------------------------------------------- emitting

    def snapshot(self) -> dict:
        """The metrics schema (see docs/PARALLELISM.md §Metrics)."""
        snap: dict = {section: {} for section in SECTIONS}
        for name, (kind, section, key) in DECLARATIONS:
            value = kind.view(getattr(self, name))
            if key is None:
                snap[section] = value
            else:
                snap[section][key] = value
        for section, (_title, derived) in SECTIONS.items():
            for key, derive in derived.items():
                snap[section][key] = derive(self)
        return snap

    def render(self) -> str:
        """Human-readable summary: one line per section that recorded
        anything, then one indented line per map inside it."""
        lines = []
        for section, values in self.snapshot().items():
            if _is_zero(values):
                continue
            scalars = [
                (key, value) for key, value in values.items() if not isinstance(value, dict)
            ]
            lines.append(f"{SECTIONS[section][0]}:{_pairs(scalars)}")
            for key, value in values.items():
                if isinstance(value, dict) and value:
                    lines.append(f"  {key}:{_pairs(value.items())}")
        return "\n".join(lines)


#: ``(attribute, (kind, section, key))`` for every declared counter.
DECLARATIONS = tuple((f.name, f.metadata["counter"]) for f in fields(EngineStats))


def _is_zero(value) -> bool:
    if isinstance(value, dict):
        return all(_is_zero(item) for item in value.values())
    return not value


def _pairs(items) -> str:
    return "".join(
        f" {key}={value:.4g}" if isinstance(value, float) else f" {key}={value}"
        for key, value in items
    )
