"""Parallel differential execution: worker pool, compile cache, metrics.

The serial oracle pays ``k`` binary executions per input plus ``k``
compilations per program — the wall-clock hot path of every campaign
(§3.1/Algorithm 1 run the oracle on *every* generated input).  This
package amortizes both costs:

* :class:`~repro.parallel.engine.ParallelEngine` — a persistent
  ``multiprocessing`` worker pool serving whole-program checks; each
  worker holds warm :class:`~repro.vm.forkserver.ForkServer` instances
  per ``(program, implementation)`` and a local compile cache.
* :class:`~repro.parallel.cache.CompileCache` — content-addressed
  ``(source fingerprint, implementation fingerprint)`` → binary cache
  with LRU eviction and hit/miss accounting.
* :class:`~repro.parallel.stats.EngineStats` — structured execution
  metrics: per-implementation exec counts, cache hit rate, timeout-retry
  counts, and batch latency percentiles.

Users normally reach the pool through the ``workers=N`` knob on
:class:`repro.core.compdiff.CompDiff` (its program checks),
:func:`repro.evaluation.evaluate_juliet`, and the ``generate`` and
``sancheck`` campaigns; ``workers=1`` (the default) preserves the fully
deterministic single-process path.  Per-input oracle calls (the
fuzzer's) always run in-process.  See ``docs/PARALLELISM.md`` for the
architecture.
"""

from repro.parallel.cache import (
    CacheStats,
    CompileCache,
    cache_key,
    config_fingerprint,
    program_fingerprint,
)
from repro.parallel.engine import (
    BatchJob,
    ParallelEngine,
    ProgramPayload,
)
from repro.parallel.faults import FaultPlan
from repro.parallel.stats import EngineStats
from repro.parallel.supervisor import (
    QuarantineEntry,
    SupervisedPool,
    SupervisorPolicy,
)

__all__ = [
    "BatchJob",
    "CacheStats",
    "CompileCache",
    "EngineStats",
    "FaultPlan",
    "ParallelEngine",
    "ProgramPayload",
    "QuarantineEntry",
    "SupervisedPool",
    "SupervisorPolicy",
    "cache_key",
    "config_fingerprint",
    "program_fingerprint",
]
