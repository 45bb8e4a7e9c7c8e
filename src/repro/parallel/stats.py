"""Structured execution metrics for the differential engines.

One :class:`EngineStats` instance rides along with every
:class:`~repro.core.compdiff.CompDiff` (serial or parallel) and records
the operational signals the ROADMAP's scaling work needs: per-
implementation execution counts, compile-cache effectiveness, timeout
retries (the RQ6 path), and batch latency percentiles.  ``snapshot()``
emits the JSON-shaped schema documented in ``docs/PARALLELISM.md``.

Latency samples are observability only — no experiment verdict or test
assertion may depend on them (CONTRIBUTING.md rule 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Percentiles reported by ``snapshot()``/``render()``.
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)


@dataclass
class EngineStats:
    """Counters and latency samples for one engine's lifetime."""

    #: implementation name -> number of binary executions (retries included).
    exec_counts: dict[str, int] = field(default_factory=dict)
    #: Inputs pushed through the differential oracle.
    inputs_checked: int = 0
    #: Re-executions forced by partial timeouts (RQ6 retry path).
    timeout_retries: int = 0
    #: Compile-cache accounting, aggregated across parent and workers.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: Interprocedural summary-cache accounting (UBOracle interproc mode).
    summary_hits: int = 0
    summary_misses: int = 0
    summary_invalidations: int = 0
    #: Scatter batches dispatched (1 per task in parallel mode).
    batches: int = 0
    #: Per-batch wall-clock durations in seconds (worker-measured).
    batch_latencies: list[float] = field(default_factory=list)
    #: Worker-pool hard restarts after a crash, hang, or corrupt reply.
    worker_restarts: int = 0
    #: Task re-dispatches after a worker fault (distinct from the RQ6
    #: fuel-escalation ``timeout_retries``).
    task_retries: int = 0
    #: Poison tasks pulled from the schedule after exhausting retries.
    quarantined: int = 0
    #: implementation name -> programs where it was dropped from the
    #: cross-check (k-1 graceful degradation).
    degraded: dict[str, int] = field(default_factory=dict)
    #: Shard worker processes killed and relaunched by the sharded
    #: campaign runtime (repro.campaigns.runtime) — the shard-level
    #: analogue of ``worker_restarts``.
    shard_restarts: int = 0
    #: Dead shards whose remaining seed ranges the supervisor re-adopted
    #: and processed in-process.
    shard_adoptions: int = 0
    #: Poison seeds recorded in the quarantine ledger and skipped.
    seeds_quarantined: int = 0
    #: Campaign checkpoints journaled to disk.
    checkpoints_written: int = 0
    #: Per-checkpoint write durations in seconds (observability only).
    checkpoint_latencies: list[float] = field(default_factory=list)
    #: pass name -> [applications, changes, seconds] aggregated over every
    #: fresh (non-cache-hit) compile this engine performed.  Parent-process
    #: compiles only: worker replies carry cache counters, not schedules.
    pass_timings: dict[str, list] = field(default_factory=dict)
    #: Executor accounting (the decode-once lockstep path, PERFORMANCE.md):
    #: executions served from decoded instruction tables.
    lockstep_runs: int = 0
    #: Decode-cache accounting: a hit reuses a binary's DecodedProgram, a
    #: miss decodes the IR into flat tables (once per binary per process).
    decode_hits: int = 0
    decode_misses: int = 0
    #: Batched submission accounting: scatter units serviced and the total
    #: executions they carried (mean batch size = executions / batches).
    executor_batches: int = 0
    executor_batch_runs: int = 0

    # -------------------------------------------------------------- recording

    def record_exec(self, implementation: str, count: int = 1) -> None:
        self.exec_counts[implementation] = self.exec_counts.get(implementation, 0) + count

    def record_input(self, count: int = 1) -> None:
        self.inputs_checked += count

    def record_retry(self, count: int = 1) -> None:
        self.timeout_retries += count

    def record_cache(self, hits: int = 0, misses: int = 0, evictions: int = 0) -> None:
        self.cache_hits += hits
        self.cache_misses += misses
        self.cache_evictions += evictions

    def record_summary(
        self, hits: int = 0, misses: int = 0, invalidations: int = 0
    ) -> None:
        self.summary_hits += hits
        self.summary_misses += misses
        self.summary_invalidations += invalidations

    def record_summary_cache(self, cache) -> None:
        """Fold a :class:`~repro.static_analysis.summary_cache.SummaryCache`
        instance's counters in, then zero them so repeated folds don't
        double-count."""
        stats = cache.stats
        self.record_summary(stats.hits, stats.misses, stats.invalidations)
        stats.hits = stats.misses = stats.invalidations = 0

    def record_batch(self, seconds: float) -> None:
        self.batches += 1
        self.batch_latencies.append(seconds)

    def record_restart(self, count: int = 1) -> None:
        self.worker_restarts += count

    def record_task_retry(self, count: int = 1) -> None:
        self.task_retries += count

    def record_quarantine(self, count: int = 1) -> None:
        self.quarantined += count

    def record_degraded(self, implementation: str, count: int = 1) -> None:
        self.degraded[implementation] = self.degraded.get(implementation, 0) + count

    def record_shard_restart(self, count: int = 1) -> None:
        self.shard_restarts += count

    def record_shard_adoption(self, count: int = 1) -> None:
        self.shard_adoptions += count

    def record_seed_quarantine(self, count: int = 1) -> None:
        self.seeds_quarantined += count

    def record_checkpoint(self, seconds: float) -> None:
        self.checkpoints_written += 1
        self.checkpoint_latencies.append(seconds)

    def record_pass(
        self, name: str, applications: int = 1, changes: int = 0, seconds: float = 0.0
    ) -> None:
        row = self.pass_timings.setdefault(name, [0, 0, 0.0])
        row[0] += applications
        row[1] += changes
        row[2] += seconds

    def record_executor(
        self,
        lockstep: int = 0,
        decode_hits: int = 0,
        decode_misses: int = 0,
        batches: int = 0,
        batch_runs: int = 0,
    ) -> None:
        """Fold executor counters in — called by stats-wired ForkServers on
        every run and by the parent when folding worker reply deltas."""
        self.lockstep_runs += lockstep
        self.decode_hits += decode_hits
        self.decode_misses += decode_misses
        self.executor_batches += batches
        self.executor_batch_runs += batch_runs

    def record_pass_report(self, report) -> None:
        """Fold one build's :class:`~repro.compiler.passes.manager.PipelineReport`
        into the per-pass aggregate."""
        if report is None:
            return
        for name, row in report.per_pass().items():
            self.record_pass(
                name, row["applications"], row["changes"], row["seconds"]
            )

    def restore(self, other: "EngineStats") -> None:
        """Overwrite every counter in place with *other*'s values.

        Used by checkpoint resume: engines share one stats instance by
        reference, so restoring must mutate rather than reassign.
        """
        self.exec_counts = dict(other.exec_counts)
        self.inputs_checked = other.inputs_checked
        self.timeout_retries = other.timeout_retries
        self.cache_hits = other.cache_hits
        self.cache_misses = other.cache_misses
        self.cache_evictions = other.cache_evictions
        self.summary_hits = other.summary_hits
        self.summary_misses = other.summary_misses
        self.summary_invalidations = other.summary_invalidations
        self.batches = other.batches
        self.batch_latencies = list(other.batch_latencies)
        self.worker_restarts = other.worker_restarts
        self.task_retries = other.task_retries
        self.quarantined = other.quarantined
        self.degraded = dict(other.degraded)
        self.shard_restarts = other.shard_restarts
        self.shard_adoptions = other.shard_adoptions
        self.seeds_quarantined = other.seeds_quarantined
        self.checkpoints_written = other.checkpoints_written
        self.checkpoint_latencies = list(other.checkpoint_latencies)
        self.pass_timings = {name: list(row) for name, row in other.pass_timings.items()}
        self.lockstep_runs = other.lockstep_runs
        self.decode_hits = other.decode_hits
        self.decode_misses = other.decode_misses
        self.executor_batches = other.executor_batches
        self.executor_batch_runs = other.executor_batch_runs

    def merge(self, other: "EngineStats") -> None:
        """Fold another instance's counters into this one."""
        for name, count in other.exec_counts.items():
            self.record_exec(name, count)
        self.inputs_checked += other.inputs_checked
        self.timeout_retries += other.timeout_retries
        self.record_cache(other.cache_hits, other.cache_misses, other.cache_evictions)
        self.record_summary(
            other.summary_hits, other.summary_misses, other.summary_invalidations
        )
        self.batches += other.batches
        self.batch_latencies.extend(other.batch_latencies)
        self.worker_restarts += other.worker_restarts
        self.task_retries += other.task_retries
        self.quarantined += other.quarantined
        for name, count in other.degraded.items():
            self.record_degraded(name, count)
        self.shard_restarts += other.shard_restarts
        self.shard_adoptions += other.shard_adoptions
        self.seeds_quarantined += other.seeds_quarantined
        self.checkpoints_written += other.checkpoints_written
        self.checkpoint_latencies.extend(other.checkpoint_latencies)
        for name, row in other.pass_timings.items():
            self.record_pass(name, row[0], row[1], row[2])
        self.record_executor(
            lockstep=other.lockstep_runs,
            decode_hits=other.decode_hits,
            decode_misses=other.decode_misses,
            batches=other.executor_batches,
            batch_runs=other.executor_batch_runs,
        )

    # ---------------------------------------------------------------- queries

    @property
    def total_executions(self) -> int:
        return sum(self.exec_counts.values())

    @property
    def cache_requests(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.cache_requests if self.cache_requests else 0.0

    def latency_percentiles(
        self, percentiles: tuple[float, ...] = DEFAULT_PERCENTILES
    ) -> dict[float, float]:
        """Nearest-rank percentiles of the recorded batch latencies."""
        if not self.batch_latencies:
            return {p: 0.0 for p in percentiles}
        ordered = sorted(self.batch_latencies)
        out = {}
        for p in percentiles:
            rank = max(1, min(len(ordered), round(p / 100.0 * len(ordered) + 0.5)))
            out[p] = ordered[int(rank) - 1]
        return out

    # --------------------------------------------------------------- emitting

    def snapshot(self) -> dict:
        """The metrics schema (see docs/PARALLELISM.md §Metrics)."""
        return {
            "executions": {
                "per_implementation": dict(sorted(self.exec_counts.items())),
                "total": self.total_executions,
                "inputs_checked": self.inputs_checked,
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.cache_evictions,
                "hit_rate": self.cache_hit_rate,
            },
            "summaries": {
                "hits": self.summary_hits,
                "misses": self.summary_misses,
                "invalidations": self.summary_invalidations,
            },
            "timeouts": {"retries": self.timeout_retries},
            "executor": {
                "lockstep_runs": self.lockstep_runs,
                "decode_hits": self.decode_hits,
                "decode_misses": self.decode_misses,
                "batches": self.executor_batches,
                "batch_runs": self.executor_batch_runs,
                "mean_batch_size": (
                    self.executor_batch_runs / self.executor_batches
                    if self.executor_batches
                    else 0.0
                ),
            },
            "batches": {
                "dispatched": self.batches,
                "latency_percentiles": {
                    f"p{p:g}": value for p, value in self.latency_percentiles().items()
                },
            },
            "faults": {
                "worker_restarts": self.worker_restarts,
                "task_retries": self.task_retries,
                "quarantined": self.quarantined,
                "degraded": dict(sorted(self.degraded.items())),
            },
            "shards": {
                "restarts": self.shard_restarts,
                "adoptions": self.shard_adoptions,
                "seeds_quarantined": self.seeds_quarantined,
            },
            "checkpoints": {
                "written": self.checkpoints_written,
                "total_seconds": sum(self.checkpoint_latencies),
            },
            "passes": {
                name: {
                    "applications": row[0],
                    "changes": row[1],
                    "seconds": row[2],
                }
                for name, row in sorted(self.pass_timings.items())
            },
        }

    def render(self) -> str:
        """Human-readable one-screen summary."""
        snap = self.snapshot()
        lines = [
            f"executions: {snap['executions']['total']} "
            f"over {snap['executions']['inputs_checked']} inputs",
        ]
        for name, count in snap["executions"]["per_implementation"].items():
            lines.append(f"  {name:<12} {count}")
        cache = snap["cache"]
        lines.append(
            f"compile cache: {cache['hits']} hits / {cache['misses']} misses "
            f"({100 * cache['hit_rate']:.1f}% hit rate, {cache['evictions']} evicted)"
        )
        summaries = snap["summaries"]
        if summaries["hits"] or summaries["misses"]:
            lines.append(
                f"summary cache: {summaries['hits']} hits / "
                f"{summaries['misses']} misses "
                f"({summaries['invalidations']} invalidated)"
            )
        lines.append(f"timeout retries: {snap['timeouts']['retries']}")
        executor = snap["executor"]
        if executor["lockstep_runs"]:
            lines.append(
                f"executor: {executor['lockstep_runs']} lockstep runs; decode cache "
                f"{executor['decode_hits']} hits / {executor['decode_misses']} misses"
            )
            if executor["batches"]:
                lines.append(
                    f"  batched submission: {executor['batches']} batches, "
                    f"mean size {executor['mean_batch_size']:.1f}"
                )
        percentiles = snap["batches"]["latency_percentiles"]
        lines.append(
            f"batches: {snap['batches']['dispatched']} dispatched; latency "
            + " ".join(f"{k}={1000 * v:.2f}ms" for k, v in percentiles.items())
        )
        faults = snap["faults"]
        lines.append(
            f"faults: {faults['worker_restarts']} pool restarts, "
            f"{faults['task_retries']} task retries, "
            f"{faults['quarantined']} quarantined"
        )
        if faults["degraded"]:
            dropped = ", ".join(
                f"{name} x{count}" for name, count in faults["degraded"].items()
            )
            lines.append(f"degraded (k-1 cross-checks): {dropped}")
        shards = snap["shards"]
        if any(shards.values()):
            lines.append(
                f"shards: {shards['restarts']} restarts, "
                f"{shards['adoptions']} ranges adopted, "
                f"{shards['seeds_quarantined']} seeds quarantined"
            )
        if snap["checkpoints"]["written"]:
            lines.append(
                f"checkpoints: {snap['checkpoints']['written']} written "
                f"in {snap['checkpoints']['total_seconds']:.3f}s"
            )
        if snap["passes"]:
            lines.append("pass pipeline (fresh compiles, parent process):")
            for name, row in snap["passes"].items():
                lines.append(
                    f"  {name:<16} x{row['applications']:<5} "
                    f"changes={row['changes']:<6} {1000 * row['seconds']:.2f}ms"
                )
        return "\n".join(lines)
