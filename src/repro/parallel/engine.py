"""Batched multi-process differential execution.

The serial :class:`~repro.core.compdiff.CompDiff` runs the ``k``
per-implementation executions of every input back to back in one
process.  :class:`ParallelEngine` fans whole-program checks (a batch of
``(program, inputs)`` jobs) out across a persistent ``multiprocessing``
worker pool; a single input's ``k`` executions never come here, because
shipping each one to the pool costs more than running it in-process:

* each worker process keeps **warm state** — a content-addressed
  :class:`~repro.parallel.cache.CompileCache` plus a registry of live
  :class:`~repro.vm.forkserver.ForkServer` instances per
  ``(program, implementation)`` — so a program is compiled at most once
  per worker and re-executions pay only for the VM run;
* the parent scatters ``(job, implementation-chunk)`` tasks, gathers raw
  :class:`~repro.vm.execution.ExecutionResult` objects, and performs the
  RQ6 partial-timeout retry rounds with exactly the serial engine's fuel
  schedule, so verdicts are byte-identical to ``workers=1``;
* all observation normalization and checksumming stays in the parent
  (in :class:`~repro.core.compdiff.CompDiff`), which is what guarantees
  result assembly order — and therefore ``DiffResult`` contents — cannot
  depend on worker scheduling.

Dispatch goes through :class:`~repro.parallel.supervisor.SupervisedPool`,
which detects dead and hung workers via per-wave wall-clock deadlines,
restarts the pool, re-dispatches lost tasks with bounded retries and
exponential backoff, and quarantines poison tasks that keep killing
workers.  Recovery is verdict-transparent: a retried task produces the
reply a fault-free run would have, and a quarantined task degrades its
program's cross-check to the surviving k-1 implementations (flagged in
the :class:`~repro.core.compdiff.DiffResult`) instead of aborting.

Workers are spawned lazily on the first batch and live until
``close()``; the ``fork`` start method is preferred (cheap, inherits the
imported modules) with ``spawn`` as the portable fallback.  See
``docs/ROBUSTNESS.md`` for the failure model.
"""

from __future__ import annotations

import math
import pickle
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.compiler.implementations import CompilerConfig
from repro.errors import EngineConfigError, ReproError
from repro.minic import ast as minic_ast
from repro.minic import load
from repro.parallel.cache import CompileCache, compile_counted
from repro.parallel.faults import CORRUPT, CORRUPT_CRC_MASK, FaultPlan, execute_fault
from repro.parallel.stats import EngineStats
from repro.parallel.supervisor import QuarantineEntry, SupervisedPool, SupervisorPolicy
from repro.vm import ForkServer
from repro.vm.execution import ExecutionResult, deadline_result

#: Hard cap on pool size; beyond this the scatter overhead dominates.
MAX_WORKERS = 32
#: Programs (and their fork servers) kept warm per worker before LRU drop.
WORKER_PROGRAM_CAP = 64


@dataclass(frozen=True)
class ProgramPayload:
    """A program in transit to a worker: content key plus serialized form.

    ``kind`` is ``"src"`` (raw MiniC source, parsed worker-side with the
    same :func:`repro.minic.load` the serial path uses) or ``"ast"``
    (pickled checked AST).
    """

    key: str
    kind: str
    blob: bytes
    name: str = ""

    @staticmethod
    def from_program(program: minic_ast.Program | str, name: str = "") -> "ProgramPayload":
        from repro.parallel.cache import program_fingerprint

        fp = program_fingerprint(program)
        if isinstance(program, str):
            return ProgramPayload(key=fp, kind="src", blob=program.encode("utf-8"), name=name)
        return ProgramPayload(key=fp, kind="ast", blob=pickle.dumps(program), name=name)


@dataclass(frozen=True)
class _Task:
    """One scatter unit: run *runs* under *configs* for one program."""

    #: Unique dispatch id, assigned parent-side in deterministic order;
    #: the supervisor keys retries/quarantine (and the fault plan keys
    #: injection decisions) off this.
    seq: int
    job_idx: int
    payload: ProgramPayload
    configs: tuple[CompilerConfig, ...]
    base_fuel: int
    #: (input_idx, input_bytes, explicit fuel or None for the base fuel).
    runs: tuple[tuple[int, bytes, Optional[int]], ...]
    #: Injected fault for this dispatch attempt (None outside fault tests).
    fault: Optional[str] = None


@dataclass
class _Reply:
    """One task's gathered results plus its worker-side counters."""

    job_idx: int
    #: (input_idx, implementation name, result) triples.  Each result
    #: carries its ``output_checksum``, computed worker-side once from the
    #: normalized observation — the parent never re-derives it.
    results: list[tuple[int, str, ExecutionResult]]
    #: This task's counters (executions, compiles, decodes, its latency),
    #: folded into the engine's stats parent-side with ``merge``.
    stats: EngineStats
    #: CRC32 over the pickled results — the parent's integrity check.
    crc: int = 0


def _results_crc(results: list[tuple[int, str, ExecutionResult]]) -> int:
    return zlib.crc32(pickle.dumps(results))


def _validate_reply(reply: _Reply) -> str | None:
    """Integrity check run in the parent; a mismatch means the reply was
    corrupted in transit and the task must be re-dispatched."""
    if not isinstance(reply, _Reply):
        return f"malformed reply of type {type(reply).__name__}"
    if _results_crc(reply.results) != reply.crc:
        return "corrupted reply (checksum mismatch)"
    return None


# ---------------------------------------------------------------------------
# Worker side.  Module-level state + functions so both fork and spawn start
# methods can resolve them by reference.
# ---------------------------------------------------------------------------

_WORKER: dict = {}


def _worker_init(cache_entries: int, normalizer=None) -> None:
    # Imported here (not module top) to keep repro.parallel importable
    # without pulling the repro.core package in first (circular import).
    from repro.core.normalize import OutputNormalizer

    _WORKER["cache"] = CompileCache(max_entries=cache_entries)
    _WORKER["programs"] = OrderedDict()  # key -> checked Program AST
    _WORKER["servers"] = OrderedDict()  # (key, impl name) -> ForkServer
    _WORKER["normalizer"] = normalizer if normalizer is not None else OutputNormalizer()


def _worker_program(payload: ProgramPayload) -> minic_ast.Program:
    programs: OrderedDict = _WORKER["programs"]
    program = programs.get(payload.key)
    if program is None:
        if payload.kind == "src":
            program = load(payload.blob.decode("utf-8"))
        else:
            program = pickle.loads(payload.blob)
        programs[payload.key] = program
        while len(programs) > WORKER_PROGRAM_CAP:
            evicted_key, _ = programs.popitem(last=False)
            servers: OrderedDict = _WORKER["servers"]
            for server_key in [k for k in servers if k[0] == evicted_key]:
                del servers[server_key]
    else:
        programs.move_to_end(payload.key)
    return program


def _worker_server(
    payload: ProgramPayload, config: CompilerConfig, base_fuel: int, stats: EngineStats
) -> ForkServer:
    """The warm server for (*payload*, *config*), counting into *stats*."""
    servers: OrderedDict = _WORKER["servers"]
    server_key = (payload.key, config.name)
    server = servers.get(server_key)
    if server is None:
        program = _worker_program(payload)
        binary = compile_counted(
            program,
            config,
            stats,
            cache=_WORKER["cache"],
            name=payload.name,
            program_fp=payload.key,
        )
        server = ForkServer(binary, fuel=base_fuel)
        servers[server_key] = server
    else:
        servers.move_to_end(server_key)
    server.stats = stats
    return server


def _worker_run(task: _Task) -> _Reply:
    """Service one scatter unit inside a worker process."""
    if task.fault is not None:
        execute_fault(task.fault)
    from repro.core.hashing import observation_checksum

    started = time.perf_counter()
    stats = EngineStats()
    normalizer = _WORKER["normalizer"]
    results: list[tuple[int, str, ExecutionResult]] = []
    for config in task.configs:
        try:
            server = _worker_server(task.payload, config, task.base_fuel, stats)
        except ReproError:
            # Per-implementation build failure: its cells stay absent and
            # the parent drops them from the cross-check (k-1) rather
            # than the task (and the batch) failing.
            continue
        try:
            for input_idx, input_bytes, fuel in task.runs:
                result = server.run(input_bytes, fuel=fuel)
                # The double-checksum fix: normalize and checksum exactly
                # once, where the execution happened, and carry it home.
                result.output_checksum = observation_checksum(
                    normalizer.normalize_observation(result.observation())
                )
                results.append((input_idx, config.name, result))
        except ReproError:
            results = [r for r in results if r[1] != config.name]
    for _input_idx, impl_name, _result in results:
        stats.exec_counts[impl_name] += 1
    stats.executor_batch_runs = len(results)
    crc = _results_crc(results)
    if task.fault == CORRUPT:
        crc ^= CORRUPT_CRC_MASK
    stats.batch_latencies.append(time.perf_counter() - started)
    return _Reply(job_idx=task.job_idx, results=results, stats=stats, crc=crc)


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


@dataclass
class BatchJob:
    """One program plus the inputs to run through the oracle."""

    program: minic_ast.Program | str
    inputs: list[bytes]
    name: str = ""
    payload: ProgramPayload = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.payload = ProgramPayload.from_program(self.program, name=self.name)


class ParallelEngine:
    """Persistent supervised worker pool executing differential batches.

    The engine returns *raw* per-implementation results; turning them
    into :class:`~repro.core.compdiff.DiffResult` objects (normalization,
    checksumming, grouping) is the caller's job so the serial and
    parallel paths share that code verbatim.  Worker faults are absorbed
    by the supervisor (see module docstring); implementations that could
    not produce a result for an input appear as
    :func:`~repro.vm.execution.deadline_result` placeholders so the
    caller can drop them from the cross-check.
    """

    def __init__(
        self,
        implementations: tuple[CompilerConfig, ...],
        fuel: int,
        workers: int,
        stats: EngineStats | None = None,
        cache_entries: int = 256,
        policy: SupervisorPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        normalizer=None,
    ) -> None:
        if workers < 2:
            raise EngineConfigError(
                f"ParallelEngine needs workers >= 2, got {workers}; use CompDiff serially"
            )
        if not implementations:
            raise EngineConfigError("ParallelEngine needs at least one implementation")
        self.implementations = tuple(implementations)
        self.fuel = fuel
        self.workers = min(int(workers), MAX_WORKERS)
        self.stats = stats if stats is not None else EngineStats()
        self.cache_entries = cache_entries
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.fault_plan = fault_plan
        if normalizer is None:
            from repro.core.normalize import OutputNormalizer

            normalizer = OutputNormalizer()
        self.normalizer = normalizer
        self._seq = 0
        self._supervisor = SupervisedPool(
            processes=self.workers,
            worker_fn=_worker_run,
            initializer=_worker_init,
            initargs=(self.cache_entries, self.normalizer),
            policy=self.policy,
            stats=self.stats,
            fault_plan=self.fault_plan,
            task_label=_task_label,
        )
        #: Quarantine log across this engine's lifetime (newest last).
        self.quarantine_log: list[QuarantineEntry] = []

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Shut the worker pool down (idempotent; also runs via atexit)."""
        self._supervisor.close()

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- batching

    def run_batch(self, jobs: list[BatchJob]) -> list[list[dict[str, ExecutionResult]]]:
        """Execute every job's inputs on every implementation.

        Returns, per job, per input, an implementation-name→result map
        ordered exactly like ``self.implementations`` — the same order
        the serial engine produces — with RQ6 timeout retries applied.
        Implementations dropped by quarantine or per-implementation build
        failure appear as ``Status.DEADLINE`` placeholders; if fewer than
        two implementations survive for a job, a :class:`ReproError` is
        raised (a cross-check needs at least a pair).
        """
        if jobs is None:
            raise EngineConfigError("run_batch needs a list of jobs, got None")
        if not jobs:
            return []
        tasks = self._scatter_tasks(jobs)
        gathered: list[list[dict[str, ExecutionResult]]] = [
            [dict() for _ in job.inputs] for job in jobs
        ]
        self._dispatch(tasks, gathered)
        self._retry_partial_timeouts(jobs, gathered)
        self._check_survivors(jobs, gathered)
        ordered = [
            [self._in_implementation_order(row) for row in job_rows]
            for job_rows in gathered
        ]
        for job in jobs:
            self.stats.inputs_checked += len(job.inputs)
        return ordered

    # -------------------------------------------------------------- internals

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _in_implementation_order(
        self, row: dict[str, ExecutionResult]
    ) -> dict[str, ExecutionResult]:
        return {
            config.name: row[config.name]
            for config in self.implementations
            if config.name in row
        }

    def _scatter_tasks(self, jobs: list[BatchJob]) -> list[_Task]:
        """Split (job × implementation) work into pool-sized units.

        With many jobs each task covers one job across all k
        implementations (coarse, low overhead); with few jobs the k
        implementations are chunked so even a single ``check()`` call
        spreads across the pool.
        """
        chunks_per_job = max(1, math.ceil(self.workers / len(jobs)))
        chunks_per_job = min(chunks_per_job, len(self.implementations))
        impl_chunks = _split_evenly(self.implementations, chunks_per_job)
        tasks = []
        for job_idx, job in enumerate(jobs):
            runs = tuple(
                (input_idx, input_bytes, None)
                for input_idx, input_bytes in enumerate(job.inputs)
            )
            if not runs:
                continue
            for chunk in impl_chunks:
                tasks.append(
                    _Task(
                        seq=self._next_seq(),
                        job_idx=job_idx,
                        payload=job.payload,
                        configs=chunk,
                        base_fuel=self.fuel,
                        runs=runs,
                    )
                )
        return tasks

    def _dispatch(
        self,
        tasks: list[_Task],
        gathered: list[list[dict[str, ExecutionResult]]],
    ) -> None:
        """Run one wave of tasks under supervision and fold in the replies.

        Replies are processed in task-seq order (not arrival order) so
        stats accounting and result assembly stay scheduling-independent.
        Quarantined tasks fill their cells with ``DEADLINE`` placeholders;
        per-implementation failures on healthy workers leave their cells
        absent — the caller drops (and counts) both in
        ``DiffResult.dropped``.
        """
        if not tasks:
            return
        by_seq = {task.seq: task for task in tasks}
        replies, quarantined = self._supervisor.run_tasks(tasks, validate=_validate_reply)
        for seq in sorted(replies):
            reply: _Reply = replies[seq]
            for input_idx, impl_name, result in reply.results:
                gathered[reply.job_idx][input_idx][impl_name] = result
            self.stats.merge(reply.stats)
        for seq in sorted(quarantined):
            entry = quarantined[seq]
            task = by_seq[seq]
            self.quarantine_log.append(entry)
            for config in task.configs:
                placeholder = deadline_result(config.name, entry.reason)
                for input_idx, _input_bytes, _fuel in task.runs:
                    gathered[task.job_idx][input_idx].setdefault(
                        config.name, placeholder
                    )

    def _check_survivors(
        self,
        jobs: list[BatchJob],
        gathered: list[list[dict[str, ExecutionResult]]],
    ) -> None:
        """A cross-check needs >= 2 live implementations per job.

        Degradation below that — every implementation quarantined or
        failing to build (e.g. an unloadable program) — is a hard error,
        matching the serial engine's behavior of raising on front-end
        failures rather than silently reporting "no divergence".
        """
        for job, job_rows in zip(jobs, gathered):
            if not job.inputs:
                continue
            live = {
                name
                for row in job_rows
                for name, result in row.items()
                if not result.deadline_expired
            }
            if len(live) < 2:
                dead = {
                    name: result.stderr.decode("utf-8", "replace")
                    for row in job_rows
                    for name, result in row.items()
                    if result.deadline_expired
                }
                missing = [
                    config.name
                    for config in self.implementations
                    if config.name not in live and config.name not in dead
                ]
                for name in missing:
                    dead.setdefault(name, "no result produced")
                raise ReproError(
                    f"job {job.name or job.payload.key[:12]!r}: fewer than two "
                    f"implementations survived the cross-check: {dead}"
                )

    def _retry_partial_timeouts(
        self,
        jobs: list[BatchJob],
        gathered: list[list[dict[str, ExecutionResult]]],
    ) -> None:
        """RQ6, batched: re-run partial-timeout stragglers with the serial
        engine's exact fuel schedule (×FACTOR per round, up to the cap).

        Only fuel exhaustion (``Status.TIMEOUT``) is retried — cells whose
        wall-clock deadline expired (``Status.DEADLINE``) are dropped from
        the cross-check, never given more fuel."""
        from repro.core.compdiff import TIMEOUT_MAX_RETRIES, TIMEOUT_RETRY_FACTOR

        fuel = self.fuel
        for _ in range(TIMEOUT_MAX_RETRIES):
            fuel *= TIMEOUT_RETRY_FACTOR
            retries: list[_Task] = []
            for job_idx, job in enumerate(jobs):
                by_impl: dict[str, list[tuple[int, bytes, Optional[int]]]] = {}
                for input_idx, row in enumerate(gathered[job_idx]):
                    live = [
                        name for name, result in row.items()
                        if not result.deadline_expired
                    ]
                    timed_out = [name for name in live if row[name].timed_out]
                    if not timed_out or len(timed_out) == len(live):
                        continue
                    for name in timed_out:
                        by_impl.setdefault(name, []).append(
                            (input_idx, job.inputs[input_idx], fuel)
                        )
                for name, runs in by_impl.items():
                    config = next(c for c in self.implementations if c.name == name)
                    retries.append(
                        _Task(
                            seq=self._next_seq(),
                            job_idx=job_idx,
                            payload=job.payload,
                            configs=(config,),
                            base_fuel=self.fuel,
                            runs=tuple(runs),
                        )
                    )
            if not retries:
                return
            self.stats.timeout_retries += sum(len(task.runs) for task in retries)
            self._dispatch(retries, gathered)


def _task_label(task: _Task) -> str:
    configs = ",".join(config.name for config in task.configs)
    return f"{task.payload.name or task.payload.key[:12]}[{configs}]"


def _split_evenly(
    items: tuple[CompilerConfig, ...], chunks: int
) -> list[tuple[CompilerConfig, ...]]:
    """Split *items* into *chunks* contiguous, size-balanced groups."""
    if chunks < 1:
        raise EngineConfigError(f"cannot split into {chunks} chunks")
    if not items:
        raise EngineConfigError("cannot split an empty implementation set")
    quotient, remainder = divmod(len(items), chunks)
    out = []
    start = 0
    for index in range(chunks):
        size = quotient + (1 if index < remainder else 0)
        if size == 0:
            continue
        out.append(tuple(items[start : start + size]))
        start += size
    return out
