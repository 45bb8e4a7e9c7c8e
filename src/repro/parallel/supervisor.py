"""Supervised worker pool: deadlines, restarts, bounded retries, quarantine.

:class:`SupervisedPool` wraps a ``multiprocessing`` pool with the failure
handling a days-long campaign needs (ISSUE 3 / Table 4 scale):

* **wall-clock deadlines** — a dispatched wave that makes no progress for
  ``task_deadline`` seconds is declared stalled: whatever finished is
  harvested, the pool is torn down (reclaiming hung workers), and the
  unfinished tasks are re-dispatched.  This is the wall-clock complement
  to the VM's fuel budget: fuel bounds *guest* instructions, the deadline
  bounds *host* time (hung or silently-dead workers produce no fuel
  signal at all);
* **restart + bounded retry with exponential backoff** — failed tasks are
  re-submitted up to ``max_attempts`` times, sleeping
  ``backoff_base * backoff_factor**round`` between recovery rounds;
* **reply integrity** — every reply carries a checksum over its payload;
  a mismatch (corrupted IPC) is treated exactly like a lost task;
* **quarantine** — a task that exhausts its attempts (a *poison* task
  that keeps killing workers) is pulled from the schedule and reported to
  the caller, which degrades that program's cross-check to k-1
  implementations instead of aborting the campaign.

The pool is deliberately *task-agnostic*: tasks only need ``seq`` (a
unique, deterministic integer) and ``fault`` (the injection slot) fields.
Recovery never changes verdicts — a successfully retried task returns the
same reply a fault-free run would have produced, and the caller assembles
results keyed by ``(job, input, implementation)``, not by arrival order.

Fault injection (:mod:`repro.parallel.faults`) hooks in here: the parent
stamps each submission with the plan's decision for ``(seq, attempt)``,
keeping schedules deterministic regardless of worker interleaving.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.errors import EngineConfigError
from repro.parallel.faults import FaultPlan
from repro.parallel.stats import EngineStats


def backoff_delay(
    recovery_round: int, base: float, factor: float, cap: float
) -> float:
    """Exponential backoff with a cap: ``min(cap, base * factor**round)``.

    Shared by the task-level :class:`SupervisorPolicy` and the
    shard-level :class:`repro.campaigns.runtime.ShardPolicy` so both
    recovery layers pace their re-dispatches the same way.
    """
    return min(cap, base * factor**recovery_round)


@dataclass(frozen=True)
class SupervisorPolicy:
    """Recovery knobs for one :class:`SupervisedPool`."""

    #: Dispatch attempts per task before it is quarantined.
    max_attempts: int = 3
    #: Seconds a wave may go without any task completing before it is
    #: declared stalled (worker hang/death).  ``None`` disables deadlines.
    task_deadline: Optional[float] = 30.0
    #: Exponential backoff between recovery rounds, in seconds.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: Readiness poll interval while waiting on a wave.
    poll_interval: float = 0.005

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise EngineConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise EngineConfigError(
                f"task_deadline must be positive or None, got {self.task_deadline}"
            )

    def backoff(self, recovery_round: int) -> float:
        """Sleep before re-dispatching round *recovery_round* (0-based)."""
        return backoff_delay(
            recovery_round, self.backoff_base, self.backoff_factor, self.backoff_max
        )


@dataclass
class QuarantineEntry:
    """One poison task pulled from the schedule after exhausting retries."""

    seq: int
    label: str
    attempts: int
    reason: str


@dataclass
class _TaskState:
    task: object
    attempts: int = 0
    last_reason: str = ""


class SupervisedPool:
    """A restartable worker pool that survives crashes, hangs, and poison.

    The caller supplies the worker function, its initializer, and a
    ``validate(reply) -> str | None`` integrity check; ``run_tasks``
    returns ``(replies_by_seq, quarantined_by_seq)``.  Recovery accounting
    lands in the shared :class:`~repro.parallel.stats.EngineStats`.
    """

    def __init__(
        self,
        processes: int,
        worker_fn: Callable,
        initializer: Callable,
        initargs: tuple,
        policy: SupervisorPolicy | None = None,
        stats: EngineStats | None = None,
        fault_plan: FaultPlan | None = None,
        task_label: Callable[[object], str] = str,
    ) -> None:
        if processes < 1:
            raise EngineConfigError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self.worker_fn = worker_fn
        self.initializer = initializer
        self.initargs = initargs
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.stats = stats if stats is not None else EngineStats()
        self.fault_plan = fault_plan
        self.task_label = task_label
        self._pool = None
        self._atexit_registered = False

    # ------------------------------------------------------------- lifecycle

    def _ensure_pool(self):
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
            context = multiprocessing.get_context(method)
            self._pool = context.Pool(
                processes=self.processes,
                initializer=self.initializer,
                initargs=self.initargs,
            )
            if not self._atexit_registered:
                # Interrupted runs (SIGINT mid-campaign, sys.exit in a CLI
                # path) must not leak worker processes.
                atexit.register(self.close)
                self._atexit_registered = True
        return self._pool

    def close(self) -> None:
        """Terminate the pool (idempotent; safe to call from atexit)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._atexit_registered:
            atexit.unregister(self.close)
            self._atexit_registered = False

    def _restart(self) -> None:
        """Hard-restart the pool, reclaiming hung or dead workers."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self.stats.worker_restarts += 1

    # -------------------------------------------------------------- dispatch

    def run_tasks(
        self, tasks: list, validate: Callable[[object], Optional[str]] | None = None
    ) -> tuple[dict[int, object], dict[int, QuarantineEntry]]:
        """Run *tasks* to completion, recovering from worker faults.

        Returns replies keyed by task ``seq`` plus the quarantine map for
        tasks that exhausted ``max_attempts``.  Raises nothing for worker
        faults — only for caller bugs (duplicate seqs).
        """
        states: dict[int, _TaskState] = {}
        for task in tasks:
            if task.seq in states:
                raise EngineConfigError(f"duplicate task seq {task.seq}")
            states[task.seq] = _TaskState(task=task)
        replies: dict[int, object] = {}
        quarantined: dict[int, QuarantineEntry] = {}
        recovery_round = 0
        pending = set(states)
        while pending:
            wave = [states[seq] for seq in sorted(pending)]
            handles = {}
            pool = self._ensure_pool()
            for state in wave:
                task = state.task
                if self.fault_plan is not None:
                    task = replace(
                        task, fault=self.fault_plan.decide(task.seq, state.attempts)
                    )
                state.attempts += 1
                handles[state.task.seq] = pool.apply_async(self.worker_fn, (task,))
            done, failed = self._gather(handles, validate)
            for seq, reply in done.items():
                replies[seq] = reply
                pending.discard(seq)
            for seq, reason in failed.items():
                state = states[seq]
                state.last_reason = reason
                if state.attempts >= self.policy.max_attempts:
                    pending.discard(seq)
                    quarantined[seq] = QuarantineEntry(
                        seq=seq,
                        label=self.task_label(state.task),
                        attempts=state.attempts,
                        reason=reason,
                    )
                    self.stats.quarantined += 1
                else:
                    self.stats.task_retries += 1
            if failed:
                # A stalled wave may have left hung workers behind and a
                # crashed worker may have poisoned shared pool state;
                # restart unconditionally so the next wave starts clean.
                self._restart()
                if pending:
                    time.sleep(self.policy.backoff(recovery_round))
                    recovery_round += 1
        return replies, quarantined

    def _gather(
        self,
        handles: dict[int, multiprocessing.pool.AsyncResult],
        validate: Callable[[object], Optional[str]] | None,
    ) -> tuple[dict[int, object], dict[int, str]]:
        """Harvest one wave: ready replies, validation, stall detection.

        A worker that crashed mid-task leaves its handle forever
        unready (``multiprocessing.Pool`` respawns the process but drops
        the task), and a hung worker looks identical from the parent —
        both surface as a *stall*: no handle completing for
        ``task_deadline`` seconds.  Progress on any handle resets the
        clock, so deep queues behind a healthy pool never false-positive.
        """
        done: dict[int, object] = {}
        failed: dict[int, str] = {}
        remaining = dict(handles)
        last_progress = time.monotonic()
        while remaining:
            progressed = False
            for seq, handle in list(remaining.items()):
                if not handle.ready():
                    continue
                del remaining[seq]
                progressed = True
                try:
                    reply = handle.get()
                except BaseException as exc:  # worker-raised, re-raised here
                    failed[seq] = f"worker exception: {exc!r}"
                    continue
                reason = validate(reply) if validate is not None else None
                if reason is not None:
                    failed[seq] = reason
                    continue
                done[seq] = reply
            if not remaining:
                break
            now = time.monotonic()
            if progressed:
                last_progress = now
            elif (
                self.policy.task_deadline is not None
                and now - last_progress > self.policy.task_deadline
            ):
                for seq in remaining:
                    failed[seq] = (
                        "wall-clock deadline expired (worker hung or died)"
                    )
                break
            time.sleep(self.policy.poll_interval)
        return done, failed
