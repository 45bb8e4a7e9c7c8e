"""Fault-injection suite: worker recovery must never change verdicts.

Drives the supervised pool (`repro.parallel.supervisor`) through seeded
crash/hang/corrupt schedules (`repro.parallel.faults`) and pins the ISSUE 3
recovery invariants:

* transient faults (crash, hang, corrupted reply) are retried and the
  final verdicts are byte-identical to a fault-free serial run;
* recovery accounting (restarts, retries) is deterministic for a given
  plan — no dependence on worker interleaving;
* poison tasks are quarantined and degrade the affected program's
  cross-check to the surviving k-1 implementations, flagged in the
  ``DiffResult`` rather than aborting the batch;
* wall-clock deadline expiry (``Status.DEADLINE``) is distinguished from
  fuel exhaustion (``Status.TIMEOUT``), so the RQ6 fuel-escalation retry
  never re-runs a hung task.
"""

from __future__ import annotations

import pytest

from repro.compiler import binary as binary_module
from repro.core.compdiff import CompDiff
from repro.errors import EngineConfigError, ReproError
from repro.juliet import build_suite
from repro.parallel import FaultPlan, ParallelEngine, SupervisorPolicy
from repro.parallel.engine import _split_evenly
from repro.parallel.faults import CORRUPT, CRASH, HANG
from repro.vm import ForkServer
from repro.vm.execution import deadline_result

pytestmark = [pytest.mark.parallel, pytest.mark.faults]

#: Small recovery knobs so injected hangs/crashes resolve in well under a
#: second per recovery round instead of the production 30s deadline.
FAST_POLICY = SupervisorPolicy(
    max_attempts=3,
    task_deadline=0.6,
    backoff_base=0.01,
    backoff_max=0.05,
    poll_interval=0.002,
)

#: With 3 jobs and 2 workers the engine scatters exactly one task per job
#: (seqs 0..2).  Seed 3 at rate 0.5 faults seqs 1 and 2 on their first
#: attempt for every fault kind — verified by test_fault_plan_is_pure.
PLAN_SEED = 3
FAULTED_SEQS = {1, 2}


def _corpus() -> list[tuple[str, list[bytes], str]]:
    suite = build_suite(scale=0.002)
    return [
        (case.bad_source, list(case.inputs), case.uid) for case in suite.cases[:3]
    ]


def _outcome_signature(outcome):
    """Everything a verdict consumer can observe, in comparable form."""
    return [
        (
            diff.input,
            diff.checksums,
            diff.observations,
            diff.divergent,
            diff.groups(),
            diff.dropped,
        )
        for diff in outcome.diffs
    ]


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.fixture(scope="module")
def serial_signatures(corpus):
    engine = CompDiff()
    return [_outcome_signature(o) for o in engine.check_batch(corpus)]


def _run_with_plan(corpus, plan, policy=FAST_POLICY):
    with CompDiff(workers=2, policy=policy, fault_plan=plan) as engine:
        outcomes = engine.check_batch(corpus)
        return [_outcome_signature(o) for o in outcomes], engine.stats


def test_fault_plan_is_pure():
    """Decisions depend only on (seed, seq, attempt) — and the module's
    pinned schedule for seed 3 actually faults seqs 1 and 2."""
    for kind, rates in ((CRASH, dict(crash=0.5)), (HANG, dict(hang=0.5)),
                        (CORRUPT, dict(corrupt=0.5))):
        plan = FaultPlan(seed=PLAN_SEED, **rates)
        decisions = {seq: plan.decide(seq, 0) for seq in range(3)}
        assert {seq for seq, d in decisions.items() if d is not None} == FAULTED_SEQS
        assert all(d == kind for d in decisions.values() if d is not None)
        # Pure: re-evaluation never drifts; later attempts are fault-free.
        assert decisions == {seq: plan.decide(seq, 0) for seq in range(3)}
        assert all(plan.decide(seq, 1) is None for seq in range(3))


def test_crash_recovery_preserves_verdicts(corpus, serial_signatures):
    """Workers killed mid-task (os._exit) are restarted and their tasks
    re-dispatched; verdicts match a fault-free serial run exactly."""
    plan = FaultPlan(seed=PLAN_SEED, crash=0.5)
    signatures, stats = _run_with_plan(corpus, plan)
    assert signatures == serial_signatures
    assert stats.worker_restarts >= 1, "crash faults must have fired"
    assert stats.task_retries >= len(FAULTED_SEQS)
    assert stats.quarantined == 0


def test_hang_recovery_preserves_verdicts(corpus, serial_signatures):
    """Hung workers trip the wall-clock stall deadline, the pool is torn
    down to reclaim them, and the re-dispatch reproduces serial verdicts."""
    plan = FaultPlan(seed=PLAN_SEED, hang=0.5)
    signatures, stats = _run_with_plan(corpus, plan)
    assert signatures == serial_signatures
    assert stats.worker_restarts >= 1, "hang faults must have tripped the deadline"
    assert stats.task_retries >= len(FAULTED_SEQS)
    assert stats.quarantined == 0


def test_corrupt_reply_detected_and_retried(corpus, serial_signatures):
    """A reply whose checksum does not match its payload is treated like a
    lost task: re-dispatched, never folded into the verdicts."""
    plan = FaultPlan(seed=PLAN_SEED, corrupt=0.5)
    signatures, stats = _run_with_plan(corpus, plan)
    assert signatures == serial_signatures
    assert stats.task_retries >= len(FAULTED_SEQS), "corrupt faults must have fired"
    assert stats.quarantined == 0


def test_recovery_accounting_is_deterministic(corpus):
    """The same plan over the same corpus yields the same verdicts AND the
    same recovery counters — schedules are seeded, never time-dependent."""
    plan = FaultPlan(seed=PLAN_SEED, crash=0.3, corrupt=0.2)
    first_sigs, first_stats = _run_with_plan(corpus, plan)
    second_sigs, second_stats = _run_with_plan(corpus, plan)
    assert first_sigs == second_sigs
    assert first_stats.worker_restarts == second_stats.worker_restarts
    assert first_stats.task_retries == second_stats.task_retries
    assert first_stats.quarantined == second_stats.quarantined


def test_poison_task_quarantined_with_k1_degradation(corpus, serial_signatures):
    """A task that faults on *every* attempt is quarantined; its chunk of
    implementations is dropped from the cross-check (flagged, k-1) and the
    surviving implementations' verdicts still match the serial run."""
    # One job with 2 workers scatters two impl-chunks: seq 0 covers the
    # first half of the implementations, seq 1 the second.
    policy = SupervisorPolicy(
        max_attempts=2, task_deadline=0.6, backoff_base=0.01,
        backoff_max=0.05, poll_interval=0.002,
    )
    plan = FaultPlan(seed=0, poison={0: CRASH})
    with CompDiff(workers=2, policy=policy, fault_plan=plan) as engine:
        outcome = engine.check_batch(corpus[:1])[0]
        stats = engine.stats
        dropped_expected = tuple(
            config.name for config in engine.implementations[:5]
        )
        quarantine_log = list(engine._engine.quarantine_log)
    assert stats.quarantined == 1
    assert len(quarantine_log) == 1
    assert quarantine_log[0].attempts == policy.max_attempts
    for name in dropped_expected:
        assert stats.degraded.get(name, 0) >= 1
    for diff, serial in zip(outcome.diffs, serial_signatures[0]):
        assert diff.dropped == dropped_expected
        assert diff.degraded
        # Surviving implementations reproduce the serial checksums exactly.
        serial_checksums = serial[1]
        assert set(diff.checksums) == set(serial_checksums) - set(dropped_expected)
        for name, checksum in diff.checksums.items():
            assert checksum == serial_checksums[name]


def test_deadline_cells_are_never_refueled(corpus):
    """Satellite: Status.DEADLINE (wall-clock) is not Status.TIMEOUT
    (fuel), so quarantined cells never trigger RQ6 fuel-escalation."""
    placeholder = deadline_result("gcc-O0", "worker hung")
    assert placeholder.deadline_expired
    assert not placeholder.timed_out  # fuel-only predicate
    assert placeholder.stderr == b"worker hung"
    policy = SupervisorPolicy(
        max_attempts=1, task_deadline=0.6, backoff_base=0.01,
        poll_interval=0.002,
    )
    plan = FaultPlan(seed=0, poison={0: HANG})
    with CompDiff(workers=2, policy=policy, fault_plan=plan) as engine:
        engine.check_batch(corpus[:1])
        # The dropped half produced only DEADLINE placeholders; none may
        # have entered the fuel-retry schedule.
        assert engine.stats.timeout_retries == 0
        assert engine.stats.quarantined == 1


def test_all_implementations_quarantined_is_fatal(corpus):
    """Degradation stops at k-1: losing every implementation for a job is
    a hard error, not a silent 'no divergence' verdict."""
    policy = SupervisorPolicy(
        max_attempts=1, task_deadline=0.6, backoff_base=0.01,
        poll_interval=0.002,
    )
    plan = FaultPlan(seed=0, poison={0: CRASH, 1: CRASH})
    with CompDiff(workers=2, policy=policy, fault_plan=plan) as engine:
        with pytest.raises(ReproError, match="fewer than two"):
            engine.check_batch(corpus[:1])


# --------------------------------------------------------- degraded accounting

#: The implementation the injected failures below knock out.
FAILING = "gcc-O2"
K1_SOURCE = 'int main(void) { printf("%d\\n", input_size()); return 0; }'
K1_INPUTS = [b"", b"a", b"ab"]


def _fail_execution(monkeypatch):
    run = ForkServer.run

    def failing_run(server, input_bytes, fuel=None, coverage=None):
        if server.binary.config.name == FAILING:
            raise ReproError("injected execution failure")
        return run(server, input_bytes, fuel=fuel, coverage=coverage)

    monkeypatch.setattr(ForkServer, "run", failing_run)


def _fail_compile(monkeypatch):
    compile_module = binary_module.compile_module_instrumented

    def failing_compile(program, config, *args, **kwargs):
        if config.name == FAILING:
            raise ReproError("injected compile failure")
        return compile_module(program, config, *args, **kwargs)

    monkeypatch.setattr(binary_module, "compile_module_instrumented", failing_compile)


def _check_source(engine):
    return engine.check_source(K1_SOURCE, K1_INPUTS, name="k1").diffs


def _build_then_run_inputs(engine):
    """The fuzzer's path: build once, then one oracle call per input."""
    servers = engine.build_source(K1_SOURCE, name="k1")
    return [engine.run_input(servers, data) for data in K1_INPUTS]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "inject, drive",
    [
        (_fail_execution, _check_source),
        (_fail_compile, _check_source),
        (_fail_compile, _build_then_run_inputs),
    ],
    ids=["execution-failure", "compile-failure", "compile-failure-fuzzer-path"],
)
def test_degraded_counts_each_dropped_cell_once(monkeypatch, workers, inject, drive):
    """Both engines count one k-1 drop per (input, implementation) cell
    listed in ``DiffResult.dropped``, whichever way the cell was lost.
    Workers fork after the patch is in place, so they inherit it."""
    inject(monkeypatch)
    with CompDiff(workers=workers) as engine:
        diffs = drive(engine)
        stats = engine.stats
    assert all(FAILING in diff.dropped for diff in diffs)
    assert sum(stats.degraded.values()) == sum(len(diff.dropped) for diff in diffs)


def test_degraded_counts_each_quarantined_cell_once():
    policy = SupervisorPolicy(
        max_attempts=2, task_deadline=0.6, backoff_base=0.01,
        backoff_max=0.05, poll_interval=0.002,
    )
    plan = FaultPlan(seed=0, poison={0: CRASH})
    with CompDiff(workers=2, policy=policy, fault_plan=plan) as engine:
        diffs = _check_source(engine)
        stats = engine.stats
    assert stats.quarantined == 1
    dropped = sum(len(diff.dropped) for diff in diffs)
    assert dropped > 0
    assert sum(stats.degraded.values()) == dropped


# ------------------------------------------------------- validation satellites


def test_supervisor_policy_validation():
    with pytest.raises(EngineConfigError):
        SupervisorPolicy(max_attempts=0)
    with pytest.raises(EngineConfigError):
        SupervisorPolicy(task_deadline=0.0)
    policy = SupervisorPolicy(backoff_base=0.5, backoff_factor=2.0, backoff_max=1.5)
    assert policy.backoff(0) == 0.5
    assert policy.backoff(1) == 1.0
    assert policy.backoff(10) == 1.5  # capped


def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(crash=0.7, hang=0.7)  # rates must sum to <= 1
    with pytest.raises(ValueError):
        FaultPlan(poison={0: "segfault"})  # unknown fault kind


def test_engine_config_validation(corpus):
    implementations = CompDiff().implementations
    with pytest.raises(EngineConfigError):
        ParallelEngine(implementations, fuel=1000, workers=1)
    with pytest.raises(EngineConfigError):
        ParallelEngine((), fuel=1000, workers=2)
    # EngineConfigError doubles as ValueError for backward compatibility.
    assert issubclass(EngineConfigError, ValueError)
    assert issubclass(EngineConfigError, ReproError)
    with ParallelEngine(implementations, fuel=1000, workers=2) as engine:
        with pytest.raises(EngineConfigError):
            engine.run_batch(None)
        assert engine.run_batch([]) == []


def test_split_evenly_validation():
    implementations = CompDiff().implementations
    with pytest.raises(EngineConfigError):
        _split_evenly(implementations, 0)
    with pytest.raises(EngineConfigError):
        _split_evenly((), 2)
    chunks = _split_evenly(implementations, 3)
    assert sum(len(chunk) for chunk in chunks) == len(implementations)
    assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1


def test_job_with_no_inputs_is_a_no_op(corpus):
    src, _inputs, name = corpus[0]
    with CompDiff(workers=2) as engine:
        outcome = engine.check_batch([(src, [], name)])[0]
    assert outcome.diffs == []
    assert not outcome.divergent
