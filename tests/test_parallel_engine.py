"""Serial-vs-parallel equivalence for the differential execution engine.

The parallel engine is a pure wall-clock optimization: at any ``workers``
setting the DiffResult checksums, divergent flags, and groups() must be
byte-identical to the serial CompDiff path.  These tests pin that over a
Juliet-derived corpus plus seeded random inputs, ``check_batch``, and
the RQ6 partial-timeout retry schedule, and pin that per-input oracle
calls (``build`` + ``run_input``) stay in-process at any ``workers``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.compdiff import CompDiff
from repro.juliet import build_suite
from repro.minic import load
from repro.parallel import CompileCache, EngineStats, ParallelEngine

pytestmark = pytest.mark.parallel

WORKER_COUNTS = (2, 4)

#: Uninitialized loop bound: implementations that fill uninitialized
#: stack slots differently disagree on the trip count, so at a starved
#: fuel budget some implementations time out while others finish —
#: exactly the RQ6 partial-timeout case.
TIMEOUT_SOURCE = """
int main(void) {
    int bound;
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < bound; i = i + 1) {
        acc = acc + i;
    }
    printf("acc=%d\\n", acc);
    return 0;
}
"""


def _corpus() -> list[tuple[str, list[bytes], str]]:
    """A small mixed corpus: Juliet bad/good pairs + seeded random inputs."""
    suite = build_suite(scale=0.002)
    rng = random.Random(20230325)
    jobs: list[tuple[str, list[bytes], str]] = []
    for case in suite.cases[:4]:
        extra = [bytes(rng.randrange(256) for _ in range(rng.randrange(1, 12)))
                 for _ in range(2)]
        jobs.append((case.bad_source, list(case.inputs) + extra, case.uid + "_bad"))
        jobs.append((case.good_source, list(case.inputs), case.uid + "_good"))
    return jobs


def _outcome_signature(outcome):
    """Everything a verdict consumer can observe, in comparable form."""
    return [
        (diff.input, diff.checksums, diff.observations, diff.divergent, diff.groups())
        for diff in outcome.diffs
    ]


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.fixture(scope="module")
def serial_outcomes(corpus):
    engine = CompDiff()
    return [engine.check_source(src, inputs, name=name) for src, inputs, name in corpus]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_check_source_equivalence(corpus, serial_outcomes, workers):
    with CompDiff(workers=workers) as engine:
        for (src, inputs, name), expected in zip(corpus, serial_outcomes):
            outcome = engine.check_source(src, inputs, name=name)
            assert _outcome_signature(outcome) == _outcome_signature(expected)
            assert outcome.divergent == expected.divergent
            assert outcome.matrix.rows == expected.matrix.rows


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_check_batch_equivalence(corpus, serial_outcomes, workers):
    """One scattered batch matches the serial per-program loop exactly."""
    with CompDiff(workers=workers) as engine:
        outcomes = engine.check_batch(corpus)
    assert len(outcomes) == len(serial_outcomes)
    for outcome, expected in zip(outcomes, serial_outcomes):
        assert _outcome_signature(outcome) == _outcome_signature(expected)


def test_batch_results_keep_implementation_order(corpus):
    with CompDiff(workers=2) as engine:
        outcome = engine.check_batch(corpus[:1])[0]
    expected = [config.name for config in engine.implementations]
    for diff in outcome.diffs:
        assert list(diff.checksums) == expected
        assert list(diff.results) == expected


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_run_input_stays_in_process(corpus, workers):
    """build() + run_input() never dispatch a pool task, whatever
    ``workers`` is, and give the serial engine's results."""
    src, inputs, name = corpus[0]
    serial = CompDiff()
    serial_servers = serial.build(load(src), name=name)
    with CompDiff(workers=workers) as engine:
        servers = engine.build(load(src), name=name)
        assert type(servers) is dict
        for input_bytes in inputs:
            diff = engine.run_input(servers, input_bytes)
            serial_diff = serial.run_input(serial_servers, input_bytes)
            assert diff.checksums == serial_diff.checksums
            assert diff.observations == serial_diff.observations
            assert diff.groups() == serial_diff.groups()
        assert engine.stats.batches == 0
        assert engine.stats.exec_counts == serial.stats.exec_counts


def test_partial_timeout_retry_equivalence():
    """RQ6: the batched engine applies the same fuel-escalation schedule
    as the serial path, so a partial timeout resolves identically."""
    fuel = 260  # enough for some uninit fills to finish, not all
    serial = CompDiff(fuel=fuel)
    expected = serial.check_source(TIMEOUT_SOURCE, [b""], name="rq6")
    statuses = {
        name: result.timed_out
        for name, result in expected.diffs[0].results.items()
    }
    assert any(statuses.values()) and not all(statuses.values()), (
        f"fixture fuel must produce a PARTIAL timeout, got {statuses}"
    )
    for workers in WORKER_COUNTS:
        with CompDiff(fuel=fuel, workers=workers) as engine:
            outcome = engine.check_source(TIMEOUT_SOURCE, [b""], name="rq6")
        assert _outcome_signature(outcome) == _outcome_signature(expected)
        assert engine.stats.timeout_retries == serial.stats.timeout_retries


def test_parallel_stats_are_deterministic(corpus):
    """Execution accounting is scheduling-independent: every implementation
    ran every input exactly once (plus any deterministic retries)."""
    src, inputs, name = corpus[0]
    with CompDiff(workers=2) as engine:
        engine.check_source(src, inputs, name=name)
        stats = engine.stats
    impl_names = [config.name for config in engine.implementations]
    assert stats.inputs_checked == len(inputs)
    assert stats.exec_counts == {name: len(inputs) for name in impl_names}
    # One task per dispatched scatter unit, one latency sample per task.
    assert stats.batches >= 1
    assert len(stats.batch_latencies) == stats.batches


def test_worker_compiles_report_pass_timings(corpus):
    """Worker compiles fold their pass reports into the parent's stats: a
    cold-cache check with no partial timeouts (so every implementation
    compiles exactly once) reports the same pass applications and changes
    serially and in parallel."""
    src, inputs, name = corpus[0]
    serial = CompDiff()
    serial.check_source(src, inputs, name=name)
    assert serial.stats.timeout_retries == 0
    with CompDiff(workers=2) as engine:
        engine.check_source(src, inputs, name=name)

    def applications_and_changes(stats):
        return {pass_name: tuple(row[:2]) for pass_name, row in stats.pass_timings.items()}

    assert applications_and_changes(serial.stats)
    assert applications_and_changes(engine.stats) == applications_and_changes(serial.stats)


def test_engine_rejects_bad_worker_counts():
    with pytest.raises(ValueError):
        CompDiff(workers=0)
    with pytest.raises(ValueError):
        ParallelEngine(CompDiff().implementations, fuel=1000, workers=1)


def test_close_is_idempotent(corpus):
    src, inputs, name = corpus[0]
    engine = CompDiff(workers=2)
    try:
        engine.check_source(src, inputs[:1], name=name)
    finally:
        engine.close()
        engine.close()


def test_parallel_with_compile_cache(corpus):
    """A shared compile cache composes with the worker pool (workers keep
    their own warm caches) and the verdicts never change across repeats."""
    src, inputs, name = corpus[0]
    expected = CompDiff().check_source(src, inputs, name=name)
    cache = CompileCache()
    stats = EngineStats()
    with CompDiff(workers=2, compile_cache=cache, stats=stats) as engine:
        first = engine.check_source(src, inputs, name=name)
        second = engine.check_source(src, inputs, name=name)
    for outcome in (first, second):
        assert _outcome_signature(outcome) == _outcome_signature(expected)
