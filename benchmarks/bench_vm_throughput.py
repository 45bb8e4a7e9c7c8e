"""T-VM — execution throughput of the differential substrate.

Not a paper artifact — this tracks the three throughput levers the
experiment harnesses stand on (docs/PERFORMANCE.md):

* the decode-once **lockstep executor** vs one-shot ``run_binary``
  on a single binary;
* one full **ten-implementation oracle step** with the lockstep fast
  path vs the reference interpreter (one-shot ``run_binary`` on each
  implementation's binary) — the quantity every campaign's exec/sec
  hangs off;
* **batched engine submission** (one job carrying all inputs of a
  program) vs one single-input job per ``run_batch`` call at the same
  worker count.

Each comparison also records a *deterministic* identity column — the
observations/verdicts must be byte-identical between the fast and the
reference path.  The pytest gate checks those columns plus the
committed baseline's oracle-step speedup floor; the timing columns are
machine-dependent and never asserted (CONTRIBUTING rule 5).

Run directly (``make bench-throughput``) to refresh the committed
baseline::

    python benchmarks/bench_vm_throughput.py   # rewrites BENCH_throughput.json

or through pytest (``python -m pytest benchmarks/bench_vm_throughput.py``),
which re-measures and checks the deterministic columns.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro.compiler import compile_source, implementation
from repro.core.compdiff import CompDiff
from repro.core.hashing import observation_checksum
from repro.minic import load
from repro.parallel.engine import BatchJob, ParallelEngine
from repro.vm import ForkServer, run_binary

from _common import write_result

BASELINE = pathlib.Path(__file__).parent / "BENCH_throughput.json"
ITERATIONS = 2
#: The committed baseline must show at least this oracle-step speedup
#: (the PR-level acceptance floor for the lockstep rearchitecture).
ORACLE_SPEEDUP_FLOOR = 2.0

SOURCE = """
int checksum(char *data, long n) {
    long i;
    int r;
    unsigned int h = 2166136261u;
    for (r = 0; r < 8; r++) {
        for (i = 0; i < n; i++) {
            h = (h ^ (unsigned int)(data[i] & 255)) * 16777619u;
        }
    }
    return (int)(h & 0x7fffffff);
}

int main(void) {
    char buf[128];
    long n = read_input(buf, 128);
    int h = checksum(buf, n);
    printf("h=%d n=%ld\\n", h, n);
    return h % 31;
}
"""

#: Deterministic input sweep: varied contents, campaign-typical lengths.
INPUTS = [bytes((i * 7 + j) % 256 for j in range(64 + i * 4)) for i in range(16)]

#: Batching amortizes per-task submission overhead, so it is measured
#: where that overhead is visible: a short program over short inputs
#: (the generative campaign's modal execution profile).
LIGHT_SOURCE = """
int main(void) {
    unsigned int h = 17u;
    unsigned int i;
    for (i = 0u; i < input_size(); i++) {
        h = h * 31u + (unsigned int)input_byte(i);
    }
    printf("h=%u\\n", h);
    return (int)(h % 31u);
}
"""

LIGHT_INPUTS = [bytes((i * 5 + j) % 256 for j in range(i * 11 % 29)) for i in range(24)]


def _observation(result) -> tuple:
    return (result.stdout, result.stderr, result.exit_code, result.status.value)


def _rate(executions: int, seconds: float) -> float:
    return round(executions / seconds, 2) if seconds > 0 else 0.0


def _measure_single_binary() -> dict:
    binary = compile_source(SOURCE, implementation("gcc-O0"))
    reps = 3

    best_cold = None
    for _ in range(ITERATIONS):
        started = time.perf_counter()
        for _ in range(reps):
            cold = [_observation(run_binary(binary, i)) for i in INPUTS]
        wall = time.perf_counter() - started
        best_cold = wall if best_cold is None else min(best_cold, wall)

    server = ForkServer(binary)
    server.decoded()  # decode outside the timed region, like a campaign
    best_lock = None
    for _ in range(ITERATIONS):
        started = time.perf_counter()
        for _ in range(reps):
            lock = [_observation(server.run(i)) for i in INPUTS]
        wall = time.perf_counter() - started
        best_lock = wall if best_lock is None else min(best_lock, wall)

    executions = reps * len(INPUTS)
    return {
        "inputs": len(INPUTS),
        "one_shot_exec_per_sec": _rate(executions, best_cold),
        "lockstep_exec_per_sec": _rate(executions, best_lock),
        "speedup": round(best_cold / best_lock, 2),
        "observations_identical": cold == lock,
    }


def _oracle_checksums(engine: CompDiff) -> list[dict[str, int]]:
    servers = engine.build_source(SOURCE)
    return [
        dict(engine.run_input(servers, i).checksums) for i in INPUTS
    ]


def _reference_checksums(engine: CompDiff) -> list[dict[str, int]]:
    """The oracle step on the reference interpreter: one ``run_binary``
    per implementation, checksummed through the engine's normalizer."""
    servers = engine.build_source(SOURCE)
    return [
        {
            name: observation_checksum(
                engine.normalizer.normalize_observation(
                    run_binary(
                        server.binary, i, fuel=engine.fuel, layout=server.layout
                    ).observation()
                )
            )
            for name, server in servers.items()
        }
        for i in INPUTS
    ]


def _measure_oracle_step() -> dict:
    best_ref = None
    for _ in range(ITERATIONS):
        started = time.perf_counter()
        ref = _reference_checksums(CompDiff())
        wall = time.perf_counter() - started
        best_ref = wall if best_ref is None else min(best_ref, wall)

    best_lock = None
    for _ in range(ITERATIONS):
        started = time.perf_counter()
        lock = _oracle_checksums(CompDiff())
        wall = time.perf_counter() - started
        best_lock = wall if best_lock is None else min(best_lock, wall)

    executions = len(INPUTS) * 10  # ten implementations per oracle step
    return {
        "implementations": 10,
        "inputs": len(INPUTS),
        "reference_exec_per_sec": _rate(executions, best_ref),
        "lockstep_exec_per_sec": _rate(executions, best_lock),
        "speedup": round(best_ref / best_lock, 2),
        "verdicts_identical": ref == lock,
    }


def _measure_batched_submission() -> dict:
    from repro.compiler.implementations import DEFAULT_IMPLEMENTATIONS
    from repro.vm.machine import DEFAULT_FUEL

    program = load(LIGHT_SOURCE)
    # Built before the timed loop: a job fingerprints and pickles its
    # program once, which is set-up, not submission.
    single_jobs = [BatchJob(program, [i], "bench") for i in LIGHT_INPUTS]

    # Scatter tasks are counted per pass: the engine splits a job into
    # implementation chunks, so a job is not one task.
    with ParallelEngine(DEFAULT_IMPLEMENTATIONS, DEFAULT_FUEL, workers=2) as engine:
        best_single = None
        for _ in range(ITERATIONS):
            dispatched = engine.stats.batches
            started = time.perf_counter()
            singles = [engine.run_batch([job])[0][0] for job in single_jobs]
            wall = time.perf_counter() - started
            per_execution_tasks = engine.stats.batches - dispatched
            best_single = wall if best_single is None else min(best_single, wall)

        job = BatchJob(program, list(LIGHT_INPUTS), "bench")
        best_batched = None
        for _ in range(ITERATIONS):
            dispatched = engine.stats.batches
            started = time.perf_counter()
            (batched,) = engine.run_batch([job])
            wall = time.perf_counter() - started
            batched_tasks = engine.stats.batches - dispatched
            best_batched = wall if best_batched is None else min(best_batched, wall)

    identical = [
        {n: _observation(r) for n, r in row.items()} for row in singles
    ] == [
        {n: _observation(r) for n, r in row.items()} for row in batched
    ]
    executions = len(LIGHT_INPUTS) * 10
    return {
        "workers": 2,
        "inputs": len(LIGHT_INPUTS),
        "per_execution_tasks": per_execution_tasks,
        "batched_tasks": batched_tasks,
        "per_execution_exec_per_sec": _rate(executions, best_single),
        "batched_exec_per_sec": _rate(executions, best_batched),
        "speedup": round(best_single / best_batched, 2),
        "results_identical": identical,
    }


def measure() -> dict:
    return {
        "iterations": ITERATIONS,
        "single_binary": _measure_single_binary(),
        "oracle_step": _measure_oracle_step(),
        "batched_submission": _measure_batched_submission(),
    }


def render(data: dict) -> str:
    single = data["single_binary"]
    oracle = data["oracle_step"]
    batch = data["batched_submission"]
    return "\n".join([
        f"T-VM: substrate throughput (best of {data['iterations']}, "
        f"{oracle['inputs']} inputs)",
        "",
        f"single binary:   one-shot {single['one_shot_exec_per_sec']:>8.1f}/s  "
        f"lockstep {single['lockstep_exec_per_sec']:>8.1f}/s  "
        f"{single['speedup']:.2f}x  identical={single['observations_identical']}",
        f"oracle step x10: reference {oracle['reference_exec_per_sec']:>7.1f}/s  "
        f"lockstep {oracle['lockstep_exec_per_sec']:>8.1f}/s  "
        f"{oracle['speedup']:.2f}x  identical={oracle['verdicts_identical']}",
        f"batched submit:  per-exec {batch['per_execution_exec_per_sec']:>8.1f}/s  "
        f"batched  {batch['batched_exec_per_sec']:>8.1f}/s  "
        f"{batch['speedup']:.2f}x  identical={batch['results_identical']}",
    ])


def test_throughput_identity_and_baseline_floor():
    data = measure()
    print("\n" + render(data))
    write_result("throughput.txt", render(data))
    # Deterministic columns: the fast paths must be observationally
    # indistinguishable from the reference paths on this machine, now.
    assert data["single_binary"]["observations_identical"]
    assert data["oracle_step"]["verdicts_identical"]
    assert data["batched_submission"]["results_identical"]
    # Task counts are counted, not timed: they must match the baseline.
    baseline = json.loads(BASELINE.read_text())
    for key in ("per_execution_tasks", "batched_tasks"):
        assert data["batched_submission"][key] == baseline["batched_submission"][key]
    # The committed baseline (refreshed on a quiet machine by
    # `make bench-throughput`) must keep clearing the acceptance floor.
    assert baseline["oracle_step"]["speedup"] >= ORACLE_SPEEDUP_FLOOR
    assert baseline["oracle_step"]["verdicts_identical"]
    assert baseline["single_binary"]["observations_identical"]
    assert baseline["batched_submission"]["results_identical"]


if __name__ == "__main__":
    data = measure()
    BASELINE.write_text(json.dumps(data, indent=2) + "\n")
    write_result("throughput.txt", render(data))
    sys.stdout.write(render(data) + "\n")
    sys.stdout.write(f"\nbaseline written to {BASELINE}\n")
