"""The repro benchmark: four fixed-work campaign workloads, measured from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fuzz-tcpdump --seed 7 --seconds 25 --trace 0

``--workload all`` runs the four workloads in turn, one result line each.

Every measurement runs in a fresh process (``python3 -m perfbench.child``)
on the serial engine, with fresh temporary directories under
``.perfbench/`` in the checkout.  One discarded warm-up process comes
first, so no timed run pays for bytecode compilation or a cold page
cache.

``--trace 0`` prints the end-to-end metrics: ``units_per_s`` over the
workload's fixed list of units, ``setup_s`` (median of five processes,
from process start to the first unit) and ``peak_rss_mb`` of the
measured process.  Both times are stated at a reference host speed: the
child samples how fast the host runs a fixed piece of pure-Python work
while it measures (:class:`perfbench.child.HostSpeed`) and scales its
wall times by the reference sample time over the mean sample time, so a
shared host that speeds up or slows down by tens of percent within a
minute moves them far less than it moves wall time, while a change to
the program moves them as it moves wall time.

``--trace 1`` runs the workload once untraced and once with every layer
entry point wrapped (:mod:`perfbench.tracer`) and prints the per-layer
metrics, the wall time of each campaign seed (flagged when slower than
``ShardPolicy``'s default 120 s deadline) and how the deterministic
counts compare with ``expected.json``; the spans go to
``.perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when a unit failed: an exception, a degraded verdict, a skipped
seed, an output check that does not hold, or an identity value that
differs from ``perfbench/expected.json`` (recorded at the default seed;
for workloads whose units do not depend on the seed, at every seed).
The exit code is 1 when a result is not correct, and 2, with no result,
when the checkout has no ``src/repro``.

``--seconds`` is accepted so that every benchmark takes the same
arguments; the units of work are a fixed list per workload (see
:mod:`perfbench.workloads`), never a time box.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.tracer import LAYER_METRICS  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: ``setup_s`` samples per run: probe processes, plus the measured run.
SETUP_PROBES = 4
#: Seconds one child process may take before the run gives up on it.
CHILD_TIMEOUT = 150
#: ``ShardPolicy.seed_deadline``'s default; a slower seed is flagged.
SEED_DEADLINE = 120.0

STATE_DIR = os.path.join(ROOT, ".perfbench")
EXPECTED_PATH = os.path.join(ROOT, "perfbench", "expected.json")


class ChildError(RuntimeError):
    """A child process died, hung, or printed no record."""


def run_child(workload: str, seed: int, mode: str, spans: str | None = None) -> dict:
    """One fresh process for one measurement; returns its record."""
    os.makedirs(os.path.join(STATE_DIR, "runs"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(STATE_DIR, "runs"))
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--workdir", workdir,
    ]
    if spans:
        command += ["--spans", spans]
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} run of {workload} exceeded {CHILD_TIMEOUT} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} run of {workload} failed:\n{proc.stderr[-4000:]}")
    record = json.loads(lines[-1])
    setup_wall = record["first_unit_monotonic"] - spawned - record["setup_sampled_s"]
    record["setup_s"] = setup_wall * record["setup_scale"]
    return record


def recorded(workload: str, seed: int) -> dict | None:
    """``expected.json``'s entry for *workload*, if it applies at *seed*."""
    if seed != DEFAULT_SEED and WORKLOADS[workload].seeded:
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]


def differences(expected: dict, got: dict) -> list[str]:
    return [
        f"{key}: expected {value!r}, got {got.get(key)!r}"
        for key, value in expected.items()
        if got.get(key) != value
    ]


def measure(workload: str, seed: int) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics."""
    setups = [run_child(workload, seed, "probe")["setup_s"] for _ in range(SETUP_PROBES)]
    record = run_child(workload, seed, "measure")
    setups.append(record["setup_s"])
    print(f"perfbench: {workload} units took {record['units_wall_s']:.3f} s, "
          f"{record['units_s']:.3f} s at reference speed; set-up samples "
          + " ".join(f"{value:.3f}" for value in setups), file=sys.stderr)
    metrics = {
        "units_per_s": {"value": record["attempted"] / record["units_s"], "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
    }
    return record, metrics


def trace(workload: str, seed: int) -> tuple[dict, dict]:
    """An untraced and a traced run of the same work: the per-layer metrics."""
    untraced = run_child(workload, seed, "measure")
    traces = os.path.join(STATE_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    spans = os.path.join(traces, f"{workload}-seed{seed}.jsonl")
    traced = run_child(workload, seed, "trace", spans=spans)
    layers = dict(traced["layers"])
    seed_walls = untraced["seed_walls"]
    layers.update({
        "setup.import_s": untraced["import_s"],
        "setup.build_s": untraced["build_s"],
        "seeds.max_s": max(seed_walls, default=0.0),
        "seeds.over_deadline": sum(wall > SEED_DEADLINE for wall in seed_walls),
        "trace.overhead": traced["window_s"] / untraced["window_s"],
    })
    if seed_walls:
        walls = ", ".join(
            f"{wall:.2f}{' (over deadline)' if wall > SEED_DEADLINE else ''}"
            for wall in seed_walls
        )
        print(f"perfbench: {workload} per-seed wall s: {walls}")
    entry = recorded(workload, seed)
    if entry is not None:
        changed = differences(entry["counts"], layers)
        print(f"perfbench: {workload} counts vs recorded baseline: "
              f"{'; '.join(changed) if changed else 'all equal'}")
    if traced["identity"] != untraced["identity"]:
        traced["mismatches"].append("traced and untraced identity values differ")
        traced["failed"] = max(traced["failed"], 1)
    unbound = [name for name, count in traced["bindings"].items() if count == 0]
    if unbound:
        traced["mismatches"].append(f"entry points with no binding: {unbound}")
        traced["failed"] = max(traced["failed"], 1)
    metrics = {
        name: {"value": layers[name], "unit": unit} for name, unit, *_rest in LAYER_METRICS
    }
    return traced, metrics


def run_workload(workload: str, seed: int, traced: bool) -> dict:
    """The result object of one run of *workload*."""
    print(
        f"perfbench: {workload} seed {seed} trace {int(traced)} on "
        f"{os.cpu_count()} CPUs, Python {platform.python_version()}"
    )
    try:
        run_child(workload, seed, "probe")  # warm-up, discarded
        record, metrics = (trace if traced else measure)(workload, seed)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    mismatches = list(record["mismatches"])
    if record["error"]:
        mismatches.append(record["error"])
    else:
        entry = recorded(workload, seed)
        if entry is not None:
            mismatches += differences(entry["identity"], record["identity"])
    failed = record["failed"] or int(bool(mismatches))
    for line in mismatches:
        print(f"perfbench: MISMATCH {workload}: {line}", file=sys.stderr)
    return {
        "correct": not mismatches and failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from a repro checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(name, args.seed, bool(args.trace))
        correct = correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
