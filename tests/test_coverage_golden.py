"""Golden coverage gate for the coverage-instrumented fuzz binary B_fuzz.

``tests/golden/coverage_digests.json`` pins, for every simulated target
built as B_fuzz (``FUZZ_CONFIG``, ``instrument_coverage=True``), one
digest per seed input: the sorted AFL edge trace, the executed-instruction
count and the status of the run.  The digests were recorded through the
reference interpreter (``run_binary(..., coverage=CoverageMap())``).
``ForkServer.run`` executes coverage runs on the decoded executor and must
reproduce them, so the fuzzer's queue decisions (``has_new_bits``) and
seed energies (``executed_instructions``) cannot drift.

Regenerate, only after an intended change to the compiler or the targets::

    PYTHONPATH=src python tests/test_coverage_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.compiler import FUZZ_CONFIG, compile_source
from repro.fuzzing import CoverageMap, FuzzerOptions
from repro.targets import build_target, target_names
from repro.vm import ForkServer, run_binary

GOLDEN = pathlib.Path(__file__).parent / "golden" / "coverage_digests.json"

#: The campaign's default per-execution instruction budget.
FUEL = FuzzerOptions().fuel


def coverage_digest(trace: dict[int, int], result) -> str:
    """Digest of one coverage run: edge hit counts, instruction count, status."""
    payload = json.dumps(
        [sorted(trace.items()), result.executed_instructions, result.status.value]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def fuzz_binaries():
    """(target name, B_fuzz binary, seed inputs) for every simulated target."""
    for name in target_names():
        target = build_target(name)
        binary = compile_source(
            target.source, FUZZ_CONFIG, name=name, instrument_coverage=True
        )
        yield name, binary, target.seeds


def reference_digests() -> dict[str, list[str]]:
    """The digests as the reference interpreter produces them."""
    digests = {}
    for name, binary, seeds in fuzz_binaries():
        digests[name] = []
        for seed in seeds:
            coverage = CoverageMap()
            result = run_binary(binary, seed, fuel=FUEL, coverage=coverage)
            digests[name].append(coverage_digest(coverage.trace, result))
    return digests


@pytest.fixture(scope="module")
def golden():
    data = json.loads(GOLDEN.read_text())
    assert data["fuel"] == FUEL
    return data["digests"]


def test_golden_file_covers_every_target(golden):
    assert sorted(golden) == sorted(target_names())
    assert all(golden.values())


def test_forkserver_coverage_runs_reproduce_golden_digests(golden):
    mismatches = []
    for name, binary, seeds in fuzz_binaries():
        server = ForkServer(binary, fuel=FUEL)
        coverage = CoverageMap()
        for index, seed in enumerate(seeds):
            coverage.reset_trace()
            result = server.run(seed, coverage=coverage)
            if coverage_digest(coverage.trace, result) != golden[name][index]:
                mismatches.append((name, index))
        # Every run after the first is served from the decode cache.
        assert server.decode_misses == 1 and server.decode_hits == len(seeds) - 1
    assert not mismatches, f"{len(mismatches)} coverage runs drifted: {mismatches[:10]}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({"fuel": FUEL, "digests": reference_digests()}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
