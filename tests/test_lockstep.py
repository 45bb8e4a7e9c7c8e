"""Byte-identity gates for the decode-once lockstep executor.

The lockstep fast path (``repro.vm.lockstep``) replaces the reference
:class:`~repro.vm.machine.Machine`'s per-instruction IR walk with flat
pre-decoded instruction tables.  Its contract is strict: for every
binary and input, the lockstep run must be indistinguishable from the
reference run in every observable field — outputs, exit status, trap
kind, sanitizer report, bug sites, and the executed-instruction count
(which the fuel/timeout semantics hang off).  These tests pin that
contract over the full golden compile corpus (385 programs × 10
implementations), over the same corpus built as the coverage-instrumented
fuzz binary B_fuzz (where the AFL edge trace must match too), and over
every terminal status class.  They also exercise the ForkServer (decode
cache for every run, coverage runs included, and the REPRO_VERIFY_LOCKSTEP
audit).
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.compiler import FUZZ_CONFIG, compile_source
from repro.compiler.implementations import DEFAULT_IMPLEMENTATIONS, implementation
from repro.errors import ReproError
from repro.fuzzing import CoverageMap, FuzzerOptions
from repro.juliet import build_suite
from repro.parallel.stats import EngineStats
from repro.vm import DecodedProgram, ForkServer, run_binary, run_lockstep
from repro.vm.execution import ExecutionResult, Status
from repro.vm.memory import ImageLayout

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
#: The fuzzer's per-execution instruction budget for B_fuzz runs.
FUZZ_FUEL = FuzzerOptions().fuel

#: Every observable an oracle verdict can depend on.  ``line_trace`` is
#: excluded by design (only the reference interpreter traces lines, for
#: ``localize``) and ``output_checksum`` is transport filled in by the
#: engine, not the VM.  Coverage runs compare the edge trace as well.
IDENTITY_FIELDS = (
    "stdout",
    "stderr",
    "exit_code",
    "status",
    "trap",
    "sanitizer_report",
    "bug_sites",
    "executed_instructions",
    "binary_name",
)


def assert_identical(lock: ExecutionResult, ref: ExecutionResult, context: str) -> None:
    for field in IDENTITY_FIELDS:
        got, want = getattr(lock, field), getattr(ref, field)
        assert got == want, f"{context}: {field} diverged: {got!r} != {want!r}"


def both_runs(binary, input_bytes: bytes = b"", fuel=None):
    """One reference run and one lockstep run of the same binary."""
    layout = ImageLayout(binary)
    kwargs = {} if fuel is None else {"fuel": fuel}
    ref = run_binary(binary, input_bytes=input_bytes, layout=layout, **kwargs)
    lock = run_lockstep(DecodedProgram(binary, layout), input_bytes=input_bytes, **kwargs)
    return lock, ref


def _load_examples():
    sys.path.insert(0, str(EXAMPLES_DIR))
    try:
        from unstable_code_gallery import EXAMPLES
        from quickstart import LISTING_1
    finally:
        sys.path.pop(0)
    corpus = {
        f"gallery/{i:02d}": src
        for i, (_, src) in enumerate(sorted(EXAMPLES.items()))
    }
    corpus["quickstart/listing1"] = LISTING_1
    return corpus


def golden_corpus() -> dict[str, str]:
    """The golden compile corpus: the examples plus the golden Juliet slice."""
    golden = json.loads((GOLDEN_DIR / "ir_digests.json").read_text())
    programs = _load_examples()
    suite = build_suite(scale=golden["juliet_scale"], seed=golden["juliet_seed"])
    for case in suite.cases:
        programs[f"juliet/{case.uid}/bad"] = case.bad_source
        programs[f"juliet/{case.uid}/good"] = case.good_source
    return programs


@pytest.fixture(scope="module")
def corpus():
    return golden_corpus()


class TestGoldenCorpusIdentity:
    def test_lockstep_matches_reference_over_golden_corpus(self, corpus):
        # The headline gate: 385 programs × 10 implementations, every
        # observable field byte-identical between the two interpreters.
        mismatches = []
        for key, source in corpus.items():
            for config in DEFAULT_IMPLEMENTATIONS:
                binary = compile_source(source, config, name=key)
                lock, ref = both_runs(binary)
                for field in IDENTITY_FIELDS:
                    if getattr(lock, field) != getattr(ref, field):
                        mismatches.append((key, config.name, field))
        assert not mismatches, f"{len(mismatches)} diverged: {mismatches[:10]}"

    def test_lockstep_matches_reference_with_inputs(self, corpus):
        # A smaller sweep with non-empty stdin, exercising the input
        # builtins through both interpreters.
        keys = sorted(corpus)[:25]
        for key in keys:
            for config in (implementation("gcc-O0"), implementation("clang-O3")):
                binary = compile_source(corpus[key], config, name=key)
                for payload in (b"", b"\x00", b"hello", bytes(range(64))):
                    lock, ref = both_runs(binary, input_bytes=payload)
                    assert_identical(lock, ref, f"{key}/{config.name}/{payload!r}")

    def test_coverage_runs_match_reference_over_golden_corpus(self, corpus):
        # Every program built as B_fuzz, with and without asan: the
        # ForkServer's decoded coverage runs must record the reference
        # interpreter's edge trace and agree on every observable.
        mismatches = []
        for key, source in corpus.items():
            for sanitizer in (None, "asan"):
                binary = compile_source(
                    source, FUZZ_CONFIG, name=key,
                    instrument_coverage=True, sanitizer=sanitizer,
                )
                server = ForkServer(binary, fuel=FUZZ_FUEL)
                for payload in (b"", b"AB\x00\xff"):
                    lock_map, ref_map = CoverageMap(), CoverageMap()
                    lock = server.run(payload, coverage=lock_map)
                    ref = run_binary(
                        binary, payload, fuel=FUZZ_FUEL,
                        layout=server.layout, coverage=ref_map,
                    )
                    context = (key, sanitizer, payload)
                    if lock_map.trace != ref_map.trace:
                        mismatches.append((*context, "coverage"))
                    for field in IDENTITY_FIELDS:
                        if getattr(lock, field) != getattr(ref, field):
                            mismatches.append((*context, field))
        assert not mismatches, f"{len(mismatches)} diverged: {mismatches[:10]}"


CRASH_NULL = """
int main(void) {
  int *p = (int *)(long)input_size();
  printf("%d", *p);
  return 0;
}
"""

CRASH_SIGFPE = """
int main(void) {
  int d = (int)input_size();
  printf("%d", 1 / d);
  return 0;
}
"""

CRASH_ABORT = """
int main(void) {
  if (input_size() == 0u) { abort(); }
  return 0;
}
"""

SPIN = """
int main(void) {
  unsigned int i = 0u;
  while (i < 100000000u) { i = i + 1u; }
  printf("%u", i);
  return 0;
}
"""

OOB_WRITE = """
int main(void) {
  int buf[4];
  int i = (int)input_size() + 6;
  buf[i] = 1;
  printf("%d", buf[0]);
  return 0;
}
"""

SIGNED_OVERFLOW = """
int main(void) {
  int x = 2147483647;
  int y = (int)input_size() + 1;
  printf("%d", x + y);
  return 0;
}
"""

DEEP_RECURSION = """
int f(int n) { return f(n + 1); }
int main(void) { printf("%d", f((int)input_size())); return 0; }
"""


class TestStatusParity:
    """Every terminal status class agrees between the interpreters."""

    @pytest.mark.parametrize("impl", ["gcc-O0", "gcc-O2", "clang-O0", "clang-O3"])
    @pytest.mark.parametrize(
        "source", [CRASH_NULL, CRASH_SIGFPE, CRASH_ABORT, DEEP_RECURSION],
        ids=["null-deref", "sigfpe", "abort", "stack-exhaustion"],
    )
    def test_crash_parity(self, source, impl):
        binary = compile_source(source, implementation(impl))
        lock, ref = both_runs(binary)
        assert ref.status is Status.CRASH
        assert_identical(lock, ref, impl)

    @pytest.mark.parametrize("fuel", [1, 2, 3, 5, 10, 17, 100, 1000, 25_000])
    def test_fuel_timeout_parity(self, fuel):
        # The executed-instruction count decides exactly where the budget
        # runs out; any drift between the interpreters shows up here.
        binary = compile_source(SPIN, implementation("gcc-O0"))
        lock, ref = both_runs(binary, fuel=fuel)
        assert ref.status is Status.TIMEOUT
        assert_identical(lock, ref, f"fuel={fuel}")

    @pytest.mark.parametrize(
        "sanitizer,source",
        [("asan", OOB_WRITE), ("ubsan", SIGNED_OVERFLOW), ("msan", OOB_WRITE)],
    )
    def test_sanitizer_parity(self, sanitizer, source):
        # Sanitized binaries take the generic decode path; the report and
        # the ==SAN== stderr line must still match exactly.
        binary = compile_source(source, implementation("clang-O0"), sanitizer=sanitizer)
        lock, ref = both_runs(binary)
        assert_identical(lock, ref, sanitizer)

    def test_ok_with_output_parity(self):
        src = 'int main(void){ printf("out %d\\n", 42); eprintf("err\\n"); return 3; }'
        binary = compile_source(src, implementation("gcc-O1"))
        lock, ref = both_runs(binary)
        assert ref.status is Status.OK and ref.exit_code == 3
        assert_identical(lock, ref, "ok")


class TestForkServerRouting:
    SRC = 'int main(void){ printf("%u", input_size()); return 0; }'
    #: Loops, a conditional branch and a call: every kind of AFL edge.
    BRANCHY = """
int half(int n) { if (n > 2) { return n / 2; } return n; }
int main(void) {
  int total = 0;
  unsigned int i = 0u;
  while (i < input_size()) { total = total + half((int)i); i = i + 1u; }
  printf("%d", total);
  return 0;
}
"""

    def test_decode_cache_hits_and_stats(self):
        stats = EngineStats()
        server = ForkServer(
            compile_source(self.SRC, implementation("gcc-O0")), stats=stats
        )
        for i, payload in enumerate([b"", b"a", b"ab"]):
            assert server.run(payload).stdout == str(i).encode()
        assert server.decode_misses == 1
        assert server.decode_hits == 2
        assert server.executions == 3
        snap = stats.snapshot()["executor"]
        assert snap["lockstep_runs"] == 3
        assert snap["decode_hits"] == 2 and snap["decode_misses"] == 1

    def test_coverage_runs_hit_decode_cache_and_match_reference(self):
        binary = compile_source(self.BRANCHY, FUZZ_CONFIG, instrument_coverage=True)
        server = ForkServer(binary)
        coverage = CoverageMap()
        for payload in (b"", b"a", b"abc", b"abcdef"):
            coverage.reset_trace()
            result = server.run(payload, coverage=coverage)
            reference_map = CoverageMap()
            reference = run_binary(binary, payload, coverage=reference_map)
            assert coverage.trace == reference_map.trace
            assert coverage.trace, "instrumented run recorded no edges"
            assert_identical(result, reference, repr(payload))
        assert server.decode_misses == 1 and server.decode_hits == 3
        assert server.executions == 4

    def test_uninstrumented_binary_ignores_coverage_map(self):
        server = ForkServer(compile_source(self.BRANCHY, implementation("gcc-O0")))
        coverage = CoverageMap()
        server.run(b"abc", coverage=coverage)
        assert coverage.trace == {}

    def test_verify_mode_accepts_identical_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_LOCKSTEP", "1")
        server = ForkServer(compile_source(self.SRC, implementation("clang-O2")))
        assert server.run(b"ab").stdout == b"2"

    def test_verify_mode_rejects_divergence(self, monkeypatch):
        import repro.vm.forkserver as forkserver_mod

        monkeypatch.setenv("REPRO_VERIFY_LOCKSTEP", "1")
        server = ForkServer(compile_source(self.SRC, implementation("gcc-O0")))

        def tampered(decoded, input_bytes, fuel, coverage=None):
            result = run_lockstep(
                decoded, input_bytes=input_bytes, fuel=fuel, coverage=coverage
            )
            result.stdout = result.stdout + b"!"
            return result

        monkeypatch.setattr(forkserver_mod, "run_lockstep", tampered)
        with pytest.raises(ReproError, match="lockstep divergence"):
            server.run(b"")

    def test_verify_mode_checks_coverage_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_LOCKSTEP", "1")
        binary = compile_source(self.BRANCHY, FUZZ_CONFIG, instrument_coverage=True)
        server = ForkServer(binary)
        coverage = CoverageMap()
        server.run(b"abcd", coverage=coverage)
        # The audit's reference replay records into its own map.
        expected = CoverageMap()
        run_binary(binary, b"abcd", coverage=expected)
        assert coverage.trace == expected.trace

    def test_verify_mode_catches_tampered_edge_step(self, monkeypatch):
        import repro.vm.lockstep as lockstep_mod

        monkeypatch.setenv("REPRO_VERIFY_LOCKSTEP", "1")
        binary = compile_source(self.BRANCHY, FUZZ_CONFIG, instrument_coverage=True)
        transfer_step = lockstep_mod._transfer_step

        def off_by_one(target, label_ids, generic):
            shifted = {label: cid + 1 for label, cid in label_ids.items()}
            return transfer_step(target, shifted, generic)

        monkeypatch.setattr(lockstep_mod, "_transfer_step", off_by_one)
        server = ForkServer(binary)
        with pytest.raises(ReproError, match="lockstep divergence.*coverage trace"):
            server.run(b"abc", coverage=CoverageMap())
