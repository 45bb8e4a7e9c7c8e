"""Hot-block compilation: byte-identity with the reference interpreter.

``repro.vm.hotblocks`` compiles each hot basic block of a decoded binary
into one generated Python function (see its docstring for the rules).
These tests force compilation at a block's first entry (``THRESHOLD``
monkeypatched to 1) so that every eligible block of every program runs
compiled, then hold every observable against ``run_binary``: outputs,
status, trap, sanitizer report, bug sites, ``executed_instructions``
(which carries the fuel-timeout boundary and the trapping instruction)
and, for coverage builds, the AFL edge trace.
"""

from __future__ import annotations

import struct

import pytest

from repro.compiler import FUZZ_CONFIG, SANITIZER_CONFIG, compile_source
from repro.compiler.implementations import DEFAULT_IMPLEMENTATIONS, implementation
from repro.fuzzing import CompDiffFuzzer, CoverageMap, FuzzerOptions
from repro.ir.instructions import Const, Jump, Reg
from repro.juliet import build_suite
from repro.minic.types import DOUBLE, INT
from repro.parallel.stats import EngineStats
from repro.vm import DecodedProgram, ForkServer, hotblocks, run_binary, run_lockstep
from repro.vm.execution import Status
from repro.vm.memory import ImageLayout, MemTrap, SanitizerStop

from tests.test_lockstep import IDENTITY_FIELDS, assert_identical, golden_corpus

#: Every build of a program the sweep runs: the ten implementations,
#: the three sanitizers on their configuration, and B_fuzz with and
#: without asan (coverage runs, where the edge trace must match too).
BUILDS = (
    *((config, None, False) for config in DEFAULT_IMPLEMENTATIONS),
    *((SANITIZER_CONFIG, sanitizer, False) for sanitizer in ("asan", "ubsan", "msan")),
    (FUZZ_CONFIG, None, True),
    (FUZZ_CONFIG, "asan", True),
)
INPUTS = (b"", b"AB\x00\xff")
#: The default fuel, then budgets that time out inside short runs.
FUELS = (200_000, 37, 150, 1000)


def sweep(programs: dict[str, str]) -> tuple[int, list]:
    """Run every build of every program on every input and fuel, compiled
    at first entry, against ``run_binary``: (runs, mismatches)."""
    runs, mismatches = 0, []
    for key, source in programs.items():
        for config, sanitizer, instrumented in BUILDS:
            binary = compile_source(
                source, config, name=key,
                sanitizer=sanitizer, instrument_coverage=instrumented,
            )
            layout = ImageLayout(binary)
            decoded = DecodedProgram(binary, layout)
            for payload in INPUTS:
                for fuel in FUELS:
                    lock_map = CoverageMap() if instrumented else None
                    ref_map = CoverageMap() if instrumented else None
                    lock = run_lockstep(decoded, payload, fuel=fuel, coverage=lock_map)
                    ref = run_binary(binary, payload, fuel=fuel, layout=layout, coverage=ref_map)
                    runs += 1
                    context = (key, binary.name, sanitizer, instrumented, payload, fuel)
                    for field in IDENTITY_FIELDS:
                        if getattr(lock, field) != getattr(ref, field):
                            mismatches.append((*context, field))
                    if instrumented and lock_map.trace != ref_map.trace:
                        mismatches.append((*context, "coverage trace"))
    return runs, mismatches


@pytest.fixture
def first_entry(monkeypatch):
    """Compile every eligible block at its first entry."""
    monkeypatch.setattr(hotblocks, "THRESHOLD", 1)


@pytest.fixture(scope="module")
def corpus():
    programs = golden_corpus()
    # It holds the benchmark's juliet-slice programs: the cases of
    # build_suite(scale=0.005) are a prefix of the golden Juliet slice's.
    slice_cases = build_suite(scale=0.005).cases
    assert all(f"juliet/{case.uid}/bad" in programs for case in slice_cases)
    return programs


class TestSweep:
    def test_every_third_program_matches_reference(self, corpus, first_entry):
        keys = sorted(corpus)[::3]
        runs, mismatches = sweep({key: corpus[key] for key in keys})
        assert runs == len(keys) * len(BUILDS) * len(INPUTS) * len(FUELS)
        assert not mismatches, f"{len(mismatches)} diverged: {mismatches[:10]}"

    @pytest.mark.slow
    def test_whole_corpus_matches_reference(self, corpus, first_entry):
        runs, mismatches = sweep(corpus)
        assert not mismatches, f"{len(mismatches)} diverged: {mismatches[:10]}"


def run_both(source, sanitizer=None, config="clang-O0", payload=b"", fuel=200_000):
    binary = compile_source(source, implementation(config), sanitizer=sanitizer)
    layout = ImageLayout(binary)
    decoded = DecodedProgram(binary, layout)
    lock = run_lockstep(decoded, payload, fuel=fuel)
    ref = run_binary(binary, payload, fuel=fuel, layout=layout)
    assert_identical(lock, ref, f"{sanitizer}/{config}/{payload!r}/{fuel}")
    return lock, decoded


@pytest.fixture
def raised_in_blocks(first_entry, monkeypatch):
    """Compile at first entry; collect what compiled blocks raise."""
    raised = []
    build = hotblocks.build

    def spying_build(source):
        run, generated = build(source)

        def spied(machine, frame):
            try:
                return run(machine, frame)
            except (MemTrap, SanitizerStop) as exc:
                raised.append(exc)
                raise

        return spied, generated

    monkeypatch.setattr(hotblocks, "build", spying_build)
    return raised


#: Each program loops long enough to compile its loop blocks, then traps
#: in the middle of a compiled block on the iteration *input_size()*
#: selects.  The reported instruction count pins the trapping position.
REDZONE = """
int main(void) {
  int buf[8];
  int i = 0;
  int n = (int)input_size() + 20;
  while (i < n) { buf[i] = i; i = i + 1; }
  printf("%d", buf[0]);
  return 0;
}
"""

NULL_DEREF = """
int main(void) {
  int x = 5;
  int *p = &x;
  int i = 0;
  int s = 0;
  while (i < 30) {
    if (i == 25) { p = (int *)(long)input_size(); }
    s = s + *p;
    i = i + 1;
  }
  printf("%d", s);
  return 0;
}
"""

OVERFLOW = """
int main(void) {
  int x = 2147483600 - (int)input_size();
  int i = 0;
  while (i < 100) { x = x + 1; i = i + 1; }
  printf("%d", x);
  return 0;
}
"""

SHIFT = """
int main(void) {
  int i = 0;
  int s = 1;
  while (i < 40) { s = s ^ (1 << i); i = i + 1; }
  printf("%d", s);
  return 0;
}
"""

UNINIT_BRANCH = """
int main(void) {
  int buf[40];
  int i = 0;
  int s = 0;
  while (i < 30) { buf[i] = i; i = i + 1; }
  i = 0;
  while (i < 40) { if (buf[i] > 3) { s = s + 1; } i = i + 1; }
  printf("%d", s);
  return 0;
}
"""

SEGV = """
int main(void) {
  int x = 1;
  int *p = &x;
  long i = 0;
  long s = 0;
  while (i < 40) {
    if (i == 30) { p = (int *)(268435456 + (long)input_size()); }
    s = s + *p;
    i = i + 1;
  }
  printf("%ld", s);
  return 0;
}
"""

#: A loop of two short blocks (head and body).
SPIN = """
int main(void) {
  unsigned int i = 0u;
  while (i < 100000000u) { i = i + 1u; }
  printf("%u", i);
  return 0;
}
"""


class TestTraps:
    """One mid-block raise per raise site, each at the reference's count."""

    @pytest.mark.parametrize(
        "source, sanitizer, report",
        [
            (REDZONE, "asan", "stack-buffer-overflow"),
            (NULL_DEREF, "ubsan", "null-pointer-dereference"),
            (OVERFLOW, "ubsan", "signed-integer-overflow"),
            (SHIFT, "ubsan", "invalid-shift"),
            (UNINIT_BRANCH, "msan", "use-of-uninitialized-value"),
        ],
        ids=["asan-redzone", "ubsan-null", "ubsan-overflow", "ubsan-shift", "msan-branch"],
    )
    def test_sanitizer_stop_inside_compiled_block(
        self, raised_in_blocks, source, sanitizer, report
    ):
        lock, _ = run_both(source, sanitizer)
        assert lock.status is Status.SANITIZER
        assert lock.sanitizer_report[0] == report
        [stop] = raised_in_blocks
        assert (stop.kind, stop.line, stop.detail) == lock.sanitizer_report

    @pytest.mark.parametrize("config", ["gcc-O0", "clang-O2"])
    @pytest.mark.parametrize("payload", [b"", b"ab"])
    def test_segv_inside_compiled_block(self, raised_in_blocks, config, payload):
        lock, _ = run_both(SEGV, config=config, payload=payload)
        assert lock.status is Status.CRASH and lock.trap == "segv"
        [trap] = raised_in_blocks
        assert (trap.addr, trap.detail) == (268435456 + len(payload), "unmapped address")

    def test_null_page_segv_without_sanitizer(self, raised_in_blocks):
        lock, _ = run_both(NULL_DEREF)
        assert lock.status is Status.CRASH and lock.trap == "segv"
        [trap] = raised_in_blocks
        assert trap.detail == "null-page access"


class TestFuel:
    @pytest.mark.parametrize("sanitizer", [None, "asan", "ubsan", "msan"])
    def test_timeout_lands_on_every_position_of_a_compiled_loop(self, first_entry, sanitizer):
        # Sweep the fuel across several iterations of the loop, so the
        # budget runs out on every instruction of each loop block, both
        # right after and inside a compiled run.
        binary = compile_source(SPIN, implementation("clang-O0"), sanitizer=sanitizer)
        layout = ImageLayout(binary)
        decoded = DecodedProgram(binary, layout)
        for fuel in range(1, 80):
            lock = run_lockstep(decoded, b"", fuel=fuel)
            ref = run_binary(binary, b"", fuel=fuel, layout=layout)
            assert ref.status is Status.TIMEOUT
            assert_identical(lock, ref, f"fuel={fuel}")
        assert decoded.compiled_instructions > 0


class TestThreshold:
    LOOP = """
int main(void) {
  unsigned int i = 0u;
  while (i < input_size()) { i = i + 1u; }
  printf("%u", i);
  return 0;
}
"""

    def test_block_below_threshold_is_never_compiled(self, monkeypatch):
        monkeypatch.setattr(hotblocks, "THRESHOLD", 6)
        binary = compile_source(self.LOOP, implementation("gcc-O0"))
        decoded = DecodedProgram(binary)
        # A run enters the loop head len(payload) + 1 times, five here:
        # below the threshold, so nothing compiles.
        assert run_lockstep(decoded, b"abcd").stdout == b"4"
        assert decoded.blocks_compiled == 0 and decoded.compiled_instructions == 0
        assert all(
            block.run is None for fn in decoded.functions.values() for block in fn.blocks.values()
        )
        # Entry counts live on the DecodedProgram, so a second run takes
        # them past the threshold.
        assert run_lockstep(decoded, b"abcd").stdout == b"4"
        assert decoded.compiled_instructions > 0

    def test_two_forkservers_on_one_binary_generate_each_block_once(self, first_entry):
        hotblocks.clear_cache()
        binary = compile_source(SPIN, implementation("gcc-O1"), sanitizer="asan")
        first, second = EngineStats(), EngineStats()
        a = ForkServer(binary, fuel=5000, stats=first)
        b = ForkServer(binary, fuel=5000, stats=second)
        assert_identical(a.run(b""), b.run(b""), "two servers")
        assert first.blocks_compiled > 0
        assert second.blocks_compiled == 0
        assert second.compiled_instructions == first.compiled_instructions > 0
        blocks = lambda server: [  # noqa: E731
            block.run for fn in server.decoded().functions.values() for block in fn.blocks.values()
        ]
        assert [run for run in blocks(a) if run] == [run for run in blocks(b) if run]


class TestEligibility:
    def test_float_constants_stay_on_steps(self):
        # Generated source would carry a float as text, and neither
        # repr() nor float.hex() keeps a NaN's sign and payload.
        layout = ImageLayout(compile_source(SPIN, implementation("clang-O0")))
        negative_nan = struct.unpack("<d", bytes.fromhex("000000000000f8ff"))[0]
        for value, value_type, compiles in ((7, INT, True), (negative_nan, DOUBLE, False), (1.5, DOUBLE, False)):
            block = [Const(Reg(0), value, value_type), Jump("next")]
            source = hotblocks.block_source(block, layout, None, None, None, {"next": None})
            assert (source is not None) is compiles, value


class TestObservability:
    def test_fuzz_run_reports_compiled_blocks_and_instructions(self):
        from repro.targets import build_target

        hotblocks.clear_cache()
        target = build_target("tcpdump")
        fuzzer = CompDiffFuzzer(
            target.source, target.seeds,
            FuzzerOptions(rng_seed=1, max_executions=150), name="tcpdump",
        )
        fuzzer.run()
        stats = fuzzer.compdiff.stats
        assert stats.blocks_compiled > 0
        assert stats.compiled_instructions > 0
        text = stats.render()
        executor = next(line for line in text.splitlines() if line.startswith("executor:"))
        assert f"compiled_instructions={stats.compiled_instructions}" in executor
        assert f"blocks_compiled={stats.blocks_compiled}" in executor

    def test_merge_adds_both_counters(self):
        a = EngineStats(blocks_compiled=3, compiled_instructions=40)
        b = EngineStats(blocks_compiled=2, compiled_instructions=7)
        a.merge(b)
        assert (a.blocks_compiled, a.compiled_instructions) == (5, 47)
