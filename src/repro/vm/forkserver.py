"""Forkserver-style fast repeated execution of one binary.

Real AFL++ injects a forkserver so the target's process image is set up
once and each test case only pays for a fork (§3.2, [26]).  The analog
here: the :class:`~repro.vm.memory.ImageLayout` (global layout, frame
layouts, coverage ids) is computed once per binary, and every ``run``
gets a fresh machine that merely copies the pre-built segment templates.

The forkserver also owns the binary's
:class:`~repro.vm.lockstep.DecodedProgram`: the first execution decodes
the IR into flat pre-resolved instruction tables, and every execution,
with or without a coverage map, runs from that decoded form (later runs
are decode-cache hits).  A coverage-instrumented binary decodes its
jumps and branches into steps that record AFL edges.
``REPRO_VERIFY_LOCKSTEP=1`` replays every run on the reference
:class:`~repro.vm.machine.Machine` and compares the two, coverage trace
included (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os

from repro.compiler.binary import CompiledBinary
from repro.errors import ReproError
from repro.vm.execution import ExecutionResult, run_binary
from repro.vm.lockstep import DecodedProgram, run_lockstep
from repro.vm.machine import DEFAULT_FUEL
from repro.vm.memory import ImageLayout

#: Fields that must agree between the lockstep and reference interpreters
#: under REPRO_VERIFY_LOCKSTEP=1.  ``line_trace`` is excluded (only the
#: reference interpreter traces lines); ``output_checksum`` is transport,
#: not an observation.
_VERIFY_FIELDS = (
    "stdout",
    "stderr",
    "exit_code",
    "status",
    "trap",
    "sanitizer_report",
    "bug_sites",
    "executed_instructions",
)


class ForkServer:
    """Executes many inputs against one binary with shared load-time state."""

    def __init__(
        self,
        binary: CompiledBinary,
        fuel: int = DEFAULT_FUEL,
        stats=None,
    ) -> None:
        self.binary = binary
        self.fuel = fuel
        self.layout = ImageLayout(binary)
        self._verify = os.environ.get("REPRO_VERIFY_LOCKSTEP") == "1"
        #: Optional EngineStats sink for runs and decodes; the counters
        #: below are this server's own.
        self.stats = stats
        self._decoded: DecodedProgram | None = None
        self.executions = 0
        self.decode_hits = 0
        self.decode_misses = 0

    def decoded(self) -> DecodedProgram:
        """The binary's decoded instruction tables, built on first use."""
        decoded = self._decoded
        if decoded is None:
            decoded = self._decoded = DecodedProgram(self.binary, self.layout)
            self.decode_misses += 1
            if self.stats is not None:
                self.stats.decode_misses += 1
        return decoded

    def run(self, input_bytes: bytes, fuel: int | None = None, coverage=None) -> ExecutionResult:
        """Execute one input (the "forked child").

        *coverage* receives the run's AFL edges when the binary is
        coverage-instrumented; callers reset its trace before each run.
        """
        self.executions += 1
        use_fuel = fuel if fuel is not None else self.fuel
        warm = self._decoded is not None
        decoded = self.decoded()
        if warm:
            self.decode_hits += 1
        stats = self.stats
        if stats is not None:
            stats.lockstep_runs += 1
            stats.decode_hits += warm
        result = run_lockstep(
            decoded, input_bytes=input_bytes, fuel=use_fuel, coverage=coverage
        )
        if self._verify:
            self._cross_check(result, input_bytes, use_fuel, coverage)
        return result

    def _cross_check(
        self, result: ExecutionResult, input_bytes: bytes, fuel: int, coverage
    ) -> None:
        # Imported here: repro.fuzzing imports this module.
        from repro.fuzzing.coverage import CoverageMap

        # The reference records into its own map, so the caller's map
        # holds exactly the lockstep run's edges whatever the outcome.
        traced = coverage is not None and self.binary.instrument_coverage
        reference_map = CoverageMap(coverage.size) if traced else None
        reference = run_binary(
            self.binary,
            input_bytes=input_bytes,
            fuel=fuel,
            layout=self.layout,
            coverage=reference_map,
        )
        checks = [
            (field, getattr(result, field), getattr(reference, field))
            for field in _VERIFY_FIELDS
        ]
        if traced:
            checks.append(("coverage trace", coverage.trace, reference_map.trace))
        for field, got, want in checks:
            if got != want:
                raise ReproError(
                    f"lockstep divergence on {self.binary.name}: "
                    f"{field} {got!r} != reference {want!r}"
                )
