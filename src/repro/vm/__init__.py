"""Bytecode virtual machine: the execution substrate.

Runs :class:`~repro.compiler.binary.CompiledBinary` artifacts with a
byte-addressable, segmented memory whose layout is dictated by the binary's
compiler configuration.  The VM itself is deterministic and identical for
all implementations — every cross-implementation divergence originates in
the compiled IR or the configured layout, exactly as on real hardware.
"""

from repro.vm.execution import ExecutionResult, Status, run_binary
from repro.vm.forkserver import ForkServer
from repro.vm.lockstep import (
    DecodedProgram,
    LockstepMachine,
    run_lockstep,
)
from repro.vm.machine import Machine
from repro.vm.memory import ImageLayout, Memory, MemTrap

__all__ = [
    "DecodedProgram",
    "ExecutionResult",
    "ForkServer",
    "ImageLayout",
    "LockstepMachine",
    "Machine",
    "Memory",
    "MemTrap",
    "Status",
    "run_binary",
    "run_lockstep",
]
