"""Dead code elimination.

Removes unreachable blocks and pure instructions whose results are never
used.  Divisions are treated as removable even though they can trap:
division by zero is UB, so a compiler may assume the operation cannot fault
and delete it when its result is dead — which is precisely why an unused
``x / y`` crashes a -O0 binary but vanishes from a -O2 binary (the
divide-by-zero rows of Table 3).
"""

from __future__ import annotations

from repro.ir.cfg import remove_unreachable
from repro.ir.instructions import (
    AddrGlobal,
    AddrSlot,
    BinOp,
    Cast,
    Const,
    Instr,
    Load,
    Move,
    Reg,
    UnOp,
)
from repro.ir.module import Function

_PURE = (Const, Move, BinOp, UnOp, Cast, Load, AddrSlot, AddrGlobal)


def dce(func: Function) -> int:
    """Delete dead instructions and unreachable blocks; returns removals."""
    from repro.compiler.passes.mem_forward import eliminate_dead_stores

    removed = remove_unreachable(func)
    removed += eliminate_dead_stores(func)
    # Iterate to a fixpoint: removing one dead instruction can make the
    # operands of another dead.
    while True:
        live = _live_registers(func)
        round_removed = 0
        for block in func.blocks.values():
            kept: list[Instr] = []
            for instr in block.instrs:
                dst = instr.defines()
                if isinstance(instr, _PURE) and dst is not None and dst not in live:
                    round_removed += 1
                    continue
                kept.append(instr)
            block.instrs = kept
        removed += round_removed
        if round_removed == 0:
            return removed


def _live_registers(func: Function) -> set[Reg]:
    """Registers used by any instruction that must be kept.

    Because registers are single-assignment *per lowering site* but not
    SSA, we conservatively mark every use anywhere as live.  Liveness then
    flows backwards through def-use chains: a live register's definitions
    make their operands live.  A worklist visits each register once.
    """
    live: set[Reg] = set()
    #: register -> registers read by the instructions that define it.
    sources: dict[Reg, list[Reg]] = {}
    for block in func.blocks.values():
        for instr in block.instrs:
            regs = [operand for operand in instr.uses() if isinstance(operand, Reg)]
            if not isinstance(instr, _PURE):
                live.update(regs)
            dst = instr.defines()
            if dst is not None and regs:
                sources.setdefault(dst, []).extend(regs)
    worklist = list(live)
    while worklist:
        for operand in sources.get(worklist.pop(), ()):
            if operand not in live:
                live.add(operand)
                worklist.append(operand)
    return live
