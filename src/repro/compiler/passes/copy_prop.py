"""Block-local copy and constant propagation."""

from __future__ import annotations

from repro.ir.instructions import Const, Move, Operand, Reg
from repro.ir.module import Function


def copy_prop(func: Function) -> int:
    """Forward-substitute Move/Const definitions within each block.

    Returns the number of rewritten instructions.  Propagation is
    block-local: registers are not in SSA form, so cross-block propagation
    would need dataflow analysis that this simulator does not require.

    An instruction counts as changed exactly when some register it reads
    is mapped: ``replace_uses`` rewrites every mapped use, and ``env``
    never maps a register to itself.
    """
    changed = 0
    for block in func.blocks.values():
        env: dict[Reg, Operand] = {}
        #: register -> keys of ``env`` whose value was that register, so a
        #: redefinition drops its copies without scanning ``env`` (a key
        #: may since have been remapped; it is checked on use).
        readers: dict[Reg, list[Reg]] = {}
        for instr in block.instrs:
            mapping = {
                use: env[use] for use in instr.uses() if isinstance(use, Reg) and use in env
            }
            if mapping:
                instr.replace_uses(mapping)
                changed += 1
            dst = instr.defines()
            if dst is None:
                continue
            # Any mapping built on the old value of dst is now stale.
            env.pop(dst, None)
            for key in readers.pop(dst, ()):
                if env.get(key) == dst:
                    del env[key]
            if isinstance(instr, Const):
                env[dst] = instr.value
            elif isinstance(instr, Move) and instr.src != dst:
                src = instr.src
                env[dst] = src
                if isinstance(src, Reg):
                    readers.setdefault(src, []).append(dst)
    return changed
