"""Decode-once lockstep execution: the throughput fast path.

The oracle costs "roughly 10×" a single execution (§5) because every
input re-walks each implementation's IR through the reference
:class:`~repro.vm.machine.Machine`: per instruction that is a dict
dispatch, several ``isinstance`` operand probes, and a handful of
attribute loads that never change between runs.  This module pays that
cost once per *binary* instead of once per *execution*: each function is
decoded into a flat instruction table of ``(step, instr)`` pairs whose
step callables have operand register indices, frame-slot offsets, global
addresses, and integer-op semantics pre-resolved, plus a
``block_offsets`` map from labels to flat indices.  A
:class:`LockstepMachine` then runs any number of inputs from the decoded
form; each :class:`~repro.vm.forkserver.ForkServer` decodes its binary
once and runs every input this way, and the oracle
(:meth:`repro.core.compdiff.CompDiff.run_input`) drives one input
through its k servers back to back.

Byte-identity with the reference interpreter is the contract, not a
goal: specialized steps are only emitted for unsanitized binaries and
for operations whose reference semantics are trap-free; everything else
(division, float arithmetic, calls, builtins, returns, and every
instruction of a sanitized binary) executes through the *same* unbound
``Machine._op_*`` handlers the reference dispatch table uses.  Fuel is
kept as a machine attribute — builtins charge per-byte fuel on the
machine directly — and the per-instruction ordering (advance, count,
burn fuel, check timeout, dispatch) matches ``Machine._loop`` exactly,
so fuel-timeout boundaries land on the same instruction.

A coverage-instrumented binary (the fuzzer's B_fuzz) records the same
AFL edges as the reference: its ``Jump`` and ``Branch`` decode into
steps that carry the target block's coverage id, looked up once at
decode time, and :meth:`LockstepMachine._push_call` records the
callee-entry edge.  ``ForkServer`` therefore runs every execution,
coverage runs included, from the decoded form; only line tracing
(``localize``) stays on the reference machine.  Set
``REPRO_VERIFY_LOCKSTEP=1`` to cross-check every ForkServer execution,
edge trace included, against the reference machine (see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import operator
import struct
from typing import Callable

from repro.compiler.binary import CompiledBinary
from repro.errors import VMError
from repro.ir.instructions import (
    AddrGlobal,
    AddrSlot,
    BinOp,
    Branch,
    BugSite,
    Call,
    Cast,
    Const,
    Jump,
    Load,
    Move,
    Reg,
    Store,
    UnOp,
)
from repro.minic.types import FloatType, IntType, PointerType
from repro.vm.execution import ExecutionResult, collect_result
from repro.vm.machine import (
    DEFAULT_FUEL,
    Machine,
    _cast_value,
    _DISPATCH,
    _Frame,
    _Timeout,
    _U64,
)
from repro.vm.memory import ImageLayout, MemTrap, SanitizerStop

_CMP_FNS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


def _int_op_fn(op: str, itype: IntType) -> Callable | None:
    """Pre-bound trap-free integer semantics, exactly ``Machine._int_binop``.

    ``IntType.wrap`` is inlined here (mask, then signed range adjust) so
    the hot arithmetic closures do pure local integer ops.  Returns None
    for ops with trap paths (division/remainder) — those run through the
    generic handler so ubsan/sigfpe behavior stays shared.
    """
    bits = itype.bits
    mask = (1 << bits) - 1
    span = 1 << bits
    maxv = itype.max_value
    signed = itype.signed

    def _arith(raw: Callable) -> Callable:
        if signed:
            def go(a, b, _f=raw, _m=mask, _x=maxv, _s=span):
                v = _f(int(a), int(b)) & _m
                return v - _s if v > _x else v

        else:
            def go(a, b, _f=raw, _m=mask):
                return _f(int(a), int(b)) & _m

        return go

    if op == "add":
        return _arith(operator.add)
    if op == "sub":
        return _arith(operator.sub)
    if op == "mul":
        return _arith(operator.mul)
    if op == "and":
        return _arith(operator.and_)
    if op == "or":
        return _arith(operator.or_)
    if op == "xor":
        return _arith(operator.xor)
    # x86-style masked shift counts (one legal UB outcome), as in the
    # reference; the ubsan invalid-shift check only exists under ubsan,
    # and sanitized binaries never reach these specializations.
    if op == "shl":
        return _arith(lambda a, b, _b=bits: a << (b % _b))
    if op == "lshr":
        return _arith(lambda a, b, _b=bits, _m=mask: (a & _m) >> (b % _b))
    if op == "ashr":
        if signed:
            def ashr_raw(a, b, _b=bits, _m=mask, _x=maxv, _s=span):
                w = a & _m
                if w > _x:
                    w -= _s
                return w >> (b % _b)

            return _arith(ashr_raw)
        return _arith(lambda a, b, _b=bits, _m=mask: (a & _m) >> (b % _b))
    base = op[1:] if op and op[0] in "su" else op
    cmp_fn = _CMP_FNS.get(base)
    if cmp_fn is not None and (op in ("eq", "ne") or op[0] in "su"):
        if op[0] == "u" or not signed:
            def go(a, b, _c=cmp_fn, _m=mask):
                return int(_c(int(a) & _m, int(b) & _m))

        else:
            def go(a, b, _c=cmp_fn, _m=mask, _x=maxv, _s=span):
                x = int(a) & _m
                if x > _x:
                    x -= _s
                y = int(b) & _m
                if y > _x:
                    y -= _s
                return int(_c(x, y))

        return go
    return None


def _transfer_step(target: str, label_ids, generic: Callable) -> Callable:
    """An unconditional transfer to block *target*.

    With ``label_ids`` (a coverage-instrumented binary) the step is
    ``Machine._enter_block`` with the target's coverage id resolved at
    decode time; whether a run carries a map is a per-run property, so
    the step checks ``machine.coverage``.
    """
    if label_ids is None:
        def step(machine, frame, arg, _t=target):
            frame.label = _t
            return True

        return step
    target_id = label_ids.get(target)
    if target_id is None:
        return generic  # no such block: the reference raises

    def step(machine, frame, arg, _t=target, _id=target_id):
        frame.label = _t
        coverage = machine.coverage
        if coverage is not None:
            coverage.record_edge(machine._prev_location, _id)
            machine._prev_location = _id
        return True

    return step


def _decode_instr(instr, layout: ImageLayout, frame_layout, sanitized: bool, label_ids):
    """One instruction → one step callable ``(machine, frame, instr) -> ...``.

    A non-None return from a step signals a control transfer, mirroring
    the reference dispatch protocol.  ``label_ids`` maps the function's
    block labels to coverage ids when the binary is coverage-instrumented
    (None otherwise); ``Jump`` and ``Branch`` then record AFL edges.
    """
    kind = type(instr)
    generic = _DISPATCH.get(kind)
    if generic is None:
        def unhandled(machine, frame, arg):
            raise VMError(f"unhandled instruction {arg!r}")

        return unhandled
    if sanitized:
        # msan/ubsan/asan consult taint bits and insert checks on the hot
        # path; the reference handlers already encode all of it.
        return generic

    if kind is Const:
        def step(machine, frame, arg, _d=instr.dst.id, _v=instr.value):
            frame.regs[_d] = _v

        return step

    if kind is Move:
        if isinstance(instr.src, Reg):
            def step(machine, frame, arg, _d=instr.dst.id, _s=instr.src.id):
                frame.regs[_d] = frame.regs[_s]
        else:
            def step(machine, frame, arg, _d=instr.dst.id, _v=instr.src):
                frame.regs[_d] = _v

        return step

    if kind is AddrSlot:
        offset = None if frame_layout is None else frame_layout.offsets.get(instr.slot)
        if offset is None:
            return generic

        def step(machine, frame, arg, _d=instr.dst.id, _o=offset):
            frame.regs[_d] = frame.base + _o

        return step

    if kind is AddrGlobal:
        addr = layout.global_addrs.get(instr.name)
        if addr is None:
            return generic

        def step(machine, frame, arg, _d=instr.dst.id, _a=addr):
            frame.regs[_d] = _a

        return step

    if kind is Load:
        # Inlines read_scalar → read → _locate for unsanitized binaries:
        # the asan poison probe is a no-op without asan, and the wrap of
        # the loaded integer becomes local mask arithmetic.  MemTrap
        # semantics stay in Memory._locate.
        value_type = instr.type if not isinstance(instr.type, PointerType) else _U64
        a_reg = instr.addr.id if isinstance(instr.addr, Reg) else None
        a_const = None if a_reg is not None else int(instr.addr)
        if isinstance(value_type, IntType):
            size = max(value_type.size(), 1)
            mask = (1 << value_type.bits) - 1
            span = 1 << value_type.bits
            maxv = value_type.max_value
            signed = value_type.signed

            def step(
                machine, frame, arg,
                _d=instr.dst.id, _ar=a_reg, _ac=a_const, _n=size, _l=instr.line,
                _m=mask, _x=maxv, _sp=span, _sg=signed,
            ):
                addr = int(frame.regs[_ar]) if _ar is not None else _ac
                seg, off = machine.memory._locate(addr, _n, _l)
                v = int.from_bytes(seg[off:off + _n], "little") & _m
                if _sg and v > _x:
                    v -= _sp
                frame.regs[_d] = v

            return step
        if isinstance(value_type, FloatType):
            size = max(value_type.size(), 1)
            fmt = "<f" if value_type.bits == 32 else "<d"

            def step(
                machine, frame, arg,
                _d=instr.dst.id, _ar=a_reg, _ac=a_const, _n=size, _l=instr.line,
                _fmt=fmt, _unpack=struct.unpack,
            ):
                addr = int(frame.regs[_ar]) if _ar is not None else _ac
                seg, off = machine.memory._locate(addr, _n, _l)
                frame.regs[_d] = _unpack(_fmt, seg[off:off + _n])[0]

            return step
        return generic

    if kind is Store:
        value_type = instr.type if not isinstance(instr.type, PointerType) else _U64
        a_reg = instr.addr.id if isinstance(instr.addr, Reg) else None
        a_const = None if a_reg is not None else int(instr.addr)
        s_reg = instr.src.id if isinstance(instr.src, Reg) else None
        s_const = None if s_reg is not None else instr.src
        if isinstance(value_type, IntType):
            size = value_type.size()
            mask = (1 << value_type.bits) - 1

            def step(
                machine, frame, arg,
                _ar=a_reg, _ac=a_const, _sr=s_reg, _sc=s_const,
                _n=size, _l=instr.line, _m=mask,
            ):
                addr = int(frame.regs[_ar]) if _ar is not None else _ac
                value = frame.regs[_sr] if _sr is not None else _sc
                raw = (int(value) & _m).to_bytes(_n, "little")
                seg, off = machine.memory._locate(addr, _n, _l)
                seg[off:off + _n] = raw

            return step
        if isinstance(value_type, FloatType):
            size = value_type.size()
            fmt = "<f" if value_type.bits == 32 else "<d"

            def step(
                machine, frame, arg,
                _ar=a_reg, _ac=a_const, _sr=s_reg, _sc=s_const,
                _n=size, _l=instr.line, _fmt=fmt, _pack=struct.pack,
            ):
                addr = int(frame.regs[_ar]) if _ar is not None else _ac
                value = frame.regs[_sr] if _sr is not None else _sc
                try:
                    raw = _pack(_fmt, float(value))
                except OverflowError:
                    raw = _pack(_fmt, float("inf") if value > 0 else float("-inf"))
                seg, off = machine.memory._locate(addr, _n, _l)
                seg[off:off + _n] = raw

            return step
        return generic

    if kind is Cast:
        if isinstance(instr.src, Reg):
            from_type, to_type = instr.from_type, instr.to_type
            if isinstance(to_type, IntType) and not isinstance(from_type, FloatType):
                # int → int: to_type.wrap inlined.
                mask = (1 << to_type.bits) - 1
                span = 1 << to_type.bits
                maxv = to_type.max_value
                signed = to_type.signed

                def step(
                    machine, frame, arg,
                    _d=instr.dst.id, _s=instr.src.id,
                    _m=mask, _x=maxv, _sp=span, _sg=signed,
                ):
                    v = int(frame.regs[_s]) & _m
                    if _sg and v > _x:
                        v -= _sp
                    frame.regs[_d] = v

                return step
            if isinstance(to_type, FloatType):
                if to_type.bits == 32:
                    def step(
                        machine, frame, arg,
                        _d=instr.dst.id, _s=instr.src.id,
                        _pack=struct.pack, _unpack=struct.unpack,
                    ):
                        frame.regs[_d] = _unpack(
                            "<f", _pack("<f", float(frame.regs[_s]))
                        )[0]
                else:
                    def step(machine, frame, arg, _d=instr.dst.id, _s=instr.src.id):
                        frame.regs[_d] = float(frame.regs[_s])

                return step

            def step(
                machine, frame, arg,
                _d=instr.dst.id, _s=instr.src.id,
                _ft=from_type, _tt=to_type,
            ):
                frame.regs[_d] = _cast_value(frame.regs[_s], _ft, _tt)
        else:
            folded = _cast_value(instr.src, instr.from_type, instr.to_type)

            def step(machine, frame, arg, _d=instr.dst.id, _v=folded):
                frame.regs[_d] = _v

        return step

    if kind is UnOp:
        if instr.op in ("neg", "not") and isinstance(instr.type, IntType):
            wrap = instr.type.wrap
            if isinstance(instr.src, Reg):
                if instr.op == "neg":
                    def step(machine, frame, arg, _d=instr.dst.id, _s=instr.src.id, _w=wrap):
                        frame.regs[_d] = _w(-int(frame.regs[_s]))
                else:
                    def step(machine, frame, arg, _d=instr.dst.id, _s=instr.src.id, _w=wrap):
                        frame.regs[_d] = _w(~int(frame.regs[_s]))
            else:
                folded = (
                    wrap(-int(instr.src)) if instr.op == "neg" else wrap(~int(instr.src))
                )

                def step(machine, frame, arg, _d=instr.dst.id, _v=folded):
                    frame.regs[_d] = _v

            return step
        if instr.op == "fneg":
            if isinstance(instr.src, Reg):
                def step(machine, frame, arg, _d=instr.dst.id, _s=instr.src.id):
                    frame.regs[_d] = -float(frame.regs[_s])
            else:
                folded = -float(instr.src)

                def step(machine, frame, arg, _d=instr.dst.id, _v=folded):
                    frame.regs[_d] = _v

            return step
        return generic

    if kind is BinOp:
        if isinstance(instr.type, FloatType) or instr.op[0] == "f":
            return generic  # float semantics depend on config rounding mode
        if not isinstance(instr.type, IntType):
            return generic
        op_fn = _int_op_fn(instr.op, instr.type)
        if op_fn is None:
            return generic  # division/remainder: trap paths stay shared
        lhs, rhs = instr.lhs, instr.rhs
        if isinstance(lhs, Reg) and isinstance(rhs, Reg):
            def step(machine, frame, arg, _d=instr.dst.id, _l=lhs.id, _r=rhs.id, _f=op_fn):
                frame.regs[_d] = _f(frame.regs[_l], frame.regs[_r])
        elif isinstance(lhs, Reg):
            def step(machine, frame, arg, _d=instr.dst.id, _l=lhs.id, _v=rhs, _f=op_fn):
                frame.regs[_d] = _f(frame.regs[_l], _v)
        elif isinstance(rhs, Reg):
            def step(machine, frame, arg, _d=instr.dst.id, _v=lhs, _r=rhs.id, _f=op_fn):
                frame.regs[_d] = _f(_v, frame.regs[_r])
        else:
            folded = op_fn(lhs, rhs)

            def step(machine, frame, arg, _d=instr.dst.id, _v=folded):
                frame.regs[_d] = _v

        return step

    if kind is BugSite:
        def step(machine, frame, arg, _s=instr.site):
            machine.bug_sites.add(_s)

        return step

    if kind is Jump:
        return _transfer_step(instr.target, label_ids, generic)

    if kind is Branch:
        if not isinstance(instr.cond, Reg):
            target = instr.if_true if instr.cond else instr.if_false
            return _transfer_step(target, label_ids, generic)
        if label_ids is not None:
            true_id = label_ids.get(instr.if_true)
            false_id = label_ids.get(instr.if_false)
            if true_id is None or false_id is None:
                return generic

            def step(
                machine, frame, arg,
                _c=instr.cond.id, _t=instr.if_true, _e=instr.if_false,
                _ti=true_id, _ei=false_id,
            ):
                if frame.regs[_c]:
                    frame.label, cur = _t, _ti
                else:
                    frame.label, cur = _e, _ei
                coverage = machine.coverage
                if coverage is not None:
                    coverage.record_edge(machine._prev_location, cur)
                    machine._prev_location = cur
                return True

            return step

        def step(
            machine, frame, arg,
            _c=instr.cond.id, _t=instr.if_true, _e=instr.if_false,
        ):
            frame.label = _t if frame.regs[_c] else _e
            return True

        return step

    if kind is Call:
        # Marshal arguments with pre-resolved operand kinds; frame push
        # (depth check, param wrap, layout) stays in _push_call.  Taint
        # is always False without msan.
        plan = tuple(
            (a.id, None) if isinstance(a, Reg) else (None, a) for a in instr.args
        )

        def step(
            machine, frame, arg,
            _plan=plan, _callee=instr.callee, _dst=instr.dst, _l=instr.line,
        ):
            regs = frame.regs
            machine._push_call(
                _callee,
                [(regs[i], False) if i is not None else (v, False) for i, v in _plan],
                _dst,
                _l,
            )
            return True

        return step

    # Ret / CallBuiltin: frame teardown and I/O machinery stays shared.
    return generic


#: Steps that may touch machine-level counters (fuel via builtins) and so
#: need the loop's local fuel flushed/reloaded around the call.
_GENERIC_STEPS = frozenset(_DISPATCH.values())


class DecodedFunction:
    """One function flattened: blocks concatenated, labels → flat offsets.

    ``code`` holds ``(step, instr, sync)`` triples — ``sync`` marks
    shared reference handlers whose callees may charge fuel on the
    machine.  A ``(None, label, False)`` sentinel follows every block so
    falling off its end raises the same "fell through without
    terminator" error as the reference loop — including when a ``Call``
    is the last instruction and the callee's return resumes the caller
    at the block boundary.
    """

    __slots__ = ("func", "code", "block_offsets")

    def __init__(self, func, code, block_offsets) -> None:
        self.func = func
        self.code = code
        self.block_offsets = block_offsets


def _decode_function(
    func, layout: ImageLayout, sanitized: bool, instrumented: bool
) -> DecodedFunction:
    frame_layout = layout.frames.get(func.name)
    label_ids = (
        {label: layout.label_ids[(func.name, label)] for label in func.blocks}
        if instrumented
        else None
    )
    code: list[tuple] = []
    block_offsets: dict[str, int] = {}
    for label, block in func.blocks.items():
        block_offsets[label] = len(code)
        for instr in block.instrs:
            step = _decode_instr(instr, layout, frame_layout, sanitized, label_ids)
            code.append((step, instr, step in _GENERIC_STEPS))
        code.append((None, label, False))
    return DecodedFunction(func, code, block_offsets)


class DecodedProgram:
    """A binary's IR decoded once, reusable across any number of inputs."""

    __slots__ = ("binary", "layout", "functions", "instruction_count")

    def __init__(self, binary: CompiledBinary, layout: ImageLayout | None = None) -> None:
        self.binary = binary
        self.layout = layout if layout is not None else ImageLayout(binary)
        sanitized = binary.sanitizer is not None
        self.functions = {
            name: _decode_function(
                func, self.layout, sanitized, binary.instrument_coverage
            )
            for name, func in binary.module.functions.items()
        }
        self.instruction_count = sum(
            len(fn.code) for fn in self.functions.values()
        )


class _LFrame(_Frame):
    __slots__ = ("pc", "decoded")


class LockstepMachine(Machine):
    """Reference-semantics interpreter over a :class:`DecodedProgram`.

    Records AFL edges into ``coverage`` exactly as :class:`Machine` does
    when the binary is coverage-instrumented.  Line tracing is not
    supported: ``localize`` runs it on the reference :class:`Machine`.
    """

    def __init__(
        self,
        decoded: DecodedProgram,
        input_bytes: bytes = b"",
        fuel: int = DEFAULT_FUEL,
        coverage=None,
    ) -> None:
        super().__init__(
            decoded.binary,
            input_bytes=input_bytes,
            fuel=fuel,
            layout=decoded.layout,
            coverage=coverage,
        )
        self.decoded = decoded

    def _push_call(self, callee: str, args: list, ret_reg, line: int) -> None:
        # Mirrors Machine._push_call but builds an _LFrame positioned at
        # the callee's decoded entry offset.
        func = self.module.functions.get(callee)
        if func is None:
            raise VMError(f"call to undefined function {callee!r}")
        if len(self._frames) >= 256:
            raise MemTrap("segv", 0, line, "call stack exhausted")
        if self._ubsan and len(args) < len(func.params):
            raise SanitizerStop(
                "function-type-mismatch",
                line,
                f"{callee} expects {len(func.params)} args, got {len(args)}",
            )
        regs = [0] * max(func.num_regs, len(func.params))
        taints = [False] * len(regs) if self._msan else None
        for i, (_, param_type) in enumerate(func.params):
            if i < len(args):
                value, taint = args[i]
            else:
                value, taint = self.config.missing_arg_value, False
            if isinstance(param_type, IntType):
                value = param_type.wrap(int(value))
            regs[i] = value
            if taints is not None:
                taints[i] = taint
        base, frame_layout = self.memory.push_frame(func.name, line)
        frame = _LFrame(func, regs, taints, base, frame_layout, ret_reg)
        decoded = self.decoded.functions[callee]
        offset = decoded.block_offsets.get(func.entry)
        if offset is None:
            raise VMError(f"missing block {func.entry} in {func.name}")
        frame.decoded = decoded
        frame.pc = offset
        self._frames.append(frame)
        if self.coverage is not None:
            cur = self.layout.label_ids[(func.name, func.entry)]
            self.coverage.record_edge(self._prev_location, cur)
            self._prev_location = cur

    def _loop(self) -> None:
        # Per-instruction ordering is the reference loop's, verbatim:
        # advance, count, burn fuel, timeout check, dispatch.  Fuel and
        # the executed counter live in locals; around ``sync`` steps
        # (shared reference handlers — builtins charge per-byte fuel on
        # the machine directly) the local fuel is flushed and reloaded,
        # so timeout boundaries land on exactly the same instruction.
        frames = self._frames
        executed = self.executed
        fuel = self.fuel
        try:
            while frames:
                frame = frames[-1]
                decoded = frame.decoded
                code = decoded.code
                pc = frame.pc
                while True:
                    step, arg, sync = code[pc]
                    if step is None:
                        raise VMError(
                            f"block {arg} fell through without terminator"
                        )
                    pc += 1
                    executed += 1
                    fuel -= 1
                    if fuel <= 0:
                        raise _Timeout()
                    if sync:
                        self.fuel = fuel
                        result = step(self, frame, arg)
                        fuel = self.fuel
                        if result is not None:
                            break
                    elif step(self, frame, arg) is not None:
                        break
                if frames and frames[-1] is frame:
                    # Jump/Branch within the function: resolve the label.
                    offset = decoded.block_offsets.get(frame.label)
                    if offset is None:
                        raise VMError(
                            f"missing block {frame.label} in {frame.func.name}"
                        )
                    frame.pc = offset
                else:
                    # Call pushed a callee (resume after it on return) or
                    # Ret popped this frame (pc write is then inert).
                    frame.pc = pc
        finally:
            self.executed = executed
            self.fuel = fuel


def run_lockstep(
    decoded: DecodedProgram,
    input_bytes: bytes = b"",
    fuel: int = DEFAULT_FUEL,
    coverage=None,
) -> ExecutionResult:
    """Execute one input from decoded form; mirrors :func:`run_binary`."""
    machine = LockstepMachine(
        decoded, input_bytes=input_bytes, fuel=fuel, coverage=coverage
    )
    exit_code, trap, sanitizer_stop = machine.run()
    return collect_result(machine, exit_code, trap, sanitizer_stop)
