"""Hot-block compilation: one generated Python function per hot basic block.

The decoded step table (:mod:`repro.vm.lockstep`) still pays a dispatch
per instruction: a tuple unpack, the fuel bookkeeping and a call into a
step closure.  Once a block of a :class:`~repro.vm.lockstep.DecodedProgram`
has been entered :data:`THRESHOLD` times, :func:`block_source` writes the
whole block as the source of one Python function, with operand register
indices, frame offsets, global addresses, segment bounds, masks, coverage
ids and the block's sanitizer checks as literals, and :func:`build` turns
it into a function with ``compile()``.  ``LockstepMachine._loop`` then
runs that function in place of the block's steps and charges the block's
fuel once.

Byte-identity with the reference :class:`~repro.vm.machine.Machine` is
the contract.  The generated code performs the checks of
``Machine._op_*`` and of ``Memory.read``/``write``/``_check_asan``/
``_locate``/``is_initialized``/``mark_initialized`` in the same order,
raising the same exception with the same kind, line and detail:

* a block compiles only when its body holds integer ``Const``,
  ``Move``, ``AddrSlot``, ``AddrGlobal``, integer or pointer
  ``Load``/``Store``, integer ``BinOp`` other than division and
  remainder, integer ``UnOp``, casts between integers and pointers and
  ``BugSite``, and it ends in ``Jump`` or ``Branch``; calls, builtins,
  returns, float constants and arithmetic, and division stay on the step
  table;
* before every ``raise`` the code stores the 1-based position of the
  raising instruction in ``m._block_pos``, and the loop charges exactly
  that many instructions before it re-raises, so ``executed_instructions``
  matches the reference on every trap;
* the function returns the label of the block it transfers to, after
  recording the AFL edge of a coverage-instrumented binary.

Equal blocks generate equal source, so the functions are shared through a
bounded cache keyed on the source text: every decode of one binary (and
any other binary holding the same block) reuses one function.
"""

from __future__ import annotations

import bisect
import itertools
from collections import OrderedDict
from typing import Callable

from repro.ir.instructions import (
    AddrGlobal,
    AddrSlot,
    BinOp,
    Branch,
    BugSite,
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
from repro.vm.memory import HEAP_SIZE, NULL_PAGE, STACK_SIZE, MemTrap, SanitizerStop

#: Entries into one block before it is compiled.  One module constant so
#: that tests can force compilation at the first entry.
THRESHOLD = 128
#: Generated functions kept for reuse by later decodes (LRU).
CACHE_SIZE = 512

_U64 = IntType(64, signed=False)
#: The range of a comparison result (0 or 1): inside every integer type.
_BOOL = IntType(1, signed=False)

_ARITH = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}
_SHIFTS = ("shl", "lshr", "ashr")
_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_CMP_OPS = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")

#: What every generated function may name besides the builtins.
_NAMESPACE = {
    "MemTrap": MemTrap,
    "SanitizerStop": SanitizerStop,
    "bisect_right": bisect.bisect_right,
}

_cache: OrderedDict[str, Callable] = OrderedDict()
_serial = itertools.count()


class _Unsupported(Exception):
    """The block holds something the generator does not compile."""


def _fits(known: IntType | None, itype: IntType) -> bool:
    """Is every value of range *known* representable in *itype*?"""
    if known is None:
        return False
    if known.signed:
        return itype.signed and known.bits <= itype.bits
    return known.bits < itype.bits or (known.bits == itype.bits and not itype.signed)


def _wrap(expr: str, itype: IntType) -> str:
    """Source for ``itype.wrap(expr)`` (mask, then signed range adjust)."""
    mask = (1 << itype.bits) - 1
    if not itype.signed:
        return f"({expr}) & {mask}"
    half = 1 << (itype.bits - 1)
    return f"((({expr}) + {half}) & {mask}) - {half}"


class _Writer:
    """Writes one block's function body, instruction by instruction.

    Within the block every register write also binds a local ``r<id>``
    (and ``t<id>`` for its msan taint), so later reads in the block skip
    the list lookup.  Per register it tracks what is known of the value
    it holds: a constant, a Python ``int``, or an integer type whose range
    contains it.  Those facts drop ``int()`` calls and wraps that would be
    identities, and fold constant operands at generation time.
    """

    def __init__(self, layout, frame_layout, sanitizer, label_ids, labels) -> None:
        self.layout = layout
        self.frame_layout = frame_layout
        self.asan = sanitizer == "asan"
        self.ubsan = sanitizer == "ubsan"
        self.msan = sanitizer == "msan"
        self.label_ids = label_ids
        self.labels = labels
        self.lines: list[str] = []
        self.uses: set[str] = set()
        self.pos = 0
        self.local: dict[int, str] = {}
        self.taint_local: dict[int, str] = {}
        self.known: dict[int, object] = {}
        self.ints: set[int] = set()
        self.ranges: dict[int, IntType] = {}

    # ----------------------------------------------------------- plumbing

    def emit(self, text: str, depth: int = 0) -> None:
        self.lines.append("    " * (depth + 1) + text)

    def fail(self, exception: str, depth: int) -> None:
        self.emit(f"m._block_pos = {self.pos}", depth)
        self.emit(f"raise {exception}", depth)

    def literal(self, value) -> str:
        # Float constants stay on the steps: neither repr() nor
        # float.hex() round-trips the sign and payload of a NaN.
        if type(value) is int or type(value) is bool:
            return repr(value)
        raise _Unsupported(f"operand {value!r}")

    def value(self, operand) -> str:
        """Source for ``Machine._value(frame, operand)``."""
        if not isinstance(operand, Reg):
            return self.literal(operand)
        if operand.id in self.known:
            return self.literal(self.known[operand.id])
        return self.local.get(operand.id) or f"regs[{operand.id}]"

    def constant(self, operand):
        """The operand's value when known at generation time, else None."""
        if isinstance(operand, Reg):
            return self.known.get(operand.id)
        return operand

    def int_constant(self, operand) -> int | None:
        """``int()`` of the operand's value when known at generation time."""
        value = self.constant(operand)
        if value is None:
            return None
        if type(value) is not int and type(value) is not bool:
            raise _Unsupported(f"int() of {value!r}")
        return int(value)

    def int_value(self, operand) -> str:
        """Source for ``int(Machine._value(frame, operand))``."""
        value = self.int_constant(operand)
        if value is not None:
            return repr(value)
        expr = self.value(operand)
        return expr if operand.id in self.ints else f"int({expr})"

    def range_of(self, operand) -> IntType | None:
        return self.ranges.get(operand.id) if isinstance(operand, Reg) else None

    def wrapped(self, operand, itype: IntType) -> str:
        """Source for ``itype.wrap(int(operand))``."""
        value = self.int_constant(operand)
        if value is not None:
            return repr(itype.wrap(value))
        if _fits(self.range_of(operand), itype):
            return self.int_value(operand)
        return _wrap(self.int_value(operand), itype)

    def taint(self, operand) -> str:
        """Source for ``Machine._taint(frame, operand)`` under msan."""
        if not isinstance(operand, Reg):
            return "False"
        self.uses.add("taints")
        return self.taint_local.get(operand.id) or f"taints[{operand.id}]"

    def set(self, reg: Reg, expr: str, taint: str = "False", *, known=None,
            is_int: bool = False, in_range: IntType | None = None) -> None:
        """``Machine._set``: write the register (and its taint under msan)."""
        name = f"r{reg.id}"
        self.emit(f"regs[{reg.id}] = {name} = {expr}")
        self.local[reg.id] = name
        for facts, fact in ((self.known, known), (self.ranges, in_range)):
            if fact is None:
                facts.pop(reg.id, None)
            else:
                facts[reg.id] = fact
        if is_int or in_range is not None:
            self.ints.add(reg.id)
        else:
            self.ints.discard(reg.id)
        if self.msan:
            self.uses.add("taints")
            tname = f"t{reg.id}"
            self.emit(f"taints[{reg.id}] = {tname} = {taint}")
            self.taint_local[reg.id] = tname

    # ------------------------------------------------------------- memory

    def address(self, operand, line: int, what: str) -> None:
        """Bind ``a`` to the access address; ubsan's null-page check."""
        self.emit(f"a = {self.int_value(operand)}")
        if self.ubsan:
            self.emit(f"if 0 <= a < {NULL_PAGE}:")
            self.fail(f"SanitizerStop('null-pointer-dereference', {line}, {what!r})", 1)

    def check_asan(self, size: int, line: int, write: bool) -> None:
        """``Memory._check_asan`` for ``a``."""
        if not self.asan:
            return
        self.uses.add("poison")
        access = "write" if write else "read"
        self.emit("if poison:")
        self.emit(f"i = bisect_right(starts, a + {size - 1})", 1)
        self.emit("if i:", 1)
        self.emit("s, e, why = poison[i - 1]", 2)
        self.emit(f"if a < e and a + {size} > s:", 2)
        self.fail(f"SanitizerStop(why, {line}, f'{access} at 0x{{a:x}}')", 3)

    def locate(self, size: int, line: int) -> None:
        """``Memory._locate`` for ``a``: binds ``seg``/``o`` (and the msan
        shadow ``sh``), with the segment bounds as literals."""
        self.uses.add("mem")
        config = self.layout.config
        if not self.ubsan:  # ubsan already stopped on the null page
            self.emit(f"if 0 <= a < {NULL_PAGE}:")
            self.fail(f"MemTrap('segv', a, {line}, 'null-page access')", 1)
        segments = (
            ("globals", config.global_base, self.layout.globals_size),
            ("stack", config.stack_base - STACK_SIZE, STACK_SIZE),
            ("heap", config.heap_base, HEAP_SIZE),
        )
        for depth, (name, base, length) in enumerate(segments):
            self.emit(f"o = a - {base}", depth)
            self.emit(f"if 0 <= o <= {length - size}:", depth)
            self.emit(f"seg = mem.{name}", depth + 1)
            if self.msan:
                self.emit(f"sh = mem.shadow_{name}", depth + 1)
            self.emit("else:", depth)
        self.fail(f"MemTrap('segv', a, {line}, 'unmapped address')", len(segments))

    # ------------------------------------------------------- instructions

    def instr(self, instr) -> None:
        kind = type(instr)
        if kind is Const:
            value = instr.value
            self.set(instr.dst, self.literal(value), known=value,
                     is_int=type(value) is int)
        elif kind is Move:
            src = instr.src
            if isinstance(src, Reg):
                self.set(
                    instr.dst, self.value(src), self.taint(src) if self.msan else "False",
                    known=self.known.get(src.id), is_int=src.id in self.ints,
                    in_range=self.ranges.get(src.id),
                )
            else:
                self.set(instr.dst, self.literal(src), known=src, is_int=type(src) is int)
        elif kind is AddrSlot:
            offset = None if self.frame_layout is None else self.frame_layout.offsets.get(instr.slot)
            if offset is None:
                raise _Unsupported("slot without an offset")
            self.uses.add("base")
            self.set(instr.dst, f"base + {offset}", is_int=True)
        elif kind is AddrGlobal:
            addr = self.layout.global_addrs.get(instr.name)
            if addr is None:
                raise _Unsupported("unknown global")
            self.set(instr.dst, repr(addr), known=addr, is_int=True)
        elif kind is Load:
            self.load(instr)
        elif kind is Store:
            self.store(instr)
        elif kind is BinOp:
            self.binop(instr)
        elif kind is Cast:
            self.cast(instr)
        elif kind is UnOp:
            self.unop(instr)
        elif kind is BugSite:
            self.emit(f"m.bug_sites.add({instr.site!r})")
        else:
            raise _Unsupported(kind.__name__)

    def scalar_type(self, instr) -> IntType:
        value_type = instr.type if not isinstance(instr.type, PointerType) else _U64
        if not isinstance(value_type, IntType):
            raise _Unsupported("non-integer access")
        return value_type

    def load(self, instr: Load) -> None:
        value_type = self.scalar_type(instr)
        size = max(value_type.size(), 1)
        self.address(instr.addr, instr.line, "load")
        self.check_asan(size, instr.line, write=False)
        self.locate(size, instr.line)
        signed = ", signed=True" if value_type.signed else ""
        taint = "False"
        if self.msan:
            taint = "not sh[o]" if size == 1 else f"0 in sh[o:o + {size}]"
        self.set(
            instr.dst, f"int.from_bytes(seg[o:o + {size}], 'little'{signed})", taint,
            in_range=value_type,
        )

    def store(self, instr: Store) -> None:
        value_type = self.scalar_type(instr)
        size = value_type.size()
        mask = (1 << value_type.bits) - 1
        self.address(instr.addr, instr.line, "store")
        value = self.int_constant(instr.src)
        if value is not None:
            raw = repr((value & mask).to_bytes(size, "little"))
        else:
            raw = f"({self.int_value(instr.src)} & {mask}).to_bytes({size}, 'little')"
        self.emit(f"raw = {raw}")
        self.check_asan(size, instr.line, write=True)
        self.locate(size, instr.line)
        self.emit(f"seg[o:o + {size}] = raw")
        if self.msan:
            # Memory.write marks the bytes initialized, then
            # mark_initialized sets them to the stored value's taint.
            clean, dirty = repr(b"\x01" * size), repr(b"\x00" * size)
            taint = self.taint(instr.src)
            self.emit(f"sh[o:o + {size}] = {clean if taint == 'False' else f'{dirty} if {taint} else {clean}'}")

    def binop(self, instr: BinOp) -> None:
        itype, op = instr.type, instr.op
        if not isinstance(itype, IntType) or op[0] == "f":
            raise _Unsupported("float operation")
        bits, mask = itype.bits, (1 << itype.bits) - 1
        taint = "False"
        if self.msan:
            taints = [self.taint(x) for x in (instr.lhs, instr.rhs) if isinstance(x, Reg)]
            taint = " or ".join(taints) or "False"
        lhs, rhs = self.int_value(instr.lhs), self.int_value(instr.rhs)
        if op in _ARITH:
            raw = f"{lhs} {_ARITH[op]} {rhs}"
            if self.ubsan and instr.nsw and op in ("add", "sub", "mul"):
                self.emit(f"v = {raw}")
                self.emit(f"if not {itype.min_value} <= v <= {itype.max_value}:")
                self.fail(f"SanitizerStop('signed-integer-overflow', {instr.line}, {f'{op} {itype}'!r})", 1)
                self.set(instr.dst, "v", taint, in_range=itype)  # in range: wrap is the identity
            else:
                self.set(instr.dst, _wrap(raw, itype), taint, in_range=itype)
        elif op in _SHIFTS:
            if self.ubsan:
                self.emit(f"c = {rhs}")
                self.emit(f"if not 0 <= c < {bits}:")
                self.fail(f"SanitizerStop('invalid-shift', {instr.line}, f'count {{c}}')", 1)
                count = "c"
            else:
                count = f"{rhs} % {bits}"
            if op == "shl":
                raw = f"{lhs} << ({count})"
            elif op == "lshr":
                raw = f"({lhs} & {mask}) >> ({count})"
            else:
                raw = f"({self.wrapped(instr.lhs, itype)}) >> ({count})"
            self.set(instr.dst, _wrap(raw, itype), taint, in_range=itype)
        elif op in _CMP_OPS:
            if op[0] == "u" or not itype.signed:
                unsigned = IntType(bits, signed=False)
                x, y = (self.wrapped(o, unsigned) for o in (instr.lhs, instr.rhs))
            else:
                x, y = (self.wrapped(o, itype) for o in (instr.lhs, instr.rhs))
            base = op[1:] if op[0] in "su" else op
            self.set(instr.dst, f"1 if {x} {_CMP[base]} {y} else 0", taint, in_range=_BOOL)
        else:
            raise _Unsupported(f"binop {op}")

    def cast(self, instr: Cast) -> None:
        from_type, to_type = instr.from_type, instr.to_type
        if isinstance(from_type, FloatType):
            raise _Unsupported("float cast")
        taint = self.taint(instr.src) if self.msan else "False"
        if isinstance(to_type, IntType):
            self.set(instr.dst, self.wrapped(instr.src, to_type), taint, in_range=to_type)
        elif isinstance(to_type, PointerType):
            src = instr.src
            self.set(
                instr.dst, self.value(src), taint, known=self.constant(src),
                is_int=isinstance(src, Reg) and src.id in self.ints or type(src) is int,
            )
        else:
            raise _Unsupported("cast to a non-scalar type")

    def unop(self, instr: UnOp) -> None:
        if instr.op not in ("neg", "not") or not isinstance(instr.type, IntType):
            raise _Unsupported(f"unop {instr.op}")
        sign = "-" if instr.op == "neg" else "~"
        taint = self.taint(instr.src) if self.msan else "False"
        self.set(
            instr.dst, _wrap(f"{sign}{self.int_value(instr.src)}", instr.type), taint,
            in_range=instr.type,
        )

    # ---------------------------------------------------------- transfers

    def enter(self, label: str, depth: int) -> None:
        """``Machine._enter_block``'s edge record, then the transfer."""
        if label not in self.labels:
            raise _Unsupported("missing block")
        if self.label_ids is not None:
            cid = self.label_ids[label]
            self.emit("cov = m.coverage", depth)
            self.emit("if cov is not None:", depth)
            self.emit(f"cov.record_edge(m._prev_location, {cid})", depth + 1)
            self.emit(f"m._prev_location = {cid}", depth + 1)
        self.emit(f"return {label!r}", depth)

    def terminator(self, instr) -> None:
        if type(instr) is Jump:
            self.enter(instr.target, 0)
            return
        if type(instr) is not Branch:
            raise _Unsupported("block does not end in a jump or branch")
        cond = instr.cond
        if self.msan and isinstance(cond, Reg):
            self.emit(f"if {self.taint(cond)}:")
            self.fail(f"SanitizerStop('use-of-uninitialized-value', {instr.line}, 'branch')", 1)
        if not isinstance(cond, Reg) or cond.id in self.known:
            self.enter(instr.if_true if self.constant(cond) else instr.if_false, 0)
            return
        if instr.if_false not in self.labels:
            raise _Unsupported("missing block")
        self.emit(f"if {self.value(cond)}:")
        self.enter(instr.if_true, 1)
        self.enter(instr.if_false, 0)


def block_source(instrs, layout, frame_layout, sanitizer, label_ids, labels) -> str | None:
    """The source of a function ``block(m, frame)`` that runs *instrs*,
    one basic block, as ``Machine`` would; None when it cannot compile.

    *label_ids* maps the function's labels to coverage ids for a
    coverage-instrumented binary (None otherwise); *labels* holds the
    function's block labels.
    """
    if not instrs:
        return None
    writer = _Writer(layout, frame_layout, sanitizer, label_ids, labels)
    try:
        for position, instr in enumerate(instrs, 1):
            writer.pos = position
            writer.emit("# " + repr(instr).replace("\n", " "))
            if position < len(instrs):
                writer.instr(instr)
            else:
                writer.terminator(instr)
    except _Unsupported:
        return None
    preamble = ["    regs = frame.regs"]
    if "taints" in writer.uses:
        preamble.append("    taints = frame.taints")
    if "base" in writer.uses:
        preamble.append("    base = frame.base")
    if "mem" in writer.uses:
        preamble.append("    mem = m.memory")
    if "poison" in writer.uses:
        preamble.append("    poison = mem._poison")
        preamble.append("    starts = mem._poison_starts")
    return "\n".join(
        ["def block(m, frame):", *preamble, *writer.lines, ""]
    )


def build(source: str) -> tuple[Callable, bool]:
    """The function *source* defines, and whether this call generated it
    (False when the shared cache already held it)."""
    run = _cache.get(source)
    if run is not None:
        _cache.move_to_end(source)
        return run, False
    namespace = dict(_NAMESPACE)
    # A filename per function keeps them apart in profiles and tracebacks.
    exec(compile(source, f"<hot block {next(_serial)}>", "exec"), namespace)
    run = namespace["block"]
    _cache[source] = run
    if len(_cache) > CACHE_SIZE:
        _cache.popitem(last=False)
    return run, True


def clear_cache() -> None:
    """Forget every shared function (tests measure generation from cold)."""
    _cache.clear()
