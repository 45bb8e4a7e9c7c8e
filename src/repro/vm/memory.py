"""Segmented memory model with per-implementation layout policies.

Memory is three flat segments — globals, stack, heap — whose base
addresses, object ordering, and padding come from the binary's
:class:`~repro.compiler.implementations.CompilerConfig`.  Everything
*inside* a segment is plain corruptible storage: a four-byte overflow past
a buffer lands in whatever the layout placed next, which is how MemError
unstable code acquires implementation-dependent behavior.  Only accesses
that escape every segment fault (SIGSEGV), as on a real MMU.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field

from repro.compiler.binary import CompiledBinary
from repro.compiler.implementations import CompilerConfig
from repro.ir.module import FrameSlot, Function
from repro.minic.types import FloatType, IntType, Type

STACK_SIZE = 256 * 1024
HEAP_SIZE = 256 * 1024
#: The unmapped page at address zero.
NULL_PAGE = 4096
#: ASan redzone width around every object.
REDZONE = 16


class MemTrap(Exception):
    """A hardware-style trap raised by a guest memory access or operation."""

    def __init__(self, kind: str, addr: int = 0, line: int = 0, detail: str = "") -> None:
        self.kind = kind  # "segv" | "sigfpe" | "abort"
        self.addr = addr
        self.line = line
        self.detail = detail
        super().__init__(f"{kind} at 0x{addr:x} (line {line}) {detail}")


class SanitizerStop(Exception):
    """Raised when a sanitizer check fires (run aborts with a report)."""

    def __init__(self, kind: str, line: int = 0, detail: str = "") -> None:
        self.kind = kind
        self.line = line
        self.detail = detail
        super().__init__(f"{kind} (line {line}) {detail}")


def order_slots(slots: list[FrameSlot], policy: str) -> list[FrameSlot]:
    """Order frame slots according to the layout *policy* (stable sorts)."""
    if policy == "size_desc":
        return sorted(slots, key=lambda s: (-s.size, s.index))
    if policy == "buffers_last":
        return sorted(slots, key=lambda s: (s.is_buffer, s.index))
    return list(slots)


def order_globals(names: list[str], sizes: dict[str, int], policy: str) -> list[str]:
    index = {name: i for i, name in enumerate(names)}
    if policy == "alpha":
        return sorted(names)
    if policy == "size_desc":
        return sorted(names, key=lambda n: (-sizes[n], index[n]))
    if policy == "size_desc_rev":
        return sorted(names, key=lambda n: (-sizes[n], -index[n]))
    if policy == "decl_rev":
        return list(reversed(names))
    return list(names)


@dataclass
class FrameLayout:
    """Offsets of one function's slots within its frame."""

    size: int
    offsets: dict[int, int]  # slot index -> offset from frame base
    #: (offset, length) of ASan redzones inside the frame.
    redzones: list[tuple[int, int]] = field(default_factory=list)
    #: (offset, length, name) of the slots themselves (for reports).
    objects: list[tuple[int, int, str]] = field(default_factory=list)


class ImageLayout:
    """Load-time layout for one binary: global addresses, frame layouts.

    Computed once per binary and shared across executions (the forkserver
    analogy: the expensive part happens before the first fork).
    """

    def __init__(self, binary: CompiledBinary) -> None:
        config = binary.config
        self.binary = binary
        self.config = config
        asan = binary.sanitizer == "asan"
        # ---- globals segment ----
        module = binary.module
        names = list(module.globals)
        sizes = {name: module.globals[name].size for name in names}
        ordered = order_globals(names, sizes, config.global_order)
        self.global_addrs: dict[str, int] = {}
        self.global_objects: list[tuple[int, int, str]] = []
        self.global_redzones: list[tuple[int, int]] = []
        cursor = 0
        chunks: list[bytes] = []
        for name in ordered:
            data = module.globals[name]
            align = max(data.align, 1)
            pad = (-cursor) % align
            if pad:
                chunks.append(bytes(pad))
                cursor += pad
            if asan:
                chunks.append(bytes(REDZONE))
                self.global_redzones.append((cursor, REDZONE))
                cursor += REDZONE
            self.global_addrs[name] = config.global_base + cursor
            self.global_objects.append((cursor, data.size, name))
            chunks.append(data.init if data.init is not None else bytes(data.size))
            cursor += data.size
        if asan:
            chunks.append(bytes(REDZONE))
            self.global_redzones.append((cursor, REDZONE))
            cursor += REDZONE
        image = bytearray(b"".join(chunks))
        # Apply relocations now that addresses are known.
        for name in ordered:
            data = module.globals[name]
            base_offset = self.global_addrs[name] - config.global_base
            for offset, symbol in data.relocations:
                target = self.global_addrs[symbol]
                image[base_offset + offset : base_offset + offset + 8] = target.to_bytes(
                    8, "little"
                )
        self.global_image = bytes(image)
        self.globals_size = len(image)
        # ---- frame layouts ----
        self.frames: dict[str, FrameLayout] = {}
        for func in module.functions.values():
            self.frames[func.name] = self._layout_frame(func, config, asan)
        # ---- coverage label ids ----
        self.label_ids: dict[tuple[str, str], int] = {}
        for func in module.functions.values():
            for label in func.blocks:
                key = (func.name, label)
                self.label_ids[key] = _stable_hash(f"{func.name}:{label}")

    def _layout_frame(self, func: Function, config: CompilerConfig, asan: bool) -> FrameLayout:
        ordered = order_slots(func.slots, config.stack_slot_order)
        offsets: dict[int, int] = {}
        redzones: list[tuple[int, int]] = []
        objects: list[tuple[int, int, str]] = []
        cursor = 0
        # Under ASan the frame is packed with redzones instead of plain
        # padding — a gap would let small overflows land in unpoisoned
        # bytes, which the real instrumentation never allows.
        gap = 0 if asan else config.stack_gap
        for slot in ordered:
            if asan:
                redzones.append((cursor, REDZONE))
                cursor += REDZONE
            align = max(slot.align, 1)
            cursor += (-cursor) % align
            offsets[slot.index] = cursor
            objects.append((cursor, slot.size, slot.name))
            cursor += slot.size + gap
        if asan:
            redzones.append((cursor, REDZONE))
            cursor += REDZONE
        size = cursor + (-cursor) % 16
        return FrameLayout(size=size, offsets=offsets, redzones=redzones, objects=objects)


def _stable_hash(text: str) -> int:
    value = 2166136261
    for ch in text.encode():
        value = ((value ^ ch) * 16777619) & 0xFFFFFFFF
    return value


@dataclass
class HeapBlock:
    addr: int
    size: int
    live: bool


class Memory:
    """One execution's memory state (segments + allocator + shadows)."""

    def __init__(self, layout: ImageLayout) -> None:
        config = layout.config
        self.layout = layout
        self.config = config
        self.sanitizer = layout.binary.sanitizer
        self._asan = self.sanitizer == "asan"
        self._msan = self.sanitizer == "msan"
        self.globals_base = config.global_base
        self.globals = bytearray(layout.global_image)
        self.stack_base = config.stack_base  # stack occupies [base-size, base)
        self.stack = bytearray([config.uninit_fill]) * STACK_SIZE
        self.heap_base = config.heap_base
        self.heap = bytearray([config.heap_fill]) * HEAP_SIZE
        self.sp = config.stack_base
        # Heap allocator state.
        self._brk = 0  # offset into the heap arena
        self.blocks: dict[int, HeapBlock] = {}
        self._free_lists: dict[int, list[int]] = {}
        # ASan poison intervals (absolute addresses), kept sorted by start.
        self._poison_starts: list[int] = []
        self._poison: list[tuple[int, int, str]] = []  # (start, end, why)
        if self.sanitizer == "asan":
            for offset, length in layout.global_redzones:
                self._add_poison(
                    self.globals_base + offset, length, "global-buffer-overflow"
                )
        # MSan shadow: 1 bit per byte, 1 = initialized.
        if self.sanitizer == "msan":
            self.shadow_globals = bytearray(b"\x01") * len(self.globals)
            self.shadow_stack = bytearray(STACK_SIZE)
            self.shadow_heap = bytearray(HEAP_SIZE)
        else:
            self.shadow_globals = self.shadow_stack = self.shadow_heap = None

    # ------------------------------------------------------------ mapping

    def _locate(self, addr: int, size: int, line: int) -> tuple[bytearray, int]:
        """Map *addr* to (segment, offset) or trap."""
        if 0 <= addr < NULL_PAGE:
            raise MemTrap("segv", addr, line, "null-page access")
        g = addr - self.globals_base
        if 0 <= g and g + size <= len(self.globals):
            return self.globals, g
        s = addr - (self.stack_base - STACK_SIZE)
        if 0 <= s and s + size <= STACK_SIZE:
            return self.stack, s
        h = addr - self.heap_base
        if 0 <= h and h + size <= HEAP_SIZE:
            return self.heap, h
        raise MemTrap("segv", addr, line, "unmapped address")

    def _shadow_for(self, segment: bytearray) -> bytearray | None:
        if not self._msan:
            return None
        if segment is self.globals:
            return self.shadow_globals
        if segment is self.stack:
            return self.shadow_stack
        return self.shadow_heap

    # ------------------------------------------------------------ raw access

    def read(self, addr: int, size: int, line: int = 0) -> bytes:
        self._check_asan(addr, size, line, write=False)
        segment, offset = self._locate(addr, size, line)
        return bytes(segment[offset : offset + size])

    def write(self, addr: int, data: bytes, line: int = 0) -> None:
        self._check_asan(addr, len(data), line, write=True)
        segment, offset = self._locate(addr, len(data), line)
        segment[offset : offset + len(data)] = data
        if self._msan:
            shadow = self._shadow_for(segment)
            if shadow is not None:
                shadow[offset : offset + len(data)] = b"\x01" * len(data)

    def is_initialized(self, addr: int, size: int) -> bool:
        """MSan query: are all *size* bytes at *addr* initialized?"""
        if self.sanitizer != "msan":
            return True
        segment, offset = self._locate(addr, size, 0)
        shadow = self._shadow_for(segment)
        assert shadow is not None
        return all(shadow[offset : offset + size])

    def mark_initialized(self, addr: int, size: int, value: bool = True) -> None:
        if self.sanitizer != "msan":
            return
        segment, offset = self._locate(addr, size, 0)
        shadow = self._shadow_for(segment)
        assert shadow is not None
        shadow[offset : offset + size] = (b"\x01" if value else b"\x00") * size

    def copy_shadow(self, dst: int, src: int, size: int) -> None:
        if self.sanitizer != "msan" or size <= 0:
            return
        src_seg, src_off = self._locate(src, size, 0)
        dst_seg, dst_off = self._locate(dst, size, 0)
        src_shadow = self._shadow_for(src_seg)
        dst_shadow = self._shadow_for(dst_seg)
        assert src_shadow is not None and dst_shadow is not None
        dst_shadow[dst_off : dst_off + size] = src_shadow[src_off : src_off + size]

    # -------------------------------------------------------------- typed access

    def read_scalar(self, addr: int, value_type: Type, line: int = 0):
        raw = self.read(addr, max(value_type.size(), 1), line)
        if isinstance(value_type, FloatType):
            return struct.unpack("<f" if value_type.bits == 32 else "<d", raw)[0]
        assert isinstance(value_type, IntType)
        return value_type.wrap(int.from_bytes(raw, "little"))

    def write_scalar(self, addr: int, value, value_type: Type, line: int = 0) -> None:
        if isinstance(value_type, FloatType):
            fmt = "<f" if value_type.bits == 32 else "<d"
            try:
                raw = struct.pack(fmt, float(value))
            except OverflowError:
                raw = struct.pack(fmt, float("inf") if value > 0 else float("-inf"))
        else:
            assert isinstance(value_type, IntType)
            raw = (int(value) & ((1 << value_type.bits) - 1)).to_bytes(
                value_type.size(), "little"
            )
        self.write(addr, raw, line)

    def read_cstring(self, addr: int, line: int = 0, limit: int = 1 << 16) -> bytes:
        """The NUL-terminated string at *addr*, at most *limit* bytes.

        Returns or raises exactly what reading it byte by byte with
        :meth:`read` would (:meth:`_read_cstring_bytes`), but scans: it
        locates the segment holding the next byte once, searches it for
        the NUL with ``find`` up to the segment's end, and carries on at
        the next address.
        Only a scanned stretch that an asan poison interval overlaps is
        read byte by byte.  (The segments never overlap, so every byte of
        a stretch maps to the segment its first byte maps to.)
        """
        out = bytearray()
        poisoned = self._asan and self._poison
        while len(out) < limit:
            cursor = addr + len(out)
            if poisoned:
                self._check_asan(cursor, 1, line, write=False)
            segment, offset = self._locate(cursor, 1, line)
            end = min(len(segment), offset + limit - len(out))
            nul = segment.find(0, offset, end)
            scanned = (end if nul < 0 else nul + 1) - offset
            if poisoned and self._poisoned(cursor, cursor + scanned):
                return self._read_cstring_bytes(addr, line, limit)
            if nul >= 0:
                out += segment[offset:nul]
                return bytes(out)
            out += segment[offset:end]
        return bytes(out)

    def _read_cstring_bytes(self, addr: int, line: int, limit: int) -> bytes:
        """:meth:`read_cstring` by definition: one :meth:`read` per byte."""
        out = bytearray()
        for i in range(limit):
            byte = self.read(addr + i, 1, line)
            if byte == b"\0":
                return bytes(out)
            out += byte
        return bytes(out)

    # ------------------------------------------------------------------ stack

    def push_frame(self, func_name: str, line: int = 0) -> tuple[int, FrameLayout]:
        frame = self.layout.frames[func_name]
        self.sp -= frame.size
        if self.sp < self.stack_base - STACK_SIZE:
            raise MemTrap("segv", self.sp, line, "stack overflow")
        base = self.sp
        if self.sanitizer == "asan":
            for offset, length in frame.redzones:
                self._add_poison(base + offset, length, "stack-buffer-overflow")
        return base, frame

    def pop_frame(self, base: int, frame: FrameLayout) -> None:
        if self.sanitizer == "asan":
            for offset, length in frame.redzones:
                self._remove_poison(base + offset)
        if self.sanitizer == "msan":
            # Returning frees the frame: its bytes become uninitialized again.
            offset = base - (self.stack_base - STACK_SIZE)
            self.shadow_stack[offset : offset + frame.size] = bytes(frame.size)
        self.sp = base + frame.size

    # ------------------------------------------------------------------- heap

    def malloc(self, size: int, line: int = 0, zero: bool = False) -> int:
        size = max(int(size), 1)
        if size > HEAP_SIZE:
            return 0
        rounded = (size + 15) // 16 * 16
        addr = 0
        if self.config.heap_reuse and self.sanitizer != "asan":
            free_list = self._free_lists.get(rounded)
            if free_list:
                addr = free_list.pop()
        if addr == 0:
            pad = REDZONE if self.sanitizer == "asan" else self.config.heap_gap
            start = self._brk + pad
            end = start + rounded + (REDZONE if self.sanitizer == "asan" else 0)
            if end > HEAP_SIZE:
                return 0
            addr = self.heap_base + start
            self._brk = end
            if self.sanitizer == "asan":
                self._add_poison(addr - REDZONE, REDZONE, "heap-buffer-overflow")
                # Poison the rounding slack too (ASan's 8-byte granule
                # partials): p[size] must fault even inside the granule.
                self._add_poison(
                    addr + size, rounded - size + REDZONE, "heap-buffer-overflow"
                )
        block = self.blocks.get(addr)
        if block is not None:
            block.live = True
            block.size = size
        else:
            self.blocks[addr] = HeapBlock(addr, size, live=True)
        offset = addr - self.heap_base
        if zero:
            self.heap[offset : offset + size] = bytes(size)
        if self.sanitizer == "asan":
            self._remove_poison(addr)  # un-poison if this block was quarantined
        if self.sanitizer == "msan":
            self.shadow_heap[offset : offset + size] = (
                b"\x01" * size if zero else bytes(size)
            )
        return addr

    def free(self, addr: int, line: int = 0) -> None:
        if addr == 0:
            return  # free(NULL) is a no-op
        block = self.blocks.get(addr)
        if block is None:
            # Not a heap block: free() of stack/global memory (CWE-590).
            if self.sanitizer == "asan":
                raise SanitizerStop("bad-free", line, f"0x{addr:x} not heap-allocated")
            if self.config.free_strict:
                raise MemTrap("abort", addr, line, "invalid free")
            return
        if not block.live:
            # Double free (CWE-415).
            if self.sanitizer == "asan":
                raise SanitizerStop("double-free", line, f"0x{addr:x}")
            if self.config.free_strict:
                raise MemTrap("abort", addr, line, "double free")
            # Lenient allocator: the block re-enters the free list a second
            # time, so two future mallocs will alias — silent corruption.
        block.live = False
        rounded = (block.size + 15) // 16 * 16
        if self.sanitizer == "asan":
            # Quarantine: poison the block and never reuse it.
            self._add_poison(addr, rounded, "heap-use-after-free")
            return
        if self.config.free_poison is not None:
            offset = addr - self.heap_base
            self.heap[offset : offset + block.size] = bytes(
                [self.config.free_poison]
            ) * block.size
        if self.config.heap_reuse:
            self._free_lists.setdefault(rounded, []).append(addr)

    def block_containing(self, addr: int) -> HeapBlock | None:
        for block in self.blocks.values():
            if block.addr <= addr < block.addr + block.size:
                return block
        return None

    # ------------------------------------------------------------------- ASan

    def _add_poison(self, start: int, length: int, why: str) -> None:
        index = bisect.bisect_left(self._poison_starts, start)
        self._poison_starts.insert(index, start)
        self._poison.insert(index, (start, start + length, why))

    def _remove_poison(self, start: int) -> None:
        index = bisect.bisect_left(self._poison_starts, start)
        if index < len(self._poison_starts) and self._poison_starts[index] == start:
            self._poison_starts.pop(index)
            self._poison.pop(index)

    def _poisoned(self, start: int, end: int) -> bool:
        """Does any poison interval overlap [start, end)?"""
        count = bisect.bisect_left(self._poison_starts, end)
        return any(stop > start for _, stop, _ in self._poison[:count])

    def _check_asan(self, addr: int, size: int, line: int, write: bool) -> None:
        if not self._asan or not self._poison:
            return
        index = bisect.bisect_right(self._poison_starts, addr + size - 1)
        if index == 0:
            return
        start, end, why = self._poison[index - 1]
        if addr < end and addr + size > start:
            raise SanitizerStop(why, line, f"{'write' if write else 'read'} at 0x{addr:x}")
