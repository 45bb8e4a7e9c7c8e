"""Memory model: layout policies, allocator, segments, shadows."""

from __future__ import annotations

import pytest

from repro.compiler import compile_source, implementation
from repro.compiler.implementations import DEFAULT_IMPLEMENTATIONS
from repro.ir.module import FrameSlot
from repro.vm.memory import (
    HEAP_SIZE,
    NULL_PAGE,
    STACK_SIZE,
    ImageLayout,
    Memory,
    MemTrap,
    SanitizerStop,
    order_globals,
    order_slots,
)
from repro.minic import types as ty

from tests.conftest import run_source, stdout_of


def make_memory(impl: str = "gcc-O0", source: str = "int main(void){return 0;}", sanitizer=None) -> Memory:
    binary = compile_source(source, implementation(impl), sanitizer=sanitizer)
    return Memory(ImageLayout(binary))


class TestOrderPolicies:
    def slots(self):
        return [
            FrameSlot("a", 4, 4, 0),
            FrameSlot("buf", 32, 1, 1, is_buffer=True),
            FrameSlot("b", 8, 8, 2),
        ]

    def test_decl_order(self):
        assert [s.name for s in order_slots(self.slots(), "decl")] == ["a", "buf", "b"]

    def test_size_desc_order(self):
        assert [s.name for s in order_slots(self.slots(), "size_desc")] == ["buf", "b", "a"]

    def test_buffers_last_order(self):
        assert [s.name for s in order_slots(self.slots(), "buffers_last")] == ["a", "b", "buf"]

    def test_order_is_stable_for_ties(self):
        slots = [FrameSlot("x", 4, 4, 0), FrameSlot("y", 4, 4, 1)]
        assert [s.name for s in order_slots(slots, "size_desc")] == ["x", "y"]

    def test_global_orders(self):
        names = ["zeta", "alpha", "mid"]
        sizes = {"zeta": 4, "alpha": 16, "mid": 8}
        assert order_globals(names, sizes, "decl") == names
        assert order_globals(names, sizes, "alpha") == ["alpha", "mid", "zeta"]
        assert order_globals(names, sizes, "size_desc") == ["alpha", "mid", "zeta"]
        assert order_globals(names, sizes, "decl_rev") == ["mid", "alpha", "zeta"]


class TestSegments:
    def test_read_write_roundtrip(self):
        memory = make_memory()
        addr = memory.malloc(16)
        memory.write(addr, b"hello")
        assert memory.read(addr, 5) == b"hello"

    def test_null_page_traps(self):
        memory = make_memory()
        with pytest.raises(MemTrap) as excinfo:
            memory.read(0, 1)
        assert excinfo.value.kind == "segv"

    def test_unmapped_address_traps(self):
        memory = make_memory()
        with pytest.raises(MemTrap):
            memory.read(0x123456789, 4)

    def test_scalar_roundtrip_signed(self):
        memory = make_memory()
        addr = memory.malloc(8)
        memory.write_scalar(addr, -12345, ty.INT)
        assert memory.read_scalar(addr, ty.INT) == -12345

    def test_scalar_roundtrip_double(self):
        memory = make_memory()
        addr = memory.malloc(8)
        memory.write_scalar(addr, 3.5, ty.DOUBLE)
        assert memory.read_scalar(addr, ty.DOUBLE) == 3.5

    def test_float32_rounds_on_store(self):
        memory = make_memory()
        addr = memory.malloc(4)
        memory.write_scalar(addr, 0.1, ty.FLOAT)
        assert memory.read_scalar(addr, ty.FLOAT) != 0.1  # rounded to f32

    def test_cstring_reading(self):
        memory = make_memory()
        addr = memory.malloc(16)
        memory.write(addr, b"net\0tail")
        assert memory.read_cstring(addr) == b"net"

    def test_uninit_fill_pattern_per_impl(self):
        gcc_o2 = make_memory("gcc-O2")
        clang_o1 = make_memory("clang-O1")
        sp = gcc_o2.stack_base - 64
        assert gcc_o2.read(sp, 4) == b"\xa5" * 4
        sp = clang_o1.stack_base - 64
        assert clang_o1.read(sp, 4) == b"\xcd" * 4


class TestAllocator:
    def test_malloc_alignment(self):
        memory = make_memory()
        a = memory.malloc(3)
        b = memory.malloc(3)
        assert a % 16 == 0 or (a - memory.heap_base) % 16 == 0
        assert b > a

    def test_malloc_zero_returns_valid_block(self):
        memory = make_memory()
        assert memory.malloc(0) != 0

    def test_malloc_too_big_returns_null(self):
        memory = make_memory()
        assert memory.malloc(HEAP_SIZE + 1) == 0

    def test_free_null_is_noop(self):
        memory = make_memory()
        memory.free(0)

    def test_reuse_policy(self):
        reusing = make_memory("gcc-O1")
        addr = reusing.malloc(32)
        reusing.free(addr)
        assert reusing.malloc(32) == addr
        bump_only = make_memory("gcc-O0")
        addr = bump_only.malloc(32)
        bump_only.free(addr)
        assert bump_only.malloc(32) != addr

    def test_free_poison(self):
        memory = make_memory("gcc-O2")
        addr = memory.malloc(16)
        memory.write(addr, b"AAAA")
        memory.free(addr)
        assert memory.read(addr, 4) == b"\xdd" * 4

    def test_strict_double_free_aborts(self):
        memory = make_memory("gcc-O2")
        addr = memory.malloc(16)
        memory.free(addr)
        with pytest.raises(MemTrap) as excinfo:
            memory.free(addr)
        assert excinfo.value.kind == "abort"

    def test_lenient_double_free_aliases(self):
        memory = make_memory("gcc-O1")
        addr = memory.malloc(16)
        memory.free(addr)
        memory.free(addr)  # silently tolerated
        first = memory.malloc(16)
        second = memory.malloc(16)
        assert first == second == addr

    def test_strict_invalid_free_aborts(self):
        memory = make_memory("clang-O2")
        with pytest.raises(MemTrap):
            memory.free(memory.config.global_base)

    def test_heap_gap_changes_spacing(self):
        roomy = make_memory("gcc-O0")
        tight = make_memory("gcc-O2")
        r1, r2 = roomy.malloc(16), roomy.malloc(16)
        t1, t2 = tight.malloc(16), tight.malloc(16)
        assert (r2 - r1) > (t2 - t1)


class TestFrames:
    SRC = "int f(void) { char buf[16]; int x; buf[0] = 1; x = 2; return x; }\nint main(void){ return f(); }"

    def test_push_pop_restores_sp(self):
        memory = make_memory(source=self.SRC)
        sp = memory.sp
        base, frame = memory.push_frame("f")
        assert memory.sp < sp
        memory.pop_frame(base, frame)
        assert memory.sp == sp

    def test_frame_layout_has_all_slots(self):
        memory = make_memory(source=self.SRC)
        _, frame = memory.push_frame("f")
        assert len(frame.offsets) == 2

    def test_stack_gap_grows_frame(self):
        roomy = ImageLayout(compile_source(self.SRC, implementation("gcc-O0")))
        tight = ImageLayout(compile_source(self.SRC, implementation("gcc-O2")))
        assert roomy.frames["f"].size > tight.frames["f"].size

    def test_stack_exhaustion_traps(self):
        memory = make_memory(source=self.SRC)
        with pytest.raises(MemTrap):
            for _ in range(1_000_000):
                memory.push_frame("f")


class TestImageLayout:
    def test_global_addresses_respect_base(self):
        src = "int a;\nint b;\nint main(void){ return 0; }"
        layout = ImageLayout(compile_source(src, implementation("gcc-O0")))
        for addr in layout.global_addrs.values():
            assert addr >= implementation("gcc-O0").global_base

    def test_relocations_applied(self):
        src = 'char *msg = "x";\nint main(void){ return 0; }'
        layout = ImageLayout(compile_source(src, implementation("gcc-O0")))
        memory = Memory(layout)
        ptr = memory.read_scalar(layout.global_addrs["msg"], ty.ULONG)
        assert memory.read_cstring(ptr) == b"x"

    def test_global_order_differs_across_impls(self):
        src = "char small[8];\nchar big[64];\nint main(void){ return 0; }"
        decl = ImageLayout(compile_source(src, implementation("gcc-O0")))
        size_sorted = ImageLayout(compile_source(src, implementation("gcc-O2")))
        assert (decl.global_addrs["small"] < decl.global_addrs["big"]) != (
            size_sorted.global_addrs["small"] < size_sorted.global_addrs["big"]
        )

    def test_coverage_label_ids_stable(self):
        src = "int main(void){ if (input_size()) return 1; return 0; }"
        layout_a = ImageLayout(compile_source(src, implementation("gcc-O0")))
        layout_b = ImageLayout(compile_source(src, implementation("gcc-O0")))
        assert layout_a.label_ids == layout_b.label_ids


class TestLayoutDivergenceEndToEnd:
    def test_stack_overflow_victim_depends_on_gap(self):
        src = (
            "int main(void){ char data[16]; char mark[8] = \"OK\";"
            " int i; for (i = 0; i < 18; i++) { data[i] = 'X'; }"
            ' printf("%s\\n", mark); return 0; }'
        )
        roomy = stdout_of(src, "gcc-O0")
        tight = stdout_of(src, "gcc-O2")
        assert roomy == b"OK\n"
        assert tight != b"OK\n"

    def test_uninit_read_sees_impl_fill(self):
        src = 'int main(void){ char c; printf("%d\\n", c); return 0; }'
        assert stdout_of(src, "gcc-O0") == b"0\n"
        assert stdout_of(src, "gcc-O2") == b"-91\n"  # 0xA5 sign-extended

    def test_all_impls_have_distinct_segment_bases_per_family(self):
        gcc = [c for c in DEFAULT_IMPLEMENTATIONS if c.family == "gcc"]
        clang = [c for c in DEFAULT_IMPLEMENTATIONS if c.family == "clang"]
        assert len({c.stack_base for c in gcc}) == 1
        assert gcc[0].stack_base != clang[0].stack_base


def _outcome(call):
    """What *call* returns, or the type and fields of what it raises."""
    try:
        return ("ok", call())
    except MemTrap as trap:
        return ("trap", trap.kind, trap.addr, trap.line, trap.detail)
    except SanitizerStop as stop:
        return ("stop", stop.kind, stop.line, stop.detail)


def _segments(memory):
    return (
        (memory.globals_base, memory.globals),
        (memory.stack_base - STACK_SIZE, memory.stack),
        (memory.heap_base, memory.heap),
    )


class TestReadCString:
    """The scanning ``read_cstring`` against its per-byte definition."""

    GLOBALS = 'char a[8] = "abc"; char b[5] = "xyz"; int main(void){ return a[0] + b[0]; }'

    def assert_same(self, memory, addr, line=7, limit=1 << 16):
        fast = _outcome(lambda: memory.read_cstring(addr, line, limit))
        slow = _outcome(lambda: memory._read_cstring_bytes(addr, line, limit))
        assert fast == slow, (hex(addr), limit)
        return fast

    @pytest.mark.parametrize("impl", [config.name for config in DEFAULT_IMPLEMENTATIONS])
    def test_segments_never_overlap(self, impl):
        # The scan relies on it: every byte of a stretch maps to the
        # segment its first byte maps to.
        memory = make_memory(impl)
        spans = sorted(
            (base, base + len(segment)) for base, segment in _segments(memory)
        )
        assert spans[0][0] >= NULL_PAGE
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_asan_redzone_inside_the_string(self):
        memory = make_memory(source=self.GLOBALS, sanitizer="asan")
        start = memory.layout.global_addrs["a"]
        memory.write(start, b"A" * 8)  # a[] unterminated: runs into a redzone
        outcome = self.assert_same(memory, start)
        assert outcome[:2] == ("stop", "global-buffer-overflow")

    def test_string_running_off_a_segment(self):
        memory = make_memory(source=self.GLOBALS)
        end = memory.globals_base + len(memory.globals)
        memory.globals[-6:] = b"Z" * 6
        outcome = self.assert_same(memory, end - 6)
        assert outcome == ("trap", "segv", end, 7, "unmapped address")

    @pytest.mark.parametrize("addr", [0, 1, 4095, -8])
    def test_null_page_and_negative_addresses(self, addr):
        memory = make_memory()
        assert self.assert_same(memory, addr)[0] == "trap"

    def test_limit(self):
        memory = make_memory()
        memory.heap[: (1 << 16) + 10] = b"q" * ((1 << 16) + 10)
        outcome = self.assert_same(memory, memory.heap_base)
        assert outcome == ("ok", b"q" * (1 << 16))
        assert self.assert_same(memory, memory.heap_base, limit=5) == ("ok", b"qqqqq")
        assert self.assert_same(memory, memory.heap_base, limit=0) == ("ok", b"")

    @pytest.mark.parametrize("sanitizer", [None, "asan", "msan"])
    def test_randomized_layouts_match_per_byte_reads(self, sanitizer):
        import random

        rng = random.Random(20231020)
        for _ in range(40):
            memory = make_memory(rng.choice(["gcc-O0", "clang-O2"]), self.GLOBALS, sanitizer)
            segments = _segments(memory)

            def near_an_end(segment):
                # An offset within 600 bytes of either end of the segment.
                width = min(600, len(segment))
                return rng.choice([rng.randrange(width), len(segment) - 1 - rng.randrange(width)])

            for _base, segment in segments:
                # Sparse NULs near both ends of every segment.
                for _ in range(1200):
                    segment[near_an_end(segment)] = 0 if rng.random() < 0.01 else rng.randrange(1, 256)
            if sanitizer == "asan":
                for _ in range(rng.randrange(12)):
                    base, segment = rng.choice(segments)
                    why = rng.choice(["heap-use-after-free", "stack-buffer-overflow"])
                    memory._add_poison(base + near_an_end(segment), rng.randrange(1, 40), why)
            for _ in range(30):
                base, segment = rng.choice(segments)
                limit = rng.choice([1 << 16, rng.randrange(700)])
                self.assert_same(
                    memory, base + near_an_end(segment), line=rng.randrange(50), limit=limit
                )
