"""Tests for simulated node memory and buffers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.memory import Buffer, MemoryError_, NodeMemory


class TestAllocator:
    def test_alloc_returns_aligned_nonzero(self):
        mem = NodeMemory()
        a = mem.alloc(100)
        assert a >= NodeMemory.BASE
        assert a % 64 == 0

    def test_allocations_do_not_overlap(self):
        mem = NodeMemory()
        spans = []
        for n in (100, 1, 64, 4096, 7):
            a = mem.alloc(n)
            spans.append((a, a + n))
        spans.sort()
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_zero_or_negative_alloc_rejected(self):
        mem = NodeMemory()
        with pytest.raises(MemoryError_):
            mem.alloc(0)
        with pytest.raises(MemoryError_):
            mem.alloc(-5)

    def test_free(self):
        mem = NodeMemory()
        a = mem.alloc(128)
        assert mem.allocated_bytes == 128
        mem.free(a)
        assert mem.allocated_bytes == 0
        with pytest.raises(MemoryError_):
            mem.free(a)

    def test_freed_region_not_accessible(self):
        mem = NodeMemory()
        a = mem.alloc(128)
        mem.free(a)
        with pytest.raises(MemoryError_):
            mem.read(a, 1)

    def test_free_keeps_the_other_regions_addressable(self):
        mem = NodeMemory()
        addrs = [mem.alloc(64) for _ in range(8)]
        for i, a in enumerate(addrs):
            mem.write(a, bytes([i + 1]))
        for a in addrs[1::2]:
            mem.free(a)
        for i, a in enumerate(addrs):
            if i % 2:
                with pytest.raises(MemoryError_):
                    mem.read(a, 1)
            else:
                assert mem.read(a, 1) == bytes([i + 1])


class TestAccess:
    def test_write_read_roundtrip(self):
        mem = NodeMemory()
        a = mem.alloc(16)
        mem.write(a, b"hello world!!!:)")
        assert mem.read(a, 16) == b"hello world!!!:)"

    def test_interior_access(self):
        mem = NodeMemory()
        a = mem.alloc(100)
        mem.write(a + 10, b"abc")
        assert mem.read(a + 10, 3) == b"abc"
        assert mem.read(a + 9, 1) == b"\x00"

    def test_view_is_writable(self):
        mem = NodeMemory()
        a = mem.alloc(8)
        v = mem.view(a, 8)
        v[:] = 7
        assert mem.read(a, 8) == bytes([7] * 8)

    def test_out_of_bounds_rejected(self):
        mem = NodeMemory()
        a = mem.alloc(10)
        with pytest.raises(MemoryError_):
            mem.read(a, 11)
        with pytest.raises(MemoryError_):
            mem.read(a + 5, 6)

    def test_unmapped_address_rejected(self):
        mem = NodeMemory()
        with pytest.raises(MemoryError_):
            mem.read(0x1234, 1)
        mem.alloc(10)
        with pytest.raises(MemoryError_):
            mem.read(NodeMemory.BASE - 64, 1)

    def test_numpy_write(self):
        mem = NodeMemory()
        a = mem.alloc(40)
        arr = np.arange(10, dtype=np.float32)
        mem.write(a, arr.view(np.uint8))
        back = np.frombuffer(mem.read(a, 40), dtype=np.float32)
        np.testing.assert_array_equal(back, arr)

    def test_copy_within(self):
        mem = NodeMemory()
        a = mem.alloc(32)
        mem.write(a, b"0123456789abcdef" * 2)
        mem.copy_within(a + 16, a, 16)
        assert mem.read(a + 16, 16) == b"0123456789abcdef"

    def test_copy_within_overlapping(self):
        mem = NodeMemory()
        a = mem.alloc(10)
        mem.write(a, b"0123456789")
        mem.copy_within(a + 2, a, 8)
        assert mem.read(a, 10) == b"0101234567"

    def test_fill(self):
        mem = NodeMemory()
        a = mem.alloc(5)
        mem.fill(a, 5, 0xAB)
        assert mem.read(a, 5) == b"\xab" * 5

    def test_zero_length_read(self):
        mem = NodeMemory()
        a = mem.alloc(4)
        assert mem.read(a, 0) == b""


class TestBuffer:
    def test_alloc_and_roundtrip(self):
        mem = NodeMemory()
        buf = Buffer.alloc(mem, 32, "test")
        buf.write(b"x" * 32)
        assert buf.read() == b"x" * 32
        assert len(buf) == 32

    def test_sub_buffer_shares_storage(self):
        mem = NodeMemory()
        buf = Buffer.alloc(mem, 32)
        sub = buf.sub(8, 8)
        sub.write(b"ABCDEFGH")
        assert buf.read()[8:16] == b"ABCDEFGH"

    def test_sub_buffer_defaults_to_rest(self):
        mem = NodeMemory()
        buf = Buffer.alloc(mem, 32)
        assert len(buf.sub(10)) == 22

    def test_sub_buffer_bounds(self):
        mem = NodeMemory()
        buf = Buffer.alloc(mem, 32)
        with pytest.raises(MemoryError_):
            buf.sub(30, 4)
        with pytest.raises(MemoryError_):
            buf.sub(-1, 2)


class TestProperties:
    @given(data=st.binary(min_size=1, max_size=4096),
           offset=st.integers(0, 512))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_any_payload_any_offset(self, data, offset):
        mem = NodeMemory()
        a = mem.alloc(offset + len(data))
        mem.write(a + offset, data)
        assert mem.read(a + offset, len(data)) == data

    @given(data=st.binary(min_size=2, max_size=200),
           shift=st.integers(1, 100), forward=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_overlapping_copy_is_memmove(self, data, shift, forward):
        """Overlapping copies in both directions match a ``bytearray``
        memmove."""
        shift = min(shift, len(data) - 1)
        n = len(data) - shift
        src, dst = (0, shift) if forward else (shift, 0)
        mem = NodeMemory()
        a = mem.alloc(len(data))
        mem.write(a, data)
        mem.copy_within(a + dst, a + src, n)
        want = bytearray(data)
        want[dst:dst + n] = want[src:src + n]
        assert mem.read(a, len(data)) == bytes(want)

    @given(st.lists(st.integers(1, 10_000), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_disjointness_under_many_allocations(self, sizes):
        mem = NodeMemory()
        addrs = [(mem.alloc(n), n) for n in sizes]
        # writing a distinct byte into each region must not interfere
        for i, (a, n) in enumerate(addrs):
            mem.fill(a, n, (i % 255) + 1)
        for i, (a, n) in enumerate(addrs):
            assert mem.read(a, n) == bytes([(i % 255) + 1]) * n
