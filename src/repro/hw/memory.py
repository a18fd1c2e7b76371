"""Simulated per-node physical memory.

Memory holds **real bytes** (numpy ``uint8`` arrays), so every RDMA
operation in the simulator genuinely moves data and the test suite can
assert end-to-end integrity — a zero-copy bug that corrupts payloads is
caught by content checks, not just by timing.

Addresses are integers in a flat per-node address space managed by a
simple first-fit allocator.  Reads and writes may target any
``(addr, len)`` range inside an allocated region (RDMA descriptors
routinely point into the middle of registered buffers).

**Memory nobody wrote is never allocated.**  A region starts with no
backing array.  While its backing is ``None`` the region has never been
written, so every byte of it reads as zero, and every path that only
*reads* it leaves it that way:

* :meth:`NodeMemory.read` returns ``bytes(n)``;
* :meth:`NodeMemory.snapshot` returns a :class:`Zeros` payload;
* :meth:`NodeMemory.write` of a :class:`Zeros` payload into an
  unwritten region does nothing (into a written one it zero-fills the
  range), and :meth:`NodeMemory.copy_within` from an unwritten source
  is exactly that write.

:meth:`NodeMemory.view` allocates the backing (zero-filled), because the
caller may write through the alias it hands out.  A large world pins a
ring and a staging buffer per peer, most of which never carry a byte;
under this rule they cost address space, not host RAM.  Every byte the
program observes is the same as with eager zeroed backing.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Union

import numpy as np

__all__ = ["NodeMemory", "MemoryError_", "Buffer", "Zeros"]

Bytes = Union[bytes, bytearray, memoryview, np.ndarray]


class MemoryError_(Exception):
    """Bad address, overlapping ranges, or out-of-bounds access."""


class Zeros:
    """``nbytes`` zero bytes read from memory nobody wrote: a payload
    that owns no storage.  Slices are ``Zeros`` too; :meth:`tobytes`
    materializes it for consumers that need real bytes (CRC, fault
    corruption)."""

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int):
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.nbytes

    def __getitem__(self, key: slice) -> "Zeros":
        start, stop, step = key.indices(self.nbytes)
        assert step == 1, "Zeros slices are contiguous"
        return Zeros(max(stop - start, 0))

    def tobytes(self) -> bytes:
        return bytes(self.nbytes)


class _Region:
    __slots__ = ("start", "length", "data", "name")

    def __init__(self, start: int, length: int, name: str):
        self.start = start
        self.length = length
        #: the backing array; ``None`` until the region is first viewed
        #: or written, and until then every byte of it reads as zero
        self.data: Optional[np.ndarray] = None
        self.name = name

    @property
    def end(self) -> int:
        return self.start + self.length


class NodeMemory:
    """Flat address space of one node."""

    #: allocations start here so that 0/small ints are never valid
    #: addresses (catches uninitialized-pointer bugs in protocol code).
    BASE = 0x1000_0000

    def __init__(self, node_id: int = 0, alignment: int = 64):
        if alignment & (alignment - 1):
            raise ValueError("alignment must be a power of two")
        self.node_id = node_id
        self.alignment = alignment
        self._starts: List[int] = []          # sorted region starts
        self._regions: Dict[int, _Region] = {}  # start -> region
        self._next = self.BASE
        self.allocated_bytes = 0
        #: bytes of live regions that have a backing array right now
        self.resident_bytes = 0

    # -- allocation ------------------------------------------------------
    def alloc(self, nbytes: int, name: str = "") -> int:
        """Allocate ``nbytes``; returns the starting address."""
        if nbytes <= 0:
            raise MemoryError_(f"allocation size must be positive: {nbytes}")
        addr = (self._next + self.alignment - 1) & ~(self.alignment - 1)
        region = _Region(addr, nbytes, name)
        # ``_next`` is monotonic, so ``addr`` exceeds every existing
        # start — appending keeps ``_starts`` sorted without a bisect.
        self._starts.append(addr)
        self._regions[addr] = region
        self._next = addr + nbytes
        self.allocated_bytes += nbytes
        return addr

    def free(self, addr: int) -> None:
        region = self._regions.pop(addr, None)
        if region is None:
            raise MemoryError_(f"free of non-allocated address {addr:#x}")
        del self._starts[bisect.bisect_left(self._starts, addr)]
        self.allocated_bytes -= region.length
        if region.data is not None:
            self.resident_bytes -= region.length

    def region_of(self, addr: int, nbytes: int = 1) -> _Region:
        """The region containing ``[addr, addr+nbytes)`` — raises if the
        range is unmapped or spans regions."""
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx < 0:
            raise MemoryError_(f"unmapped address {addr:#x}")
        region = self._regions[self._starts[idx]]
        if addr + nbytes > region.end:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + nbytes:#x}) crosses the end "
                f"of region {region.name!r} at {region.end:#x}"
            )
        return region

    def _backing(self, region: _Region) -> np.ndarray:
        """``region``'s array, allocated zero-filled on first use."""
        data = region.data
        if data is None:
            data = region.data = np.zeros(region.length, dtype=np.uint8)
            self.resident_bytes += region.length
        return data

    # -- access ----------------------------------------------------------
    def view(self, addr: int, nbytes: int) -> np.ndarray:
        """Writable ``uint8`` view of ``[addr, addr+nbytes)``; backs the
        region if it was unwritten."""
        if nbytes < 0:
            raise MemoryError_("negative length")
        if nbytes == 0:
            return np.empty(0, dtype=np.uint8)
        region = self.region_of(addr, nbytes)
        off = addr - region.start
        return self._backing(region)[off:off + nbytes]

    def snapshot(self, addr: int, nbytes: int) -> Union[np.ndarray, Zeros]:
        """A copy of ``[addr, addr+nbytes)`` that later writes do not
        change: ``Zeros`` if the region is unwritten (or the range
        empty), else a fresh array."""
        if nbytes < 0:
            raise MemoryError_("negative length")
        if nbytes == 0:
            return Zeros(0)
        region = self.region_of(addr, nbytes)
        if region.data is None:
            return Zeros(nbytes)
        off = addr - region.start
        return region.data[off:off + nbytes].copy()

    def read(self, addr: int, nbytes: int) -> bytes:
        if nbytes < 0:
            raise MemoryError_("negative length")
        if nbytes == 0:
            return b""
        region = self.region_of(addr, nbytes)
        if region.data is None:
            return bytes(nbytes)
        off = addr - region.start
        return region.data[off:off + nbytes].tobytes()

    def write(self, addr: int, data: Union[Bytes, Zeros]) -> None:
        if isinstance(data, Zeros):
            if data.nbytes:
                region = self.region_of(addr, data.nbytes)
                if region.data is not None:
                    off = addr - region.start
                    region.data[off:off + data.nbytes] = 0
            return
        buf = np.frombuffer(bytes(data) if isinstance(data, memoryview)
                            else data, dtype=np.uint8) \
            if not isinstance(data, np.ndarray) else \
            np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
        self.view(addr, buf.size)[:] = buf

    def copy_within(self, dst: int, src: int, nbytes: int) -> None:
        """memmove-style copy inside this node's memory."""
        if nbytes < 0:
            raise MemoryError_("negative length")
        if nbytes == 0:
            return
        region = self.region_of(src, nbytes)
        if region.data is None:
            self.write(dst, Zeros(nbytes))
            return
        off = src - region.start
        # numpy detects the overlap of the two slices and buffers the
        # source itself, so one assignment is a memmove
        self.view(dst, nbytes)[:] = region.data[off:off + nbytes]

    def fill(self, addr: int, nbytes: int, value: int = 0) -> None:
        self.view(addr, nbytes)[:] = value


class Buffer:
    """Convenience handle: an allocated range plus its memory.

    Protocol layers pass these around instead of raw ``(mem, addr,
    len)`` triples.  Slicing a Buffer yields a sub-Buffer over the same
    storage (no allocation).
    """

    __slots__ = ("mem", "addr", "nbytes")

    def __init__(self, mem: NodeMemory, addr: int, nbytes: int):
        self.mem = mem
        self.addr = addr
        self.nbytes = nbytes

    @classmethod
    def alloc(cls, mem: NodeMemory, nbytes: int, name: str = "") -> "Buffer":
        return cls(mem, mem.alloc(nbytes, name), nbytes)

    def sub(self, offset: int, nbytes: Optional[int] = None) -> "Buffer":
        if nbytes is None:
            nbytes = self.nbytes - offset
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise MemoryError_(
                f"sub-buffer [{offset}, {offset + nbytes}) outside "
                f"buffer of {self.nbytes} bytes"
            )
        return Buffer(self.mem, self.addr + offset, nbytes)

    def view(self) -> np.ndarray:
        return self.mem.view(self.addr, self.nbytes)

    def read(self) -> bytes:
        return self.mem.read(self.addr, self.nbytes)

    def write(self, data: Bytes) -> None:
        self.mem.write(self.addr, data)

    def __len__(self) -> int:
        return self.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Buffer node={self.mem.node_id} addr={self.addr:#x} "
                f"len={self.nbytes}>")
