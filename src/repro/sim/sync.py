"""Synchronization primitives on top of the event engine.

These are the building blocks the hardware and protocol layers use:
FIFO stores (mailboxes), counting resources (servers), and gates
(broadcast conditions).
"""

from __future__ import annotations

from typing import Any, Generator, Iterator, List, Optional

from .engine import Event, Simulator

__all__ = ["Fifo", "Store", "Resource", "Gate"]


class Fifo:
    """A list-backed FIFO queue (append / popleft), API-compatible
    with the ``collections.deque`` subset the simulator uses.

    This class exists for allocation behaviour, not algorithmic
    reasons.  A CPython deque is a ~760-byte C allocation that
    bypasses the small-object allocator, and a large world
    instantiates queues per QP, CQ and connection — at half a million
    ranks' worth of mesh, the resulting glibc allocations crossed a
    malloc cliff that made world construction ~30x slower.  A list
    starts tiny inside pymalloc and never hits that path.  Pops
    advance a head index and compact lazily, so amortized cost stays
    O(1)."""

    __slots__ = ("_buf", "_head")

    def __init__(self) -> None:
        self._buf: List[Any] = []
        self._head = 0

    def __len__(self) -> int:
        return len(self._buf) - self._head

    def __bool__(self) -> bool:
        return len(self._buf) > self._head

    def __iter__(self) -> Iterator[Any]:
        return iter(self._buf[self._head:])

    def __getitem__(self, i: int) -> Any:
        # supports the peek patterns ``q[0]`` / ``q[-1]``
        if i < 0:
            i += len(self._buf) - self._head
        pos = self._head + i
        if not self._head <= pos < len(self._buf):
            raise IndexError("fifo index out of range")
        return self._buf[pos]

    def append(self, item: Any) -> None:
        self._buf.append(item)

    def popleft(self) -> Any:
        buf = self._buf
        head = self._head
        if head >= len(buf):
            raise IndexError("pop from an empty fifo")
        item = buf[head]
        buf[head] = None  # drop the reference immediately
        head += 1
        if head >= 16 and head * 2 >= len(buf):
            del buf[:head]
            head = 0
        self._head = head
        return item


class Store:
    """Unbounded (or bounded) FIFO mailbox.

    ``put(item)`` returns an event that fires once the item is stored
    (immediately unless the store is full); ``get()`` returns an event
    that fires with the next item in FIFO order.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.items: Fifo = Fifo()
        self._getters: Fifo = Fifo()
        self._putters: Fifo = Fifo()  # of (event, item)

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        ev = self.sim.event()
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            return True
        return False

    def get(self) -> Event:
        ev = self.sim.event()
        if self.items:
            ev.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple:
        """Non-blocking get; returns (True, item) or (False, None)."""
        if self.items:
            item = self.items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self.items) < self.capacity
        ):
            ev, item = self._putters.popleft()
            self.items.append(item)
            ev.succeed()


class Resource:
    """Counting resource (semaphore) with FIFO queueing.

    Typical use::

        yield res.acquire()
        try:
            ...
        finally:
            res.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Fifo = Fifo()

    def acquire(self) -> Event:
        ev = self.sim.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    def using(self, gen: Generator) -> Generator:
        """Run a sub-generator while holding the resource."""
        yield self.acquire()
        try:
            result = yield from gen
        finally:
            self.release()
        return result


class Gate:
    """A broadcast condition: processes wait(); open() wakes them all.

    Unlike :class:`~repro.sim.engine.Event`, a Gate is reusable — each
    ``wait()`` creates a fresh one-shot event tied to the *next*
    ``open()``.  Used for "something changed, re-poll" notifications
    (e.g. the MPI progress engine).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._waiters: Fifo = Fifo()

    def wait(self) -> Event:
        ev = self.sim.event()
        self._waiters.append(ev)
        return ev

    def open(self, value: Any = None) -> int:
        """Wake every current waiter; returns how many were woken."""
        n = len(self._waiters)
        while self._waiters:
            self._waiters.popleft().succeed(value)
        return n
