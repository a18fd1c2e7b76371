"""ADI3 — the Abstract Device Interface (third generation).

MPICH2's portability layer (paper §3.1): the MPI layer above talks
only to this interface; CH3 (and the CH3-level RDMA device of §6)
implement it.  We model the subset MPI-1 point-to-point needs —
nonblocking send/receive plus a progress engine — which is what the
paper's evaluation exercises.
"""

from __future__ import annotations

import abc
import itertools
from typing import Generator, Optional, Sequence

from ..hw.memory import Buffer

__all__ = ["Adi3Device", "Request", "ANY_SOURCE", "ANY_TAG",
           "MpiError", "TruncateError"]

ANY_SOURCE = -1
ANY_TAG = -1

_req_ids = itertools.count(1)


class MpiError(Exception):
    """MPI-level error."""


class TruncateError(MpiError):
    """Incoming message longer than the posted receive buffer."""


class Request:
    """A nonblocking operation handle (MPID_Request)."""

    __slots__ = ("req_id", "kind", "done", "error", "source", "tag",
                 "count", "cancelled")

    def __init__(self, kind: str):
        self.req_id = next(_req_ids)
        self.kind = kind            # "send" | "recv"
        self.done = False
        self.error: Optional[BaseException] = None
        # completion information (receive side)
        self.source: Optional[int] = None
        self.tag: Optional[int] = None
        self.count: int = 0
        self.cancelled = False

    def complete(self, source: Optional[int] = None,
                 tag: Optional[int] = None, count: int = 0) -> None:
        self.done = True
        if source is not None:
            self.source = source
        if tag is not None:
            self.tag = tag
        self.count = count

    def fail(self, exc: BaseException) -> None:
        self.error = exc
        self.done = True

    def check(self) -> None:
        if self.error is not None:
            raise self.error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"<Request {self.kind} #{self.req_id} {state}>"


class Adi3Device(abc.ABC):
    """One ADI3 device instance exists per MPI process."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size

    @abc.abstractmethod
    def isend(self, iov: Sequence[Buffer], dest: int, tag: int,
              context: int) -> Generator[None, None, Request]:
        """Start a nonblocking send of the iov bytes."""

    @abc.abstractmethod
    def irecv(self, iov: Sequence[Buffer], source: int, tag: int,
              context: int) -> Generator[None, None, Request]:
        """Start a nonblocking receive into the iov (source/tag may be
        ANY_SOURCE/ANY_TAG)."""

    @abc.abstractmethod
    def progress(self, block: bool) -> Generator[None, None, bool]:
        """Advance outstanding communication; returns True if anything
        moved.  With ``block``, sleeps until progress is possible."""

    @abc.abstractmethod
    def iprobe(self, source: int, tag: int, context: int):
        """Non-destructive match against arrived-but-unclaimed
        messages; returns (source, tag, count) or None."""

    def wait(self, req: Request) -> Generator:
        """Block until ``req`` completes (MPI_Wait)."""
        while not req.done:
            yield from self.progress(block=True)
        req.check()
        return req

    @abc.abstractmethod
    def finalize(self) -> Generator:
        """Drain and tear down."""
