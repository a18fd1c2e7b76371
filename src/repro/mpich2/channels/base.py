"""The MPICH2 RDMA Channel interface (§3.2 of the paper).

The interface contains five functions, "among which only two are
central to communication":

=================  =====================================================
``initialize``     process-management / bring-up (here: allocate the
                   per-peer resources once the mesh is wired)
``establish``      connection setup to one peer (QPs, rings, key
                   exchange — done out-of-band at init time, like the
                   paper's address/rkey exchange)
``finalize``       teardown (deregister rings, flush caches)
``put``            write bytes into the FIFO pipe to a peer
``get``            read bytes from the FIFO pipe from a peer
=================  =====================================================

``put``/``get`` take a connection and a list of buffers (an iov) and
return the number of bytes completed; zero means "retry later" —
they are non-blocking in the paper's sense (they never wait for the
*whole* operation), although as simulation coroutines they do consume
the CPU/copy time of whatever work they perform.

The FIFO-pipe contract (Fig. 2): bytes come out of ``get`` in exactly
the order ``put`` pushed them, regardless of the design underneath —
this invariant is property-tested across all five implementations.
"""

from __future__ import annotations

import abc
from typing import Dict, Generator, List, Optional, Sequence

from ...config import ChannelConfig, HardwareConfig
from ...hw.memory import Buffer
from ...ib.verbs import VapiContext
from ...tune import NULL_TUNER

__all__ = ["RdmaChannel", "Connection", "IovCursor", "advance_iov",
           "clamp_iov", "iov_total", "ChannelError",
           "ChannelBrokenError"]


class ChannelError(Exception):
    """Root of the channel error hierarchy.

    Every failure a channel can signal derives from this class, across
    all transports: protocol violations (FIFO underrun, malformed
    chunk, unknown peer), misuse (get() offering more room than the
    message has left), and — via :class:`ChannelBrokenError` — dead
    transports.  Callers above the channel layer need exactly one
    ``except ChannelError`` clause; no bare ``OSError``/``RuntimeError``
    escapes a conforming implementation."""


class ChannelBrokenError(ChannelError):
    """The underlying transport failed unrecoverably: QP in error
    state after retry exhaustion, flushed/errored completions, a TCP
    socket reset/closed underfoot, or a shared-memory segment torn
    down by the peer's finalize.  The connection is dead.  CH3
    converts this into an MPI error so rank programs see an
    exception, never a hang."""


def iov_total(iov: Sequence[Buffer]) -> int:
    return sum(len(b) for b in iov)


def advance_iov(iov: Sequence[Buffer], nbytes: int) -> List[Buffer]:
    """The caller-side retry helper: drop the first ``nbytes`` bytes of
    an iov, returning the remainder as (sub-)buffers."""
    out: List[Buffer] = []
    left = nbytes
    for buf in iov:
        if left >= len(buf):
            left -= len(buf)
            continue
        out.append(buf.sub(left) if left else buf)
        left = 0
    if left:
        raise ValueError(f"cannot advance {nbytes} bytes in an iov of "
                         f"{iov_total(iov)}")
    return out


def clamp_iov(iov: Sequence[Buffer], nbytes: int) -> List[Buffer]:
    """Truncate an iov to at most ``nbytes`` total — essential on the
    receive path: a get() must never offer the channel more room than
    the current message has left, or the FIFO stream's *next* message
    would be drained into this message's buffer."""
    out: List[Buffer] = []
    left = nbytes
    for buf in iov:
        if left <= 0:
            break
        take = min(left, len(buf))
        out.append(buf if take == len(buf) else buf.sub(0, take))
        left -= take
    return out


class IovCursor:
    """Walks an iov inside a single put/get call."""

    def __init__(self, iov: Sequence[Buffer]):
        self._bufs = [b for b in iov if len(b) > 0]
        self._i = 0
        self._off = 0
        self.consumed = 0

    @property
    def exhausted(self) -> bool:
        return self._i >= len(self._bufs)

    def remaining(self) -> int:
        if self.exhausted:
            return 0
        total = len(self._bufs[self._i]) - self._off
        for b in self._bufs[self._i + 1:]:
            total += len(b)
        return total

    def element_remaining(self) -> int:
        """Bytes left in the current iov element."""
        if self.exhausted:
            return 0
        return len(self._bufs[self._i]) - self._off

    def at_element_start(self) -> bool:
        return not self.exhausted and self._off == 0

    def current(self, nbytes: Optional[int] = None) -> Buffer:
        """Sub-buffer at the cursor, at most ``nbytes`` long, never
        crossing the current element."""
        if self.exhausted:
            raise ChannelError("iov cursor exhausted")
        buf = self._bufs[self._i]
        avail = len(buf) - self._off
        take = avail if nbytes is None else min(nbytes, avail)
        return buf.sub(self._off, take)

    def advance(self, nbytes: int) -> None:
        left = nbytes
        while left > 0:
            if self.exhausted:
                raise ChannelError("advance past end of iov")
            avail = len(self._bufs[self._i]) - self._off
            step = min(left, avail)
            self._off += step
            left -= step
            if self._off == len(self._bufs[self._i]):
                self._i += 1
                self._off = 0
        self.consumed += nbytes

    def mark(self):
        """Snapshot the cursor position (element index, offset,
        consumed count) for a later :meth:`reset` — used by the
        zero-copy receiver to rewind when registering the destination
        fails partway through."""
        return (self._i, self._off, self.consumed)

    def reset(self, mark) -> None:
        """Rewind to a position captured by :meth:`mark`."""
        self._i, self._off, self.consumed = mark


class Connection:
    """One end of a channel connection between two ranks."""

    def __init__(self, channel: "RdmaChannel", peer_rank: int):
        self.channel = channel
        self.peer_rank = peer_rank
        #: filled in by the concrete design during establish()
        self.qp = None

    @property
    def local_rank(self) -> int:
        return self.channel.rank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.local_rank}->"
                f"{self.peer_rank} via {type(self.channel).__name__}>")


class RdmaChannel(abc.ABC):
    """Abstract base of the five-function interface.

    One instance exists per MPI process; the concrete designs are
    listed in :mod:`repro.mpich2.channels`.
    """

    #: True when wait hints differ per connection (shared-memory
    #: gates); IB designs share one per-node gate.
    hint_per_connection: bool = False

    def __init__(self, *, rank: int, node, ctx: VapiContext,
                 cfg: Optional[HardwareConfig] = None,
                 ch_cfg: Optional[ChannelConfig] = None):
        self.rank = rank
        self.node = node
        self.ctx = ctx
        self.cfg = cfg if cfg is not None else HardwareConfig()
        self.ch_cfg = ch_cfg if ch_cfg is not None else ChannelConfig()
        #: the design's controller; stays NULL_TUNER unless a design
        #: that supports adaptation replaces it (see AdaptiveChannel).
        self.tuner = NULL_TUNER
        self.conns: Dict[int, Connection] = {}
        self.finalized = False
        #: cluster-wide observability hub (NULL_OBS unless the run was
        #: built with an enabled one); every design shares this wiring.
        self.obs = node.cluster.obs
        self.metrics = self.obs.metrics.scope(f"rank{rank}.channel")
        self.timeline = self.obs.timeline

    # -- the five functions --------------------------------------------
    def initialize(self, world_size: int) -> None:
        """Process-management hook (the paper folds PMI here)."""
        self.world_size = world_size

    @classmethod
    @abc.abstractmethod
    def establish(cls, a: "RdmaChannel", b: "RdmaChannel") -> None:
        """Create the connection between channels ``a`` and ``b``:
        QPs, rings, staging buffers, and the out-of-band address/rkey
        exchange the paper performs during initialization."""

    def finalize(self) -> Generator:
        """Tear down (idempotent)."""
        self.finalized = True
        return
        yield  # pragma: no cover - makes this a generator; lint: allow(silent-generator, intentional empty generator)

    @abc.abstractmethod
    def put(self, conn: Connection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        """Write the iov into the pipe; returns bytes completed."""

    @abc.abstractmethod
    def get(self, conn: Connection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        """Read from the pipe into the iov; returns bytes completed."""

    # -- simulation support ----------------------------------------------
    def wait_hints(self, conn: Connection) -> list:
        """Events whose firing may make put/get on ``conn``
        productive; the progress engine sleeps on these instead of
        spinning (costs are still charged on wake)."""
        return [self.node.hca.inbound_gate.wait()]

    def recv_watch_addr(self, conn: Connection) -> Optional[int]:
        """Local address whose inbound RDMA placement signals that
        ``get`` on ``conn`` may yield data.

        A channel may only return an address if (a) every inbound
        message is announced by the peer writing that exact word
        *after* its data is placed, and (b) an empty ``get`` is free
        of simulated cost (no yields) — the CH3 progress engine then
        skips the ``get`` entirely between placements, so any
        would-be empty-poll cost would change timing.  ``None`` (the
        default) keeps the unconditional per-sweep poll."""
        return None

    def stall_edges(self) -> list:
        """Wait-for edges this channel can currently explain:
        ``(src_rank, dst_rank, reason)`` triples meaning "src_rank
        cannot make progress until dst_rank acts".  Consulted by the
        deadlock detector (:mod:`repro.obs.waitgraph`) only after the
        event queue has drained — never on the hot path."""
        return []

    def conn_to(self, peer_rank: int) -> Connection:
        try:
            return self.conns[peer_rank]
        except KeyError:
            raise ChannelError(
                f"rank {self.rank} has no connection to {peer_rank}"
            ) from None
