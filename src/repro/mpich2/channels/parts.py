"""Connection parts the RDMA designs share.

The designs of §4–§5 differ in where data lands and how arrival is
announced; the mechanisms below are the same in all of them and live
here once.  Each yields exactly what the code it replaced yielded, in
the same order, so a design's event sequence does not depend on which
parts it is built from.

:func:`window_open` and :func:`replenish_due` are the two predicates
the credit window is built from.  The parts call them through this
module's namespace, and so do the protocol models of
:mod:`repro.analysis.model.machines`: one patch reaches both.
"""

from __future__ import annotations

import struct
from typing import Generator, Optional, Tuple

from ...hw.memory import Buffer
from ...ib.types import WcStatus
from ...obs import NULL_METRICS
from .base import ChannelBrokenError, ChannelError, IovCursor

__all__ = ["window_open", "replenish_due", "pinned", "rc_pair",
           "write_done", "wrapped", "copy_iov", "Replica", "CreditWindow",
           "CreditReturn"]

_U64 = struct.Struct("<Q")
_NULL = NULL_METRICS.counter("null")  # the shared no-op metric


def window_open(sent: int, acked: int, window: int) -> bool:
    """Sender: one more unit may go out while fewer than ``window``
    are unacknowledged."""
    return sent - acked < window


def replenish_due(consumed: int, credit_sent: int, threshold: int) -> bool:
    """Receiver: return credit explicitly once the unreported
    consumption reaches ``threshold``."""
    return consumed - credit_sent >= threshold


def pinned(node, nbytes: int, name: str) -> Tuple[Buffer, object]:
    """Allocate ``nbytes`` of ``node`` memory and register it; returns
    ``(buffer, memory region)``."""
    buf = node.alloc(nbytes, name)
    return buf, node.hca.pd.register(buf.addr, nbytes)


def rc_pair(conn_cls, a, b) -> Tuple:
    """Connect channels ``a`` and ``b`` with one RC QP each (each on
    its own CQ) and enrol a ``conn_cls`` connection at both ends."""
    if a.rank == b.rank:
        raise ChannelError("cannot connect a rank to itself")
    conn_a, conn_b = conn_cls(a, b.rank), conn_cls(b, a.rank)
    conn_a.qp, conn_b.qp = a.node.cluster.connect_pair(a.node.node_id,
                                                       b.node.node_id)
    a.conns[b.rank], b.conns[a.rank] = conn_a, conn_b
    return conn_a, conn_b


def write_done(ctx, qp, wr, what: str) -> Generator:
    """Wait for the completion of ``wr``, the last signaled write on
    ``qp``."""
    cqe = yield from ctx.wait_cq(qp.send_cq)
    if cqe.status is not WcStatus.SUCCESS:
        # retry exhaustion / flush error: the connection is dead
        raise ChannelBrokenError(f"{what} write failed: {cqe.status}")
    if cqe.wr_id != wr.wr_id:
        raise ChannelError(
            f"expected completion of wr {wr.wr_id}, got {cqe.wr_id}")
    return None


def wrapped(start: int, nbytes: int, size: int) -> Tuple:
    """The ``(offset, length)`` runs covering ``nbytes`` from offset
    ``start`` of a ``size``-byte ring: one run, or two on wraparound."""
    first = min(nbytes, size - start)
    if first < nbytes:
        return (start, first), (0, nbytes - first)
    return ((start, first),)


def copy_iov(node, cur: IovCursor, addr: int, nbytes: int,
             into_iov: bool, working_set: Optional[int] = None
             ) -> Generator:
    """Charged copy of ``nbytes`` between the iov at ``cur`` and the
    contiguous region at ``addr`` (into the iov when ``into_iov``),
    one memcpy per iov piece; advances the cursor."""
    off = 0
    while off < nbytes:
        piece = cur.current(nbytes - off)
        n = len(piece)
        dst, src = ((piece.addr, addr + off) if into_iov
                    else (addr + off, piece.addr))
        yield from node.membus.memcpy(node.mem, dst, src, n,
                                      working_set=working_set)
        cur.advance(n)
        off += n
    return None


class Replica:
    """A u64 in the reader's memory that the writer updates with one
    RDMA write from an 8-byte staging word of its own: the basic
    design's head and tail pointers (§4.2), the chunked ring's tail
    replica (§4.3), the SRQ credit replica.  Both ends of a connection
    hold the same object (the out-of-band address/rkey exchange); the
    reader calls :meth:`read`, the writer :meth:`publish`."""

    __slots__ = ("buf", "rkey", "staging", "lkey")

    def __init__(self, replica: Tuple[Buffer, object],
                 staging: Tuple[Buffer, object]):
        self.buf, mr = replica
        self.rkey = mr.rkey
        self.staging, staging_mr = staging
        self.lkey = staging_mr.lkey

    def read(self) -> int:
        return _U64.unpack(self.buf.read())[0]

    def publish(self, ctx, qp, value: int, signaled: bool = False
                ) -> Generator:
        """RDMA-write ``value`` into the replica; returns the work
        request.  Values are monotonic counters, so a later write
        overtaking an in-flight one is harmless."""
        self.staging.write(_U64.pack(value))
        wr = yield from ctx.rdma_write(
            qp, [(self.staging.addr, 8, self.lkey)], self.buf.addr,
            self.rkey, signaled=signaled)
        return wr


class CreditWindow:
    """Sender half of the cumulative credit window: ``sent`` units
    posted, ``acked`` consumed by the peer — the larger of the credits
    piggybacked on its traffic and the replica it writes."""

    def __init__(self, window: int, replica: Replica, in_flight=_NULL):
        self.window = window
        self.replica = replica
        self.sent = 0
        self.acked = 0
        self._in_flight = in_flight

    def absorb(self, credit: int) -> None:
        """Credits are monotonic counters; stale values are ignored."""
        if credit > self.acked:
            self.acked = credit
            self._in_flight.set(self.sent - self.acked)

    def is_open(self) -> bool:
        self.absorb(self.replica.read())
        return window_open(self.sent, self.acked, self.window)


class CreditReturn:
    """Receiver half: ``consumed`` units, the value last communicated
    (``credit_sent``), and the explicit return — an RDMA write of the
    count into the sender's replica.  That write needs no ring or pool
    slot, so flow control cannot deadlock with both directions full."""

    def __init__(self, ctx, qp, replica: Replica, threshold: int,
                 explicit_writes, piggybacked=_NULL):
        self.ctx = ctx
        self.qp = qp
        self.replica = replica
        self.consumed = 0
        self.credit_sent = 0
        #: writable: the adaptive controller retunes it per peer
        self.credit_threshold = max(1, threshold)
        self._m_explicit = explicit_writes
        self._m_piggybacked = piggybacked

    def piggyback(self) -> int:
        """The consumed count for an outgoing header to carry, counted
        when it communicates fresh consumption (§4.3's piggybacked
        update)."""
        if self.consumed > self.credit_sent:
            self._m_piggybacked.inc()
        self.credit_sent = self.consumed  # lint: allow(credit-publish, value rides in the outgoing header)
        return self.consumed

    def credit_due(self) -> bool:
        return replenish_due(self.consumed, self.credit_sent,
                             self.credit_threshold)

    def send_explicit_credit(self) -> Generator:
        """The §4.3 "extra message"; the write also pulses the
        sender's inbound gate, waking it if it stalled on credit."""
        yield from self.replica.publish(self.ctx, self.qp, self.consumed)
        self.credit_sent = self.consumed
        self._m_explicit.inc()
        return None
