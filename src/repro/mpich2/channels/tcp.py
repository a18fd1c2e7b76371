"""TCP-socket channel (paper Fig. 1's "TCP Socket" box).

The CH3 byte pipe over the kernel TCP stack of
:mod:`repro.net.ipoib` — the baseline the RDMA designs are measured
against.  Payload bytes travel out-of-band in a Python FIFO alongside
the modelled kernel path (the kernel costs don't depend on content;
the data still arrives byte-exact, so the pipe property tests cover
this design too).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Sequence, Tuple

from ...hw.memory import Buffer
from ...net.ipoib import TcpConnection, TcpStack
from .base import (ChannelBrokenError, ChannelError, Connection,
                   IovCursor, RdmaChannel, iov_total)

__all__ = ["TcpChannel", "TcpChannelConnection"]


class TcpChannelConnection(Connection):
    def __init__(self, channel, peer_rank, tcp: TcpConnection,
                 end: int):
        super().__init__(channel, peer_rank)
        self.tcp = tcp
        #: my end index (0 or 1); my outbound direction equals my end
        self.end = end
        #: payload FIFO per direction: deque of bytes objects
        self.fifo: dict = tcp.__dict__.setdefault(
            "_payload_fifo", {0: deque(), 1: deque()})
        #: read offset into the head element of my inbound fifo
        self.head_off = 0

    @property
    def out_dir(self) -> int:
        return self.end

    @property
    def in_dir(self) -> int:
        return 1 - self.end

    @property
    def closed(self) -> bool:
        """True once either end's finalize closed the socket pair
        (the flag lives on the shared TcpConnection)."""
        return tcp_closed(self.tcp)


def tcp_closed(tcp: TcpConnection) -> bool:
    return tcp.__dict__.get("_closed", False)


class TcpChannel(RdmaChannel):
    hint_per_connection = True

    def __init__(self, **kw):
        super().__init__(**kw)
        self.stack = TcpStack(self.node.cluster.sim, self.node,
                              self.cfg)

    @classmethod
    def establish(cls, a: "TcpChannel", b: "TcpChannel") -> None:
        tcp = TcpConnection(a.stack, b.stack)
        a.conns[b.rank] = TcpChannelConnection(a, b.rank, tcp, 0)
        b.conns[a.rank] = TcpChannelConnection(b, a.rank, tcp, 1)

    def wait_hints(self, conn: TcpChannelConnection) -> list:
        return [conn.tcp.wait_rx(conn.in_dir),
                conn.tcp.wait_credit(conn.out_dir)]

    #: kernel-internal processing quantum: the stack hands the NIC
    #: bursts of this size, so successive bursts pipeline (softirq tx
    #: of burst n overlaps the user copy of burst n+1)
    TX_QUANTUM = 16 * 1024

    def put(self, conn: TcpChannelConnection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        if conn.closed:
            raise ChannelBrokenError(
                f"TCP connection to rank {conn.peer_rank} is closed "
                f"(peer finalized); put raced with socket teardown")
        total = iov_total(iov)
        cur = IovCursor(iov)
        sent = 0
        while sent < total:
            window = conn.tcp.window_free(conn.out_dir)
            n = min(total - sent, window, self.TX_QUANTUM)
            if n <= 0:
                break
            # snapshot the payload bytes (socket semantics: buffered
            # at send time) and push them down the kernel path
            chunks = []
            left = n
            while left > 0:
                piece = cur.current(left)
                chunks.append(piece.read())
                cur.advance(len(piece))
                left -= len(piece)
            conn.fifo[conn.out_dir].append(b"".join(chunks))
            try:
                yield from conn.tcp.send(conn.out_dir, n)
            except (OSError, RuntimeError) as exc:
                # kernel-stack failure surfaces through the unified
                # channel error hierarchy, never as a raw socket error
                raise ChannelBrokenError(
                    f"TCP send to rank {conn.peer_rank} failed: {exc}"
                ) from exc
            sent += n
        return sent

    def get(self, conn: TcpChannelConnection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        if conn.closed:
            raise ChannelBrokenError(
                f"TCP connection from rank {conn.peer_rank} is closed "
                f"(peer finalized); get raced with socket teardown")
        want = iov_total(iov)
        try:
            n = yield from conn.tcp.recv(conn.in_dir, want)
        except (OSError, RuntimeError) as exc:
            raise ChannelBrokenError(
                f"TCP recv from rank {conn.peer_rank} failed: {exc}"
            ) from exc
        if n <= 0:
            return 0
        # drain n bytes from the payload FIFO into the iov
        cur = IovCursor(iov)
        fifo = conn.fifo[conn.in_dir]
        left = n
        while left > 0:
            if not fifo:
                raise ChannelError("TCP payload FIFO underrun")
            head = fifo[0]
            avail = len(head) - conn.head_off
            piece = cur.current(min(left, avail))
            take = len(piece)
            piece.write(head[conn.head_off:conn.head_off + take])
            cur.advance(take)
            conn.head_off += take
            left -= take
            if conn.head_off == len(head):
                fifo.popleft()
                conn.head_off = 0
        return n

    def finalize(self) -> Generator:
        """Close every socket pair (the flag is shared with the peer
        end, so its next put/get observes the teardown as a
        :class:`ChannelBrokenError` rather than hanging)."""
        if not self.finalized:
            for conn in self.conns.values():
                conn.tcp.__dict__["_closed"] = True
        self.finalized = True
        return None
        yield  # pragma: no cover - makes this a generator; lint: allow(silent-generator, intentional empty generator)
