"""Multi-method channel (paper Fig. 1's "Multi-Method" box).

MPICH2's implementation structure anticipates channels that pick a
transport per peer; the canonical combination — and the one clusters
of SMP nodes actually need — is shared memory within a node and the
RDMA network between nodes.  This channel composes the Fig. 3 SHM
implementation with the §5 zero-copy design: ``establish`` chooses per
pair, and put/get dispatch on the connection's owner.
"""

from __future__ import annotations

from typing import Generator, Sequence

from ...hw.memory import Buffer
from .base import Connection, RdmaChannel
from .chunked import ZeroCopyChannel
from .shm import ShmChannel

__all__ = ["MultiMethodChannel"]


class MultiMethodChannel(RdmaChannel):
    hint_per_connection = True

    def __init__(self, **kw):
        super().__init__(**kw)
        sub = dict(rank=self.rank, node=self.node, ctx=self.ctx,
                   cfg=self.cfg, ch_cfg=self.ch_cfg)
        self.shm = ShmChannel(**sub)
        self.net = ZeroCopyChannel(**sub)
        #: expose the network regcache (the CH3-RDMA device uses it)
        self.regcache = self.net.regcache

    def initialize(self, world_size: int) -> None:
        super().initialize(world_size)
        self.shm.initialize(world_size)
        self.net.initialize(world_size)

    @classmethod
    def establish(cls, a: "MultiMethodChannel", b: "MultiMethodChannel"
                  ) -> None:
        if a.node is b.node:
            ShmChannel.establish(a.shm, b.shm)
            conn_a = a.shm.conns[b.rank]
            conn_b = b.shm.conns[a.rank]
        else:
            ZeroCopyChannel.establish(a.net, b.net)
            conn_a = a.net.conns[b.rank]
            conn_b = b.net.conns[a.rank]
        a.conns[b.rank] = conn_a
        b.conns[a.rank] = conn_b

    # -- dispatch on the connection's owning sub-channel ----------------
    def put(self, conn: Connection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        result = yield from conn.channel.put(conn, iov)
        return result

    def get(self, conn: Connection, iov: Sequence[Buffer]
            ) -> Generator[None, None, int]:
        result = yield from conn.channel.get(conn, iov)
        return result

    def wait_hints(self, conn: Connection) -> list:
        return conn.channel.wait_hints(conn)

    def finalize(self) -> Generator:
        yield from self.shm.finalize()
        yield from self.net.finalize()
        self.finalized = True
        return None
