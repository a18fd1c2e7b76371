"""Receive gating: CH3 skips a connection whose ring nothing announced.

Two properties make the skip invisible.  An empty ``get`` costs no
simulated time on any ring design, and a gated run is the ungated run
minus those empty polls: same clock, same events, same state.
"""

import hashlib

import numpy as np
import pytest

from repro.check.pins import GEOMETRIES, left_behind
from repro.config import KB
from repro.faults import FaultPlan
from repro.mpi.runner import run_world
from repro.mpich2.channels import ChunkedChannel, MultiMethodChannel
from repro.obs import Observability

from helpers import get_all, make_channel_pair, put_all, run_procs

RING_DESIGNS = ("basic", "piggyback", "pipeline", "zerocopy", "adaptive",
                "multimethod")


def _first_next(gen):
    """Drive ``gen`` once; it must finish without yielding."""
    with pytest.raises(StopIteration) as stop:
        next(gen)
    return stop.value.value


@pytest.mark.parametrize("design", RING_DESIGNS)
def test_an_empty_get_is_free(design):
    """Before any traffic and after a message has been drained, a get
    on the empty pipe returns 0 on its first step with the clock
    unmoved (multimethod: its IB leg, the two ranks on two nodes)."""
    cluster, ch0, ch1, c0, c1 = make_channel_pair(design)
    dst = cluster.nodes[1].alloc(64 * KB)
    assert _first_next(ch1.get(c1, [dst])) == 0
    assert cluster.sim.now == 0

    src = cluster.nodes[0].alloc(64 * KB)
    src.write(bytes(range(256)) * 256)
    run_procs(cluster, put_all(cluster, ch0, c0, [src]),
              get_all(cluster, ch1, c1, [dst]))
    assert dst.read() == src.read()
    if isinstance(ch1, MultiMethodChannel):
        assert c1.channel is ch1.net
    now = cluster.sim.now
    assert _first_next(ch1.get(c1, [dst])) == 0
    assert cluster.sim.now == now


def _ring_then_alltoall(mpi, out):
    """A neighbour ring of 4 B, 4 KB and 40 KB (zero-copy RTS) messages,
    then an Alltoall of 1 KB per peer."""
    right, left = (mpi.rank + 1) % mpi.size, (mpi.rank - 1) % mpi.size
    for size in (4, 4 * KB, 40 * KB):
        send, recv = mpi.alloc(size), mpi.alloc(size)
        send.write((np.arange(size) * 7 + mpi.rank).astype(np.uint8))
        sreq = yield from mpi.Isend(send, right, 3)
        yield from mpi.Recv(recv, left, 3)
        yield from mpi.Wait(sreq)
        out.append(recv.read())
    send, recv = mpi.alloc(KB * mpi.size), mpi.alloc(KB * mpi.size)
    send.write((np.arange(KB * mpi.size) + mpi.rank).astype(np.uint8))
    yield from mpi.Alltoall(send, recv)
    out.append(recv.read())


def _record(design, geometry):
    out = []
    _, world = run_world(16, _ring_then_alltoall, design=design,
                         ch_cfg=GEOMETRIES[geometry], obs=Observability(),
                         args=(out,))
    return left_behind(world.sim.now, world.sim.events_processed,
                       [hashlib.sha1(bytes(p)).hexdigest() for p in out],
                       world.cluster)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("design",
                         ("zerocopy", "piggyback", "pipeline", "adaptive"))
def test_gated_equals_ungated(design, geometry, monkeypatch):
    gated = _record(design, geometry)
    monkeypatch.setattr(ChunkedChannel, "recv_watch_addr",
                        lambda self, conn: None)
    assert _record(design, geometry) == gated


def _nak_while_ring_full(mpi, out):
    """Rank 1 fills its ring to rank 0, which is busy computing, then
    fails to register the destination of rank 0's zero-copy RTS,
    twice: the NAK has no free slot, so the RTS stays at the head of
    rank 1's ring and each sweep retries it until one registers."""
    big = mpi.alloc(40 * KB)
    if mpi.rank == 0:
        big.write((np.arange(40 * KB) * 5).astype(np.uint8))
        sreq = yield from mpi.Isend(big, 1, 1)
        yield from mpi.compute(300e-6)
        for _ in range(12):
            yield from mpi.Recv(mpi.alloc(16 * KB), 1, 2)
        yield from mpi.Wait(sreq)
    elif mpi.rank == 1:
        reqs = []
        for i in range(12):
            buf = mpi.alloc(16 * KB)
            buf.write(bytes([i]) * (16 * KB))
            reqs.append((yield from mpi.Isend(buf, 0, 2)))
        yield from mpi.Recv(big, 0, 1)
        yield from mpi.Waitall(reqs)
        out.append(big.read())


@pytest.mark.parametrize("design", ("zerocopy", "multimethod"))
def test_a_refused_rts_keeps_its_connection_swept(design, monkeypatch):
    def record():
        out = []
        _, world = run_world(2, _nak_while_ring_full, design=design,
                             faults=FaultPlan(reg_failures={1: 2}),
                             obs=Observability(), args=(out,))
        assert bytes(out[0]) == bytes((np.arange(40 * KB) * 5)
                                      .astype(np.uint8))
        assert world.cluster.faults.stats.reg_failures == 2
        return left_behind(world.sim.now, world.sim.events_processed,
                           [hashlib.sha1(bytes(p)).hexdigest()
                            for p in out], world.cluster)

    gated = record()
    monkeypatch.setattr(ChunkedChannel, "recv_watch_addr",
                        lambda self, conn: None)
    assert record() == gated
