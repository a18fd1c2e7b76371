"""Receive gating: CH3 skips a connection whose channel is not ready.

Every channel's ``recv_ready(conn)`` is the negation of its ``get``'s
empty poll, and every ``get`` begins with that test.  Two properties
make the skip invisible: while ``recv_ready`` is False, a ``get``
returns 0 on its first step with the clock unmoved; and a gated run is
the ungated run minus those empty polls — same clock, same events,
same state.
"""

import hashlib

import numpy as np
import pytest

from repro.check.pins import GEOMETRIES, left_behind
from repro.config import KB
from repro.faults import FaultPlan
from repro.mpi import runner
from repro.mpich2.channels import MultiMethodChannel, SrqChannel
from repro.mpich2.channels.ring import HDR_SIZE
from repro.mpich2.designs import DESIGNS
from repro.obs import Observability

from helpers import get_all, make_channel_pair, put_all, run_procs


def _first_next(gen):
    """Drive ``gen`` once; it must finish without yielding."""
    with pytest.raises(StopIteration) as stop:
        next(gen)
    return stop.value.value


def _ready(cluster, ch, conn, dst):
    """``ch.recv_ready(conn)``, after checking what False promises: a
    get returns 0 on its first ``next()`` with the clock unmoved."""
    ready = ch.recv_ready(conn)
    if not ready:
        now = cluster.sim.now
        assert _first_next(ch.get(conn, [dst])) == 0
        assert cluster.sim.now == now
    return ready


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_an_empty_get_is_free(design):
    """Before any traffic and after a message has been drained, the
    pipe is not ready and a get on it is free; part-way through a
    message it is ready (multimethod: its IB leg, the two ranks on
    two nodes)."""
    cluster, ch0, ch1, c0, c1 = make_channel_pair(design)
    dst = ch1.node.alloc(64 * KB)
    assert not _ready(cluster, ch1, c1, dst)
    assert cluster.sim.now == 0

    src = ch0.node.alloc(64 * KB)
    src.write(bytes(range(256)) * 256)
    run_procs(cluster, put_all(cluster, ch0, c0, [src]),
              get_all(cluster, ch1, c1, [dst]))
    assert dst.read() == src.read()
    if isinstance(ch1, MultiMethodChannel):
        assert c1.channel is ch1.net
    assert not _ready(cluster, ch1, c1, dst)

    run_procs(cluster, put_all(cluster, ch0, c0, [src.sub(0, KB)]),
              get_all(cluster, ch1, c1, [dst.sub(0, 100)]))
    assert _ready(cluster, ch1, c1, dst)
    run_procs(cluster, get_all(cluster, ch1, c1, [dst.sub(100, KB - 100)]))
    assert dst.sub(0, KB).read() == src.sub(0, KB).read()
    assert not _ready(cluster, ch1, c1, dst)


def test_ready_steps_through_a_zero_copy_stream():
    """One zero-copy connection walked through every state its
    predicate has a term for: a torn chunk is not ready, a chunk
    part-read is, an RDMA read in flight is, a credit fallen due is;
    each not-ready state passes ``_ready``'s free-get check."""
    cluster, ch0, ch1, c0, c1 = make_channel_pair("zerocopy")
    n0, n1 = cluster.nodes
    dst = n1.alloc(64 * KB)
    assert not _ready(cluster, ch1, c1, dst)            # before traffic

    small = n0.alloc(100)
    small.write(bytes(range(100)))
    run_procs(cluster, put_all(cluster, ch0, c0, [small]))
    recv = c1.receiver
    head = recv.ring.sub(0, HDR_SIZE).read()
    trailer = recv.ring.sub(HDR_SIZE + (head[2] | head[3] << 8), 1)
    flag = trailer.read()
    trailer.write(b"\0")                               # torn chunk
    assert not _ready(cluster, ch1, c1, dst)
    trailer.write(flag)
    assert _ready(cluster, ch1, c1, dst)

    run_procs(cluster, get_all(cluster, ch1, c1, [dst.sub(0, 10)]))
    assert _ready(cluster, ch1, c1, dst)                # mid-message
    run_procs(cluster, get_all(cluster, ch1, c1, [dst.sub(10, 90)]))
    assert dst.sub(0, 100).read() == small.read()
    assert not _ready(cluster, ch1, c1, dst)            # after a drain

    big = n0.alloc(64 * KB)
    big.write(bytes(range(256)) * 256)

    def one_get():
        while not ch1.recv_ready(c1):
            yield ch1.wakeup()
        return (yield from ch1.get(c1, [dst]))

    # the sender waits for the ACK the next get sends: a daemon here
    cluster.sim.spawn(put_all(cluster, ch0, c0, [big]), "tx", daemon=True)
    assert run_procs(cluster, one_get()) == [0]
    assert c1.zc_read is not None
    assert _ready(cluster, ch1, c1, dst)                # read in flight
    run_procs(cluster, get_all(cluster, ch1, c1, [dst]))
    assert dst.read() == big.read()
    assert not _ready(cluster, ch1, c1, dst)

    run_procs(cluster, put_all(cluster, ch0, c0, [small]),
              get_all(cluster, ch1, c1, [dst.sub(0, 100)]))
    assert not _ready(cluster, ch1, c1, dst)
    recv.credit_threshold = 1                           # a retune
    assert recv.credit_due() and _ready(cluster, ch1, c1, dst)
    now = cluster.sim.now
    assert run_procs(cluster, one_get()) == [0]
    assert cluster.sim.now > now                        # credit written
    assert not recv.credit_due()
    assert not _ready(cluster, ch1, c1, dst)


class _Ungated:
    """A channel seen by CH3 with its gate open: ``recv_ready`` is
    always True, so every sweep calls every connection's get, which
    still runs the channel's own empty-poll test."""

    def __init__(self, channel):
        self._channel = channel

    def recv_ready(self, conn):
        return True

    def __getattr__(self, name):
        return getattr(self._channel, name)


def _run(design, prog, monkeypatch, ungated, **kw):
    """Run ``prog`` on ``design``; returns the record (clock, events,
    delivered payload hashes, state) and the world."""
    if ungated:
        build = runner.build_world

        def build_ungated(*a, **k):
            world = build(*a, **k)
            for dev in world.devices:
                dev.channel = _Ungated(dev.channel)
            return world
        monkeypatch.setattr(runner, "build_world", build_ungated)
    out = []
    _, world = runner.run_world(design=design, obs=Observability(),
                                args=(out,), prog=prog, **kw)
    monkeypatch.undo()
    delivered = [hashlib.sha1(bytes(p)).hexdigest() for p in out]
    record = (repr(world.sim.now), world.sim.events_processed, delivered,
              left_behind(world.sim.now, world.sim.events_processed,
                          delivered, world.cluster))
    return record, world


def _assert_gated_equals_ungated(design, prog, monkeypatch, **kw):
    """Returns the gated run's record and world."""
    gated, world = _run(design, prog, monkeypatch, False, **kw)
    ungated, _ = _run(design, prog, monkeypatch, True, **kw)
    if issubclass(DESIGNS[design].channel, SrqChannel):
        # the pool CQ's poll-depth histogram sees the skipped polls:
        # only the state hash may differ
        assert gated[:3] == ungated[:3]
    else:
        assert gated == ungated
    return gated, world


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


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_gated_equals_ungated(design, geometry, monkeypatch):
    """16 ranks, one per node."""
    _assert_gated_equals_ungated(design, _ring_then_alltoall, monkeypatch,
                                 nranks=16, ch_cfg=GEOMETRIES[geometry])


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_gated_equals_ungated_four_per_node(design, geometry,
                                            monkeypatch):
    """16 ranks on 4 nodes, so multimethod runs both legs and mux
    shares its node pools."""
    _assert_gated_equals_ungated(design, _ring_then_alltoall, monkeypatch,
                                 nranks=16, nnodes=4,
                                 ch_cfg=GEOMETRIES[geometry])


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
    (_, _, delivered, _), world = _assert_gated_equals_ungated(
        design, _nak_while_ring_full, monkeypatch, nranks=2,
        faults=FaultPlan(reg_failures={1: 2}))
    expect = bytes((np.arange(40 * KB) * 5).astype(np.uint8))
    assert delivered == [hashlib.sha1(expect).hexdigest()]
    assert world.cluster.faults.stats.reg_failures == 2
