"""RDMA Channel tests: the FIFO-pipe contract across all five designs,
plus design-specific behaviour (operation counts, zero-copy engagement,
credits)."""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KB, ChannelConfig
from repro.hw.memory import Buffer
from repro.mpich2.channels import ChannelError, ShmChannel
from repro.mpich2.channels.ring import HDR_SIZE, KIND_DATA, seq_of
from repro.mpich2.designs import DESIGNS

from helpers import get_all, make_channel_pair, put_all, run_procs

#: every channel of the design table takes the FIFO contract suite —
#: new rows enroll automatically (one name per channel class: ``ch3``
#: shares ``pipeline``'s channel, ``srq-lazy`` shares ``srq``'s)
ALL_DESIGNS = sorted({row.channel: name for name, row
                      in reversed(DESIGNS.items())}.values())
RDMA_DESIGNS = ["basic", "piggyback", "pipeline", "zerocopy"]


def pattern(n: int, seed: int = 0) -> bytes:
    return bytes((i * 131 + seed * 17 + 7) % 256 for i in range(n))


def transfer(design, payload: bytes, ch_cfg=None,
             put_split=None, get_split=None):
    """Send `payload` through a channel pair; returns received bytes
    plus the pair for inspection."""
    cluster, ch0, ch1, c01, c10 = make_channel_pair(design, ch_cfg=ch_cfg)
    n = len(payload)
    src = ch0.node.alloc(n)
    src.write(payload)
    dst = ch1.node.alloc(n)

    def split(buf, sizes):
        if not sizes:
            return [buf]
        out, off = [], 0
        for s in sizes:
            out.append(buf.sub(off, s))
            off += s
        if off < len(buf):
            out.append(buf.sub(off))
        return out

    def producer():
        yield from put_all(cluster, ch0, c01, split(src, put_split))

    def consumer():
        yield from get_all(cluster, ch1, c10, split(dst, get_split))
        return dst.read()

    _p, received = run_procs(cluster, producer(), consumer())
    return received, cluster, ch0, ch1


class TestPipeContract:
    """Bytes come out in order, intact, for every design."""

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_small_message(self, design):
        data = pattern(100)
        received, *_ = transfer(design, data)
        assert received == data

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_multi_chunk_message(self, design):
        data = pattern(100 * KB)
        received, *_ = transfer(design, data)
        assert received == data

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_message_larger_than_ring(self, design):
        ch_cfg = ChannelConfig(ring_size=32 * KB, chunk_size=8 * KB,
                               zerocopy_threshold=1 << 30)
        data = pattern(200 * KB)
        received, *_ = transfer(design, data, ch_cfg=ch_cfg)
        assert received == data

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_many_small_messages_fifo(self, design):
        cluster, ch0, ch1, c01, c10 = make_channel_pair(design)
        msgs = [pattern(37 + i, seed=i) for i in range(20)]

        def producer():
            for m in msgs:
                buf = ch0.node.alloc(len(m))
                buf.write(m)
                yield from put_all(cluster, ch0, c01, [buf])

        def consumer():
            out = []
            for m in msgs:
                buf = ch1.node.alloc(len(m))
                yield from get_all(cluster, ch1, c10, [buf])
                out.append(buf.read())
            return out

        _p, received = run_procs(cluster, producer(), consumer())
        assert received == msgs

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_scattered_iovs(self, design):
        """put from 3 buffers, get into 2 — stream framing holds."""
        data = pattern(10 * KB)
        received, *_ = transfer(
            design, data,
            put_split=[1000, 5000], get_split=[2000])
        assert received == data

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_bidirectional_simultaneous(self, design):
        cluster, ch0, ch1, c01, c10 = make_channel_pair(design)
        d01 = pattern(64 * KB, seed=1)
        d10 = pattern(64 * KB, seed=2)

        def side(ch, conn, out_data, in_len):
            src = ch.node.alloc(len(out_data))
            src.write(out_data)
            dst = ch.node.alloc(in_len)

            def prog():
                p = cluster.spawn(
                    put_all(cluster, ch, conn, [src]), "put")
                yield from get_all(cluster, ch, conn, [dst])
                yield p
                return dst.read()

            return prog()

        r0, r1 = run_procs(cluster,
                           side(ch0, c01, d01, len(d10)),
                           side(ch1, c10, d10, len(d01)))
        assert r0 == d10
        assert r1 == d01


class TestDesignSpecific:
    def test_basic_uses_three_writes_per_exchange(self):
        """§4.2: data + head update (+ tail update from the receiver)."""
        _recv, cluster, ch0, ch1 = transfer("basic", pattern(512))
        # one put: data write + head write; one get: tail write
        assert ch0.node.hca.stats.rdma_writes == 2
        assert ch1.node.hca.stats.rdma_writes == 1

    def test_piggyback_uses_one_write_per_message(self):
        _recv, cluster, ch0, ch1 = transfer("piggyback", pattern(512))
        assert ch0.node.hca.stats.rdma_writes == 1
        # receiver's delayed tail update: nothing explicit for one msg
        assert ch1.node.hca.stats.rdma_writes == 0

    def test_zerocopy_large_goes_via_rdma_read(self):
        _recv, cluster, ch0, ch1 = transfer("zerocopy", pattern(256 * KB))
        assert ch1.node.hca.stats.rdma_reads == 1
        # payload must not flow through the ring: sender wrote only the
        # RTS chunk (17+24 bytes), far less than the payload
        assert ch0.node.hca.stats.bytes_written < 1024

    def test_zerocopy_small_stays_in_ring(self):
        _recv, cluster, ch0, ch1 = transfer("zerocopy", pattern(1 * KB))
        assert ch1.node.hca.stats.rdma_reads == 0
        assert ch0.node.hca.stats.rdma_writes >= 1

    def test_zerocopy_threshold_respected(self):
        ch_cfg = ChannelConfig(zerocopy_threshold=4 * KB)
        _recv, cluster, ch0, ch1 = transfer("zerocopy", pattern(8 * KB),
                                            ch_cfg=ch_cfg)
        assert ch1.node.hca.stats.rdma_reads == 1

    def test_zerocopy_registration_cache_hits_on_reuse(self):
        cluster, ch0, ch1, c01, c10 = make_channel_pair("zerocopy")
        data = pattern(128 * KB)
        src = ch0.node.alloc(len(data))
        src.write(data)
        dst = ch1.node.alloc(len(data))

        def producer():
            for _ in range(4):
                src.write(data)
                yield from put_all(cluster, ch0, c01, [src])

        def consumer():
            for _ in range(4):
                yield from get_all(cluster, ch1, c10, [dst])
            return dst.read()

        _p, received = run_procs(cluster, producer(), consumer())
        assert received == data
        assert ch0.regcache.hits == 3
        assert ch0.regcache.misses == 1
        assert ch1.regcache.hits == 3

    def test_pipeline_does_not_wait_for_completions(self):
        """Pipelined puts post unsignaled writes; the sender's CQ must
        stay empty."""
        _recv, cluster, ch0, ch1 = transfer("pipeline", pattern(64 * KB))
        conn = ch0.conns[1]
        assert len(conn.qp.send_cq) == 0

    def test_credit_flows_back_under_pressure(self):
        """A stream much larger than the ring forces explicit tail
        updates (CREDIT chunks) unless reverse data piggybacks them."""
        ch_cfg = ChannelConfig(ring_size=32 * KB, chunk_size=8 * KB,
                               zerocopy_threshold=1 << 30)
        _recv, cluster, ch0, ch1 = transfer("piggyback",
                                            pattern(512 * KB),
                                            ch_cfg=ch_cfg)
        # receiver must have sent explicit credit messages
        assert ch1.node.hca.stats.rdma_writes > 0

    def test_shm_requires_same_node(self):
        from repro.cluster import build_cluster
        from repro.config import ChannelConfig, HardwareConfig
        cluster = build_cluster(2)
        cfg, ch_cfg = HardwareConfig(), ChannelConfig()
        a = ShmChannel(rank=0, node=cluster.nodes[0],
                       ctx=cluster.nodes[0].vapi(0), cfg=cfg,
                       ch_cfg=ch_cfg)
        b = ShmChannel(rank=1, node=cluster.nodes[1],
                       ctx=cluster.nodes[1].vapi(0), cfg=cfg,
                       ch_cfg=ch_cfg)
        with pytest.raises(ChannelError):
            ShmChannel.establish(a, b)


class TestRingPoll:
    """``RingReceiver.ready()`` is ``peek() is not None`` on every slot
    state: the empty get returns early on it, so any disagreement
    would drop or stall a chunk."""

    def _receiver(self):
        cluster, _ch0, _ch1, c01, c10 = make_channel_pair("piggyback")
        self.cluster, self.sender = cluster, c01.sender
        return c10.receiver

    def _land(self, recv, index, plen=5, header=True, trailer=True,
              aux=3):
        """RDMA-write chunk ``index`` into its slot — without its
        header (and payload) or without its trailer for a torn write."""
        sender = self.sender
        base = index % recv.nslots * recv.chunk_size
        seq = seq_of(index)
        sender.staging.sub(base, HDR_SIZE).write(
            struct.pack("<BBHQI", seq, KIND_DATA, plen, 7, aux))
        sender.staging.sub(base + HDR_SIZE + plen, 1).write(bytes([seq]))
        start = base if header else base + HDR_SIZE + plen
        end = base + HDR_SIZE + plen + (1 if trailer else 0)

        def write():
            yield from sender.ctx.rdma_write(
                sender.qp, [(sender.staging.addr + start, end - start,
                             sender.staging_mr.lkey)],
                sender.remote_base + start, sender.remote_rkey)

        run_procs(self.cluster, write())

    def _agree(self, recv) -> bool:
        ready = recv.ready()
        assert ready == (recv.peek() is not None)
        return ready

    def test_empty_slot(self):
        assert not self._agree(self._receiver())

    @pytest.mark.parametrize("part", ["header", "trailer"])
    def test_torn_slot(self, part):
        recv = self._receiver()
        assert not self._agree(recv)  # the view is cached from here on
        self._land(recv, 0, **{part: False})
        assert not self._agree(recv)

    def test_full_slots(self):
        recv = self._receiver()
        assert not self._agree(recv)
        plens = [0, 5, recv.chunk_size - HDR_SIZE - 1]
        for i in range(recv.nslots):
            self._land(recv, i, plen=plens[i % 3], aux=i)
        for i in range(recv.nslots):
            assert self._agree(recv)
            assert recv.peek() == (KIND_DATA, plens[i % 3], 7, i)
            recv.consume_chunk()
        # every slot holds the previous generation now
        assert not self._agree(recv)

    def test_wrapped_slot(self):
        recv = self._receiver()
        stale, fresh = 1, 1 + recv.nslots  # one slot, two generations
        self._land(recv, stale, plen=9)
        recv.next_chunk = fresh
        assert not self._agree(recv)
        self._land(recv, fresh, plen=9, trailer=False)
        assert not self._agree(recv)
        self._land(recv, fresh, plen=9)
        assert self._agree(recv)


class TestPipeProperty:
    @given(
        design=st.sampled_from(["piggyback", "pipeline", "zerocopy"]),
        chunks=st.lists(st.integers(1, 3000), min_size=1, max_size=8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_stream_integrity_any_segmentation(self, design, chunks, seed):
        """Arbitrary put segmentation: the byte stream is preserved."""
        total = sum(chunks)
        data = pattern(total, seed=seed)
        received, *_ = transfer(design, data, put_split=chunks[:-1])
        assert received == data


class TestBidirectionalPressure:
    @pytest.mark.parametrize("design", ["piggyback", "pipeline",
                                        "zerocopy"])
    def test_no_credit_deadlock_both_rings_full(self, design):
        """Regression: explicit tail updates are RDMA writes to the
        sender's tail replica (§4.3's 'extra message'), not ring
        messages — so simultaneous large streams in both directions
        cannot deadlock on credit starvation."""
        ch_cfg = ChannelConfig(ring_size=32 * KB, chunk_size=8 * KB,
                               zerocopy_threshold=1 << 30)
        cluster, ch0, ch1, c01, c10 = make_channel_pair(
            design, ch_cfg=ch_cfg)
        n = 256 * KB
        d01 = pattern(n, seed=11)
        d10 = pattern(n, seed=22)

        def side(ch, conn, out_data):
            src = ch.node.alloc(n)
            src.write(out_data)
            dst = ch.node.alloc(n)

            def prog():
                p = cluster.spawn(
                    put_all(cluster, ch, conn, [src]), "put")
                yield from get_all(cluster, ch, conn, [dst])
                yield p
                return dst.read()

            return prog()

        r0, r1 = run_procs(cluster, side(ch0, c01, d01),
                           side(ch1, c10, d10))
        assert r0 == d10
        assert r1 == d01


class TestSoftPayloadBoundaries:
    """Regression: chunked-ring wrap-around at exact slot-boundary
    payload sizes (pow2 +/- 1 around ``soft_max_payload``), surfaced by
    the conformance workload generator (repro.check).

    The soft cap is a public per-connection knob written at runtime by
    the adaptive controller; every setting — including degenerate ones
    — must keep the FIFO contract and make forward progress."""

    CHUNKED = ["piggyback", "pipeline", "zerocopy"]

    def _stream(self, design, size, soft, ring=32 * KB, chunk=8 * KB):
        ch_cfg = ChannelConfig(ring_size=ring, chunk_size=chunk,
                               zerocopy_threshold=1 << 30)
        cluster, ch0, ch1, c01, c10 = make_channel_pair(
            design, ch_cfg=ch_cfg)
        c01.soft_max_payload = soft
        data = pattern(size, seed=soft if soft else 0)
        src = ch0.node.alloc(size)
        src.write(data)
        dst = ch1.node.alloc(size)

        def producer():
            yield from put_all(cluster, ch0, c01, [src])

        def consumer():
            yield from get_all(cluster, ch1, c10, [dst])
            return dst.read()

        _p, received = run_procs(cluster, producer(), consumer())
        assert received == data

    @pytest.mark.parametrize("design", CHUNKED)
    @pytest.mark.parametrize("soft", [2048, 4096])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_pow2_boundary_sizes_around_soft_cap(self, design, soft,
                                                 delta):
        """Messages sized pow2 +/- 1 around the cap cross chunk and
        ring-wrap boundaries at every alignment."""
        # 5 slots' worth forces a wrap of the 4-slot ring
        self._stream(design, 5 * soft + delta, soft)

    @pytest.mark.parametrize("design", CHUNKED)
    def test_cap_at_exact_chunk_capacity_boundary(self, design):
        """Caps at max_payload-1 / max_payload / above-max behave
        identically to slightly-smaller full chunks (the cap is
        clamped to the chunk capacity at use)."""
        max_payload = 8 * KB - 17  # chunk_size - header - trailer
        for soft in (max_payload - 1, max_payload, max_payload + 1):
            self._stream(design, 3 * max_payload + 1, soft)

    @pytest.mark.parametrize("design", CHUNKED)
    @pytest.mark.parametrize("soft", [0, -1, 1])
    def test_degenerate_caps_still_make_progress(self, design, soft):
        """Regression: a zero/negative soft cap used to livelock put()
        — zero-payload DATA chunks burned ring slots and simulated
        time without ever advancing the stream.  Non-positive caps are
        clamped to one byte."""
        self._stream(design, 300, soft)

    @pytest.mark.parametrize("design", CHUNKED)
    def test_cap_change_mid_stream(self, design):
        """The adaptive controller rewrites the cap between puts; the
        stream must stay intact across the change (including a wrap
        between the two halves)."""
        ch_cfg = ChannelConfig(ring_size=32 * KB, chunk_size=8 * KB,
                               zerocopy_threshold=1 << 30)
        cluster, ch0, ch1, c01, c10 = make_channel_pair(
            design, ch_cfg=ch_cfg)
        data = pattern(96 * KB, seed=3)
        src = ch0.node.alloc(len(data))
        src.write(data)
        dst = ch1.node.alloc(len(data))

        def producer():
            c01.soft_max_payload = 4096
            yield from put_all(cluster, ch0, c01, [src.sub(0, 48 * KB)])
            c01.soft_max_payload = 2048 + 1
            yield from put_all(cluster, ch0, c01, [src.sub(48 * KB)])

        def consumer():
            yield from get_all(cluster, ch1, c10, [dst])
            return dst.read()

        _p, received = run_procs(cluster, producer(), consumer())
        assert received == data
