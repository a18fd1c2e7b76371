"""The per-connection adaptive protocol controller.

Closes the loop the observability layer opened: the CH3 device and the
chunked channel feed per-message events into the controller, which
samples the metrics it accumulates (message-size histogram, ring
credit stalls, registration-cache hit rate) and — once per
``sample_every``-message window — recomputes four protocol knobs per
peer from the hardware cost model:

1. the **eager/rendezvous crossover** (§6's static 32 KB threshold,
   moved to where the handshake actually amortizes given the live
   registration-cache hit rate);
2. the **large-message protocol**: CH3-style rendezvous RDMA *write*
   for streaming (bandwidth-bound) peers, zero-copy RDMA *read* for
   latency-bound (ping-pong-like) peers — the Fig. 14/15 band choice,
   made per workload instead of per build;
3. the **tail-update/credit threshold** (§4.3): coalesced almost to
   the full ring when the connection's ring traffic is
   control-dominated (rendezvous handshakes), restored when bulk data
   streams through the ring;
4. a **soft chunk cap** below the configured chunk size, giving
   latency-bound multi-chunk messages finer copy/transfer overlap
   (§4.4 pipelining at a finer grain).

Everything is a pure function of the deterministic event stream — no
randomness, no wall-clock — so the same workload produces the same
decision log, timings included.  Decisions move at most one
power-of-two step per window and only past a hysteresis margin, so
they converge instead of flapping.  The bounds and cadence are the
module constants below; the ``adaptive`` design always runs the
controller.

:class:`NullTuner` is the stand-in every static design carries; its
hooks are no-ops and its queries return the static configuration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import KB, ChannelConfig, HardwareConfig
from ..obs.metrics import MetricsRegistry

__all__ = ["AdaptiveController", "NullTuner", "NULL_TUNER",
           "PROTO_WRITE", "PROTO_READ", "THRESHOLD_OFF"]

PROTO_WRITE = "write"
PROTO_READ = "read"

#: a threshold no message size reaches: the path is switched off.
THRESHOLD_OFF = 1 << 62

#: messages per peer between controller re-evaluations (one
#: "window"); decisions only change at window boundaries, so the
#: decision stream is a deterministic function of the workload.
SAMPLE_EVERY = 16
#: relative margin a recomputed threshold must move by before the
#: controller adopts it (prevents flapping between adjacent operating
#: points; thresholds also move at most one power-of-two step per
#: window, so convergence is monotone under a steady workload).
HYSTERESIS = 0.25
#: a window whose maximum send-queue depth reaches this many
#: outstanding messages is classified as *streaming* (bandwidth
#: bound); below it the peer is latency bound (ping-pong-like).
STREAMING_DEPTH = 2
#: the §6 eager/rendezvous threshold of the CH3-level designs: the
#: static ``ch3`` design's crossover and the controller's starting
#: point for every peer.
CH3_RNDV_THRESHOLD = 32 * KB
#: bounds on the tuned eager/rendezvous crossover (the §6 threshold
#: the controller moves per peer).
MIN_CROSSOVER = 4 * KB
MAX_CROSSOVER = 256 * KB
#: completions drained per progress-engine sweep through one CQ (the
#: bounded poll budget of the batched drain path).
CQ_POLL_BUDGET = 8


class NullTuner:
    """The disabled tuner: every hook is a no-op, every query returns
    the caller's static default.  Shared singleton: :data:`NULL_TUNER`."""

    enabled = False

    # -- event feeds ----------------------------------------------------
    def attach(self, peer: int, conn) -> None:
        pass

    def on_send(self, peer: int, size: int, depth: int = 0,
                rndv: bool = False) -> None:
        pass

    def on_recv(self, peer: int, size: int, rndv: bool = False) -> None:
        pass

    def on_credit_stall(self, peer: int) -> None:
        pass

    # -- queries --------------------------------------------------------
    def rndv_threshold(self, peer: int, default: int) -> int:
        return default

    def protocol(self, peer: int) -> str:
        return PROTO_WRITE

    def cq_budget(self, default: int = 1) -> int:
        return default


NULL_TUNER = NullTuner()


class _PeerState:
    """Mutable per-peer controller state."""

    __slots__ = ("conn", "events", "crossover", "xover_pending",
                 "proto", "proto_pending", "zc_armed",
                 "coalesced", "soft_chunk", "default_credit_threshold",
                 "w_sends", "w_recvs", "w_max_depth", "w_ring_bytes",
                 "w_rndv_bytes", "w_stalls", "w_max_send",
                 "chunks0", "h_count0", "h_sum0")

    def __init__(self, crossover: int):
        self.conn = None
        self.events = 0
        #: current eager/rendezvous crossover for this peer
        self.crossover = crossover
        #: crossover move direction (+1/-1) awaiting confirmation
        self.xover_pending = 0
        #: current large-message protocol (PROTO_WRITE / PROTO_READ)
        self.proto = PROTO_WRITE
        #: protocol candidate awaiting its second confirming window
        self.proto_pending: Optional[str] = None
        #: whether the channel-level RDMA-read path is armed (i.e.
        #: conn.zc_threshold is finite): only latency-bound peers we
        #: actually send large elements to pay the §5 check overhead
        self.zc_armed = False
        self.coalesced = False
        self.soft_chunk: Optional[int] = None
        self.default_credit_threshold = 0
        # -- window accumulators --
        self.w_sends = 0
        self.w_recvs = 0
        self.w_max_depth = 0
        self.w_ring_bytes = 0
        self.w_rndv_bytes = 0
        self.w_stalls = 0
        self.w_max_send = 0
        # ring-receiver chunk counter at the window start (arrival rate)
        self.chunks0 = 0
        # histogram snapshot at the window start (for the window mean)
        self.h_count0 = 0
        self.h_sum0 = 0

    def reset_window(self, h_count: int, h_sum: int) -> None:
        self.w_sends = self.w_recvs = 0
        self.w_max_depth = 0
        self.w_ring_bytes = self.w_rndv_bytes = 0
        self.w_stalls = 0
        self.w_max_send = 0
        recv = getattr(self.conn, "receiver", None)
        if recv is not None:
            self.chunks0 = recv.chunks_received
        self.h_count0, self.h_sum0 = h_count, h_sum


def _pow2_at_most(n: int) -> int:
    """Largest power of two <= n (n >= 1)."""
    return 1 << (max(1, int(n)).bit_length() - 1)


def _pow2_nearest(n: float) -> int:
    lo = _pow2_at_most(max(1, int(n)))
    hi = lo * 2
    return hi if (n - lo) > (hi - n) else lo


class AdaptiveController:
    """One controller per rank; tracks every peer independently."""

    enabled = True

    def __init__(self, *, rank: int, hw: HardwareConfig,
                 ch_cfg: ChannelConfig, metrics=None, regcache=None):
        self.rank = rank
        self.hw = hw
        self.ch_cfg = ch_cfg
        self.regcache = regcache
        #: the registry the controller samples; private when the run
        #: has observability disabled (sampling must not depend on it)
        if metrics is None or not getattr(metrics, "enabled", True):
            metrics = MetricsRegistry().scope(f"rank{rank}.tune")
        self.metrics = metrics
        self._h_sizes = metrics.histogram("msg_sizes")
        self._m_retunes = metrics.counter("retunes")
        self._m_decisions = metrics.counter("decisions")
        self._m_stalls = metrics.counter("credit_stalls")
        self._peers: Dict[int, _PeerState] = {}
        #: the decision log: (event_seq, peer, knob, old, new) — the
        #: deterministic record the convergence tests pin down.
        self.decisions: List[Tuple[int, int, str, object, object]] = []
        self._event_seq = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _peer(self, peer: int) -> _PeerState:
        st = self._peers.get(peer)
        if st is None:
            st = _PeerState(min(max(CH3_RNDV_THRESHOLD, MIN_CROSSOVER),
                                MAX_CROSSOVER))
            self._peers[peer] = st
        return st

    def attach(self, peer: int, conn) -> None:
        """Register the channel connection whose knobs this controller
        may write (called at establish time)."""
        st = self._peer(peer)
        st.conn = conn
        recv = getattr(conn, "receiver", None)
        if recv is not None:
            st.default_credit_threshold = recv.credit_threshold
        # the device owns large messages while the protocol is
        # rendezvous-write, so the channel's zero-copy interception
        # starts switched off (re-enabled if the peer turns
        # latency-bound and the protocol flips to RDMA read)
        if hasattr(conn, "zc_threshold"):
            conn.zc_threshold = THRESHOLD_OFF
        if hasattr(conn, "zc_fastpath"):
            conn.zc_fastpath = True

    # ------------------------------------------------------------------
    # event feeds (pure bookkeeping: no simulation time is consumed)
    # ------------------------------------------------------------------
    def on_send(self, peer: int, size: int, depth: int = 0,
                rndv: bool = False) -> None:
        st = self._peer(peer)
        self._h_sizes.observe(size)
        st.w_sends += 1
        if depth > st.w_max_depth:
            st.w_max_depth = depth
        if size > st.w_max_send:
            st.w_max_send = size
        if rndv:
            st.w_rndv_bytes += size
        else:
            st.w_ring_bytes += size
        self._bump(peer, st)

    def on_recv(self, peer: int, size: int, rndv: bool = False) -> None:
        st = self._peer(peer)
        self._h_sizes.observe(size)
        st.w_recvs += 1
        if rndv:
            st.w_rndv_bytes += size
        else:
            st.w_ring_bytes += size
        self._bump(peer, st)

    def on_credit_stall(self, peer: int) -> None:
        st = self._peer(peer)
        st.w_stalls += 1
        self._m_stalls.inc()

    def _bump(self, peer: int, st: _PeerState) -> None:
        st.events += 1
        self._event_seq += 1
        if st.events % SAMPLE_EVERY == 0:
            self._retune(peer, st)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def rndv_threshold(self, peer: int, default: int) -> int:
        """The CH3 consult point: size at which sends to ``peer`` take
        the rendezvous-write path."""
        st = self._peer(peer)
        if st.proto is not PROTO_WRITE:
            return THRESHOLD_OFF
        return st.crossover

    def protocol(self, peer: int) -> str:
        return self._peer(peer).proto

    def crossover(self, peer: int) -> int:
        return self._peer(peer).crossover

    def cq_budget(self, default: int = 1) -> int:
        return CQ_POLL_BUDGET

    # ------------------------------------------------------------------
    # the retune step
    # ------------------------------------------------------------------
    def _reg_hit_rate(self) -> float:
        rc = self.regcache
        if rc is None:
            return 0.0
        lookups = rc.hits + rc.misses
        return rc.hits / lookups if lookups else 0.0

    def _window_mean_size(self, st: _PeerState) -> float:
        count = self._h_sizes.count - st.h_count0
        total = self._h_sizes.sum - st.h_sum0
        return total / count if count else 0.0

    def _crossover_target(self, mean_size: float) -> int:
        """Where the rendezvous handshake amortizes: the eager path
        moves bytes at roughly a third of the memory-bus capacity (two
        uncached copies sharing the bus with the DMA, §4.4), the
        rendezvous write at the PCI DMA ceiling; the crossover is the
        size where the per-byte saving pays for the RTS/CTS handshake
        plus whatever registration the cache fails to absorb."""
        hw = self.hw
        eager_bw = hw.membus_bandwidth / 3.0
        write_bw = hw.pci_dma_bandwidth
        per_byte_gain = 1.0 / eager_bw - 1.0 / write_bw
        if per_byte_gain <= 0:
            return MAX_CROSSOVER
        ctl = (hw.wire_latency + hw.hca_send_processing
               + hw.hca_recv_processing + 2 * hw.pci_latency
               + 4 * hw.chunk_overhead_cpu + hw.ch3_packet_overhead)
        handshake = 2 * ctl
        miss = 1.0 - self._reg_hit_rate()
        if mean_size > 0:
            handshake += 2 * miss * hw.registration_cost(mean_size)
        return int(handshake / per_byte_gain)

    def _record(self, peer: int, st: _PeerState, knob: str, old, new
                ) -> None:
        self.decisions.append((self._event_seq, peer, knob, old, new))
        self._m_decisions.inc()

    def _retune(self, peer: int, st: _PeerState) -> None:
        self._m_retunes.inc()
        streaming = st.w_max_depth >= STREAMING_DEPTH
        mean_size = self._window_mean_size(st)

        # 1. eager/rendezvous crossover ---------------------------------
        target = self._crossover_target(mean_size)
        target = _pow2_nearest(min(max(target, MIN_CROSSOVER),
                                   MAX_CROSSOVER))
        cur = st.crossover
        if target != cur and abs(target - cur) > HYSTERESIS * cur:
            # move only after two consecutive windows agree on the
            # direction: the first window after a phase change (or a
            # cold registration cache) is noise, and an excursion in
            # the wrong direction costs a whole window of mis-routed
            # messages
            direction = 1 if target > cur else -1
            if st.xover_pending == direction:
                # one power-of-two step per window toward the target
                new = cur * 2 if direction > 0 else cur // 2
                new = min(max(new, MIN_CROSSOVER), MAX_CROSSOVER)
                if new != cur:
                    st.crossover = new
                    self._record(peer, st, "crossover", cur, new)
            else:
                st.xover_pending = direction
        else:
            st.xover_pending = 0

        # 2. large-message protocol (write vs read) ---------------------
        candidate = PROTO_WRITE if streaming else PROTO_READ
        if candidate == st.proto:
            st.proto_pending = None
        elif st.proto_pending == candidate:
            # second consecutive window agreeing: switch
            self._record(peer, st, "protocol", st.proto, candidate)
            st.proto = candidate
            st.proto_pending = None
        else:
            st.proto_pending = candidate
        if st.conn is not None and hasattr(st.conn, "zc_threshold"):
            # arm the channel RDMA-read path the first time this peer
            # is latency-bound AND we actually send it large elements
            # (a rank that only acks a stream never pays the §5 check
            # overhead).  Arming is sticky: on a flip back to
            # rendezvous-write the device intercepts new large sends
            # before they reach the ring, but eager messages already
            # queued at CH3 keep their zero-copy route instead of
            # degrading to ring streaming.
            if (st.proto is PROTO_READ and not st.zc_armed
                    and st.w_max_send >= st.crossover):
                st.zc_armed = True
            want = st.crossover if st.zc_armed else THRESHOLD_OFF
            if st.conn.zc_threshold != want:
                self._record(peer, st, "zc_threshold",
                             st.conn.zc_threshold, want)
                st.conn.zc_threshold = want
            # the per-call check is elided whenever the read path
            # cannot start new operations for this peer
            if hasattr(st.conn, "zc_fastpath"):
                st.conn.zc_fastpath = not (
                    st.proto is PROTO_READ and st.zc_armed)

        # 3. credit/tail-update coalescing ------------------------------
        recv = getattr(st.conn, "receiver", None)
        if recv is not None:
            arrivals = recv.chunks_received - st.chunks0
            # hold tail updates only while the handshake traffic is
            # sparse: once arrivals cycle the whole ring within a
            # window, the sender is slot-limited and needs its credits
            # back promptly
            control_dominated = (st.w_rndv_bytes > st.w_ring_bytes
                                 and st.w_stalls == 0
                                 and arrivals < recv.nslots)
            want = (max(st.default_credit_threshold, recv.nslots - 2)
                    if control_dominated
                    else st.default_credit_threshold)
            if recv.credit_threshold != want:
                self._record(peer, st, "credit_threshold",
                             recv.credit_threshold, want)
                recv.credit_threshold = want

        # 4. soft chunk cap ---------------------------------------------
        if st.conn is not None and hasattr(st.conn, "soft_max_payload"):
            soft = None
            if (not streaming and mean_size >= 4096
                    and mean_size < st.crossover):
                # latency-bound multi-chunk eager traffic: halve the
                # pipelining grain (bounded below at 2 KB)
                soft = max(2048, _pow2_at_most(int(mean_size)) // 2)
                if soft >= self.ch_cfg.chunk_size:
                    soft = None
            if st.conn.soft_max_payload != soft:
                self._record(peer, st, "soft_chunk",
                             st.conn.soft_max_payload, soft)
                st.conn.soft_max_payload = soft

        st.reset_window(self._h_sizes.count, self._h_sizes.sum)
