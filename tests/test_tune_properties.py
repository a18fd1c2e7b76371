"""Property tests for the adaptive controller: under *adversarial*
event streams (arbitrary size histograms, depths, rendezvous mixes,
credit stalls) every knob the controller writes stays inside the
bounds fixed in :mod:`repro.tune.controller`, moves are
power-of-two-stepped, and the decision log is a pure function of the
event stream — replaying the same stream on a fresh controller
reproduces it byte for byte.

These are the guarantees the conformance fuzzer leans on when it runs
the adaptive channel in the differential matrix: a knob excursion
outside its bounds would make the adaptive design diverge from the
static ones in ways no oracle could bless.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ChannelConfig, HardwareConfig
from repro.tune import (PROTO_READ, PROTO_WRITE, THRESHOLD_OFF,
                        AdaptiveController)
from repro.tune.controller import MAX_CROSSOVER, MIN_CROSSOVER


class _FakeReceiver:
    """Just enough ring-receiver surface for the coalescing knob."""

    def __init__(self, nslots=8, credit_threshold=2):
        self.nslots = nslots
        self.credit_threshold = credit_threshold
        self.chunks_received = 0


class _FakeConn:
    """A connection whose knobs the controller may write."""

    def __init__(self):
        self.receiver = _FakeReceiver()
        self.zc_threshold = 32 * 1024
        self.zc_fastpath = False
        self.soft_max_payload = None


# one event: (kind, peer, size, depth, rndv)
_events = st.lists(
    st.tuples(st.sampled_from(["send", "recv", "stall"]),
              st.integers(min_value=1, max_value=3),
              st.one_of(st.integers(min_value=1, max_value=1 << 22),
                        st.sampled_from([1, 8, 2048, 4096, 16384,
                                         32768, 32769, 65536,
                                         (1 << 20) - 1, 1 << 22])),
              st.integers(min_value=0, max_value=8),
              st.booleans()),
    min_size=1, max_size=400)


def _drive(events):
    """Build a controller, attach fake connections, replay the event
    stream; returns (controller, {peer: conn})."""
    c = AdaptiveController(rank=0, hw=HardwareConfig(),
                           ch_cfg=ChannelConfig())
    conns = {}
    for peer in (1, 2, 3):
        conns[peer] = _FakeConn()
        c.attach(peer, conns[peer])
    for kind, peer, size, depth, rndv in events:
        if kind == "send":
            c.on_send(peer, size, depth=depth, rndv=rndv)
        elif kind == "recv":
            # drive the arrival counter so the coalescing predicate
            # sees both sparse and ring-cycling windows
            conns[peer].receiver.chunks_received += 1 + depth
            c.on_recv(peer, size, rndv=rndv)
        else:
            c.on_credit_stall(peer)
    return c, conns


@settings(max_examples=60, deadline=None)
@given(events=_events)
def test_knobs_stay_within_bounds(events):
    c, conns = _drive(events)
    ch_cfg = c.ch_cfg
    for peer, conn in conns.items():
        # crossover clamped to the configured band
        assert MIN_CROSSOVER <= c.crossover(peer) <= MAX_CROSSOVER
        # protocol is one of the two legal values
        assert c.protocol(peer) in (PROTO_WRITE, PROTO_READ)
        # the channel zero-copy threshold is either disarmed or the
        # (in-band) crossover
        assert conn.zc_threshold == THRESHOLD_OFF or (
            MIN_CROSSOVER <= conn.zc_threshold <= MAX_CROSSOVER)
        # the soft chunk cap, when set, is a real cap: at least the
        # 2 KB floor and strictly below the configured chunk size
        soft = conn.soft_max_payload
        assert soft is None or 2048 <= soft < ch_cfg.chunk_size
        # the credit threshold only takes its two sanctioned values
        recv = conn.receiver
        legal = {2, max(0, recv.nslots - 2)}  # attach-time default is 2
        assert recv.credit_threshold in legal


@settings(max_examples=60, deadline=None)
@given(events=_events)
def test_rndv_threshold_query_is_consistent(events):
    c, _conns = _drive(events)
    for peer in (1, 2, 3):
        got = c.rndv_threshold(peer, 32768)
        if c.protocol(peer) is not PROTO_WRITE:
            assert got == THRESHOLD_OFF
        else:
            assert got == c.crossover(peer)


@settings(max_examples=40, deadline=None)
@given(events=_events)
def test_crossover_moves_one_pow2_step(events):
    """Every crossover decision in the log is exactly one doubling or
    halving of the previous value (clamped at the band edges)."""
    c, _conns = _drive(events)
    for _seq, _peer, knob, old, new in c.decisions:
        if knob != "crossover":
            continue
        assert new != old
        assert new in (
            min(old * 2, MAX_CROSSOVER),
            max(old // 2, MIN_CROSSOVER))


@settings(max_examples=40, deadline=None)
@given(events=_events)
def test_decision_log_is_deterministic(events):
    """Replaying the identical event stream on a fresh controller
    reproduces the decision log and every final knob, byte for byte
    — the property the conformance harness's seeded replays rely on."""
    a, conns_a = _drive(events)
    b, conns_b = _drive(events)
    assert a.decisions == b.decisions
    for peer in (1, 2, 3):
        assert a.crossover(peer) == b.crossover(peer)
        assert a.protocol(peer) == b.protocol(peer)
        assert conns_a[peer].zc_threshold == conns_b[peer].zc_threshold
        assert (conns_a[peer].soft_max_payload
                == conns_b[peer].soft_max_payload)
        assert (conns_a[peer].receiver.credit_threshold
                == conns_b[peer].receiver.credit_threshold)


@settings(max_examples=40, deadline=None)
@given(events=_events)
def test_decision_seq_is_monotone(events):
    """Decision records carry a nondecreasing event sequence, so the
    log reads as a causal timeline."""
    c, _conns = _drive(events)
    seqs = [d[0] for d in c.decisions]
    assert seqs == sorted(seqs)
