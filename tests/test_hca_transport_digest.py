"""Pins both HCA transports, event for event, at the verbs level.

``QueuePair`` runs one of two event sequences, chosen once from
``FaultState.transport_active``: the pipelined-ack single shot (no
link fault configured) and the stop-and-wait PSN/ack-timeout machine
(any link fault configured).  The golden corpus carries no fault plan,
so before this file the recovery transport's event count was held only
by the benchmark's ``lossy_stream`` clock.  Nine verbs scenarios run
under four plans; every case asserts ``==`` on the final clock, the
event count, every CQE, the non-zero ``FaultStats`` and a hash of what
the run left behind (memory, per-CQE timestamps, HCA and SRQ counters,
armed obs counters and spans).

``EXPECTED`` was recorded on the commit *before* the two transports
were made to share one responder (``python tests/
test_hca_transport_digest.py`` prints the table) and is never edited
to make a refactor pass: a diff here is a behaviour change.

Deliberate asymmetries between the transports, visible below:

* dry SRQ — fault-free deliveries block in ``srq.consume()`` (RNR
  backpressure, no retransmission); the recovery transport discards,
  sends no ack and retransmits (``send_srq_dry``: no retransmission
  under ``none``; under ``drop30`` the links drop 9 packets and the
  requester retransmits 11 times — the two extra found the pool dry);
* empty private RQ / short receive WQE — same statuses on both, but
  fault-free completes the error CQE at the responder's instant and
  recovery carries it back on the ack leg (``send_rq_runs_empty``);
* a bad-rkey RDMA read completes ``REM_ACCESS_ERR`` after the request
  leg fault-free (``2.9999999999999997e-06``) and up front under any
  link-fault plan (``2.5499999999999997e-06``).  That one is drift, not
  design — pinned here as it is; the ROADMAP item "The RC transport as
  a checked state machine" is where it gets closed and this constant
  deliberately re-recorded.
"""

import hashlib
import struct

import pytest

from repro.cluster import build_cluster
from repro.faults import FaultPlan, LinkFaults
from repro.ib.types import Opcode, RecvRequest, Sge, WorkRequest
from repro.obs import Observability

_N = 8192

# seeds picked so the first packets already exercise every branch:
# drop30 loses the first ack (duplicate suppression) and the second
# request; mixed drops, delays and corrupts on both directions.
PLANS = {
    "none": None,
    "drop30": FaultPlan(seed=20, default_link=LinkFaults(drop_rate=0.3)),
    "mixed": FaultPlan(seed=4, default_link=LinkFaults(
        drop_rate=0.1, corrupt_rate=0.1, delay_rate=0.2)),
    "dead": FaultPlan(seed=1, default_link=LinkFaults(drop_rate=1.0)),
}


def _pattern(nbytes, salt):
    return bytes((i * 31 + salt) % 256 for i in range(nbytes))


class _Rig:
    """Two nodes, one connected QP pair, an 8 KB registered buffer on
    each side.  ``post`` only collects work requests; ``run`` posts
    them back to back through the verbs layer (so the send queue is
    never empty between WQEs) while a poller drains the send CQ."""

    def __init__(self, plan, srq_slots=0):
        self.cluster = c = build_cluster(2, faults=plan,
                                         obs=Observability())
        self.na, self.nb = na, nb = c.nodes
        self.srq = nb.hca.create_srq(srq_slots) if srq_slots else None
        self.qa = na.hca.create_qp(na.hca.create_cq())
        self.qb = nb.hca.create_qp(nb.hca.create_cq(), srq=self.srq)
        self.qa.connect(self.qb)
        self.src, self.dst = na.alloc(_N), nb.alloc(_N)
        self.src.write(_pattern(_N, 1))
        self.dst.write(_pattern(_N, 2))
        self.lkey = na.hca.pd.register(self.src.addr, _N).lkey
        self.rmr = nb.hca.pd.register(self.dst.addr, _N)
        self.ordinal = {}          # wr_id -> order of creation
        self.wrs = []
        self.send_cqes = []
        self.watch_hits = 0

    def _number(self, req):
        self.ordinal[req.wr_id] = len(self.ordinal)
        return req

    def local(self, off, n):
        return Sge(self.src.addr + off, n, self.lkey)

    def post(self, opcode, sges, remote_off=0, rkey=None, **kw):
        self.wrs.append(self._number(WorkRequest(
            opcode=opcode, sges=sges, remote_addr=self.dst.addr + remote_off,
            rkey=self.rmr.rkey if rkey is None else rkey, **kw)))

    def recv_wqe(self, *spans):
        return self._number(RecvRequest(
            [Sge(self.dst.addr + off, n, self.rmr.lkey) for off, n in spans]))

    def run(self):
        poster, poller = self.na.vapi(0), self.na.vapi(1)

        def post_all():
            for wr in self.wrs:
                yield from poster.post_send(self.qa, wr)

        def poll_forever():
            while True:
                self.send_cqes.append(
                    (yield from poller.wait_cq(self.qa.send_cq)))
        self.cluster.spawn(post_all(), "poster")
        self.cluster.sim.spawn(poll_forever(), "poller", daemon=True)
        self.cluster.run()


# -- the nine scenarios: each takes a plan, returns the loaded rig ------

def write(plan):
    rig = _Rig(plan)

    def hit():
        rig.watch_hits += 1
    rig.nb.hca.watch_placement(rig.dst.addr, hit)
    for _ in range(2):
        rig.post(Opcode.RDMA_WRITE, [rig.local(0, 4096)])
        rig.post(Opcode.RDMA_WRITE,
                 [rig.local(5000, 600), rig.local(4096, 424)],
                 remote_off=4096, signaled=False)
        rig.post(Opcode.RDMA_WRITE, [rig.local(100, 64)], remote_off=6000)
    return rig


def write_zero_length(plan):
    rig = _Rig(plan)
    rig.post(Opcode.RDMA_WRITE, [])
    rig.post(Opcode.RDMA_WRITE, [rig.local(8, 8)], remote_off=8)
    rig.post(Opcode.RDMA_WRITE, [], signaled=False)
    return rig


def send_rq_runs_empty(plan):
    """Private RQ: two fitting receives, a short one, then none left."""
    rig = _Rig(plan)
    rig.qb.post_recv(rig.recv_wqe((0, 64)))
    rig.qb.post_recv(rig.recv_wqe((200, 20), (300, 40)))
    rig.qb.post_recv(rig.recv_wqe((64, 16)))
    for i in range(4):
        rig.post(Opcode.SEND, [rig.local(48 * i, 48)])
    return rig


def send_srq_dry(plan):
    """Seven SENDs into a 4-slot SRQ that a slow consumer tops up at
    40 us and again at 1 ms."""
    rig = _Rig(plan, srq_slots=4)

    def top_up():
        while rig.srq.outstanding < rig.srq.max_wr:
            rig.srq.post(rig.recv_wqe((128 * rig.srq.posted_total, 128)))
    top_up()

    def replenish():
        yield rig.cluster.sim.timeout(40e-6)
        top_up()
        yield rig.cluster.sim.timeout(960e-6)
        top_up()
    rig.cluster.spawn(replenish(), "replenish")
    for i in range(7):
        rig.post(Opcode.SEND, [rig.local(100 * i, 60), rig.local(4000, 40)])
    return rig


def read_two_sges(plan):
    rig = _Rig(plan)
    for i in range(2):
        rig.post(Opcode.RDMA_READ,
                 [rig.local(0, 3000), rig.local(4096, 1096)],
                 remote_off=1024 * (i + 1))
        rig.post(Opcode.RDMA_READ, [rig.local(7000 + 32 * i, 32)],
                 remote_off=16)
    rig.post(Opcode.RDMA_READ, [], signaled=False)
    return rig


def fetch_add(plan):
    rig = _Rig(plan)
    rig.dst.write(struct.pack("<Q", 0xFFFFFFFFFFFFFFFE))   # wraps
    for i in range(5):
        rig.post(Opcode.FETCH_ADD, [rig.local(8 * i, 8)], compare_add=1)
    return rig


def cmp_swap(plan):
    rig = _Rig(plan)
    rig.dst.write(struct.pack("<Q", 5))
    for i, (compare, swap) in enumerate([(5, 9), (5, 11), (9, 5), (5, 7)]):
        rig.post(Opcode.CMP_SWAP, [rig.local(8 * i, 8)],
                 compare_add=compare, swap=swap)
    return rig


def write_bad_rkey(plan):
    rig = _Rig(plan)
    rig.post(Opcode.RDMA_WRITE, [rig.local(0, 64)], rkey=0xBAD)
    rig.post(Opcode.RDMA_WRITE, [rig.local(64, 64)], remote_off=64)
    return rig


def read_bad_rkey(plan):
    rig = _Rig(plan)
    rig.post(Opcode.RDMA_READ, [rig.local(0, 64)], rkey=0xBAD)
    return rig


SCENARIOS = [write, write_zero_length, send_rq_runs_empty, send_srq_dry,
             read_two_sges, fetch_add, cmp_swap, write_bad_rkey,
             read_bad_rkey]


def record(scenario, plan_name):
    rig = scenario(PLANS[plan_name])
    rig.run()
    cluster = rig.cluster
    cqes, stamps = [], []
    recv_cq = rig.qb.recv_cq
    for side, found in (("a", rig.send_cqes),
                        ("b", recv_cq.poll_many(recv_cq.depth))):
        for c in found:
            cqes.append(f"{side}#{rig.ordinal[c.wr_id]} {c.opcode.value} "
                        f"{c.status.name} {c.byte_len}")
            stamps.append(repr(c.timestamp))
    obs = cluster.obs
    counters = {}
    for name, v in obs.metrics.snapshot().items():
        # QP numbers come from a process-global counter: fold them out
        leaf = name.rsplit(".", 1)[-1]
        counters[leaf] = counters.get(leaf, 0) + v
    spans = [(s.track, s.name, repr(s.t0), repr(s.t1),
              sorted((k, v) for k, v in s.args.items() if k != "qp"))
             for s in obs.timeline.spans]
    left_behind = [
        bytes(rig.src.read()), bytes(rig.dst.read()), stamps,
        rig.na.hca.stats.snapshot(), rig.nb.hca.stats.snapshot(),
        rig.watch_hits, rig.qa.error, rig.qb.error,
        rig.qa.psn, rig.qb.expected_psn, rig.qa.outstanding_send_wqes,
        rig.srq and (rig.srq.posted_total, rig.srq.consumed_total,
                     rig.srq.rnr_stalls),
        sorted(counters.items()), spans,
    ]
    faults = " ".join(f"{k}={v}" for k, v
                      in cluster.faults.stats.snapshot().items() if v)
    return (repr(cluster.sim.now), cluster.sim.events_processed,
            ", ".join(cqes), faults,
            hashlib.sha1(repr(left_behind).encode()).hexdigest()[:16])


EXPECTED = {'write': {'none': ('2.868990825688074e-05', 120,
                    'a#0 rdma_write SUCCESS 4096, a#2 rdma_write SUCCESS 64, '
                    'a#3 rdma_write SUCCESS 4096, a#5 rdma_write SUCCESS 64',
                    '', '580faa4d9b64dae5'),
           'drop30': ('0.0007565300000000005', 200,
                      'a#0 rdma_write SUCCESS 4096, a#2 rdma_write SUCCESS '
                      '64, a#3 rdma_write SUCCESS 4096, a#5 rdma_write '
                      'SUCCESS 64',
                      'dropped=7 retransmissions=7 timeouts=7 duplicates=3',
                      '4910d240d2dc18fb'),
           'mixed': ('0.000743621651376147', 200,
                     'a#0 rdma_write SUCCESS 4096, a#2 rdma_write SUCCESS 64, '
                     'a#3 rdma_write SUCCESS 4096, a#5 rdma_write SUCCESS 64',
                     'dropped=4 corrupted=2 crc_detected=2 delayed=4 '
                     'retransmissions=6 timeouts=6 duplicates=2',
                     'ddf891aff4b0f80c'),
           'dead': ('0.015510667981651374', 103,
                    'a#0 rdma_write RETRY_EXC_ERR 0, a#1 rdma_write '
                    'WR_FLUSH_ERR 0, a#2 rdma_write WR_FLUSH_ERR 0, a#3 '
                    'rdma_write WR_FLUSH_ERR 0, a#4 rdma_write WR_FLUSH_ERR '
                    '0, a#5 rdma_write WR_FLUSH_ERR 0',
                    'dropped=8 retransmissions=7 timeouts=8 '
                    'retry_exhaustions=1',
                    '2cc725690399afb1')},
 'write_zero_length': {'none': ('9.659174311926604e-06', 58,
                                'a#0 rdma_write SUCCESS 0, a#1 rdma_write '
                                'SUCCESS 8',
                                '', '43cbd5cb04ac9a63'),
                       'drop30': ('0.0004391583486238531', 104,
                                  'a#0 rdma_write SUCCESS 0, a#1 rdma_write '
                                  'SUCCESS 8',
                                  'dropped=5 retransmissions=5 timeouts=5 '
                                  'duplicates=2',
                                  'dd409a678bcf716a'),
                       'mixed': ('0.0002572575229357798', 90,
                                 'a#0 rdma_write SUCCESS 0, a#1 rdma_write '
                                 'SUCCESS 8',
                                 'dropped=2 delayed=3 retransmissions=2 '
                                 'timeouts=2 duplicates=1',
                                 '5131ccbf0a2cb6d5'),
                       'dead': ('0.015308349999999998', 72,
                                'a#0 rdma_write RETRY_EXC_ERR 0, a#1 '
                                'rdma_write WR_FLUSH_ERR 0, a#2 rdma_write '
                                'WR_FLUSH_ERR 0',
                                'dropped=8 retransmissions=7 timeouts=8 '
                                'retry_exhaustions=1',
                                '807e8559d15af505')},
 'send_rq_runs_empty': {'none': ('1.2370183486238534e-05', 84,
                                 'a#3 send SUCCESS 48, a#4 send SUCCESS 48, '
                                 'a#5 send LOC_LEN_ERR 0, a#6 send '
                                 'RNR_RETRY_EXC_ERR 0, b#0 recv SUCCESS 48, '
                                 'b#1 recv SUCCESS 48',
                                 '', 'bc01e1960d68f570'),
                        'drop30': ('0.0006287355045871559', 164,
                                   'a#3 send SUCCESS 48, a#4 send SUCCESS 48, '
                                   'a#5 send LOC_LEN_ERR 0, a#6 send '
                                   'RNR_RETRY_EXC_ERR 0, b#0 recv SUCCESS 48, '
                                   'b#1 recv SUCCESS 48',
                                   'dropped=7 retransmissions=7 timeouts=7 '
                                   'duplicates=3',
                                   '856d15cab210edc9'),
                        'mixed': ('0.000465900366972477', 144,
                                  'a#3 send SUCCESS 48, a#4 send SUCCESS 48, '
                                  'a#5 send LOC_LEN_ERR 0, a#6 send '
                                  'RNR_RETRY_EXC_ERR 0, b#0 recv SUCCESS 48, '
                                  'b#1 recv SUCCESS 48',
                                  'dropped=3 corrupted=1 crc_detected=1 '
                                  'delayed=4 retransmissions=4 timeouts=4 '
                                  'duplicates=1',
                                  'ec6c77358e80b71c'),
                        'dead': ('0.015311010366972475', 93,
                                 'a#3 send RETRY_EXC_ERR 0, a#4 send '
                                 'WR_FLUSH_ERR 0, a#5 send WR_FLUSH_ERR 0, '
                                 'a#6 send WR_FLUSH_ERR 0',
                                 'dropped=8 retransmissions=7 timeouts=8 '
                                 'retry_exhaustions=1',
                                 '3401d64860129c84')},
 'send_srq_dry': {'none': ('0.001', 153,
                           'a#4 send SUCCESS 100, a#5 send SUCCESS 100, a#6 '
                           'send SUCCESS 100, a#7 send SUCCESS 100, a#8 send '
                           'SUCCESS 100, a#9 send SUCCESS 100, a#10 send '
                           'SUCCESS 100, b#0 recv SUCCESS 100, b#1 recv '
                           'SUCCESS 100, b#2 recv SUCCESS 100, b#3 recv '
                           'SUCCESS 100, b#11 recv SUCCESS 100, b#12 recv '
                           'SUCCESS 100, b#13 recv SUCCESS 100',
                           '', 'f7c7227b11dfca77'),
                  'drop30': ('0.0015522142201834861', 278,
                             'a#4 send SUCCESS 100, a#5 send SUCCESS 100, a#6 '
                             'send SUCCESS 100, a#7 send SUCCESS 100, a#8 '
                             'send SUCCESS 100, a#9 send SUCCESS 100, a#10 '
                             'send SUCCESS 100, b#0 recv SUCCESS 100, b#1 '
                             'recv SUCCESS 100, b#2 recv SUCCESS 100, b#3 '
                             'recv SUCCESS 100, b#11 recv SUCCESS 100, b#12 '
                             'recv SUCCESS 100, b#13 recv SUCCESS 100',
                             'dropped=9 retransmissions=11 timeouts=11 '
                             'duplicates=3',
                             '035e07dbf8708b13'),
                  'mixed': ('0.0010896848623853208', 272,
                            'a#4 send SUCCESS 100, a#5 send SUCCESS 100, a#6 '
                            'send SUCCESS 100, a#7 send SUCCESS 100, a#8 send '
                            'SUCCESS 100, a#9 send SUCCESS 100, a#10 send '
                            'SUCCESS 100, b#0 recv SUCCESS 100, b#1 recv '
                            'SUCCESS 100, b#2 recv SUCCESS 100, b#3 recv '
                            'SUCCESS 100, b#11 recv SUCCESS 100, b#12 recv '
                            'SUCCESS 100, b#13 recv SUCCESS 100',
                            'dropped=5 corrupted=2 crc_detected=2 delayed=5 '
                            'retransmissions=9 timeouts=9 duplicates=2',
                            'bbbaf5cb179661a5'),
                  'dead': ('0.01531446743119266', 113,
                           'a#4 send RETRY_EXC_ERR 0, a#5 send WR_FLUSH_ERR '
                           '0, a#6 send WR_FLUSH_ERR 0, a#7 send WR_FLUSH_ERR '
                           '0, a#8 send WR_FLUSH_ERR 0, a#9 send WR_FLUSH_ERR '
                           '0, a#10 send WR_FLUSH_ERR 0',
                           'dropped=8 retransmissions=7 timeouts=8 '
                           'retry_exhaustions=1',
                           '6decd42445cfd7ab')},
 'read_two_sges': {'none': ('5.371788990825687e-05', 112,
                            'a#0 rdma_read SUCCESS 4096, a#1 rdma_read '
                            'SUCCESS 32, a#2 rdma_read SUCCESS 4096, a#3 '
                            'rdma_read SUCCESS 32',
                            '', 'f4be86f3aa12f817'),
                   'drop30': ('0.000818517889908257', 182,
                              'a#0 rdma_read SUCCESS 4096, a#1 rdma_read '
                              'SUCCESS 32, a#2 rdma_read SUCCESS 4096, a#3 '
                              'rdma_read SUCCESS 32',
                              'dropped=7 retransmissions=7 timeouts=7',
                              'ff8bc2234c00cc59'),
                   'mixed': ('0.0007553178899082571', 166,
                             'a#0 rdma_read SUCCESS 4096, a#1 rdma_read '
                             'SUCCESS 32, a#2 rdma_read SUCCESS 4096, a#3 '
                             'rdma_read SUCCESS 32',
                             'dropped=3 corrupted=3 crc_detected=2 delayed=5 '
                             'retransmissions=5 timeouts=5',
                             '7b46f3948704ff1a'),
                   'dead': ('0.015631430000000005', 66,
                            'a#0 rdma_read RETRY_EXC_ERR 0, a#1 rdma_read '
                            'WR_FLUSH_ERR 0, a#2 rdma_read WR_FLUSH_ERR 0, '
                            'a#3 rdma_read WR_FLUSH_ERR 0, a#4 rdma_read '
                            'WR_FLUSH_ERR 0',
                            'dropped=8 retransmissions=7 timeouts=8 '
                            'retry_exhaustions=1',
                            'ed25b5b6f7f5ce51')},
 'fetch_add': {'none': ('4.1849999999999994e-05', 99,
                        'a#0 fetch_add SUCCESS 8, a#1 fetch_add SUCCESS 8, '
                        'a#2 fetch_add SUCCESS 8, a#3 fetch_add SUCCESS 8, '
                        'a#4 fetch_add SUCCESS 8',
                        '', 'a1261974a5721618'),
               'drop30': ('0.0006424099999999999', 157,
                          'a#0 fetch_add SUCCESS 8, a#1 fetch_add SUCCESS 8, '
                          'a#2 fetch_add SUCCESS 8, a#3 fetch_add SUCCESS 8, '
                          'a#4 fetch_add SUCCESS 8',
                          'dropped=7 retransmissions=7 timeouts=7 '
                          'duplicates=3',
                          '7606e53a4e2dc27e'),
               'mixed': ('0.0008023300000000002', 158,
                         'a#0 fetch_add SUCCESS 8, a#1 fetch_add SUCCESS 8, '
                         'a#2 fetch_add SUCCESS 8, a#3 fetch_add SUCCESS 8, '
                         'a#4 fetch_add SUCCESS 8',
                         'dropped=3 corrupted=3 crc_detected=3 delayed=5 '
                         'retransmissions=6 timeouts=6 duplicates=2',
                         '66a1e4aa2b6d234e'),
               'dead': ('0.015304389999999998', 66,
                        'a#0 fetch_add RETRY_EXC_ERR 0, a#1 fetch_add '
                        'WR_FLUSH_ERR 0, a#2 fetch_add WR_FLUSH_ERR 0, a#3 '
                        'fetch_add WR_FLUSH_ERR 0, a#4 fetch_add WR_FLUSH_ERR '
                        '0',
                        'dropped=8 retransmissions=7 timeouts=8 '
                        'retry_exhaustions=1',
                        '5771017b6fc8de19')},
 'cmp_swap': {'none': ('3.37e-05', 80,
                       'a#0 cmp_swap SUCCESS 8, a#1 cmp_swap SUCCESS 8, a#2 '
                       'cmp_swap SUCCESS 8, a#3 cmp_swap SUCCESS 8',
                       '', '0e62faa7d1ea22d1'),
              'drop30': ('0.0006342599999999999', 135,
                         'a#0 cmp_swap SUCCESS 8, a#1 cmp_swap SUCCESS 8, a#2 '
                         'cmp_swap SUCCESS 8, a#3 cmp_swap SUCCESS 8',
                         'dropped=7 retransmissions=7 timeouts=7 duplicates=3',
                         'bf9cffad2f255607'),
              'mixed': ('0.0007341000000000001', 127,
                        'a#0 cmp_swap SUCCESS 8, a#1 cmp_swap SUCCESS 8, a#2 '
                        'cmp_swap SUCCESS 8, a#3 cmp_swap SUCCESS 8',
                        'dropped=3 corrupted=2 crc_detected=2 delayed=5 '
                        'retransmissions=5 timeouts=5 duplicates=1',
                        '407fa50066e8c4ea'),
              'dead': ('0.015304089999999998', 61,
                       'a#0 cmp_swap RETRY_EXC_ERR 0, a#1 cmp_swap '
                       'WR_FLUSH_ERR 0, a#2 cmp_swap WR_FLUSH_ERR 0, a#3 '
                       'cmp_swap WR_FLUSH_ERR 0',
                       'dropped=8 retransmissions=7 timeouts=8 '
                       'retry_exhaustions=1',
                       'dd0004ebe90acf0f')},
 'write_bad_rkey': {'none': ('7.823394495412844e-06', 35,
                             'a#0 rdma_write REM_ACCESS_ERR 0, a#1 rdma_write '
                             'SUCCESS 64',
                             '', 'a9be59a8a596dcd9'),
                    'drop30': ('0.00018991018348623855', 57,
                               'a#0 rdma_write REM_ACCESS_ERR 0, a#1 '
                               'rdma_write SUCCESS 64',
                               'dropped=2 retransmissions=2 timeouts=2 '
                               'duplicates=1',
                               '5cbc26e7c2e3dc65'),
                    'mixed': ('7.823394495412844e-06', 37,
                              'a#0 rdma_write REM_ACCESS_ERR 0, a#1 '
                              'rdma_write SUCCESS 64',
                              '', 'd1d60d95986b9bd5'),
                    'dead': ('0.015312347155963302', 88,
                             'a#0 rdma_write REM_ACCESS_ERR 0, a#1 rdma_write '
                             'RETRY_EXC_ERR 0',
                             'dropped=8 retransmissions=7 timeouts=8 '
                             'retry_exhaustions=1',
                             '189401c7c581c6cd')},
 'read_bad_rkey': {'none': ('2.9999999999999997e-06', 16,
                            'a#0 rdma_read REM_ACCESS_ERR 0', '',
                            '631983f6c3c8c518'),
                   'drop30': ('2.5499999999999997e-06', 14,
                              'a#0 rdma_read REM_ACCESS_ERR 0', '',
                              'e04c702ef702ace6'),
                   'mixed': ('2.5499999999999997e-06', 14,
                             'a#0 rdma_read REM_ACCESS_ERR 0', '',
                             'e04c702ef702ace6'),
                   'dead': ('2.5499999999999997e-06', 14,
                            'a#0 rdma_read REM_ACCESS_ERR 0', '',
                            'e04c702ef702ace6')}}


@pytest.mark.parametrize("plan_name", list(PLANS))
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_transport_digest(scenario, plan_name):
    assert record(scenario, plan_name) == EXPECTED[scenario.__name__][
        plan_name]


if __name__ == "__main__":   # prints the table to paste into EXPECTED
    import pprint
    pprint.pprint({s.__name__: {p: record(s, p) for p in PLANS}
                   for s in SCENARIOS},
                  width=79, compact=True, sort_dicts=False)
