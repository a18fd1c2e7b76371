"""The four transcribed protocol state machines.

Each class below is a small-configuration transcription of one
protocol from the runtime stack, written against
:class:`~repro.analysis.model.checker.Model`.  The transcriptions are
intentionally literal: every guard corresponds to a guard in the
runtime code (the docstrings say which), so a divergence between
model and implementation is a transcription bug worth finding.

The SRQ and mux models test the credit window with the predicates the
runtime parts use (:func:`repro.mpich2.channels.parts.window_open` and
``replenish_due``), looked up through that module at every step: a
patch to a runtime predicate reaches the model too.

Each model also carries named **mutations** — the same seeded bugs as
``repro/check/mutations.py``, transcribed at the model level — so the
checker can demonstrate each runtime mutation's failure as an
exhaustive counterexample, independent of any simulation run:

========================  ==============================  ===========
model                     mutation                        verdict
========================  ==============================  ===========
srq-credit                credit-leak                     deadlock
srq-credit                replenish-off-by-one            deadlock
srq-credit                pool-early-recycle              invariant
lazy-connect              drop-rep-no-retry               deadlock
lazy-connect              lost-wakeup                     deadlock
mux-pool                  qp-hash-mismatch                invariant
rendezvous                dereg-after-rts                 invariant
rendezvous                ack-before-read                 invariant
========================  ==============================  ===========
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Type

from ...mpich2.channels import parts
from .checker import Model, State, Step

__all__ = ["SrqCreditModel", "LazyConnectModel", "MuxPoolModel",
           "RendezvousModel", "MODELS", "build_model",
           "default_configs", "config_for_mutation"]


# ---------------------------------------------------------------------
# 1. the SRQ credit window (mpich2/channels/srq.py)
# ---------------------------------------------------------------------

class SrqCreditModel(Model):
    """One-way eager stream over the shared receive pool.

    Transcribes ``SrqChannel`` for a sender/receiver pair with no
    reverse traffic (so piggybacking is inert and only the explicit
    RDMA-write credit replenish can refill the window — the geometry
    of the ``srq-credit-leak`` smoke spec).

    State tuple::

        (sent, inflight, filled, pool_free, consumed,
         last_credit, credit_wire, peer_consumed)

    * ``sent``       messages the sender has posted (``put``);
    * ``inflight``   messages on the wire, not yet in a pool slot;
    * ``filled``     pool slots holding a delivered, unread message;
    * ``pool_free``  receive WQEs available in the SRQ;
    * ``consumed``   messages the receiver has copied out (``get``);
    * ``last_credit``  the receiver's ``conn.credits.credit_sent``;
    * ``credit_wire``  in-flight explicit credit writes (cumulative
      values, FIFO — RDMA writes on one QP are ordered);
    * ``peer_consumed``  the sender's view of ``consumed``.
    """

    name = "srq-credit"
    lanes = ("sender", "receiver")
    mutations: Mapping[str, str] = {
        "credit-leak":
            "explicit credit marked sent but never written "
            "(mirrors runtime mutation srq-credit-leak)",
        "replenish-off-by-one":
            "replenish threshold off by one: fires only when the gap "
            "exceeds the whole window, which it never can "
            "(mirrors runtime mutation srq-replenish-off-by-one)",
        "pool-early-recycle":
            "receive slot reposted at CQE time, before copy-out "
            "(mirrors runtime mutation srq-pool-write-race)",
    }

    def __init__(self, nmsgs: int = 4, credits: int = 2,
                 pool_slots: int = 2,
                 mutation: Optional[str] = None) -> None:
        super().__init__(mutation)
        self.nmsgs = nmsgs
        self.credits = credits
        self.pool_slots = pool_slots
        # SrqChannel.establish: max(1, srq_credits // 2)
        self.threshold = max(1, credits // 2)

    def initial(self) -> State:
        return (0, 0, 0, self.pool_slots, 0, 0, (), 0)

    def steps(self, state: State
              ) -> Iterator[Tuple[Step, State]]:
        (sent, inflight, filled, pool_free, consumed,
         last_credit, credit_wire, peer) = state
        # put(): the sender's window guard
        if sent < self.nmsgs and parts.window_open(sent, peer,
                                                    self.credits):
            yield (Step(f"send m{sent}", "sender",
                        msg=("sender", "receiver", f"m{sent}")),
                   (sent + 1, inflight + 1, filled, pool_free,
                    consumed, last_credit, credit_wire, peer))
        # HCA delivery: an inbound SEND consumes a pool WQE; with the
        # pool dry the delivery blocks (RNR backpressure), so the
        # transition is simply not enabled
        if inflight > 0 and pool_free > 0:
            if self.mutation == "pool-early-recycle":
                # the mutated drain() reposts the slot at CQE time:
                # the WQE count does not drop while the slot fills
                nxt_free = pool_free
            else:
                nxt_free = pool_free - 1
            yield (Step("deliver", "receiver"),
                   (sent, inflight - 1, filled + 1, nxt_free,
                    consumed, last_credit, credit_wire, peer))
        # get(): copy out one message, repost its slot, maybe emit an
        # explicit credit write (threshold check from SrqChannel.get)
        if filled > 0:
            ncons = consumed + 1
            nfree = pool_free + 1
            nlast, nwire = last_credit, credit_wire
            if self.mutation == "replenish-off-by-one":
                due = ncons - last_credit > self.credits
            else:
                due = parts.replenish_due(ncons, last_credit,
                                          self.threshold)
            label = f"consume m{consumed}"
            if due:
                nlast = ncons
                if self.mutation != "credit-leak":
                    nwire = credit_wire + (ncons,)
                    label = f"consume m{consumed} +credit"
            yield (Step(label, "receiver"),
                   (sent, inflight, filled - 1, nfree, ncons,
                    nlast, nwire, peer))
        # the unsignaled RDMA credit write lands in the sender's
        # replica; values are cumulative so the sender takes the max.
        # Local: independent of every other step (it only raises
        # `peer`, which can enable but never disable a send, and
        # append-vs-pop on the wire queue commutes) and invisible to
        # the invariant.
        if credit_wire:
            value = credit_wire[0]
            yield (Step(f"credit={value}", "receiver", local=True,
                        msg=("receiver", "sender", f"credit={value}")),
                   (sent, inflight, filled, pool_free, consumed,
                    last_credit, credit_wire[1:], max(peer, value)))

    def invariant(self, state: State) -> Optional[str]:
        (sent, inflight, filled, pool_free, consumed,
         last_credit, credit_wire, peer) = state
        # slot accounting: every slot is either posted (free) or
        # holding an unread message — the SRQ credit-conservation
        # invariant `posted_total - consumed_total == outstanding`
        if pool_free + filled != self.pool_slots:
            return (f"pool slot accounting broken: free={pool_free} "
                    f"+ filled={filled} != slots={self.pool_slots} "
                    "(duplicate or missing repost)")
        if not (0 <= peer <= consumed <= sent <= self.nmsgs):
            return (f"credit counters non-monotonic: peer={peer} "
                    f"consumed={consumed} sent={sent}")
        if sent - peer > self.credits:
            return (f"credit window overrun: sent={sent} "
                    f"acked={peer} window={self.credits}")
        if last_credit > consumed:
            return (f"credit from the future: last_credit="
                    f"{last_credit} > consumed={consumed}")
        if any(v > consumed for v in credit_wire):
            return "in-flight credit exceeds consumed count"
        return None

    def is_done(self, state: State) -> bool:
        (sent, inflight, filled, _free, consumed,
         _last, _wire, _peer) = state
        return (sent == self.nmsgs and consumed == self.nmsgs
                and inflight == 0 and filled == 0)

    def blocked(self, state: State) -> Mapping[str, str]:
        (sent, inflight, filled, pool_free, consumed,
         _last, credit_wire, peer) = state
        why: Dict[str, str] = {}
        if sent < self.nmsgs and not parts.window_open(sent, peer,
                                                        self.credits):
            why["sender"] = (
                f"credit window starved: sent={sent} acked={peer} "
                f"window={self.credits}, no credit in flight"
                if not credit_wire else
                f"credit window full: sent={sent} acked={peer}")
        if consumed < self.nmsgs and filled == 0 and inflight == 0:
            why["receiver"] = (
                f"waiting for message m{consumed}, nothing in flight")
        if inflight > 0 and pool_free == 0:
            why["receiver"] = (
                "pool dry: delivery blocked on RNR backpressure")
        return why

    def describe(self, state: State) -> str:
        (sent, inflight, filled, pool_free, consumed,
         last_credit, credit_wire, peer) = state
        return (f"sent={sent} inflight={inflight} filled={filled} "
                f"free={pool_free} consumed={consumed} "
                f"last_credit={last_credit} wire={list(credit_wire)} "
                f"acked={peer}")


# ---------------------------------------------------------------------
# 2. the lazy-connect REQ/REP handshake (mpich2/connect.py)
# ---------------------------------------------------------------------

#: per-rank phases
_IDLE, _OWN, _WAIT, _DONE, _FAIL = "idle", "own", "wait", "done", "fail"
#: pair states
_NONE, _INFLIGHT, _UP = "none", "inflight", "up"
#: handshake legs
_REQ, _REP, _TO_REQ, _TO_REP, _NOLEG = ("req", "rep", "timeout-req",
                                        "timeout-rep", "-")


class LazyConnectModel(Model):
    """Two ranks racing to connect the same unordered pair.

    Transcribes ``LazyConnector.connect``/``_handshake``: the first
    initiator becomes the owner and runs the REQ/REP exchange; a
    concurrent initiator coalesces on the pair event.  An adversary
    may drop up to ``drops`` handshake legs; a dropped leg times out
    and the owner retries, up to ``retries`` extra attempts.  When
    the attempts run out the owner raises (``_FAIL`` — a *handled*
    termination), deletes the pair entry, and wakes coalesced waiters
    so they can retry as the new owner.

    State tuple::

        (phase0, phase1, pair, owner, attempt, leg, drops_left)
    """

    name = "lazy-connect"
    lanes = ("rank0", "rank1")
    mutations: Mapping[str, str] = {
        "drop-rep-no-retry":
            "a dropped REP leg never times out: the initiator waits "
            "forever (mirrors runtime mutation lazy-drop-rep)",
        "lost-wakeup":
            "the established handshake never signals the pair event: "
            "coalesced waiters sleep forever (mirrors runtime "
            "mutation lazy-lost-wakeup)",
    }

    def __init__(self, initiators: Tuple[int, ...] = (0, 1),
                 retries: int = 1, drops: int = 1,
                 mutation: Optional[str] = None) -> None:
        super().__init__(mutation)
        self.initiators = initiators
        self.retries = retries
        self.drops = drops

    def initial(self) -> State:
        phases = tuple(_IDLE if r in self.initiators else _DONE
                       for r in (0, 1))
        return (phases[0], phases[1], _NONE, -1, 0, _NOLEG,
                self.drops)

    def _wake(self, phase: str, to: str) -> str:
        """Waiters wake when the owner resolves the pair — unless the
        lost-wakeup mutation eats the signal."""
        if phase != _WAIT:
            return phase
        if self.mutation == "lost-wakeup":
            return _WAIT
        return to

    def steps(self, state: State
              ) -> Iterator[Tuple[Step, State]]:
        p0, p1, pair, owner, attempt, leg, drops = state
        phases = [p0, p1]
        for i in (0, 1):
            if phases[i] != _IDLE:
                continue
            lane = f"rank{i}"
            if pair == _NONE:
                nxt = list(phases)
                nxt[i] = _OWN
                yield (Step(f"{lane} starts handshake", lane,
                            msg=(lane, f"rank{1 - i}", "REQ")),
                       (nxt[0], nxt[1], _INFLIGHT, i, 0, _REQ,
                        drops))
            elif pair == _INFLIGHT:
                nxt = list(phases)
                nxt[i] = _WAIT
                yield (Step(f"{lane} coalesces on the pair event",
                            lane),
                       (nxt[0], nxt[1], pair, owner, attempt, leg,
                        drops))
            else:  # already up: connect() returns immediately
                nxt = list(phases)
                nxt[i] = _DONE
                yield (Step(f"{lane} reuses the connection", lane),
                       (nxt[0], nxt[1], pair, owner, attempt, leg,
                        drops))
        if pair == _INFLIGHT:
            lane = f"rank{owner}"
            peer = f"rank{1 - owner}"
            if leg == _REQ:
                yield (Step("REQ delivered", peer,
                            msg=(peer, lane, "REP")),
                       (p0, p1, pair, owner, attempt, _REP, drops))
                if drops > 0:
                    yield (Step("REQ dropped", lane),
                           (p0, p1, pair, owner, attempt, _TO_REQ,
                            drops - 1))
            elif leg == _REP:
                nxt = [self._wake(p0, _DONE), self._wake(p1, _DONE)]
                nxt[owner] = _DONE
                yield (Step("REP delivered: connection up", lane),
                       (nxt[0], nxt[1], _UP, -1, 0, _NOLEG, drops))
                if drops > 0:
                    yield (Step("REP dropped", lane),
                           (p0, p1, pair, owner, attempt, _TO_REP,
                            drops - 1))
            elif leg in (_TO_REQ, _TO_REP):
                # wait out ack_timeout(attempt), then resend — unless
                # the mutation forgot the REP-leg timer
                if (self.mutation == "drop-rep-no-retry"
                        and leg == _TO_REP):
                    return
                if attempt < self.retries:
                    yield (Step(f"timeout: retry #{attempt + 1}",
                                lane,
                                msg=(lane, peer, "REQ")),
                           (p0, p1, pair, owner, attempt + 1, _REQ,
                            drops))
                else:
                    # MpiError path: delete the pair entry, wake the
                    # waiters so they retry as the new owner
                    nxt = [self._wake(p0, _IDLE),
                           self._wake(p1, _IDLE)]
                    nxt[owner] = _FAIL
                    yield (Step("retries exhausted: MpiError", lane),
                           (nxt[0], nxt[1], _NONE, -1, 0, _NOLEG,
                            drops))

    def invariant(self, state: State) -> Optional[str]:
        p0, p1, pair, owner, attempt, leg, _drops = state
        if (pair == _INFLIGHT) != (owner in (0, 1)):
            return f"owner/pair mismatch: pair={pair} owner={owner}"
        if pair == _INFLIGHT and (p0, p1)[owner] != _OWN:
            return (f"owner rank{owner} is {(p0, p1)[owner]!r}, "
                    "not running the handshake")
        if attempt > self.retries:
            return f"attempt {attempt} exceeds retry cap"
        if pair != _INFLIGHT and leg != _NOLEG:
            return f"stray handshake leg {leg!r} with pair={pair}"
        return None

    def is_done(self, state: State) -> bool:
        p0, p1, pair, _owner, _attempt, _leg, _drops = state
        return (p0 in (_DONE, _FAIL) and p1 in (_DONE, _FAIL)
                and pair != _INFLIGHT)

    def blocked(self, state: State) -> Mapping[str, str]:
        p0, p1, pair, owner, _attempt, leg, _drops = state
        why: Dict[str, str] = {}
        for i, phase in enumerate((p0, p1)):
            if phase == _WAIT:
                why[f"rank{i}"] = (
                    "coalesced on the pair event, never woken "
                    "(lost wakeup)" if pair != _INFLIGHT else
                    "coalesced on the pair event")
            elif phase == _OWN and leg == _TO_REP:
                why[f"rank{i}"] = (
                    "REP leg dropped and the initiator never times "
                    "out: blocked in connect() forever")
            elif phase == _OWN and leg == _TO_REQ:
                why[f"rank{i}"] = "REQ leg dropped, no retry fired"
        return why

    def describe(self, state: State) -> str:
        p0, p1, pair, owner, attempt, leg, drops = state
        return (f"rank0={p0} rank1={p1} pair={pair} owner={owner} "
                f"attempt={attempt} leg={leg} drops_left={drops}")


# ---------------------------------------------------------------------
# 3. the mux bounded QP pool (mpich2/channels/srq.py MuxChannel)
# ---------------------------------------------------------------------

class MuxPoolModel(Model):
    """Two flows multiplexed onto a bounded QP pool feeding one
    shared receive pool.

    Transcribes the ``mux`` design's ordering argument: a flow maps
    to exactly one QP (``_flow_slot``), the HCA delivers per-QP in
    order, and the demultiplexer appends to per-flow queues in CQE
    order — so per-flow FIFO holds even when flows share a QP.  The
    ``qp-hash-mismatch`` mutation breaks the "exactly one QP" leg by
    spraying a flow's messages across the pool, and the checker finds
    the resulting reorder as a FIFO invariant violation.

    State tuple::

        (sent, acked, acks_in_flight, wires, fqueues,
         consumed, pool_free)

    with per-flow tuples for ``sent``/``acked``/``acks_in_flight``/
    ``fqueues``/``consumed`` and a per-QP tuple of ``(flow, seq)``
    wires.
    """

    name = "mux-pool"
    lanes = ("flows", "pool")
    mutations: Mapping[str, str] = {
        "qp-hash-mismatch":
            "a flow's messages hash to different QPs per message, "
            "so same-flow messages race each other on the fabric",
    }

    def __init__(self, nflows: int = 2, nqps: int = 1,
                 msgs: int = 2, credits: int = 2,
                 pool_slots: int = 2,
                 mutation: Optional[str] = None) -> None:
        super().__init__(mutation)
        self.nflows = nflows
        self.nqps = nqps
        self.msgs = msgs
        self.credits = credits
        self.pool_slots = pool_slots

    def _qp_of(self, flow: int, seq: int) -> int:
        if self.mutation == "qp-hash-mismatch":
            return (flow + seq) % self.nqps if self.nqps > 1 else 0
        # _flow_slot is deterministic per flow; the modulo mix is
        # irrelevant to ordering, only per-flow stability matters
        return flow % self.nqps

    def initial(self) -> State:
        zeros = (0,) * self.nflows
        return (zeros, zeros, zeros,
                ((),) * self.nqps, ((),) * self.nflows,
                zeros, self.pool_slots)

    def steps(self, state: State
              ) -> Iterator[Tuple[Step, State]]:
        sent, acked, acks, wires, fqueues, consumed, free = state
        for f in range(self.nflows):
            # send: per-flow credit window, append to the flow's QP
            if (sent[f] < self.msgs
                    and parts.window_open(sent[f], acked[f],
                                          self.credits)):
                q = self._qp_of(f, sent[f])
                nwires = list(wires)
                nwires[q] = wires[q] + ((f, sent[f]),)
                nsent = list(sent)
                nsent[f] += 1
                yield (Step(f"send f{f}.m{sent[f]} via qp{q}",
                            "flows",
                            msg=("flows", "pool",
                                 f"f{f}.m{sent[f]}")),
                       (tuple(nsent), acked, acks, tuple(nwires),
                        fqueues, consumed, free))
            # consume: pop the flow queue head, free the slot, ack
            if fqueues[f]:
                seq = fqueues[f][0]
                nfq = list(fqueues)
                nfq[f] = fqueues[f][1:]
                ncons = list(consumed)
                ncons[f] += 1
                nacks = list(acks)
                nacks[f] += 1
                yield (Step(f"consume f{f}.m{seq}", "pool"),
                       (sent, acked, tuple(nacks), wires,
                        tuple(nfq), tuple(ncons), free + 1))
            # ack return (stands in for the credit machinery modelled
            # in full by srq-credit).  Local: only raises acked[f],
            # which can enable but never disable other steps, and
            # commutes with every co-enabled step.
            if acks[f] > 0:
                nacks = list(acks)
                nacks[f] -= 1
                nacked = list(acked)
                nacked[f] += 1
                yield (Step(f"ack f{f}", "pool", local=True,
                            msg=("pool", "flows", f"ack f{f}")),
                       (sent, tuple(nacked), tuple(nacks), wires,
                        fqueues, consumed, free))
        # per-QP in-order delivery into the per-flow demux queues
        for q in range(self.nqps):
            if wires[q] and free > 0:
                f, seq = wires[q][0]
                nwires = list(wires)
                nwires[q] = wires[q][1:]
                nfq = list(fqueues)
                nfq[f] = fqueues[f] + (seq,)
                yield (Step(f"deliver f{f}.m{seq} from qp{q}",
                            "pool"),
                       (sent, acked, acks, tuple(nwires),
                        tuple(nfq), consumed, free - 1))

    def invariant(self, state: State) -> Optional[str]:
        _sent, _acked, _acks, _wires, fqueues, consumed, free = state
        held = sum(len(q) for q in fqueues)
        if free + held != self.pool_slots:
            return (f"pool slot accounting broken: free={free} + "
                    f"held={held} != slots={self.pool_slots}")
        for f in range(self.nflows):
            for i, seq in enumerate(fqueues[f]):
                if seq != consumed[f] + i:
                    return (f"per-flow FIFO broken: flow {f} expects "
                            f"m{consumed[f] + i} next but the queue "
                            f"holds m{seq} (reordered on the fabric)")
        return None

    def is_done(self, state: State) -> bool:
        sent, _acked, _acks, wires, fqueues, consumed, _free = state
        return (all(s == self.msgs for s in sent)
                and all(c == self.msgs for c in consumed)
                and not any(wires) and not any(fqueues))

    def blocked(self, state: State) -> Mapping[str, str]:
        sent, acked, _acks, wires, _fq, _cons, free = state
        why: Dict[str, str] = {}
        starved = [f for f in range(self.nflows)
                   if sent[f] < self.msgs
                   and not parts.window_open(sent[f], acked[f],
                                             self.credits)]
        if starved:
            why["flows"] = (f"flow(s) {starved} starved at the "
                            f"credit window")
        if any(wires) and free == 0:
            why["pool"] = "pool dry with traffic in flight"
        return why

    def describe(self, state: State) -> str:
        sent, acked, acks, wires, fqueues, consumed, free = state
        return (f"sent={list(sent)} acked={list(acked)} "
                f"wires={[list(w) for w in wires]} "
                f"queues={[list(q) for q in fqueues]} "
                f"consumed={list(consumed)} free={free}")


# ---------------------------------------------------------------------
# 4. the rendezvous RTS / RDMA-read / ACK exchange
#    (mpich2/channels/chunked.py zero-copy path)
# ---------------------------------------------------------------------

#: per-message stages
_W, _RTS, _RDP, _RDF, _RDD, _ACK, _FIN = ("wait", "rts-inflight",
                                          "read-pending",
                                          "read-inflight",
                                          "read-done",
                                          "ack-inflight", "done")


class RendezvousModel(Model):
    """N concurrent zero-copy messages between one rank pair.

    Transcribes the §5 protocol: the sender registers the source MR
    and sends an RTS; the receiver issues an RDMA read of the
    advertised region; on read completion it sends the ACK; the ACK
    retires the operation and *only then* may the sender deregister
    (Fig. 10's completion rule).  Control messages (RTS, ACK) share a
    bounded credit pool.

    State tuple: ``(stages, mrs, ctrl_free)`` with per-message stage
    and MR-liveness tuples.
    """

    name = "rendezvous"
    lanes = ("sender", "receiver")
    mutations: Mapping[str, str] = {
        "dereg-after-rts":
            "source MR deregistered right after the RTS, while the "
            "read is still coming (mirrors runtime mutation "
            "early-deregister)",
        "ack-before-read":
            "ACK sent when the RTS is seen, before the RDMA read "
            "completed (mirrors runtime mutation ack-before-read)",
    }

    def __init__(self, nmsgs: int = 2, ctrl_credits: int = 2,
                 mutation: Optional[str] = None) -> None:
        super().__init__(mutation)
        self.nmsgs = nmsgs
        self.ctrl_credits = ctrl_credits

    def initial(self) -> State:
        return ((_W,) * self.nmsgs, (False,) * self.nmsgs,
                self.ctrl_credits)

    def _set(self, tpl: Tuple, i: int, val: object) -> Tuple:
        out = list(tpl)
        out[i] = val
        return tuple(out)

    def steps(self, state: State
              ) -> Iterator[Tuple[Step, State]]:
        stages, mrs, ctrl = state
        for i, stage in enumerate(stages):
            if stage == _W and ctrl > 0:
                # register the source, send the RTS (consumes a
                # control credit until delivered)
                live = self.mutation != "dereg-after-rts"
                yield (Step(f"RTS m{i}", "sender",
                            msg=("sender", "receiver", f"RTS m{i}")),
                       (self._set(stages, i, _RTS),
                        self._set(mrs, i, live), ctrl - 1))
            elif stage == _RTS:
                yield (Step(f"RTS m{i} delivered", "receiver"),
                       (self._set(stages, i, _RDP), mrs, ctrl + 1))
            elif stage == _RDP:
                # the receiver posts the RDMA read of the advertised
                # region; the paper's ownership rule makes this the
                # spot where a dead MR is fatal
                yield (Step(f"RDMA read m{i}", "receiver",
                            msg=("receiver", "sender",
                                 f"read m{i}")),
                       (self._set(stages, i, _RDF), mrs, ctrl))
                if self.mutation == "ack-before-read" and ctrl > 0:
                    yield (Step(f"early ACK m{i}", "receiver",
                                msg=("receiver", "sender",
                                     f"ACK m{i}")),
                           (self._set(stages, i, "early-acked"),
                            mrs, ctrl - 1))
            elif stage == "early-acked":
                # mutated path: the sender retires the op on the
                # stray ACK and deregisters while the read has not
                # even been posted
                yield (Step(f"ACK m{i} delivered: dereg", "sender"),
                       (self._set(stages, i, _RDP + "/dead"),
                        self._set(mrs, i, False), ctrl + 1))
            elif stage == _RDP + "/dead":
                yield (Step(f"RDMA read m{i}", "receiver",
                            msg=("receiver", "sender",
                                 f"read m{i}")),
                       (self._set(stages, i, _RDF), mrs, ctrl))
            elif stage == _RDF:
                # read completion is message-local: no shared credit,
                # no other lane's guard reads this stage, and it
                # commutes with every co-enabled step
                yield (Step(f"read m{i} complete", "receiver",
                            local=True),
                       (self._set(stages, i, _RDD), mrs, ctrl))
            elif stage == _RDD and ctrl > 0:
                yield (Step(f"ACK m{i}", "receiver",
                            msg=("receiver", "sender", f"ACK m{i}")),
                       (self._set(stages, i, _ACK), mrs, ctrl - 1))
            elif stage == _ACK:
                # Fig. 10: the ACK retires the send and releases the
                # registration
                yield (Step(f"ACK m{i} delivered: dereg", "sender"),
                       (self._set(stages, i, _FIN),
                        self._set(mrs, i, False), ctrl + 1))

    def invariant(self, state: State) -> Optional[str]:
        stages, mrs, ctrl = state
        if not 0 <= ctrl <= self.ctrl_credits:
            return f"control credit count out of range: {ctrl}"
        for i, stage in enumerate(stages):
            if stage in (_RDF, _RDD) and not mrs[i]:
                return (f"RDMA read of m{i} targets a deregistered "
                        "MR (use-after-deregister: §5 requires "
                        "deregistration only after the ACK)")
        return None

    def is_done(self, state: State) -> bool:
        stages, _mrs, _ctrl = state
        return all(s == _FIN for s in stages)

    def blocked(self, state: State) -> Mapping[str, str]:
        stages, _mrs, ctrl = state
        why: Dict[str, str] = {}
        if ctrl == 0:
            stuck = [i for i, s in enumerate(stages)
                     if s in (_W, _RDD)]
            if stuck:
                why["sender"] = (f"message(s) {stuck} blocked on "
                                 "control credits")
        return why

    def describe(self, state: State) -> str:
        stages, mrs, ctrl = state
        return (f"stages={list(stages)} mr_live={list(mrs)} "
                f"ctrl_free={ctrl}")


#: model registry: name -> class
MODELS: Dict[str, Type[Model]] = {
    SrqCreditModel.name: SrqCreditModel,
    LazyConnectModel.name: LazyConnectModel,
    MuxPoolModel.name: MuxPoolModel,
    RendezvousModel.name: RendezvousModel,
}


def build_model(name: str, mutation: Optional[str] = None,
                **params: int) -> Model:
    cls = MODELS.get(name)
    if cls is None:
        raise ValueError(f"unknown model {name!r}; known: "
                         f"{sorted(MODELS)}")
    return cls(mutation=mutation, **params)  # type: ignore[arg-type]


def default_configs(name: str) -> List[Dict[str, int]]:
    """The exhaustive small-config matrix the CLI and CI sweep:
    2-4 slots/credits, a handful of messages (ISSUE 10 bounds)."""
    if name == SrqCreditModel.name:
        return [
            {"nmsgs": 4, "credits": 2, "pool_slots": 2},
            {"nmsgs": 5, "credits": 3, "pool_slots": 2},
            {"nmsgs": 6, "credits": 4, "pool_slots": 4},
        ]
    if name == LazyConnectModel.name:
        return [
            {"retries": 1, "drops": 1},
            {"retries": 2, "drops": 2},
            {"retries": 1, "drops": 3},  # exercises the MpiError path
        ]
    if name == MuxPoolModel.name:
        return [
            {"nflows": 2, "nqps": 1, "msgs": 2, "credits": 2,
             "pool_slots": 2},
            {"nflows": 2, "nqps": 2, "msgs": 3, "credits": 2,
             "pool_slots": 3},
            {"nflows": 3, "nqps": 2, "msgs": 2, "credits": 2,
             "pool_slots": 4},
        ]
    if name == RendezvousModel.name:
        return [
            {"nmsgs": 2, "ctrl_credits": 2},
            {"nmsgs": 3, "ctrl_credits": 2},
            {"nmsgs": 3, "ctrl_credits": 4},
        ]
    raise ValueError(f"unknown model {name!r}")


#: mutation-specific config overrides: some seeded bugs need a
#: particular geometry to express (a hash mismatch is invisible with
#: one QP)
_MUTATION_CONFIGS: Dict[Tuple[str, str], Dict[str, int]] = {
    ("mux-pool", "qp-hash-mismatch"):
        {"nflows": 2, "nqps": 2, "msgs": 2, "credits": 2,
         "pool_slots": 2},
}


def config_for_mutation(name: str, mutation: str) -> Dict[str, int]:
    """The smallest configuration in which ``mutation`` can express
    its bug (defaults to the first clean-sweep config)."""
    return _MUTATION_CONFIGS.get((name, mutation),
                                 default_configs(name)[0])
