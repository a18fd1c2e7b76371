"""Deterministic, seed-driven fault injection.

The simulator's fabric is perfect by default; this module is how tests
make it imperfect in a *reproducible* way.  A :class:`FaultPlan` is an
immutable description of what should go wrong — per-link drop /
corrupt / delay probabilities, scheduled link-down windows, and
HCA-level injections (registration failures, forced completion
errors).  A :class:`FaultState` is the runtime companion one cluster
owns: it draws verdicts from per-link ``random.Random`` streams seeded
from ``(plan.seed, src, dst)``, so two runs with the same plan see the
*identical* fault sequence, and counts everything it did in
:class:`FaultStats`.

Design rule: with an empty plan every query short-circuits before
touching an RNG and injects nothing, so the no-fault configuration
takes exactly the legacy code paths — the benchmark figures are
bit-for-bit unchanged (guarded by ``tests/test_fault_injection.py``).

The RC-transport recovery machinery that *reacts* to these faults
(PSNs, ack/timeout retransmission, bounded retry, CRC checks) lives in
:mod:`repro.ib.hca`, together with its fixed retry schedule
(``ack_timeout`` and ``RC_RETRY_CNT``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

__all__ = ["LinkFaults", "FaultPlan", "FaultState", "FaultStats",
           "OK", "DROP", "CORRUPT", "DELAY"]

# packet verdicts returned by FaultState.packet_verdict
OK = "ok"
DROP = "drop"
CORRUPT = "corrupt"
DELAY = "delay"


@dataclass(frozen=True)
class LinkFaults:
    """Fault configuration of one directed link ``src -> dst``.

    Each packet (data, ack, read request/response, atomic exchange leg)
    traversing the link draws one uniform sample; the sub-ranges
    ``[0, drop)``, ``[drop, drop+corrupt)`` and
    ``[drop+corrupt, drop+corrupt+delay)`` select the fault.  ``down``
    windows drop *everything* scheduled inside ``[start, end)``
    regardless of the rates (a cable pull / switch reboot).
    """

    #: probability a packet vanishes on the wire.
    drop_rate: float = 0.0
    #: probability a packet arrives with a flipped byte (the responder's
    #: CRC check discards it, so it behaves like a detected-late drop).
    corrupt_rate: float = 0.0
    #: probability a packet is held up by ``delay_time`` extra seconds.
    delay_rate: float = 0.0
    #: extra one-way latency applied to delayed packets.
    delay_time: float = 20e-6
    #: scheduled outages: ((start, end), ...) in simulated seconds.
    down: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        for name in ("drop_rate", "corrupt_rate", "delay_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.drop_rate + self.corrupt_rate + self.delay_rate > 1.0:
            raise ValueError("drop + corrupt + delay rates exceed 1")
        if self.delay_time < 0:
            raise ValueError("delay_time must be >= 0")
        object.__setattr__(self, "down",
                           tuple((float(s), float(e)) for s, e in self.down))
        for s, e in self.down:
            if e <= s:
                raise ValueError(f"empty down window ({s}, {e})")

    @property
    def active(self) -> bool:
        return bool(self.drop_rate or self.corrupt_rate
                    or self.delay_rate or self.down)

    def to_dict(self) -> dict:
        return {"drop_rate": self.drop_rate,
                "corrupt_rate": self.corrupt_rate,
                "delay_rate": self.delay_rate,
                "delay_time": self.delay_time,
                "down": [list(w) for w in self.down]}

    @classmethod
    def from_dict(cls, d: dict) -> "LinkFaults":
        return cls(drop_rate=d.get("drop_rate", 0.0),
                   corrupt_rate=d.get("corrupt_rate", 0.0),
                   delay_rate=d.get("delay_rate", 0.0),
                   delay_time=d.get("delay_time", 20e-6),
                   down=tuple(tuple(w) for w in d.get("down", ())))


@dataclass(frozen=True)
class FaultPlan:
    """Immutable description of every fault a run should experience."""

    #: master seed for the per-link RNG streams.
    seed: int = 0
    #: faults applied to any inter-node link without an explicit entry.
    default_link: LinkFaults = LinkFaults()
    #: per-directed-link overrides: {(src_node, dst_node): LinkFaults}.
    links: Mapping[Tuple[int, int], LinkFaults] = field(
        default_factory=dict)
    #: {node_id: N} — the first N verbs-layer ``reg_mr`` calls on that
    #: node fail with :class:`repro.ib.types.RegistrationError` (the
    #: pin-down ran out of lockable pages).
    reg_failures: Mapping[int, int] = field(default_factory=dict)
    #: {node_id: (ordinals...)} — the k-th send WQE processed by that
    #: node's HCA (0-based, counted across its QPs) completes with
    #: ``WcStatus.RETRY_EXC_ERR`` and puts its QP in error state.
    wc_errors: Mapping[int, Sequence[int]] = field(default_factory=dict)

    @property
    def transport_enabled(self) -> bool:
        """Any link-level faults configured (switches the HCA onto the
        retransmitting RC path)."""
        # lint: allow(falsy-or-default, boolean-valued result)
        return self.default_link.active or any(
            lf.active for lf in self.links.values())

    @property
    def enabled(self) -> bool:
        # lint: allow(falsy-or-default, boolean-valued result)
        return (self.transport_enabled or bool(self.reg_failures)
                or bool(self.wc_errors))

    # -- JSON (replay files of the conformance harness) ----------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "default_link": self.default_link.to_dict(),
            "links": {f"{s}->{d}": lf.to_dict()
                      for (s, d), lf in self.links.items()},
            "reg_failures": {str(n): k
                             for n, k in self.reg_failures.items()},
            "wc_errors": {str(n): list(seq)
                          for n, seq in self.wc_errors.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        links = {}
        for key, lf in d.get("links", {}).items():
            s, _, t = key.partition("->")
            links[(int(s), int(t))] = LinkFaults.from_dict(lf)
        return cls(
            seed=d.get("seed", 0),
            default_link=LinkFaults.from_dict(
                d.get("default_link", {})),
            links=links,
            reg_failures={int(n): k for n, k
                          in d.get("reg_failures", {}).items()},
            wc_errors={int(n): tuple(seq) for n, seq
                       in d.get("wc_errors", {}).items()},
        )


class FaultStats:
    """Counters of everything the fault machinery did in one run."""

    def __init__(self) -> None:
        self.dropped = 0            # packets dropped (incl. down windows)
        self.link_down_drops = 0    # subset of dropped: down windows
        self.corrupted = 0          # packets corrupted in transit
        self.crc_detected = 0       # corruptions caught by the CRC check
        self.delayed = 0            # packets given extra latency
        self.retransmissions = 0    # WQE retransmit attempts
        self.timeouts = 0           # ack timeouts that fired
        self.duplicates = 0         # retransmits suppressed at responder
        self.retry_exhaustions = 0  # QPs that hit retry_cnt and errored
        self.reg_failures = 0       # injected registration failures
        self.wc_errors = 0          # injected completion errors

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nz = {k: v for k, v in self.__dict__.items() if v}
        # lint: allow(falsy-or-default, empty dict renders as clean)
        return f"<FaultStats {nz or 'clean'}>"


class FaultState:
    """Runtime fault machinery for one cluster (one per simulation).

    Deterministic by construction: every link direction gets its own
    ``random.Random`` stream derived from ``(plan.seed, src, dst)``, so
    fault decisions depend only on the plan and the order of packets on
    that one link — not on unrelated traffic elsewhere.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        if plan is not None and not isinstance(plan, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan, got {type(plan).__name__}")
        self.plan = FaultPlan() if plan is None else plan
        self.stats = FaultStats()
        #: anything configured at all (guards the injection hooks).
        self.enabled = self.plan.enabled
        #: link faults configured (guards the HCA's RC recovery path;
        #: False keeps the legacy single-shot delivery code).
        self.transport_active = self.plan.transport_enabled
        self._rngs: Dict[Tuple[int, int], random.Random] = {}
        self._reg_left: Dict[int, int] = dict(self.plan.reg_failures)
        self._wc_pending: Dict[int, set] = {
            node: set(ordinals)
            for node, ordinals in self.plan.wc_errors.items()
        }
        self._send_ops: Dict[int, int] = {}

    # -- link faults -----------------------------------------------------
    def link_faults(self, src: int, dst: int) -> LinkFaults:
        return self.plan.links.get((src, dst), self.plan.default_link)

    def _rng(self, src: int, dst: int) -> random.Random:
        key = (src, dst)
        rng = self._rngs.get(key)
        if rng is None:
            rng = random.Random(
                self.plan.seed * 1_000_003 + src * 8_191 + dst)
            self._rngs[key] = rng
        return rng

    def packet_verdict(self, src: int, dst: int,
                       now: float) -> Tuple[str, float]:
        """Fate of one packet entering link ``src -> dst`` at ``now``:
        ``(OK|DROP|CORRUPT|DELAY, extra_delay_seconds)``."""
        if not self.transport_active:
            return OK, 0.0
        if src == dst and (src, dst) not in self.plan.links:
            # HCA loopback never touches a wire; only an explicit
            # (i, i) entry injects there.
            return OK, 0.0
        lf = self.link_faults(src, dst)
        if not lf.active:
            return OK, 0.0
        for start, end in lf.down:
            if start <= now < end:
                self.stats.link_down_drops += 1
                self.stats.dropped += 1
                return DROP, 0.0
        roll = self._rng(src, dst).random()
        if roll < lf.drop_rate:
            self.stats.dropped += 1
            return DROP, 0.0
        if roll < lf.drop_rate + lf.corrupt_rate:
            self.stats.corrupted += 1
            return CORRUPT, 0.0
        if roll < lf.drop_rate + lf.corrupt_rate + lf.delay_rate:
            self.stats.delayed += 1
            return DELAY, lf.delay_time
        return OK, 0.0

    def corrupt(self, payload: bytes, src: int, dst: int) -> bytes:
        """Flip one byte of ``payload`` (position drawn from the link's
        stream).  Empty payloads pass through untouched — there is
        nothing for a checksum to catch."""
        if not payload:
            return payload
        pos = self._rng(src, dst).randrange(len(payload))
        flipped = bytearray(payload)
        flipped[pos] ^= 0xFF
        return bytes(flipped)

    # -- HCA-level injections --------------------------------------------
    def take_reg_failure(self, node_id: int) -> bool:
        """True if this ``reg_mr`` call on ``node_id`` must fail."""
        if not self.enabled:
            return False
        left = self._reg_left.get(node_id, 0)
        if left <= 0:
            return False
        self._reg_left[node_id] = left - 1
        self.stats.reg_failures += 1
        return True

    def take_wc_error(self, node_id: int) -> bool:
        """True if the send WQE now being processed on ``node_id``
        must complete in error (counted per-node across its QPs)."""
        if not self.enabled:
            return False
        pending = self._wc_pending.get(node_id)
        if not pending:
            return False
        ordinal = self._send_ops.get(node_id, 0)
        self._send_ops[node_id] = ordinal + 1
        if ordinal in pending:
            pending.discard(ordinal)
            self.stats.wc_errors += 1
            return True
        return False
