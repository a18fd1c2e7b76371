"""Completion queues.

Applications poll a CQ for completions of signaled work requests.
The queue itself charges nothing: the caller pays the poll CPU and,
when it slept until a CQE arrived, the hardware config's
``poll_detect_latency`` (the delay before a spinning consumer observes
the CQE over the bus; see :meth:`repro.ib.verbs.VapiContext.wait_cq`).
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..obs import NULL_METRICS
from ..sim.engine import Event, Simulator
from ..sim.sync import Fifo, Gate
from .types import Completion, WcStatus

__all__ = ["CompletionQueue", "CQOverflowError"]


class CQOverflowError(Exception):
    pass


class CompletionQueue:
    def __init__(self, sim: Simulator, depth: int = 4096, name: str = "",
                 metrics: Any = None) -> None:
        if depth < 1:
            raise ValueError("CQ depth must be >= 1")
        self.sim = sim
        self.depth = depth
        self.name = name
        self._entries: Fifo = Fifo()
        self._gate = Gate(sim)
        self.completions_generated = 0
        #: CQEs pushed with a non-SUCCESS status (error observability
        #: for the layers above and for the fault-injection tests).
        self.error_completions = 0
        m = metrics if metrics is not None else NULL_METRICS
        self._m_completions = m.counter("completions")
        self._m_errors = m.counter("error_completions")
        #: how many CQEs each poll/poll_many call drains — the paper's
        #: progress engines batch better under load, and this shows it.
        self._m_poll_depth = m.histogram("poll_depth")

    def __len__(self) -> int:
        return len(self._entries)

    # -- HCA side -------------------------------------------------------
    def push(self, cqe: Completion) -> None:
        """Called by the HCA when a work request completes."""
        if len(self._entries) >= self.depth:
            raise CQOverflowError(
                f"CQ {self.name!r} overflow at depth {self.depth}"
            )
        cqe.timestamp = self.sim.now
        self._entries.append(cqe)
        self.completions_generated += 1
        self._m_completions.inc()
        if cqe.status is not WcStatus.SUCCESS:
            self.error_completions += 1
            self._m_errors.inc()
        self._gate.open()

    # -- consumer side ----------------------------------------------------
    def poll(self) -> Optional[Completion]:
        """Non-blocking poll; returns one CQE or None."""
        if self._entries:
            self._m_poll_depth.observe(1)
            return self._entries.popleft()
        self._m_poll_depth.observe(0)
        return None

    def poll_many(self, max_entries: int) -> List[Completion]:
        """Bounded batch drain: pop up to ``max_entries`` CQEs in one
        call.  This is the budgeted-poll primitive of the adaptive
        progress engine — one detection/poll cost covers the whole
        batch instead of one per CQE, while the bound keeps a single
        busy CQ from starving the other connections' progress."""
        out = []
        while self._entries and len(out) < max_entries:
            out.append(self._entries.popleft())
        self._m_poll_depth.observe(len(out))
        return out

    def pending(self) -> int:
        """CQEs currently queued (free to read: the consumer charges
        poll cost only when it actually drains)."""
        return len(self._entries)

    def wait_event(self) -> Event:
        """An event that fires the next time a completion is pushed."""
        return self._gate.wait()
