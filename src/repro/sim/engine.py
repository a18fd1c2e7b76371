"""Discrete-event simulation engine.

The engine is a calendar-queue scheduler with generator-based
processes (in the style of SimPy, re-implemented here because no
third-party DES library is available offline).

Time is a ``float`` in **seconds**.  All hardware constants in
:mod:`repro.config` are expressed in seconds as well (microsecond-scale
values such as ``5.9e-6``).

A *process* is a Python generator that yields :class:`Event` objects
(or things convertible to them, see :meth:`Simulator.spawn`).  When the
yielded event fires, the generator is resumed with the event's value;
if the event failed, the exception is thrown into the generator.
Sub-routines compose with plain ``yield from``.

Scheduling internals
--------------------
Events live in per-timestamp *buckets* (a dict keyed by the exact
float timestamp) ordered by a small heap of distinct timestamps.  The
run loop dequeues a whole bucket at a time — one heap operation per
*distinct* timestamp instead of one per event — which matters because
simulated hardware overwhelmingly schedules bursts of same-time
callbacks (completions, gate broadcasts, zero-delay continuations).

The tie-break contract is unchanged from the historical event-heap
implementation and is locked down by ``tests/test_sim_equivalence.py``:

* ``tie_seed=None`` (default): same-time events run in insertion
  order, bit-for-bit the historical ``(when, seq)`` schedule.  Bucket
  entries are a plain FIFO list; appends made *while* the bucket is
  draining are picked up in the same pass, exactly like pushing onto
  the old heap at the current timestamp.
* ``tie_seed=<int>``: each scheduled callback draws a pseudo-random
  priority from ``random.Random(tie_seed)`` and same-time events run
  in ``(prio, seq)`` order.  Bucket entries form a per-bucket heap.

A timeout is two entries — its firing, then one wakeup per callback —
except where the second cannot be told apart from running the callback
in place: under the FIFO policy, a timeout that is the last entry of
the bucket being drained and has exactly one callback runs it at once
(still counting it in ``events_processed``).  Seeded drains and
``step()`` keep both entries.

Cancelled callbacks (e.g. the HCA's ack-timeout timers, the fluid
network's completion wakeups) are reaped lazily; when more than half
of the queued entries are dead the queue compacts itself, so a
workload that schedules and cancels far-future timers keeps a bounded
queue.

The settle phase
----------------
:meth:`Simulator.at_settle` registers a zero-argument hook that runs
once after every entry at the current timestamp has been dequeued and
before the clock moves (the delta-cycle boundary of an HDL simulator).
It is how a model that many same-time callbacks poke — the fluid
network re-solving its rates — does the work once per timestamp
instead of once per poke.  Hooks are not events: they take no handle,
draw no tie-break priority and do not count in ``events_processed``.
If a hook schedules work at the current timestamp the drain resumes,
and hooks registered meanwhile run after it.  ``run``, ``step`` and
``peek`` all flush owed hooks before looking past the current
timestamp (and before the drained-queue deadlock check), so a hook
registered outside ``run()`` is never lost.

Example
-------
>>> sim = Simulator()
>>> def prog():
...     yield sim.timeout(1.0)
...     return sim.now
>>> p = sim.spawn(prog())
>>> sim.run()
>>> p.value
1.0
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "FirstOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "DeadlockError",
]


class SimulationError(Exception):
    """Base class for simulation-engine errors."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Simulator.run` when processes remain but no
    events are scheduled (every live process is blocked forever)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event.

    An event starts *pending*; it can be made to succeed (carrying a
    value) or fail (carrying an exception) exactly once.  Callbacks
    registered before the trigger run when it fires; callbacks added
    afterwards run immediately (on the same simulated timestamp).
    """

    __slots__ = ("sim", "_callbacks", "_ok", "_value", "triggered")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._ok: bool = True
        self._value: Any = None
        self.triggered: bool = False

    # -- inspection ----------------------------------------------------
    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event has not been triggered yet")
        if not self._ok:
            raise self._value
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self.triggered = True
        self._ok = ok
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        assert callbacks is not None
        for cb in callbacks:
            self.sim._schedule_call(cb, self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` when the event fires (immediately if it
        already has)."""
        if self._callbacks is None:
            self.sim._schedule_call(cb, self)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        sim._enqueue(sim.now + delay, _TIMER, Timeout._fire, (self, value))

    def _fire(self, value: Any) -> None:
        self.succeed(value)


class Process(Event):
    """A running generator; also an event that fires when the generator
    returns (value = the generator's return value) or raises."""

    __slots__ = ("gen", "name", "_waiting_on", "daemon", "_live_key")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "",
                 daemon: bool = False):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError(f"Process needs a generator, got {gen!r}")
        self.gen = gen
        # lint: allow(falsy-or-default, empty name means auto-name)
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Event] = _InitialEvent(sim)
        #: daemon processes (hardware service loops) do not count as
        #: live work for deadlock detection.
        self.daemon = daemon
        self._live_key = -1
        if not daemon:
            sim._live_processes += 1
            self._live_key = next(sim._live_seq)
            sim._live[self._live_key] = self
        sim._schedule_call(self._resume, self._waiting_on)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current
        simulation time (no-op if it already finished)."""
        if self.triggered:
            return
        self.sim._schedule_call(self._throw, Interrupt(cause))

    # -- internals -----------------------------------------------------
    def _resume(self, event: "Event") -> None:
        # an interrupt leaves this callback on the event it cut short;
        # only the event the process is waiting on may wake it
        if self.triggered or event is not self._waiting_on:
            return
        self._waiting_on = None
        try:
            if event._ok:
                target = self.gen.send(event._value)
            else:
                target = self.gen.throw(event._value)
        except StopIteration as stop:
            self._finish(True, stop.value)
            return
        except BaseException as exc:
            self._finish(False, exc)
            return
        self._wait_on(target)

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        try:
            target = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(True, stop.value)
            return
        except BaseException as err:
            self._finish(False, err)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        event = self.sim._as_event(target)
        self._waiting_on = event
        event.add_callback(self._resume)

    def _finish(self, ok: bool, value: Any) -> None:
        if not self.daemon:
            self.sim._live_processes -= 1
            self.sim._live.pop(self._live_key, None)
        if ok:
            self.succeed(value)
        else:
            if self._callbacks is not None and not self._callbacks:
                # Nobody is watching this process: surface the error
                # instead of losing it.
                self.sim._crashed.append((self, value))
            self.fail(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"


class _InitialEvent(Event):
    """Pre-triggered event used to kick off a new process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator"):
        super().__init__(sim)
        self.triggered = True
        self._callbacks = None


class _Condition(Event):
    """Base for AnyOf/AllOf composition events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = 0
        for ev in self.events:
            if not isinstance(ev, Event):
                raise TypeError(f"expected Event, got {ev!r}")
        self._arm()

    def _arm(self) -> None:
        """Subscribe to the events; with none, fire at once."""
        for ev in self.events:
            self._pending += 1
            ev.add_callback(self._check)
        if not self.events:
            self.succeed([])

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when the first of ``events`` fires; value is that event."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed(event)


class FirstOf(AnyOf):
    """An :class:`AnyOf` that subscribes to its events only once
    waited on: armed and dropped, it schedules nothing.  With no events
    it never fires."""

    __slots__ = ()

    def _arm(self) -> None:
        """Subscribe later, on the first waiter (``add_callback``)."""

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._callbacks == []:
            for ev in self.events:
                ev.add_callback(self._check)
        super().add_callback(cb)


class AllOf(_Condition):
    """Fires when all of ``events`` have fired; value is the list of
    their values (in construction order)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev._value for ev in self.events])


class _Handle:
    """Cancellable handle for a raw scheduled callback."""

    __slots__ = ("cancelled", "_queued", "_sim")

    def __init__(self, sim: Optional["Simulator"]) -> None:
        self.cancelled = False
        #: still sitting in a bucket (reset when dequeued or reaped)
        self._queued = True
        self._sim = sim

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self._queued and self._sim is not None:
                self._sim._note_cancel()


#: shared handles of entries nobody holds and so nobody can cancel:
#: event callbacks and process starts (``_CALL``) and timeout firings
#: (``_TIMER``, kept apart so the FIFO drain can recognise them)
_CALL = _Handle(None)
_TIMER = _Handle(None)


class Simulator:
    """The event loop.

    Use :meth:`spawn` to start processes, :meth:`timeout` /
    :meth:`event` to create awaitables, and :meth:`run` to execute.

    ``tie_seed`` selects the *schedule-perturbation policy* for events
    scheduled at the same timestamp.  The default (``None``) breaks
    ties by insertion order — the historical behaviour, bit-for-bit.
    An integer seed draws a pseudo-random priority per scheduled
    callback from ``random.Random(tie_seed)``, so same-time events run
    in an alternate (but still deterministic and replayable) order.
    Same-time events model concurrent hardware/software activity, so
    every tie-break order is a *legal* interleaving; the conformance
    fuzzer (:mod:`repro.check`) sweeps seeds to hunt protocol races
    such as data-vs-flag write ordering.
    """

    #: compaction floor: below this many queued entries, dead-entry
    #: reaping is not worth the rebuild.
    _COMPACT_MIN = 64

    def __init__(self, tie_seed: Optional[int] = None) -> None:
        self.now: float = 0.0
        #: timestamp -> bucket of entries.  FIFO list under the default
        #: policy, a (prio, seq, ...) heap under seeded perturbation.
        self._buckets: Dict[float, List] = {}
        #: heap of the distinct timestamps present in ``_buckets``
        self._times: List[float] = []
        self._seq = itertools.count()
        self._live_processes = 0
        #: live non-daemon processes by creation order, for deadlock
        #: diagnosis (who is blocked, and on what); keyed by a
        #: dedicated counter so tie-break sequencing is untouched
        self._live: Dict[int, "Process"] = {}
        self._live_seq = itertools.count()
        #: optional diagnoser called when the queue drains with live
        #: processes: receives the blocked processes, returns extra
        #: text for the DeadlockError (see repro.obs.waitgraph).
        #: Attaching a hook also arms the deadlock check for bounded
        #: ``run(until=...)`` calls, which otherwise report a drained
        #: queue as an ordinary return (legacy hang behaviour).
        self.deadlock_hook: Optional[Callable[[List["Process"]], str]] \
            = None
        self._crashed: List = []
        #: the active perturbation seed (None = insertion order)
        self.tie_seed = tie_seed
        self._tie_rng = (None if tie_seed is None
                         else random.Random(tie_seed))
        #: queued entries (live + cancelled-but-unreaped)
        self._pending_events = 0
        #: cancelled entries still occupying queue slots
        self._cancelled_events = 0
        #: the bucket currently being bulk-drained (compaction must
        #: not mutate it out from under the drain loop)
        self._drain_bucket: Optional[List] = None
        #: total callbacks executed (cancelled entries excluded) —
        #: the numerator of the simspeed benchmark's events/sec.
        self.events_processed = 0
        #: settle hooks owed at the current timestamp (see at_settle)
        self._settle: List[Callable[[], None]] = []

    # -- scheduling primitives ------------------------------------------
    def _enqueue(self, when: float, handle: _Handle, fn: Callable,
                 args: tuple) -> None:
        bucket = self._buckets.get(when)
        if self._tie_rng is None:
            # FIFO bucket: append order == the historical (when, seq)
            # heap order, including appends made mid-drain.
            if bucket is None:
                self._buckets[when] = [(handle, fn, args)]
                heapq.heappush(self._times, when)
            else:
                bucket.append((handle, fn, args))
        else:
            entry = (self._tie_rng.getrandbits(32), next(self._seq),
                     handle, fn, args)
            if bucket is None:
                self._buckets[when] = [entry]
                heapq.heappush(self._times, when)
            else:
                heapq.heappush(bucket, entry)
        self._pending_events += 1

    def _schedule_at(self, when: float, fn: Callable, *args: Any) -> _Handle:
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {self.now})"
            )
        handle = _Handle(self)
        self._enqueue(when, handle, fn, args)
        return handle

    def _schedule_call(self, fn: Callable, *args: Any) -> None:
        """Schedule ``fn`` to run at the current time (after the
        currently-running callback finishes); not cancellable."""
        self._enqueue(self.now, _CALL, fn, args)

    def call_at(self, when: float, fn: Callable, *args: Any) -> _Handle:
        """Public: run ``fn(*args)`` at absolute time ``when``."""
        return self._schedule_at(when, fn, *args)

    def call_in(self, delay: float, fn: Callable, *args: Any) -> _Handle:
        """Public: run ``fn(*args)`` after ``delay`` seconds."""
        return self._schedule_at(self.now + delay, fn, *args)

    def at_settle(self, fn: Callable[[], None]) -> None:
        """Public: run ``fn()`` once the current timestamp has no
        entries left to dequeue, before the clock moves.  Not an
        event: no handle, no tie-break draw, not counted in
        ``events_processed``."""
        self._settle.append(fn)

    # -- awaitable factories ---------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "",
              daemon: bool = False) -> Process:
        """Start a new process from a generator.  ``daemon`` marks
        endless service loops that should not hold the simulation
        alive for deadlock-detection purposes."""
        return Process(self, gen, name, daemon)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def _as_event(self, target: Any) -> Event:
        if isinstance(target, Event):
            if target.sim is not self:
                raise SimulationError("event belongs to a different Simulator")
            return target
        if hasattr(target, "send"):  # a bare generator: run as subprocess
            return self.spawn(target)
        raise TypeError(
            f"process yielded {target!r}; expected an Event or generator"
        )

    # -- queue bookkeeping ----------------------------------------------
    @property
    def pending_events(self) -> int:
        """Queued entries, including cancelled ones not yet reaped."""
        return self._pending_events

    def _note_cancel(self) -> None:
        self._cancelled_events += 1
        if (self._cancelled_events > self._COMPACT_MIN
                and self._cancelled_events * 2 > self._pending_events):
            self._compact()

    def _compact(self) -> None:
        """Reap cancelled entries (the bucket currently being drained
        is left alone — its loop skips dead entries anyway)."""
        cur = self._drain_bucket
        fifo = self._tie_rng is None
        hidx = 0 if fifo else 2
        removed = 0
        dead_times = []
        for t, bucket in self._buckets.items():
            if bucket is cur:
                continue
            live = [e for e in bucket if not e[hidx].cancelled]
            dropped = len(bucket) - len(live)
            if not dropped:
                continue
            removed += dropped
            for e in bucket:
                h = e[hidx]
                if h.cancelled:
                    h._queued = False
            if live:
                if not fifo:
                    heapq.heapify(live)
                bucket[:] = live
            else:
                dead_times.append(t)
        for t in dead_times:
            del self._buckets[t]
        if dead_times:
            # rebuild in place: the run loop may hold an alias
            self._times[:] = self._buckets.keys()
            heapq.heapify(self._times)
        self._pending_events -= removed
        self._cancelled_events -= removed

    # -- execution -------------------------------------------------------
    def _run_settle(self) -> None:
        """Run the owed settle hooks; ones they register wait for the
        next flush (after any same-time work they scheduled)."""
        hooks, self._settle = self._settle, []
        for fn in hooks:
            fn()

    def step(self) -> None:
        """Execute the next scheduled callback (after any settle
        hooks owed before the clock may move to it)."""
        while self._settle and (not self._times
                                or self._times[0] > self.now):
            self._run_settle()
        t = self._times[0]
        bucket = self._buckets[t]
        if self._tie_rng is None:
            handle, fn, args = bucket.pop(0)
        else:
            _prio, _seq, handle, fn, args = heapq.heappop(bucket)
        if not bucket:
            heapq.heappop(self._times)
            del self._buckets[t]
        self._pending_events -= 1
        handle._queued = False
        if handle.cancelled:
            self._cancelled_events -= 1
            return
        self.now = t
        self.events_processed += 1
        fn(*args)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``until`` is reached.

        Raises :class:`DeadlockError` if live processes remain with an
        empty queue, and re-raises the failure of any process that
        crashed unobserved.  Returns the final simulation time.
        """
        times = self._times
        fifo = self._tie_rng is None
        while True:
            if self._settle and (not times or times[0] > self.now):
                self._run_settle()
                continue
            if not times:
                break
            t = times[0]
            if until is not None and t > until:
                self.now = until
                break
            bucket = self._buckets[t]
            if fifo:
                self._drain_fifo(t, bucket)
            else:
                self._drain_heap(t, bucket)
        if (not times and self._live_processes > 0
                and (until is None or self.deadlock_hook is not None)):
            message = (
                f"{self._live_processes} process(es) blocked forever "
                f"at t={self.now}"
            )
            if self.deadlock_hook is not None:
                blocked = list(self._live.values())
                try:
                    diagnosis = self.deadlock_hook(blocked)
                except Exception as exc:  # pragma: no cover - defensive
                    diagnosis = f"(deadlock diagnosis failed: {exc!r})"
                if diagnosis:
                    message = f"{message}\n{diagnosis}"
            raise DeadlockError(message)
        return self.now

    def _drain_fifo(self, t: float, bucket: List) -> None:
        """Bulk-dequeue every entry scheduled at ``t``, including ones
        appended while draining, in insertion order.

        A timeout firing as the bucket's last entry, with exactly one
        callback, runs that callback at once: the entry its trigger
        would append could only be the next one dequeued, and nobody
        holds its handle to cancel it (docs/SIMULATOR.md)."""
        crashed = self._crashed
        timer = _TIMER
        self._drain_bucket = bucket
        i = 0
        try:
            while i < len(bucket):
                handle, fn, args = bucket[i]
                i += 1
                self._pending_events -= 1
                handle._queued = False
                if handle.cancelled:
                    self._cancelled_events -= 1
                    continue
                self.now = t
                self.events_processed += 1
                if handle is timer and i == len(bucket):
                    ev, value = args
                    callbacks = ev._callbacks
                    if callbacks is not None and len(callbacks) == 1:
                        ev.triggered = True
                        ev._ok = True
                        ev._value = value
                        ev._callbacks = None
                        self.events_processed += 1
                        fn = callbacks[0]
                        args = (ev,)
                fn(*args)
                if crashed:
                    proc, exc = crashed[0]
                    raise SimulationError(
                        f"process {proc.name!r} crashed"
                    ) from exc
        finally:
            self._drain_bucket = None
            if i >= len(bucket):
                heapq.heappop(self._times)
                del self._buckets[t]
            else:
                del bucket[:i]

    def _drain_heap(self, t: float, bucket: List) -> None:
        """Seeded-perturbation drain: same-time entries pop in
        (prio, seq) order, interleaving entries pushed mid-drain."""
        crashed = self._crashed
        self._drain_bucket = bucket
        try:
            while bucket:
                _prio, _seq, handle, fn, args = heapq.heappop(bucket)
                self._pending_events -= 1
                handle._queued = False
                if handle.cancelled:
                    self._cancelled_events -= 1
                    continue
                self.now = t
                self.events_processed += 1
                fn(*args)
                if crashed:
                    proc, exc = crashed[0]
                    raise SimulationError(
                        f"process {proc.name!r} crashed"
                    ) from exc
        finally:
            self._drain_bucket = None
            if not bucket:
                heapq.heappop(self._times)
                del self._buckets[t]

    def peek(self) -> float:
        """Time of the next scheduled callback (``inf`` if none).
        Settle hooks owed before the clock may move there run first:
        they can schedule earlier work."""
        while True:
            t = self._next_live_time()
            if not self._settle or t <= self.now:
                return t
            self._run_settle()

    def _next_live_time(self) -> float:
        """Reap cancelled entries off the front of the queue; time of
        the first live one (``inf`` if none)."""
        hidx = 0 if self._tie_rng is None else 2
        while self._times:
            t = self._times[0]
            bucket = self._buckets[t]
            while bucket:
                handle = bucket[0][hidx]
                if not handle.cancelled:
                    return t
                if hidx == 0:
                    bucket.pop(0)
                else:
                    heapq.heappop(bucket)
                handle._queued = False
                self._pending_events -= 1
                self._cancelled_events -= 1
            heapq.heappop(self._times)
            del self._buckets[t]
        return float("inf")
