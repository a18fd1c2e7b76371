"""Calendar queue vs the historical event heap: identical schedules.

The engine's run loop was rewritten from a single ``(when, prio, seq)``
heap into per-timestamp buckets drained in bulk
(:mod:`repro.sim.engine`).  The rewrite is only legal because it is a
pure data-structure change — every callback must still run at the same
time, in the same order, under both tie-break policies:

* ``tie_seed=None``: same-time callbacks run in insertion order (the
  historical ``(when, seq)`` schedule), including callbacks scheduled
  *at the current timestamp* by a running callback, which join the
  in-progress bulk drain;
* ``tie_seed=<int>``: each scheduled callback draws a pseudo-random
  priority from ``random.Random(tie_seed)`` at schedule time and
  same-time callbacks run in ``(prio, seq)`` order.

This suite drives randomized schedule programs — callbacks that spawn
more callbacks at zero or positive delays, plus cancellations — through
the real :class:`Simulator` and through a ~30-line reference
re-implementation of the historical heap, and asserts the two fire
sequences are identical.  Programs may also register *settle hooks*
(:meth:`Simulator.at_settle`), which the reference runs whenever the
next heap entry lies in the future: hooks must fire at the same points
of the sequence, draw no tie-break priority and stay out of
``events_processed``.  It also pins the cancelled-entry compaction
behaviour: a workload that schedules and cancels far-future timers
(the HCA ack-timeout pattern) must keep a bounded queue.

A second family drives *processes* that sleep on timeouts, share them,
crash and are stepped, against the historical two-entry schedule of a
timeout (the firing entry, then one wakeup entry per callback): the
FIFO drain runs a lone timeout's single callback in place, and that
must not move an event, a timestamp, the crash point or the count.
"""

import heapq
import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator

# Few distinct values -> heavy same-timestamp collisions, which is
# exactly the regime the bulk drain optimizes and must not reorder.
TIMES = [0.0, 1e-6, 2e-6, 5e-6]
DELAYS = [0.0, 0.0, 1e-6, 3e-6]  # 0.0 twice: favor mid-drain appends

# A schedule program: each root is (when, children); each child is
# (delay, grandchild_delays).  Node ids are structural ("2", "2.1",
# "2.1.0"), so a divergence points at the exact callback.
_child = st.tuples(st.sampled_from(DELAYS),
                   st.lists(st.sampled_from(DELAYS), max_size=2))
_root = st.tuples(st.sampled_from(TIMES),
                  st.lists(_child, max_size=3))
_program = st.lists(_root, min_size=1, max_size=12)

_seeds = st.one_of(st.none(), st.integers(min_value=0, max_value=2**31))


def _run_calendar(program, tie_seed, cancels=(), settles=()):
    """Fire a schedule program on the real engine; returns the
    (timestamp, node id) fire sequence.  ``settles`` maps a root index
    to the delay of the callback its settle hook schedules (None: the
    hook only logs); hooks log as ``"<root>.s"``."""
    sim = Simulator(tie_seed=tie_seed)
    order = []
    handles = {}
    settles = dict(settles)

    def hook(node_id, delay):
        order.append((sim.now, f"{node_id}.s"))
        if delay is not None:
            sim.call_in(delay, fire, f"{node_id}.s.0", [], None)

    def fire(node_id, children, cancel_target):
        order.append((sim.now, node_id))
        if node_id.isdigit() and int(node_id) in settles:
            sim.at_settle(
                lambda: hook(node_id, settles[int(node_id)]))
        if cancel_target is not None and cancel_target in handles:
            handles[cancel_target].cancel()
        for ci, (delay, grandchildren) in enumerate(children):
            cid = f"{node_id}.{ci}"
            sim.call_in(delay, fire, cid,
                        [(d, []) for d in grandchildren], None)

    cancels = dict(cancels)
    for i, (when, children) in enumerate(program):
        nid = str(i)
        handles[nid] = sim.call_at(when, fire, nid, children,
                                   cancels.get(i))
    sim.run()
    # hooks are not events
    assert sim.events_processed == sum(
        1 for _t, nid in order if not nid.endswith(".s"))
    return order


def _run_legacy_heap(program, tie_seed, cancels=(), settles=()):
    """The historical implementation: one global heap of
    ``(when, seq)`` / ``(when, prio, seq)`` entries, one pop per
    callback.  Must stay a faithful transcription of the pre-calendar
    engine — it is the reference the calendar queue is judged against.
    Settle hooks are a plain list flushed whenever the next entry is
    not at the current time.
    """
    heap = []
    seq = itertools.count()
    rng = None if tie_seed is None else random.Random(tie_seed)
    cancelled = set()
    order = []
    settles = dict(settles)
    hooks = []
    now = 0.0

    def push(when, node_id, children, cancel_target):
        item = (node_id, children, cancel_target)
        if rng is None:
            heapq.heappush(heap, (when, next(seq), item))
        else:
            heapq.heappush(heap,
                           (when, rng.getrandbits(32), next(seq), item))

    cancels = dict(cancels)
    for i, (when, children) in enumerate(program):
        push(when, str(i), children, cancels.get(i))
    while heap or hooks:
        if hooks and (not heap or heap[0][0] > now):
            owed, hooks = hooks, []
            for node_id in owed:
                order.append((now, f"{node_id}.s"))
                delay = settles[int(node_id)]
                if delay is not None:
                    push(now + delay, f"{node_id}.s.0", [], None)
            continue
        entry = heapq.heappop(heap)
        when, (node_id, children, cancel_target) = entry[0], entry[-1]
        if node_id in cancelled:
            continue
        now = when
        order.append((when, node_id))
        if node_id.isdigit() and int(node_id) in settles:
            hooks.append(node_id)
        if cancel_target is not None:
            cancelled.add(str(cancel_target))
        for ci, (delay, grandchildren) in enumerate(children):
            push(when + delay, f"{node_id}.{ci}",
                 [(d, []) for d in grandchildren], None)
    return order


@settings(max_examples=150, deadline=None)
@given(program=_program, tie_seed=_seeds)
def test_identical_fire_sequence(program, tie_seed):
    got = _run_calendar(program, tie_seed)
    want = _run_legacy_heap(program, tie_seed)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(program=_program, tie_seed=_seeds, data=st.data())
def test_identical_with_cancellation(program, tie_seed, data):
    # each root may cancel one other root when it fires; a cancel of
    # an already-fired root is a no-op, a cancel of a queued one (at a
    # later time, or later in the same timestamp's bucket) skips it
    n = len(program)
    cancels = data.draw(st.dictionaries(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1).map(str),
        max_size=3))
    got = _run_calendar(program, tie_seed, cancels)
    want = _run_legacy_heap(program, tie_seed, cancels)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(program=_program, tie_seed=_seeds, data=st.data())
def test_identical_with_settle_hooks(program, tie_seed, data):
    # roots may register a settle hook when they fire; the hook logs
    # and may schedule a callback at the same timestamp (resuming the
    # drain) or later.  Cancellations ride along: a cancelled root
    # registers nothing, and a hook's flush point must not depend on
    # dead entries sitting at the front of the queue.
    n = len(program)
    roots = st.integers(min_value=0, max_value=n - 1)
    settles = data.draw(st.dictionaries(
        roots, st.one_of(st.none(), st.sampled_from(DELAYS)),
        min_size=1, max_size=4))
    cancels = data.draw(st.dictionaries(roots, roots.map(str),
                                        max_size=2))
    got = _run_calendar(program, tie_seed, cancels, settles)
    want = _run_legacy_heap(program, tie_seed, cancels, settles)
    assert got == want
    assert any(nid.endswith(".s") for _t, nid in got) or cancels


def test_same_timestamp_appends_join_bulk_drain():
    """The bulk-pop edge: a callback scheduling at ``now`` extends the
    bucket being drained, exactly like pushing onto the old heap."""
    sim = Simulator()
    order = []

    def late():
        order.append("late")

    def early():
        order.append("early")
        sim.call_in(0.0, late)  # lands in the draining bucket

    sim.call_at(1e-6, early)
    sim.call_at(1e-6, lambda: order.append("middle"))
    sim.run()
    assert order == ["early", "middle", "late"]
    assert sim.now == 1e-6


def test_seeded_order_is_deterministic_and_differs():
    program = [(0.0, [(0.0, [0.0, 0.0]), (0.0, [])]) for _ in range(6)]
    base = _run_calendar(program, None)
    seeded = {s: _run_calendar(program, s) for s in range(8)}
    # replayable: the same seed gives the same schedule
    for s, order in seeded.items():
        assert _run_calendar(program, s) == order
        assert sorted(order) == sorted(base)  # a permutation of ties
    # and at least one seed actually perturbs the insertion order
    assert any(order != base for order in seeded.values())


# A process program is one list of steps per process:
#   ("sleep", d)      yield sim.timeout(d)
#   ("join", k, d)    yield the timeout another process left under key
#                     k (a second callback, or a late add to a fired
#                     one), else leave a new one there and yield it
#   ("call", d)       sim.call_in(d, ...): same-time company
#   ("orphan", d)     a timeout nobody waits on
#   ("crash",)        raise
_pstep = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from(DELAYS)),
    st.tuples(st.just("join"), st.integers(0, 2), st.sampled_from(DELAYS)),
    st.tuples(st.just("call"), st.sampled_from(DELAYS)),
    st.tuples(st.just("orphan"), st.sampled_from(DELAYS)),
)
_procs = st.lists(st.lists(_pstep, max_size=6), min_size=1, max_size=6)
#: how a run is driven before its final run(): bounded runs and steps
_drive = st.lists(st.one_of(
    st.tuples(st.just("until"), st.sampled_from(TIMES)),
    st.tuples(st.just("step"), st.integers(min_value=1, max_value=3))),
    max_size=4)

#: a timeout alone in its bucket; one sharing it with a later call
ALONE = [[("sleep", 1e-6), ("sleep", 0.0)]]
COMPANY = [[("sleep", 2e-6)], [("call", 2e-6), ("sleep", 2e-6)]]


def _procs_calendar(procs, tie_seed, drive=()):
    """Run a process program on the real engine; returns (log, final
    clock, events_processed, crashed)."""
    sim = Simulator(tie_seed=tie_seed)
    log = []
    shared = {}

    def proc(pid, steps):
        for idx, step in enumerate(steps):
            log.append((sim.now, pid, idx))
            if step[0] == "sleep":
                yield sim.timeout(step[1])
            elif step[0] == "join":
                ev = shared.pop(step[1], None)
                if ev is None:
                    ev = shared[step[1]] = sim.timeout(step[2])
                yield ev
            elif step[0] == "call":
                sim.call_in(step[1], lambda tag=f"{pid}.{idx}":
                            log.append((sim.now, tag)))
            elif step[0] == "orphan":
                sim.timeout(step[1])
            else:
                raise RuntimeError(f"crash in {pid}.{idx}")

    for pid, steps in enumerate(procs):
        sim.spawn(proc(pid, steps))
    try:
        for op, arg in drive:
            if op == "until":
                sim.run(until=max(arg, sim.now))
            else:
                for _ in range(arg):
                    if sim.peek() < float("inf"):
                        sim.step()
        sim.run()
    except SimulationError:
        return log, sim.now, sim.events_processed, True
    return log, sim.now, sim.events_processed, False


def _procs_legacy_heap(procs, tie_seed):
    """The same program on the historical heap, where a timeout is one
    entry that fires it and then one entry per callback to resume."""
    heap = []
    seq = itertools.count()
    rng = None if tie_seed is None else random.Random(tie_seed)
    log = []
    shared = {}
    timeouts = []  # [fired, waiting pids]
    pos = [0] * len(procs)
    now = 0.0

    def push(when, item):
        if rng is None:
            heapq.heappush(heap, (when, next(seq), item))
        else:
            heapq.heappush(heap,
                           (when, rng.getrandbits(32), next(seq), item))

    def new_timeout(delay, waiter):
        timeouts.append([False, [] if waiter is None else [waiter]])
        push(now + delay, ("fire", len(timeouts) - 1))
        return len(timeouts) - 1

    def resume(pid):
        """Run ``pid`` to its next wait; False if it crashed."""
        while pos[pid] < len(procs[pid]):
            idx = pos[pid]
            pos[pid] += 1
            step = procs[pid][idx]
            log.append((now, pid, idx))
            if step[0] == "sleep":
                new_timeout(step[1], pid)
                return True
            if step[0] == "join":
                tid = shared.pop(step[1], None)
                if tid is None:
                    shared[step[1]] = new_timeout(step[2], pid)
                elif timeouts[tid][0]:
                    push(now, ("resume", pid))
                else:
                    timeouts[tid][1].append(pid)
                return True
            if step[0] == "call":
                push(now + step[1], ("call", f"{pid}.{idx}"))
            elif step[0] == "orphan":
                new_timeout(step[1], None)
            else:
                return False
        return True

    for pid in range(len(procs)):
        push(0.0, ("resume", pid))
    executed = 0
    while heap:
        entry = heapq.heappop(heap)
        now, (kind, arg) = entry[0], entry[-1]
        executed += 1
        if kind == "fire":
            timeouts[arg][0] = True
            for pid in timeouts[arg][1]:
                push(now, ("resume", pid))
        elif kind == "call":
            log.append((now, arg))
        elif not resume(arg):
            return log, now, executed, True
    return log, now, executed, False


@settings(max_examples=150, deadline=None)
@given(procs=_procs, tie_seed=_seeds)
@example(procs=ALONE, tie_seed=None)
@example(procs=COMPANY, tie_seed=None)
def test_timeouts_match_the_two_entry_schedule(procs, tie_seed):
    got = _procs_calendar(procs, tie_seed)
    assert got == _procs_legacy_heap(procs, tie_seed)
    assert not got[3]


@settings(max_examples=100, deadline=None)
@given(procs=_procs, tie_seed=_seeds, data=st.data())
def test_crash_in_a_resumed_process(procs, tie_seed, data):
    pid = data.draw(st.integers(min_value=0, max_value=len(procs) - 1))
    at = data.draw(st.integers(min_value=0, max_value=len(procs[pid])))
    procs = [list(steps) for steps in procs]
    procs[pid].insert(at, ("crash",))
    got = _procs_calendar(procs, tie_seed)
    assert got == _procs_legacy_heap(procs, tie_seed)
    assert got[3]


@settings(max_examples=100, deadline=None)
@given(procs=_procs, tie_seed=_seeds, drive=_drive)
@example(procs=ALONE, tie_seed=None, drive=[("step", 2), ("until", 1e-6)])
def test_bounded_runs_and_steps_straddle_timeouts(procs, tie_seed, drive):
    got = _procs_calendar(procs, tie_seed, drive)
    assert got == _procs_legacy_heap(procs, tie_seed)


def test_company_queued_behind_a_timeout_runs_before_its_wakeup():
    """The in-place wakeup is only for a timeout that is its bucket's
    last entry: a callback queued behind it runs first."""
    sim = Simulator()
    log = []

    def sleeper():
        t = sim.timeout(1.0)
        sim.call_at(1.0, log.append, "company")
        yield t
        log.append("woke")

    sim.spawn(sleeper())
    sim.run()
    assert log == ["company", "woke"]
    # start, timeout firing, wakeup, company
    assert sim.events_processed == 4


class TestCancelledTimerCompaction:
    """Heap-bloat regression: cancel-heavy timer churn (the HCA ack
    timeout / fluid wakeup pattern) must not grow the queue without
    bound — dead entries are reaped once they are the majority."""

    def test_ten_thousand_cancelled_far_future_timers(self):
        sim = Simulator()
        noop = lambda: None
        for i in range(10_000):
            handle = sim.call_at(1000.0 + (i % 7), noop)
            handle.cancel()
        # all 10k entries were cancelled; compaction keeps the queue
        # at O(compaction floor), not O(total churn)
        assert sim.pending_events <= 4 * Simulator._COMPACT_MIN

    def test_live_events_survive_compaction(self):
        sim = Simulator()
        fired = []
        live = [sim.call_at(5.0, fired.append, i) for i in range(10)]
        noop = lambda: None
        for i in range(10_000):
            sim.call_at(1000.0 + (i % 7), noop).cancel()
        assert sim.pending_events <= 10 + 4 * Simulator._COMPACT_MIN
        sim.run(until=6.0)
        assert sorted(fired) == list(range(10))
        assert all(not h.cancelled for h in live)

    def test_seeded_queue_compacts_too(self):
        sim = Simulator(tie_seed=7)
        noop = lambda: None
        for i in range(10_000):
            sim.call_at(1000.0, noop).cancel()
        assert sim.pending_events <= 4 * Simulator._COMPACT_MIN
