"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    AllOf, AnyOf, DeadlockError, Event, Interrupt, Process,
    SimulationError, Simulator, Timeout,
)


def run(sim, gen, **kw):
    proc = sim.spawn(gen, **kw)
    sim.run()
    return proc.value


class TestTimeout:
    def test_single_timeout_advances_clock(self):
        sim = Simulator()

        def prog():
            yield sim.timeout(2.5)
            return sim.now

        assert run(sim, prog()) == 2.5

    def test_timeouts_fire_in_order(self):
        sim = Simulator()
        order = []

        def waiter(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.spawn(waiter(3.0, "c"))
        sim.spawn(waiter(1.0, "a"))
        sim.spawn(waiter(2.0, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_zero_delay_timeout(self):
        sim = Simulator()

        def prog():
            yield sim.timeout(0.0)
            return sim.now

        assert run(sim, prog()) == 0.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_timeout_carries_value(self):
        sim = Simulator()

        def prog():
            got = yield sim.timeout(1.0, value="payload")
            return got

        assert run(sim, prog()) == "payload"

    def test_same_time_fifo_order(self):
        sim = Simulator()
        order = []

        def waiter(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in range(5):
            sim.spawn(waiter(tag))
        sim.run()
        assert order == list(range(5))


class TestEvent:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event()

        def trigger():
            yield sim.timeout(1.0)
            ev.succeed(42)

        def waiter():
            val = yield ev
            return (sim.now, val)

        sim.spawn(trigger())
        p = sim.spawn(waiter())
        sim.run()
        assert p.value == (1.0, 42)

    def test_fail_raises_in_waiter(self):
        sim = Simulator()
        ev = sim.event()

        def trigger():
            yield sim.timeout(1.0)
            ev.fail(ValueError("boom"))

        def waiter():
            try:
                yield ev
            except ValueError as e:
                return str(e)

        sim.spawn(trigger())
        p = sim.spawn(waiter())
        sim.run()
        assert p.value == "boom"

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_value_before_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_callback_after_trigger_still_runs(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("x")
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["x"]


class TestProcess:
    def test_return_value(self):
        sim = Simulator()

        def prog():
            yield sim.timeout(1)
            return "done"

        assert run(sim, prog()) == "done"

    def test_yield_from_composition(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1)
            return 10

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        assert run(sim, outer()) == 20
        assert sim.now == 2.0

    def test_wait_for_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(3)
            return "child-result"

        def parent():
            result = yield sim.spawn(child())
            return result

        assert run(sim, parent()) == "child-result"

    def test_yield_bare_generator_spawns_subprocess(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1)
            return 7

        def parent():
            val = yield child()
            return val

        assert run(sim, parent()) == 7

    def test_crash_of_unwatched_process_surfaces(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1)
            raise RuntimeError("kaboom")

        sim.spawn(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_crash_of_watched_process_propagates_to_watcher(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1)
            raise RuntimeError("kaboom")

        def watcher():
            try:
                yield sim.spawn(bad())
            except RuntimeError as e:
                return f"caught {e}"

        p = sim.spawn(watcher())
        sim.run()
        assert p.value == "caught kaboom"

    def test_interrupt(self):
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as i:
                return ("interrupted", i.cause, sim.now)

        def interrupter(target):
            yield sim.timeout(5)
            target.interrupt("because")

        p = sim.spawn(sleeper())
        sim.spawn(interrupter(p))
        sim.run()
        assert p.value == ("interrupted", "because", 5.0)

    def test_interrupted_process_waits_again(self):
        """Regression: the event an interrupt cut short used to wake
        the process again when it fired, whatever it waited on by
        then (here at 100.0 instead of 205.0)."""
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            yield sim.timeout(200)
            return sim.now

        def interrupter(target):
            yield sim.timeout(5)
            target.interrupt()

        p = sim.spawn(sleeper())
        sim.spawn(interrupter(p))
        sim.run()
        assert p.value == 205.0

    def test_interrupt_finished_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1)

        p = sim.spawn(quick())
        sim.run()
        p.interrupt()  # no error

    def test_is_alive(self):
        sim = Simulator()

        def prog():
            yield sim.timeout(1)

        p = sim.spawn(prog())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.spawn(lambda: None)


class TestConditions:
    def test_all_of_waits_for_everything(self):
        sim = Simulator()

        def child(d):
            yield sim.timeout(d)
            return d

        def parent():
            vals = yield sim.all_of([sim.spawn(child(d))
                                     for d in (3, 1, 2)])
            return (vals, sim.now)

        vals, now = run(sim, parent())
        assert vals == [3, 1, 2]  # construction order preserved
        assert now == 3.0

    def test_any_of_fires_on_first(self):
        sim = Simulator()

        def child(d):
            yield sim.timeout(d)
            return d

        def parent():
            first = yield sim.any_of([sim.spawn(child(d))
                                      for d in (3, 1, 2)])
            return (first.value, sim.now)

        assert run(sim, parent()) == (1, 1.0)

    def test_all_of_empty_fires_immediately(self):
        sim = Simulator()

        def parent():
            vals = yield sim.all_of([])
            return vals

        assert run(sim, parent()) == []


class TestRun:
    def test_deadlock_detection(self):
        sim = Simulator()

        def stuck():
            yield sim.event()  # never triggered

        sim.spawn(stuck())
        with pytest.raises(DeadlockError):
            sim.run()

    def test_daemon_does_not_deadlock(self):
        sim = Simulator()

        def daemon():
            yield sim.event()

        def worker():
            yield sim.timeout(1)

        sim.spawn(daemon(), daemon=True)
        sim.spawn(worker())
        assert sim.run() == 1.0

    def test_run_until(self):
        sim = Simulator()

        def prog():
            for _ in range(10):
                yield sim.timeout(1)

        sim.spawn(prog())
        sim.run(until=4.5)
        assert sim.now == 4.5

    def test_cannot_schedule_in_past(self):
        sim = Simulator()

        def prog():
            yield sim.timeout(5)
            with pytest.raises(SimulationError):
                sim.call_at(1.0, lambda: None)

        sim.spawn(prog())
        sim.run()

    def test_call_in_and_cancel(self):
        sim = Simulator()
        fired = []
        h = sim.call_in(1.0, lambda: fired.append("a"))
        sim.call_in(2.0, lambda: fired.append("b"))
        h.cancel()
        sim.run()
        assert fired == ["b"]

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.call_in(3.0, lambda: None)
        assert sim.peek() == 3.0

    def test_foreign_event_rejected(self):
        sim1, sim2 = Simulator(), Simulator()
        ev2 = sim2.event()

        def prog():
            yield ev2

        sim1.spawn(prog())
        with pytest.raises(SimulationError):
            sim1.run()


@pytest.fixture(params=[None, 7], ids=["fifo", "seeded"])
def tie_seed(request):
    return request.param


class TestSettle:
    """``Simulator.at_settle``: hooks run once per registration, after
    the current timestamp's last entry and before the clock moves."""

    def test_runs_once_after_every_same_time_entry(self, tie_seed):
        sim = Simulator(tie_seed=tie_seed)
        log = []

        def first():
            log.append(("first", sim.now))
            sim.at_settle(lambda: log.append(("settle", sim.now)))
            # queued after the registration, still ahead of the hook
            sim.call_in(0.0, lambda: log.append(("late", sim.now)))

        sim.call_at(1.0, first)
        for i in range(3):
            sim.call_at(1.0, lambda i=i: log.append((f"peer{i}", sim.now)))
        sim.call_at(2.0, lambda: log.append(("next", sim.now)))
        sim.run()
        assert log.count(("settle", 1.0)) == 1
        assert log.index(("settle", 1.0)) == 5  # after all five at t=1
        assert log[-1] == ("next", 2.0)
        # hooks are not events
        assert sim.events_processed == 6

    def test_hook_scheduling_same_time_work_resumes_the_drain(
            self, tie_seed):
        sim = Simulator(tie_seed=tie_seed)
        log = []

        def hook():
            log.append("hook")
            sim.call_in(0.0, lambda: log.append(("resumed", sim.now)))

        sim.call_at(1.0, lambda: sim.at_settle(hook))
        sim.call_at(2.0, lambda: log.append(("next", sim.now)))
        sim.run()
        assert log == ["hook", ("resumed", 1.0), ("next", 2.0)]

    def test_hook_registered_by_a_hook_runs_after_the_resumed_drain(
            self, tie_seed):
        sim = Simulator(tie_seed=tie_seed)
        log = []

        def outer():
            log.append("outer")
            sim.at_settle(lambda: log.append(("inner", sim.now)))
            sim.call_in(0.0, lambda: log.append("resumed"))

        sim.call_at(1.0, lambda: sim.at_settle(outer))
        sim.call_at(2.0, lambda: log.append("next"))
        sim.run()
        assert log == ["outer", "resumed", ("inner", 1.0), "next"]

    def test_registered_before_run(self, tie_seed):
        sim = Simulator(tie_seed=tie_seed)
        log = []
        sim.at_settle(lambda: log.append(("settle", sim.now)))
        sim.call_at(0.0, lambda: log.append("same-time"))
        sim.call_at(1.0, lambda: log.append("later"))
        sim.run()
        assert log == ["same-time", ("settle", 0.0), "later"]

    def test_registered_between_bounded_runs(self, tie_seed):
        sim = Simulator(tie_seed=tie_seed)
        log = []
        sim.call_at(5.0, lambda: log.append("at5"))
        assert sim.run(until=2.0) == 2.0
        # the hook schedules work that the next bounded run must see,
        # although the queue's next entry lies beyond its horizon
        sim.at_settle(
            lambda: sim.call_in(1.0, lambda: log.append(("woke", sim.now))))
        assert sim.run(until=4.0) == 4.0
        assert log == [("woke", 3.0)]
        sim.run()
        assert log == [("woke", 3.0), "at5"]

    def test_hook_on_an_empty_queue_still_runs(self):
        sim = Simulator()
        log = []
        sim.at_settle(lambda: log.append("settle"))
        sim.run()
        assert log == ["settle"]

    def test_deadlock_still_raised_after_settle(self):
        sim = Simulator()
        log = []

        def stuck():
            sim.at_settle(lambda: log.append("settle"))
            yield sim.event()  # never triggered

        sim.spawn(stuck())
        with pytest.raises(DeadlockError):
            sim.run()
        assert log == ["settle"]

    def test_hook_can_rescue_a_blocked_process(self):
        sim = Simulator()
        ev = sim.event()

        def waiter():
            sim.at_settle(lambda: ev.succeed("rescued"))
            return (yield ev)

        assert run(sim, waiter()) == "rescued"

    def test_exception_in_hook_surfaces_from_run(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("hook failed")

        sim.call_at(1.0, lambda: sim.at_settle(boom))
        with pytest.raises(RuntimeError, match="hook failed"):
            sim.run()

    def test_peek_flushes_owed_hooks(self, tie_seed):
        sim = Simulator(tie_seed=tie_seed)
        sim.at_settle(lambda: sim.call_in(3.0, lambda: None))
        # without the flush the queue looks empty
        assert sim.peek() == 3.0

    def test_peek_leaves_hooks_while_same_time_work_is_queued(self):
        sim = Simulator()
        log = []
        sim.at_settle(lambda: log.append("settle"))
        sim.call_at(0.0, lambda: log.append("entry"))
        assert sim.peek() == 0.0
        assert log == []
        sim.run()
        assert log == ["entry", "settle"]

    def test_step_matches_run(self, tie_seed):
        def program(sim, log):
            def poke(tag):
                log.append((tag, sim.now))
                sim.at_settle(lambda: log.append(("settle", tag, sim.now)))
            for tag in "abc":
                sim.call_at(1.0, poke, tag)
            sim.call_at(2.0, poke, "d")

        ran, stepped = [], []
        sim = Simulator(tie_seed=tie_seed)
        program(sim, ran)
        sim.run()
        sim = Simulator(tie_seed=tie_seed)
        program(sim, stepped)
        while sim.peek() < float("inf"):
            sim.step()
        assert stepped == ran
        assert [e for e in ran if e[0] == "settle"][-1] == ("settle", "d", 2.0)

    def test_step_flushes_before_moving_the_clock(self):
        sim = Simulator()
        log = []
        sim.call_at(1.0, lambda: sim.at_settle(
            lambda: sim.call_in(0.5, lambda: log.append(sim.now))))
        sim.call_at(2.0, lambda: log.append(sim.now))
        sim.step()  # t=1: registers the hook
        sim.step()  # hook flushes first and schedules t=1.5
        assert log == [1.5]
        sim.step()
        assert log == [1.5, 2.0]
