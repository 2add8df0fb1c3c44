"""Unit tests for the discrete-event simulation kernel."""

import math

import numpy as np
import pytest

from types import SimpleNamespace

from repro.core.app import BaseRankProgram
from repro.obs import MetricsRegistry
from repro.simx import (
    DONE,
    AllOf,
    AnyOf,
    Environment,
    Event,
    EventAlreadyTriggered,
    NotTriggeredError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(2.5)

    env.process(proc(env))
    env.run()
    assert env.now == 2.5


def test_timeout_value_passed_to_process():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 42

    p = env.process(proc(env))
    result = env.run(until=p)
    assert result == 42


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.0, 3.0, 6.0]


def test_two_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append((name, env.now))

    env.process(proc(env, "a", 2))
    env.process(proc(env, "b", 1))
    env.run()
    assert order == [("b", 1), ("a", 2)]


def test_simultaneous_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abcd":
        env.process(proc(env, name))
    env.run()
    assert order == list("abcd")


def test_run_until_time_stops_midway():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(10)
        done.append(True)

    env.process(proc(env))
    env.run(until=5)
    assert env.now == 5
    assert not done
    env.run()
    assert done


def test_run_until_past_time_raises():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_event_succeed_wakes_waiter():
    env = Environment()
    got = []

    def waiter(env, ev):
        value = yield ev
        got.append(value)

    def trigger(env, ev):
        yield env.timeout(3)
        ev.succeed("payload")

    ev = env.event()
    env.process(waiter(env, ev))
    env.process(trigger(env, ev))
    env.run()
    assert got == ["payload"]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed()


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(NotTriggeredError):
        _ = ev.value


def test_event_fail_propagates_into_process():
    env = Environment()
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = env.event()
    env.process(waiter(env, ev))
    env.process(iter_fail(env, ev))
    env.run()
    assert caught == ["boom"]


def iter_fail(env, ev):
    yield env.timeout(1)
    ev.fail(RuntimeError("boom"))


def test_unhandled_process_exception_crashes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("explode")

    env.process(bad(env))
    with pytest.raises(ValueError, match="explode"):
        env.run()


def test_wait_on_already_processed_event():
    env = Environment()
    got = []

    def late_waiter(env, ev):
        yield env.timeout(5)
        value = yield ev  # already processed by now
        got.append((value, env.now))

    ev = env.event()
    ev.succeed("early")
    env.process(late_waiter(env, ev))
    env.run()
    assert got == [("early", 5)]


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(1, value="x")
        t2 = env.timeout(4, value="y")
        result = yield env.all_of([t1, t2])
        times.append(env.now)
        assert list(result.values()) == ["x", "y"]

    env.process(proc(env))
    env.run()
    assert times == [4]


def test_any_of_fires_on_first_event():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(1, value="x")
        t2 = env.timeout(4, value="y")
        result = yield env.any_of([t1, t2])
        times.append(env.now)
        assert list(result.values()) == ["x"]

    env.process(proc(env))
    env.run()
    assert times == [1]


def test_all_of_empty_fires_immediately():
    env = Environment()
    done = []

    def proc(env):
        yield env.all_of([])
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [0.0]


def test_condition_fails_if_member_fails():
    env = Environment()
    caught = []

    def proc(env, ev):
        try:
            yield env.all_of([ev, env.timeout(10)])
        except KeyError:
            caught.append(env.now)

    def failer(env, ev):
        yield env.timeout(2)
        ev.fail(KeyError("nope"))

    ev = env.event()
    env.process(proc(env, ev))
    env.process(failer(env, ev))
    env.run()
    assert caught == [2]


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


@pytest.mark.parametrize("mode", ["until", "window", "split_count"])
def test_event_loop_time_boundaries(mode):
    """``run(until=t)`` includes an event at exactly ``t``, ``run_window(t)``
    leaves it queued, and a run split at ``t`` counts every event once."""
    t = 0.1 + 0.2  # 0.30000000000000004: the bound must be exact
    after = math.nextafter(t, math.inf)
    fired = []

    def world(metrics=None):
        env = Environment(metrics=metrics)
        env.schedule_at(t, lambda ev: fired.append(t))
        env.schedule_at(after, lambda ev: fired.append(after))
        return env

    if mode == "until":
        env = world()
        env.run(until=t)
        assert fired == [t]
        assert env.now == t
        assert env.peek() == after
    elif mode == "window":
        env = world()
        assert env.run_window(t) == 0
        assert fired == []
        assert env.peek() == t
    else:
        split, whole = MetricsRegistry(), MetricsRegistry()
        env = world(split)
        env.run(until=t)
        env.run()
        env.flush_metrics()
        env = world(whole)
        env.run()
        env.flush_metrics()
        assert split.value("kernel.events") == 2
        assert whole.value("kernel.events") == 2


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(2)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_yield_non_event_raises():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(TypeError, match="non-event"):
        env.run()


def test_process_that_catches_the_non_event_error_goes_on():
    env = Environment()

    def recovering(env):
        try:
            yield 42
        except TypeError:
            pass
        yield env.timeout(1)
        yield env.timeout(2)
        return "done"

    proc = env.process(recovering(env))
    assert env.run(until=proc) == "done"
    assert env.now == 3.0
    assert not proc.is_alive


def test_process_that_returns_after_the_non_event_error_succeeds():
    env = Environment()

    def recovering(env):
        try:
            yield 42
        except TypeError:
            return "recovered"

    proc = env.process(recovering(env))
    env.run()
    assert proc.ok and proc.value == "recovered"
    assert not proc.is_alive


@pytest.mark.parametrize("bad", ["x", 1])
def test_yield_of_a_non_float_delay_raises(bad):
    """Only a float is a sleep: a string, or an int delay, is refused
    like any other non-event."""
    env = Environment()

    def proc(env):
        yield bad

    env.process(proc(env))
    with pytest.raises(TypeError, match="non-event"):
        env.run()


def test_negative_float_sleep_throws_value_error_in():
    env = Environment()
    seen = []

    def proc(env):
        try:
            yield -1.0
        except ValueError as exc:
            seen.append((str(exc), env.now, env._seq))
        yield 2.0
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"
    assert seen == [("process 'proc' yielded negative delay -1.0", 0.0, 1)]
    assert env.now == 2.0


def _mixed_world(sleep):
    """Two processes that wait on sleeps, timeouts, a plain event and an
    already-processed event; ``sleep(env, d)`` is the wait under test.
    Returns the ``(name, now, _seq)`` trace of every resume."""
    env = Environment()
    trace = []
    gate = env.event()

    def sleeper(env):
        yield sleep(env, 0.5)
        trace.append(("a", env.now, env._seq))
        yield env.timeout(0.25, value="t")
        trace.append(("a", env.now, env._seq))
        yield sleep(env, 0.0)
        trace.append(("a", env.now, env._seq))
        gate.succeed("open")
        yield sleep(env, 1.0 / 3.0)
        trace.append(("a", env.now, env._seq))

    def waiter(env):
        yield sleep(env, 0.75)
        trace.append(("b", env.now, env._seq))
        value = yield gate
        trace.append(("b", value, env.now, env._seq))
        yield DONE
        yield sleep(env, 0.1)
        trace.append(("b", env.now, env._seq))

    env.process(sleeper(env))
    env.process(waiter(env))
    env.run()
    return trace, env._seq, env._events_processed


def test_float_sleeps_keep_the_timeout_schedule():
    with_events = _mixed_world(lambda env, d: env.timeout(d))
    with_floats = _mixed_world(lambda env, d: d)
    assert with_floats == with_events
    assert len(with_floats[0]) == 7


def test_a_float_sleep_counts_as_a_processed_event():
    registry = MetricsRegistry()
    env = Environment(metrics=registry)

    def proc(env):
        yield 1.0
        yield 2.0

    env.process(proc(env))
    env.run()
    env.flush_metrics()
    # The initialize event, two sleeps, and the process's own completion.
    assert registry.value("kernel.events") == 4
    assert env.now == 3.0


def test_charge_of_no_time_touches_neither_clock_nor_heap():
    env = Environment()
    program = SimpleNamespace(env=env, profiler=None)
    seen = []

    def proc(env):
        yield 1.0
        before = (env._seq, list(env._queue))
        yield BaseRankProgram.charge(program, 0)
        yield BaseRankProgram.charge(program, -1.0)
        seen.append((before, (env._seq, list(env._queue)), env.now))

    env.process(proc(env))
    env.timeout(5.0)  # keeps the heap non-empty while ``proc`` charges
    env.run()
    (before, after, now), = seen
    assert before[1] and after == before
    assert now == 1.0


def test_nested_process_wait():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(2)
        return "child-done"

    def parent(env):
        value = yield env.process(child(env))
        results.append((value, env.now))

    env.process(parent(env))
    env.run()
    assert results == [("child-done", 2)]


def test_many_processes_scale():
    env = Environment()
    count = []

    def proc(env, i):
        yield env.timeout(i % 10)
        count.append(i)

    for i in range(500):
        env.process(proc(env, i))
    env.run()
    assert len(count) == 500


def test_run_until_untriggered_event_after_exhaustion_raises():
    env = Environment()
    ev = env.event()

    def proc(env):
        yield env.timeout(1)

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="ended before"):
        env.run(until=ev)


def test_a_float_subclass_sleeps_like_the_float():
    """``numpy.float64`` is a float: it sleeps exactly as the equal float
    does (same wake times, sequence numbers and event count), and the
    clock stays a plain float."""
    as_float = _mixed_world(lambda env, d: d)
    as_numpy = _mixed_world(lambda env, d: np.float64(d))
    assert as_numpy == as_float
    assert all(type(row[-2]) is float for row in as_numpy[0])


@pytest.mark.parametrize("bad", [math.nan, np.float64("nan"),
                                 np.float64(-1e-6)])
def test_a_nan_or_negative_float_subclass_sleep_throws_value_error_in(bad):
    env = Environment()
    seen = []

    def proc(env):
        try:
            yield bad
        except ValueError as exc:
            seen.append((str(exc), env.now, env._seq))
        yield np.float64(1e-6)
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"
    assert seen == [(f"process 'proc' yielded negative delay {bad!r}", 0.0, 1)]
    assert env.now == 1e-6
