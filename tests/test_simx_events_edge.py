"""Edge-case tests for the event primitives."""

import pytest

from repro.simx import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    EventAlreadyTriggered,
)


def test_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_fail_after_succeed_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(EventAlreadyTriggered):
        ev.fail(RuntimeError("late"))


def test_condition_rejects_foreign_events():
    env_a = Environment()
    env_b = Environment()
    ev_b = env_b.event()
    with pytest.raises(ValueError, match="different environments"):
        AllOf(env_a, [ev_b])


def test_anyof_empty_fires_immediately():
    env = Environment()
    hit = []

    def proc(env):
        yield AnyOf(env, [])
        hit.append(env.now)

    env.process(proc(env))
    env.run()
    assert hit == [0.0]


def test_allof_with_already_processed_events():
    env = Environment()
    results = []

    def early(env, ev):
        yield env.timeout(1)
        ev.succeed("a")

    def late(env, ev):
        yield env.timeout(5)
        result = yield env.all_of([ev, env.timeout(1, value="b")])
        results.append(sorted(result.values()))

    ev = env.event()
    env.process(early(env, ev))
    env.process(late(env, ev))
    env.run()
    assert results == [["a", "b"]]


def test_nested_conditions():
    env = Environment()
    times = []

    def proc(env):
        inner_any = env.any_of([env.timeout(2), env.timeout(9)])
        outer = env.all_of([inner_any, env.timeout(4)])
        yield outer
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [4.0]


def test_event_repr_states():
    env = Environment()
    ev = env.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "ok" in repr(ev)
    bad = env.event()
    bad.fail(ValueError("x"))
    bad.defused = True
    assert "failed" in repr(bad)
    env.run()


def test_timeout_repr():
    env = Environment()
    t = env.timeout(3.5)
    assert "3.5" in repr(t)


def test_process_waits_on_failed_condition_member_once():
    """A failure inside a condition propagates exactly once."""
    env = Environment()
    caught = []

    def failer(env, ev):
        yield env.timeout(1)
        ev.fail(KeyError("k"))

    def waiter(env, ev):
        try:
            yield env.any_of([ev, env.timeout(10)])
        except KeyError:
            caught.append(env.now)

    ev = env.event()
    env.process(failer(env, ev))
    env.process(waiter(env, ev))
    env.run()
    assert caught == [1.0]
