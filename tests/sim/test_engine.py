"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc())
    assert env.run(p) == 5.0
    assert env.now == 5.0


def test_timeout_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_sleep_rejects_negative_and_nan_delay():
    # regression: the check must sit above every branch of the pooled
    # path — a bad delay is rejected with a warm pool, a cold pool, and
    # with pooling off alike (it used to slip through the warm-pool
    # branch straight into the schedule)
    env = Environment()
    with pytest.raises(ValueError):
        env.sleep(-0.5)
    with pytest.raises(ValueError):
        env.sleep(float("nan"))

    def proc():  # warm the pool: sleep once, recycle on processing
        yield env.sleep(0.1)

    env.run(env.process(proc()))
    if env.sanitizer is None:  # under --sanitize nothing is pooled
        assert env._timeout_pool, "pool should be warm"
    with pytest.raises(ValueError):
        env.sleep(-0.5)
    with pytest.raises(ValueError):
        env.sleep(float("nan"))

    unpooled = Environment(strict=True)
    with pytest.raises(ValueError):
        unpooled.sleep(-1e-9)
    with pytest.raises(ValueError):
        unpooled.sleep(float("nan"))


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        for d in (1.0, 2.0, 3.5):
            yield env.timeout(d)
            times.append(env.now)

    env.run(env.process(proc()))
    assert times == [1.0, 3.0, 6.5]


def test_two_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(name, delay):
        for _ in range(3):
            yield env.timeout(delay)
            order.append((name, env.now))

    env.process(proc("a", 2))
    env.process(proc("b", 3))
    env.run()
    # At t=6 both are due; b's timeout was scheduled first (at t=3, vs a's
    # at t=4), so FIFO tie-breaking runs b first.
    assert order == [
        ("a", 2), ("b", 3), ("a", 4), ("b", 6), ("a", 6), ("b", 9),
    ]


def test_ties_broken_fifo():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abc":
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_via_join():
    env = Environment()

    def child():
        yield env.timeout(1)
        return 42

    def parent():
        result = yield env.process(child())
        return result * 2

    assert env.run(env.process(parent())) == 84


def test_process_exception_propagates_to_joiner():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    assert env.run(env.process(parent())) == "caught boom"


def test_unhandled_process_exception_crashes_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_event_succeed_value_delivered():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    def trigger():
        yield env.timeout(3)
        ev.succeed("hello")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == ["hello"]


def test_event_double_trigger_forbidden():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_yield_already_processed_event_continues_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("early")

    def proc():
        # run after ev has been processed
        yield env.timeout(1)
        value = yield ev
        return (value, env.now)

    p = env.process(proc())
    assert env.run(p) == ("early", 1.0)


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc():
        t1 = env.timeout(2, "x")
        t2 = env.timeout(5, "y")
        results = yield env.all_of([t1, t2])
        return (env.now, sorted(results.values()))

    assert env.run(env.process(proc())) == (5.0, ["x", "y"])


def test_any_of_fires_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(2, "fast")
        t2 = env.timeout(50, "slow")
        results = yield env.any_of([t1, t2])
        return (env.now, list(results.values()))

    assert env.run(env.process(proc())) == (2.0, ["fast"])


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc():
        result = yield env.all_of([])
        return result

    assert env.run(env.process(proc())) == {}


def test_interrupt_delivers_cause():
    env = Environment()
    caught = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            caught.append((env.now, i.cause))

    def attacker(v):
        yield env.timeout(4)
        v.interrupt("preempted")

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert caught == [(4.0, "preempted")]


def test_interrupt_dead_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupt_delivered_after_victim_finished_is_error():
    """The victim's wake and the interrupt race on one event: the victim
    runs to completion first, then the interrupt finds it finished (and
    holding no generator)."""
    env = Environment()
    ev = env.event()

    def attacker():
        yield ev
        victim.interrupt("late")

    def victim_body():
        yield ev

    env.process(attacker())
    victim = env.process(victim_body())
    ev.succeed()  # scheduled after both processes' first steps
    with pytest.raises(SimulationError, match="resumed after it finished"):
        env.run()


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=35)
    assert env.now == 35


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event_never_triggered_is_error():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        env.run(ev)


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42  # type: ignore[misc]

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


@pytest.mark.parametrize("until", [float("nan"), float("inf"), float("-inf")])
def test_run_until_non_finite_is_rejected(until):
    # regression: NaN compares false against every event time, so run()
    # used to drain the whole queue and leave env.now = nan; inf drained
    # it too and parked the clock at infinity for every later timeout
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(5)
        fired.append(env.now)

    env.process(proc())
    env.run(until=1)
    with pytest.raises(ValueError, match="finite"):
        env.run(until=until)
    assert env.now == 1
    assert fired == []
    env.run()
    assert fired == [5]
    assert env.now == 5


def test_peek_and_step():
    env = Environment()
    env.timeout(7)
    env.timeout(7)
    assert env.peek() == 7
    env.step()  # exactly one event, even with another at the same time
    assert env.now == 7
    assert env.steps == 1
    assert env.peek() == 7
    env.step()
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError):
        env.step()


def test_active_process_tracked():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(1)

    p = env.process(proc())
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_massive_fan_out_join():
    env = Environment()

    def child(i):
        yield env.timeout(i % 7 + 1)
        return i

    def parent():
        children = [env.process(child(i)) for i in range(200)]
        results = yield env.all_of(children)
        return sum(results.values())

    assert env.run(env.process(parent())) == sum(range(200))


def test_all_of_multiple_concurrent_failures_all_defused():
    """Regression: when several AllOf components fail, every failure must
    be defused — only the first propagates (through the condition)."""
    env = Environment()
    caught = []

    def proc():
        events = [env.event() for _ in range(3)]
        for ev in events:
            ev.fail(ValueError("boom"))
        try:
            yield env.all_of(events)
        except ValueError:
            caught.append(True)

    env.process(proc())
    env.run()  # must not crash on the 2nd and 3rd failed events
    assert caught == [True]


def test_any_of_failure_propagates_once():
    env = Environment()
    caught = []

    def proc():
        bad = env.event()
        bad.fail(RuntimeError("x"))
        slow = env.timeout(100)
        try:
            yield env.any_of([bad, slow])
        except RuntimeError:
            caught.append(True)

    env.process(proc())
    env.run()
    assert caught == [True]


def test_yield_non_event_caught_by_generator_still_fails_cleanly():
    """A generator that catches the thrown error must not resurrect the
    process: the engine closes it and fails the process event."""
    env = Environment()
    cleaned_up = []

    def stubborn():
        try:
            try:
                yield 42  # type: ignore[misc]
            except SimulationError:
                pass  # swallow it and try to keep going
            while True:
                yield env.timeout(1)
        finally:
            cleaned_up.append(True)

    proc = env.process(stubborn())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, SimulationError)
    assert cleaned_up == [True]  # generator was closed, finally ran


def test_yield_non_event_failure_joinable_by_parent():
    """A parent waiting on the bad process sees the failure like any other."""
    env = Environment()

    def bad():
        yield object()  # type: ignore[misc]

    def parent():
        try:
            yield env.process(bad())
        except SimulationError as exc:
            return str(exc)
        return None

    msg = env.run(env.process(parent()))
    assert msg is not None and "non-event" in msg
