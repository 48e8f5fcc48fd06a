"""Event pooling: identity with a sanitized run, sleep recycling.

Without a sanitizer the event loop recycles pooled ``env.sleep``
timeouts, ``pooled_event`` events and process-initialize events;
attaching a sanitizer turns pooling off so the sanitizer only ever sees
fresh objects. The contract tested here: both produce byte-identical
simulated behaviour — same event order, same clock, same step counts —
and pooling never leaks a value between sleeps.
"""

import pytest

from repro.sanitize import attach
from repro.sim import Environment
from repro.sim.engine import Interrupt, SimulationError, Timeout
from repro.sim.resources import Resource


def _require_pooling():
    """Skip when the suite-wide --sanitize hook turns pooling off."""
    if Environment().sanitizer is not None:
        pytest.skip("suite runs under --sanitize: no env pools")


def _env(pooled: bool) -> Environment:
    env = Environment()
    if not pooled:
        attach(env)
    return env


def _mixed_program(env, log):
    """Timeouts, sleeps, a resource, joins — a little of everything."""
    res = Resource(env, capacity=1)

    def worker(i):
        yield env.timeout(i * 0.5)
        with res.request() as req:
            yield req
            log.append(("got", i, env.now))
            yield env.sleep(1.0)
        yield env.sleep(0.25)
        log.append(("done", i, env.now))
        return i * 10

    def root():
        procs = [env.process(worker(i)) for i in range(4)]
        first = yield env.any_of(procs)
        log.append(("first", sorted(first.values()), env.now))
        got = yield env.all_of(procs)
        log.append(("all", sorted(got.values()), env.now))

    return env.process(root())


def _run_mixed(pooled):
    env = _env(pooled)
    log = []
    env.run(_mixed_program(env, log))
    return env, log


def test_fast_loop_is_identical_to_hooked_loop():
    _require_pooling()
    pooled_env, pooled_log = _run_mixed(pooled=True)
    hooked_env, hooked_log = _run_mixed(pooled=False)
    assert pooled_env._pooling and not hooked_env._pooling
    assert pooled_log == hooked_log
    assert pooled_env.now == hooked_env.now
    assert pooled_env.steps == hooked_env.steps
    assert pooled_env._eid == hooked_env._eid
    assert pooled_env.steps > 0
    assert hooked_env.sanitizer.clean


def test_sleep_is_pooled_and_recycled_in_fast_mode():
    _require_pooling()
    env = Environment()

    def prog():
        first = env.sleep(1.0)
        yield first
        # `first` is recycled after its processing completes — i.e. once
        # this resumption finishes — so it is reused one sleep later:
        second = env.sleep(2.0)
        assert second is not first
        yield second
        third = env.sleep(0.5)
        assert third is first  # recycled object, same identity
        yield third

    env.run(env.process(prog()))
    assert env.now == 3.5
    assert env._timeout_pool  # the last sleep went back to the pool


def test_sleep_is_a_plain_timeout_in_hooked_mode():
    env = _env(pooled=False)

    def prog():
        first = env.sleep(1.0)
        yield first
        second = env.sleep(1.0)
        assert second is not first
        assert type(first) is Timeout
        yield second

    env.run(env.process(prog()))
    assert not env._timeout_pool


def test_sleep_rejects_negative_delay():
    env = Environment()

    def prog():
        yield env.sleep(1.0)  # prime the pool
        with pytest.raises(ValueError):
            env.sleep(-1.0)
        yield env.timeout(0)

    env.run(env.process(prog()))


@pytest.mark.parametrize("pooled", [True, False])
def test_interrupt_during_sleep(pooled):
    env = _env(pooled)
    log = []

    def sleeper():
        try:
            yield env.sleep(10.0)
        except Interrupt as i:
            log.append(("interrupted", i.cause, env.now))
        # pooling must survive an abandoned sleep: this one still works
        yield env.sleep(1.0)
        log.append(("woke", env.now))

    def interrupter(target):
        yield env.timeout(3.0)
        target.interrupt("enough")

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    assert log == [("interrupted", "enough", 3.0), ("woke", 4.0)]
    assert env.now == 10.0  # the abandoned timeout still fires


def test_strict_forces_hooked_loop():
    env = Environment(strict=True)
    assert env.sanitizer is not None
    assert not env._pooling


def test_attaching_sanitizer_disables_fast_loop():
    _require_pooling()
    env = Environment()
    assert env._pooling

    def prog():
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    env.process(prog())
    env.run(until=1.0)
    attach(env)
    assert not env._pooling
    env.run()
    assert env.now == 2.0
    assert env.sanitizer.checks > 0


def test_run_until_event_in_fast_mode():
    env = Environment()

    def prog():
        yield env.timeout(2.5)
        return "payload"

    value = env.run(env.process(prog()))
    assert value == "payload"
    assert env.now == 2.5


def test_steps_counts_events_in_both_flavours():
    for pooled in (True, False):
        env = _env(pooled)

        def prog():
            for _ in range(5):
                yield env.timeout(1.0)

        env.run(env.process(prog()))
        # 1 Initialize + 5 timeouts + the Process completion event
        assert env.steps == 7, pooled


def test_failed_event_still_propagates_in_fast_mode():
    env = Environment()

    def prog():
        ev = env.event()
        ev.fail(SimulationError("boom"))
        with pytest.raises(SimulationError):
            yield ev

    env.run(env.process(prog()))
