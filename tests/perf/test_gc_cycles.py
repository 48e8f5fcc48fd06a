"""Cycle guard: finished simulated requests are freed by reference counting.

A finished :class:`~repro.sim.Process` drops its generator and its bound
resume callback, a :class:`~repro.sim.engine.Condition` keeps no bound
method on itself, a granted :class:`~repro.sim.resources.Resource`
request is not its own value, and an admitted ``StorePut`` lets go of its
item. Together they leave nothing of a finished request for Python's
cycle collector, which used to spend most of its pauses on exactly that
garbage (see ``docs/PERF.md``).

Each test runs with the collector disabled, so every cycle the run makes
is still there for the final ``gc.collect()`` to count.
"""

import gc
import types
from contextlib import contextmanager

import numpy as np

from repro import build_parallel_fs
from repro.devices import TransientFaultInjector
from repro.perf import ORGS, WorkloadConfig, make_file, seed_file, spawn_workload
from repro.qos import QoSConfig
from repro.resilience import ResilienceConfig
from repro.sim import Environment, RngStreams

#: A failed attempt's exception keeps its traceback, whose frames refer
#: back to the exception and to the failed process: roughly 120 objects
#: per transient fault on the full stack. Those are the only cycles left.
CYCLIC_OBJS_PER_FAULT = 150


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _bare_clients(env, n_clients=64, record_size=32):
    """Think/read/write client loops on one bare 2-device PS file.

    Returns the file system with the processes: the caller keeps it
    alive, since the device service loops (one pending process per drive)
    are a fixed cycle that lives as long as the file system does.
    """
    pfs = build_parallel_fs(env, 2)
    f = pfs.create("clients", "PS", n_records=n_clients,
                   record_size=record_size, records_per_block=1,
                   n_processes=n_clients)
    seed_file(f)

    def client(p):
        for r in range(2):
            yield env.sleep(0.001 * (1 + (p * 7 + r) % 13))
            h = f.internal_view(p)
            while not h.eof:
                yield from h.read_next(1)
            yield env.sleep(0.001)
            w = f.internal_view(p)
            yield from w.write_next(np.full((1, record_size), p % 251, np.uint8))

    return pfs, [env.process(client(p)) for p in range(n_clients)]


def test_bare_client_run_leaves_no_cyclic_garbage():
    env = Environment()
    pfs, procs = _bare_clients(env)
    with collector_off():
        env.run()
        assert all(p.processed and p.ok for p in procs)
        del procs
        assert gc.collect() == 0


def _holds_live_state(proc) -> list:
    return [
        r for r in gc.get_referents(proc)
        if isinstance(r, types.GeneratorType)
        or (isinstance(r, types.MethodType) and r.__self__ is proc)
    ]


def test_finished_process_releases_generator_and_resume():
    env = Environment()

    def returns():
        yield env.timeout(1)
        return 7

    def raises():
        yield env.timeout(1)
        raise KeyError("boom")

    def yields_non_event():
        yield env.timeout(1)
        yield 42

    ok = env.process(returns())
    bad = env.process(raises())
    bogus = env.process(yields_non_event())
    for p in (bad, bogus):
        p.defuse()
    assert _holds_live_state(ok)  # alive: it needs both
    env.run()
    assert ok.value == 7
    assert isinstance(bad.value, KeyError)
    assert "non-event" in str(bogus.value)
    for p in (ok, bad, bogus):
        assert not p.is_alive
        assert _holds_live_state(p) == []


def _collect_saved() -> list:
    """Collect, returning the unreachable objects instead of freeing them."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        garbage = list(gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
    return garbage


def _reachable_from_exceptions(garbage: list) -> set[int]:
    """ids of the garbage reachable from the exceptions in it."""
    ids = {id(o) for o in garbage}
    seen: set[int] = set()
    stack = [o for o in garbage if isinstance(o, BaseException)]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            stack.extend(r for r in gc.get_referents(obj) if id(r) in ids)
    return seen


def test_full_stack_run_leaves_only_fault_tracebacks():
    """I/O nodes + parity + QoS + batch_io with one transient fault per
    stack: every org's workload, then the cycle count."""
    cfg = WorkloadConfig(n_records=480)
    stacks = []
    for org in ORGS:
        env = Environment()
        pfs = build_parallel_fs(
            env, 4, io_nodes=2,
            resilience=ResilienceConfig(protection="parity", spares=1),
            qos=QoSConfig(), batch_io=True,
        )
        stacks.append((env, pfs, make_file(pfs, org, cfg)))
    with collector_off():
        for env, pfs, f in stacks:
            inj = TransientFaultInjector(env, RngStreams(1))
            inj.inject_errors(pfs.volume.devices[0], count=1)
            env.run(env.all_of(spawn_workload(f, cfg)))
            env.run()
        faults = sum(d.transient_errors for _, pfs, _ in stacks
                     for d in pfs.volume.devices)
        garbage = _collect_saved()
    assert faults == len(ORGS)
    traced = _reachable_from_exceptions(garbage)
    other = [o for o in garbage if id(o) not in traced]
    assert other == [], f"{len(other)} cyclic objects outside fault tracebacks"
    assert len(garbage) <= CYCLIC_OBJS_PER_FAULT * faults, (
        f"{len(garbage)} cyclic objects after {faults} transient faults"
    )
