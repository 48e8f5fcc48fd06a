"""Per-layer host-time ledger: span wrappers installed from outside the program.

A traced pass calls :func:`install` before it builds anything. That wraps

* every public function and public method exported (``__all__``) by the
  layer packages of ``repro`` -- ``core``, ``fs``, ``storage``,
  ``devices``, ``ionode``, ``resilience``, ``qos``, ``buffering``,
  ``datatype``, ``collective``, ``dataset``, ``container``, ``live`` --
  with a timer;
* ``Environment.run`` (the ``sim`` layer's own loop) and
  ``Environment.process``, which counts processes and times every
  resumption of the new process's generator under the layer its code
  lives in (so a device's service loop is charged to ``devices``).

The layer of a function is the ``repro`` package it is defined in
(``repro.dataset.live`` counts as ``live``). A call into a layer from a
different layer opens a span: name, start, end, parent span, request id
and self time. Calls inside one layer fold into the span that entered it.
Self time is a span's duration minus the time covered by child spans.
When a call returns a generator, its host time is the sum over every
resumption. Spans of one request share the id of the span that a
benchmark driver (or the engine loop) opened; spans are kept in memory
and written out by :meth:`Ledger.dump`.

``gc`` pauses are timed with ``gc.callbacks`` by :class:`GcClock`, which
is cheap enough to run in untraced passes too.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import sys
import threading
import time
import types
from array import array
from collections import defaultdict

clock = time.perf_counter

#: layer packages whose exported functions and methods are wrapped
LAYERS = (
    "core", "fs", "storage", "devices", "ionode", "resilience", "qos",
    "buffering", "datatype", "collective", "dataset", "container", "live",
)

#: functions whose every call (not just layer entries) is counted and
#: timed inclusively, keyed by ``module.qualname``
WATCHED = {
    "repro.core.convert.contiguous_runs": "core.contiguous_runs",
}

#: most spans kept in memory; later spans are counted, not stored
SPAN_CAP = 2_000_000

_MODULE_LAYER = {"repro.dataset.live": "live"}


def layer_of(module: str) -> str:
    """The ledger layer of a module name (``driver`` outside ``repro``)."""
    if module in _MODULE_LAYER:
        return _MODULE_LAYER[module]
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "driver"
    return parts[1]


class GcClock:
    """Counts collector runs and sums their pauses via ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._t0 = 0.0

    def _cb(self, phase, info):
        if phase == "start":
            self._t0 = clock()
        else:
            self.pause_s += clock() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._cb)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._cb)


class ThreadLedger:
    """What one thread measured. Only that thread writes to it, so the
    live server's worker threads need no lock on the hot path."""

    def __init__(self):
        self.stack: list = []  # open frames: [layer, child_s, span, request]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.watch_calls: dict[str, int] = defaultdict(int)
        self.watch_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.processes = 0
        self.dropped = 0
        self.names: dict[str, int] = {}
        self.columns = {
            "name": array("i"), "id": array("q"), "parent": array("q"),
            "req": array("q"), "start": array("d"), "end": array("d"),
            "self": array("d"),
        }

    def record(self, name, sid, parent, req, start, end, self_s) -> None:
        cols = self.columns
        if len(cols["id"]) >= SPAN_CAP:
            self.dropped += 1
            return
        nid = self.names.get(name)
        if nid is None:
            nid = self.names[name] = len(self.names)
        for key, value in zip(cols, (nid, sid, parent, req, start, end, self_s)):
            cols[key].append(value)


class Ledger:
    """Spans, self time and call counts per layer, plus layer counters,
    summed over the threads that recorded them."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.reset()

    def reset(self) -> None:
        """Forget everything measured so far (keep the wrappers)."""
        with self._lock:
            self._tls = threading.local()
            self._threads: list[ThreadLedger] = []

    def local(self) -> ThreadLedger:
        t = getattr(self._tls, "ledger", None)
        if t is None:
            t = self._tls.ledger = ThreadLedger()
            with self._lock:
                self._threads.append(t)
        return t

    def total(self, field: str) -> dict[str, float]:
        """One per-thread dict field, summed over threads."""
        out: dict[str, float] = defaultdict(float)
        with self._lock:
            for t in self._threads:
                for k, v in getattr(t, field).items():
                    out[k] += v
        return out

    @property
    def processes(self) -> int:
        with self._lock:
            return sum(t.processes for t in self._threads)

    def open_span(self, st: list) -> tuple[int, int, int]:
        """New span id, its parent span and its request id."""
        sid = next(self._ids)
        if st:
            top = st[-1]
            parent = top[2]
            req = sid if top[0] in ("sim", "driver") else top[3]
        else:
            parent, req = 0, sid
        return sid, parent, req

    def dump(self, path) -> int:
        """Write every thread's spans as one JSON document; returns the
        span count."""
        names: list[str] = []
        cols: dict[str, list] = defaultdict(list)
        dropped = 0
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            base = len(names)
            names.extend(sorted(t.names, key=t.names.get))
            for key, col in t.columns.items():
                cols[key].extend(
                    (v + base for v in col) if key == "name" else col)
            dropped += t.dropped
        with open(path, "w") as fh:
            json.dump({"names": names, "dropped": dropped,
                       "columns": list(cols), "spans": list(cols.values())}, fh)
        return len(cols["id"])


LEDGER = Ledger()
_WRAPPED = "__perfbench_wrapped__"


def _finish(t: ThreadLedger, frame, t0, layer):
    """Close one timed frame: charge self time, credit the parent."""
    el = clock() - t0
    st = t.stack
    st.pop()
    t.self_s[layer] += el - frame[1]
    if st:
        st[-1][1] += el
    return el


def timed_generator(gen, layer: str, name: str, span: tuple, start: float):
    """Drive ``gen`` unchanged, timing each resumption under ``layer``."""
    ledger = LEDGER
    sid, parent, req = span
    send, throw = gen.send, gen.throw
    value, exc = None, None
    total_self = 0.0
    while True:
        t = ledger.local()
        frame = [layer, 0.0, sid, req]
        t.stack.append(frame)
        t0 = clock()
        try:
            if exc is None:
                out = send(value)
            else:
                pending, exc = exc, None
                out = throw(pending)
        except StopIteration as stop:
            total_self += _finish(t, frame, t0, layer) - frame[1]
            t.record(name, sid, parent, req, start, clock(), total_self)
            return stop.value
        except BaseException:
            total_self += _finish(t, frame, t0, layer) - frame[1]
            t.record(name, sid, parent, req, start, clock(), total_self)
            raise
        total_self += _finish(t, frame, t0, layer) - frame[1]
        try:
            value = yield out
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as e:  # forwarded into the wrapped generator
            exc, value = e, None


_GEN_CODE = timed_generator.__code__


def wrap_function(fn, layer: str, name: str, after=None):
    """A timing wrapper for ``fn``; ``after(args, result)`` sees results."""
    if getattr(fn, _WRAPPED, False):
        return fn
    ledger = LEDGER
    watch = WATCHED.get(name)

    def wrapper(*args, **kw):
        t = ledger.local()
        st = t.stack
        if watch is not None:
            t.watch_calls[watch] += 1
            w0 = clock()
        entry = not st or st[-1][0] != layer
        if not entry and after is None and watch is None:
            return fn(*args, **kw)
        if entry:
            t.calls[layer] += 1
            span = ledger.open_span(st)
            frame = [layer, 0.0, span[0], span[2]]
        else:
            span = None
            frame = [layer, 0.0, st[-1][2], st[-1][3]]
        st.append(frame)
        t0 = clock()
        try:
            out = fn(*args, **kw)
        finally:
            _finish(t, frame, t0, layer)
            if watch is not None:
                t.watch_s[watch] += clock() - w0
        if type(out) is types.GeneratorType:
            if span is not None:
                out = timed_generator(out, layer, name, span, t0)
            if after is not None:
                out = _after_generator(out, args, after)
            return out
        if span is not None:
            t.record(name, span[0], span[1], span[2], t0, clock(),
                     clock() - t0 - frame[1])
        if after is not None:
            after(args, out)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = fn.__doc__
    setattr(wrapper, _WRAPPED, True)
    return wrapper


def _after_generator(gen, args, after):
    out = yield from gen
    after(args, out)
    return out


# -- counters taken at the layer boundary ------------------------------


def _count_batch(args, out):
    counters = LEDGER.local().counters
    counters["storage.batches"] += 1
    counters["storage.batch_segments"] += len(args[0])


def _count_plan(args, out):
    counters = LEDGER.local().counters
    counters["datatype.plans"] += 1
    counters["datatype.plan_runs"] += len(out.runs)


def _count_exchange(args, out):
    LEDGER.local().counters["collective.exchange_bytes"] += (
        args[0].last_exchange_bytes)


AFTER = {
    "repro.storage.layout.plan_batch": _count_batch,
    "repro.datatype.planner.plan_view_read": _count_plan,
    "repro.datatype.planner.plan_view_write": _count_plan,
    "repro.collective.twophase.CollectiveIO.read_at": _count_exchange,
    "repro.collective.twophase.CollectiveIO.write_at": _count_exchange,
}

#: instances created while tracing, by class name (counters read later)
INSTANCES: dict[str, list] = defaultdict(list)
_REGISTERED = (
    ("repro.devices.controller", "DeviceController"),
    ("repro.buffering.cache", "BufferCache"),
)


def _register(cls):
    init = cls.__init__

    def __init__(self, *args, **kw):
        init(self, *args, **kw)
        INSTANCES[cls.__name__].append(self)

    cls.__init__ = __init__


def _wrap_class(cls, layer: str) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        kind = type(raw)
        fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
        if type(fn) is not types.FunctionType or getattr(fn, _WRAPPED, False):
            continue
        name = f"{cls.__module__}.{fn.__qualname__}"
        w = wrap_function(fn, layer, name, AFTER.get(name))
        setattr(cls, attr, kind(w) if kind in (classmethod, staticmethod) else w)


def _wrap_sim() -> None:
    from repro.sim.engine import Environment

    ledger = LEDGER
    run = Environment.run
    process = Environment.process

    def traced_run(self, until=None):
        t = ledger.local()
        t.calls["sim"] += 1
        span = ledger.open_span(t.stack)
        frame = ["sim", 0.0, span[0], span[2]]
        t.stack.append(frame)
        t0 = clock()
        try:
            return run(self, until)
        finally:
            _finish(t, frame, t0, "sim")
            t.record("repro.sim.engine.Environment.run", span[0], span[1],
                     span[2], t0, clock(), clock() - t0 - frame[1])

    def traced_process(self, generator, name=None):
        t = ledger.local()
        t.processes += 1
        code = getattr(generator, "gi_code", None)
        if code is not None and code is not _GEN_CODE:
            module = generator.gi_frame.f_globals.get("__name__", "")
            pname = f"{module}.{code.co_qualname}"
            name = name or generator.__name__
            span = ledger.open_span(t.stack)
            generator = timed_generator(
                generator, layer_of(module), pname, span, clock())
        return process(self, generator, name)

    traced_run.__wrapped__ = run
    traced_process.__wrapped__ = process
    Environment.run = traced_run
    Environment.process = traced_process


def install() -> None:
    """Wrap every layer's public surface (once per process)."""
    import repro  # noqa: F401  (loads every layer package)

    for pkg in LAYERS:
        importlib.import_module(f"repro.{pkg}")
    for modname, clsname in _REGISTERED:
        _register(getattr(importlib.import_module(modname), clsname))
    replaced: dict[int, object] = {}
    modules = [
        m for name, m in list(sys.modules.items())
        if name.startswith("repro.") and m is not None
    ]
    for mod in modules:
        layer = layer_of(mod.__name__)
        if layer not in LAYERS:
            continue
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name, None)
            if obj is None or getattr(obj, "__module__", None) != mod.__name__:
                continue  # re-exports are wrapped where they are defined
            if isinstance(obj, type):
                if issubclass(obj, BaseException):
                    continue
                _wrap_class(obj, layer)
            elif type(obj) is types.FunctionType:
                qual = f"{mod.__name__}.{obj.__qualname__}"
                replaced[id(obj)] = (obj, wrap_function(
                    obj, layer, qual, AFTER.get(qual)))
    # module functions are bound by name wherever they were imported
    for mod in modules:
        namespace = vars(mod)
        for key, val in list(namespace.items()):
            hit = replaced.get(id(val))
            if hit is not None and hit[0] is val:
                namespace[key] = hit[1]
    _wrap_sim()
