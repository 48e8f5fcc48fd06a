"""The three simulated workloads: inputs from a seed, drivers, output checks.

Each workload is a class with three phases that a measured pass calls in
order:

* ``setup()`` builds the stack and creates and seeds the files (timed as
  ``setup_s``; repeated, and the last copy is kept);
* ``run()`` spawns the drivers and runs the simulation (timed as
  ``run_s``);
* ``check()`` compares stored and read bytes with a numpy model the
  benchmark builds, and returns the simulated metrics, the request
  counts and a digest of everything simulated.

Drivers time the simulated latency of every public read/write call they
make. Only the default engine configuration and the public APIs of
``repro.perf.workloads``, ``repro.dataset`` and ``repro.collective`` are
used.
"""

from __future__ import annotations

import hashlib
import shutil
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro import build_parallel_fs
from repro.dataset import Dataset, DatasetSchema, LiveDataset
from repro.live import LiveParallelFileSystem
from repro.devices import TransientFaultInjector
from repro.fs import (
    DirectHandle,
    GlobalViewHandle,
    OwnedDirectHandle,
    PartitionHandle,
    SequentialHandle,
    SSHandle,
)
from repro.perf import ORGS, WorkloadConfig, fs_digest, make_file, spawn_workload
from repro.qos import QoSConfig
from repro.resilience import ResilienceConfig
from repro.sim import Environment, RngStreams


def percentile_ms(lat: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(lat, dtype=np.float64), q)) * 1e3


class SimWorkload:
    """Shared bookkeeping: simulated latencies, user bytes, failures."""

    name = ""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.lat: list[float] = []
        self.user_bytes = 0
        self.failed = 0
        self.done_at = 0.0  # simulated seconds until the drivers finished
        self.envs: list[Environment] = []
        self.systems: list = []

    def metrics(self) -> dict[str, float]:
        n = len(self.lat)
        return {
            "mb_per_s": self.user_bytes / self.done_at / 1e6,
            "req_p50_ms": percentile_ms(self.lat, 50),
            "req_p99_ms": percentile_ms(self.lat, 99),
            "req_per_s": n / self.done_at,
        }

    def fold(self, h) -> str:
        """Digest of the simulated outcome: metrics, counters, media."""
        h.update(repr(sorted(self.metrics().items())).encode())
        h.update(repr([(e.steps, float(e.now)) for e in self.envs]).encode())
        return h.hexdigest()


# -- many_clients ------------------------------------------------------------


def records_of(ids: np.ndarray, salt: int, record_size: int) -> np.ndarray:
    """Position-derived records: id in the first 4 bytes, then a pattern."""
    ids = np.asarray(ids, dtype=np.int64)
    out = np.empty((ids.size, record_size), dtype=np.uint8)
    out[:, :4] = ids.astype("<u4").view(np.uint8).reshape(-1, 4)
    k = np.arange(4, record_size, dtype=np.int64)
    out[:, 4:] = (ids[:, None] * 31 + k[None, :] * 7 + salt) % 251
    return out


class ManyClients(SimWorkload):
    """Closed loop: one record per client, two think/read/write rounds.

    The single-heap topology of the engine scale bench: four bare
    2-device PS file systems in one ``Environment``.
    """

    name = "many_clients"
    SHARDS, DEVICES, ROUNDS, RECORD = 4, 2, 2, 32

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.clients = 256 if quick else 8192
        # think times in [1 ms, 51 ms): before each read and each write
        self.think = self.rng.uniform(
            0.001, 0.051, size=(self.clients, 2 * self.ROUNDS)
        )
        ids = np.arange(self.clients)
        self.salts = [int(s) for s in self.rng.integers(0, 251, self.ROUNDS + 1)]
        self.initial = records_of(ids, self.salts[0], self.RECORD)
        self.payloads = [
            records_of(ids, self.salts[r + 1], self.RECORD)
            for r in range(self.ROUNDS)
        ]

    def setup(self):
        env = Environment()
        per = self.clients // self.SHARDS
        self.env, self.envs, self.systems, self.files = env, [env], [], []
        for i in range(self.SHARDS):
            pfs = build_parallel_fs(env, self.DEVICES)
            f = pfs.create(
                "clients", "PS", n_records=per, record_size=self.RECORD,
                records_per_block=1, n_processes=per,
            )
            raw = self.initial[i * per:(i + 1) * per].reshape(-1)
            f.volume.poke(f.entry.extent, f.layout, 0, raw)
            self.systems.append(pfs)
            self.files.append(f)

    def _client(self, f, p: int, cid: int):
        env, lat, think = self.env, self.lat, self.think[cid]
        expect = self.initial[cid]
        for r in range(self.ROUNDS):
            yield env.sleep(think[2 * r])
            h = f.internal_view(p)
            t = env.now
            got = yield from h.read_next(1)
            lat.append(env.now - t)
            self.user_bytes += got.nbytes
            if not np.array_equal(got.reshape(-1), expect):
                self.failed += 1
            yield env.sleep(think[2 * r + 1])
            w = f.internal_view(p)
            payload = self.payloads[r][cid:cid + 1]
            t = env.now
            yield from w.write_next(payload)
            lat.append(env.now - t)
            self.user_bytes += payload.nbytes
            expect = payload[0]
        self.done_at = max(self.done_at, env.now)

    def run(self):
        per = self.clients // self.SHARDS
        for i, f in enumerate(self.files):
            for p in range(per):
                self.env.process(self._client(f, p, i * per + p))
        self.env.run()

    def check(self) -> dict:
        per = self.clients // self.SHARDS
        h = hashlib.sha256()
        for i, (pfs, f) in enumerate(zip(self.systems, self.files)):
            media = f.volume.peek(f.entry.extent, f.layout, 0, f.attrs.file_bytes)
            want = self.payloads[-1][i * per:(i + 1) * per].reshape(-1)
            wrong = media.reshape(per, -1) != want.reshape(per, -1)
            self.failed += int(np.count_nonzero(wrong.any(axis=1)))
            h.update(fs_digest(pfs, [f]).encode())
        attempted = len(self.lat) + self.SHARDS
        return {"attempted": attempted, "failed": self.failed,
                "digest": self.fold(h)}


# -- full_stack_orgs -----------------------------------------------------------


def workload_payload(count: int, record_size: int, salt: int) -> np.ndarray:
    """The write pattern of ``repro.perf.workloads``: records derived from
    a position salt."""
    flat = (np.arange(count * record_size, dtype=np.uint64) * 7 + salt) % 251
    return flat.astype(np.uint8).reshape(count, record_size)


HANDLE_CLASSES = (
    SequentialHandle, PartitionHandle, SSHandle, DirectHandle,
    OwnedDirectHandle, GlobalViewHandle,
)
PROBED = ("read_next", "write_next", "read_record", "write_record", "flush")


class RequestProbe:
    """Times every public handle read/write call in simulated time.

    ``repro.perf.workloads`` owns the driver loops of this workload, so the
    benchmark wraps the handle methods they use: each call first sleeps
    the workload's next seeded think time, then runs the method unchanged
    and is timed from there to its return.
    """

    def __init__(self):
        self.workload: FullStackOrgs | None = None
        self.installed = False

    def install(self):
        if self.installed:
            return
        self.installed = True
        done = set()
        for cls in HANDLE_CLASSES:
            for klass in cls.__mro__:
                for attr in PROBED:
                    fn = vars(klass).get(attr)
                    if fn is not None and (klass, attr) not in done:
                        done.add((klass, attr))
                        setattr(klass, attr, self._wrap(fn, attr))

    def _wrap(self, fn, attr):
        probe = self
        is_read = attr.startswith("read")

        def timed(handle, *args, **kw):
            wl = probe.workload
            if wl is None:
                return (yield from fn(handle, *args, **kw))
            env = wl.env
            yield env.sleep(wl.think())
            t = env.now
            out = yield from fn(handle, *args, **kw)
            if out is None and attr != "flush":  # SS session exhausted
                return out
            wl.lat.append(env.now - t)
            if is_read:
                wl.observe_read(handle, args, out)
            elif attr != "flush":
                wl.user_bytes += np.asarray(args[-1]).nbytes
            return out

        timed.__wrapped__ = fn
        timed.__name__ = fn.__name__
        timed.__qualname__ = fn.__qualname__
        return timed


PROBE = RequestProbe()


class FullStackOrgs(SimWorkload):
    """Closed loop: the six-org read-then-write passes, 4 processes each.

    Each organization runs on its own copy of the full stack: 4 devices
    behind 2 I/O nodes, parity resilience with one spare, QoS and
    ``batch_io``. A fixed transient-error schedule is injected on three
    devices, and every request is preceded by a seeded think time.
    """

    name = "full_stack_orgs"
    ERRORS = ((0, 0.05), (1, 0.20), (2, 0.40))  # (device, simulated time)
    BURST = 3
    THINK_MEAN = 0.0005  # seconds

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.cfg = WorkloadConfig(n_records=480 if quick else 15360)
        self.thinks = self.rng.exponential(self.THINK_MEAN, size=1 << 16)
        self.n_thinks = 0
        self.records_read: dict[str, np.ndarray] = {}

    def think(self) -> float:
        t = self.thinks[self.n_thinks % len(self.thinks)]
        self.n_thinks += 1
        return float(t)

    def setup(self):
        self.envs, self.systems, self.files = [], [], []
        for org in ORGS:
            env = Environment()
            pfs = build_parallel_fs(
                env, 4, io_nodes=2,
                resilience=ResilienceConfig(protection="parity", spares=1),
                qos=QoSConfig(), batch_io=True,
            )
            self.envs.append(env)
            self.systems.append(pfs)
            self.files.append(make_file(pfs, org, self.cfg))

    def run(self):
        PROBE.install()
        PROBE.workload = self
        for env, pfs, f in zip(self.envs, self.systems, self.files):
            self.env = env
            inj = TransientFaultInjector(env, RngStreams(self.seed))
            for dev, at in self.ERRORS:
                inj.inject_errors(pfs.volume.devices[dev], count=self.BURST, at=at)
            env.run(env.all_of(spawn_workload(f, self.cfg)))
            self.done_at += env.now
            env.run()
        PROBE.workload = None

    def observe_read(self, handle, args, out):
        start = None
        if isinstance(out, tuple):  # SS: (block, records)
            start = out[0] * self.cfg.records_per_block
            out = out[1]
        elif len(args) == 2:  # read_record(record, count)
            start = int(args[0])
        rows = np.asarray(out).reshape(-1, self.cfg.record_size)
        self.user_bytes += rows.nbytes
        first = rows[:, 0].astype(np.int64)
        ramp = np.arange(self.cfg.record_size, dtype=np.int64)
        well_formed = (first[:, None] + ramp[None, :]) % 251 == rows
        if not well_formed.all():
            self.failed += 1
        counts = self.records_read.setdefault(
            handle.file.name, np.zeros(251, np.int64))
        np.add.at(counts, first, 1)
        if start is not None:  # the position is known: check it too
            want = ((np.arange(start, start + len(rows)) * self.cfg.record_size)
                    % 251)
            if not np.array_equal(first, want):
                self.failed += 1

    def expected(self, org: str, f) -> tuple[np.ndarray, np.ndarray | None]:
        """Final records of ``org``'s file, and SS's per-block candidates."""
        cfg = self.cfg
        n, rs, P, span = cfg.n_records, cfg.record_size, cfg.n_processes, cfg.records_per_block
        out = np.zeros((n, rs), dtype=np.uint8)
        if org == "S":
            for pos in range(0, n, cfg.chunk):
                c = min(cfg.chunk, n - pos)
                out[pos:pos + c] = workload_payload(c, rs, pos)
        elif org in ("PS", "IS"):
            for p in range(P):
                local_n = f.map.n_local_records(p)
                for pos in range(0, local_n, cfg.chunk):
                    c = min(cfg.chunk, local_n - pos)
                    rows = workload_payload(c, rs, p * 131 + pos)
                    for k in range(c):
                        out[f.map.local_to_global(p, pos + k)] = rows[k]
        elif org == "SS":
            cands = np.stack([workload_payload(span, rs, p * 17 + 5) for p in range(P)])
            return out, cands
        elif org == "GDA":
            for r in range(0, n, span):
                out[r:r + span] = workload_payload(span, rs, r)
        elif org == "PDA":
            for first in range(0, n, span):
                c = min(span, n - first)
                out[first:first + c] = workload_payload(c, rs, first)
        return out, None

    def check(self) -> dict:
        cfg = self.cfg
        h = hashlib.sha256()
        seeded = (np.arange(cfg.n_records, dtype=np.int64) * cfg.record_size) % 251
        want_counts = np.bincount(seeded, minlength=251)
        for org, pfs, f in zip(ORGS, self.systems, self.files):
            media = f.volume.peek(f.entry.extent, f.layout, 0, f.attrs.file_bytes)
            media = np.asarray(media).reshape(cfg.n_records, cfg.record_size)
            want, cands = self.expected(org, f)
            if cands is None:
                bad = not np.array_equal(media, want)
                self.failed += int(bad)
            else:  # SS: each block holds some worker's payload
                per_block = media.reshape(-1, 1, cfg.records_per_block, cfg.record_size)
                ok = (per_block == cands[None]).all(axis=(2, 3)).any(axis=1)
                self.failed += int(np.count_nonzero(~ok))
            got_counts = self.records_read.get(f.name, np.zeros(251, np.int64))
            if not np.array_equal(got_counts, want_counts):
                self.failed += 1
            h.update(fs_digest(pfs, [f]).encode())
            h.update(repr(pfs.resilience.stats.counters()).encode())
        attempted = len(self.lat) + len(ORGS) * 2
        return {"attempted": attempted, "failed": self.failed,
                "digest": self.fold(h)}


# -- strided_slabs -------------------------------------------------------------


def grid_values(rows, cols, salt: int) -> np.ndarray:
    """Position-derived grid values for (rows x cols) index arrays."""
    return (np.add.outer(rows * 4096, cols) + salt * 2**24).astype("<f8")


class StridedSlabs(SimWorkload):
    """Closed loop: 4 processes of column-block and row slabs on a 2-D grid,
    then collective rounds, then the same slabs on the live backend.

    A sim ``Dataset`` holds a ``<f8`` grid in an IS container striped over
    4 devices with ``batch_io``. Each process owns a band of rows for its
    writes; its reads of that band are checked exactly. Afterwards 4
    threads replay the first ``LIVE_OPS`` slab calls of each process's
    plan on a ``LiveDataset`` of the same grid in host files, which is what
    the live layer's own planner path costs without a server in front.
    """

    name = "strided_slabs"
    P = 4
    KINDS = ("list_read", "sieve_read", "sieve_write", "row_write")
    MIX = (0.30, 0.25, 0.20, 0.25)
    LIVE_OPS = 256

    def __init__(self, seed: int, quick: bool, scratch: Path):
        super().__init__(seed, quick)
        self.scratch = scratch
        self.n = 32 if quick else 256
        self.ops_per_process = 8 if quick else 1024
        self.coll_rounds = 1 if quick else 2
        n, band = self.n, self.n // self.P
        self.initial = grid_values(np.arange(n), np.arange(n), 1 + seed % 97)
        # a fixed share of each kind per process, in a seeded order
        shares = np.repeat(np.arange(len(self.KINDS)),
                           np.round(np.array(self.MIX) * self.ops_per_process
                                    ).astype(int))
        self.plan = []
        for p in range(self.P):
            ops = []
            for k in self.rng.permutation(shares):
                kind = self.KINDS[int(k)]
                h = int(self.rng.integers(band // 8, band // 4 + 1))
                w = int(self.rng.integers(4, 13))
                r0 = p * band + int(self.rng.integers(0, band - h + 1))
                c0 = int(self.rng.integers(0, n - w + 1))
                if kind == "row_write":
                    h = int(self.rng.integers(1, 3))
                    r0 = p * band + int(self.rng.integers(0, band - h + 1))
                    c0, w = 0, n
                ops.append((kind, r0, c0, h, w))
            self.plan.append(ops)

    def setup(self):
        n = self.n
        env = Environment()
        pfs = build_parallel_fs(env, 4, batch_io=True)
        schema = DatasetSchema.build(
            {"row": n, "col": n}, {"grid": ("<f8", ("row", "col"))}
        )
        box = {}

        def create():
            box["ds"] = yield from Dataset.create(
                pfs, "grid", schema, org="IS", writers=self.P,
                data={"grid": self.initial},
            )

        env.run(env.process(create()))
        self.env, self.envs, self.systems, self.ds = env, [env], [pfs], box["ds"]
        self.model = self.initial.copy()
        self.close_live()
        self.live = LiveDataset.create(
            LiveParallelFileSystem(self.scratch), "grid", schema, org="IS",
            n_processes=self.P, data={"grid": self.initial},
        )
        self.live_model = self.initial.copy()

    def close_live(self):
        """Close the live dataset of the last set-up and delete its files."""
        if getattr(self, "live", None) is not None:
            self.live.close()
            self.live = None
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _timed(self, gen, nbytes: int):
        env = self.env
        t = env.now
        out = yield from gen
        self.lat.append(env.now - t)
        self.user_bytes += nbytes
        return out

    def _worker(self, p: int):
        ds, model = self.ds, self.model
        for k, (kind, r0, c0, h, w) in enumerate(self.plan[p]):
            start, count = (r0, c0), (h, w)
            box = (slice(r0, r0 + h), slice(c0, c0 + w))
            if kind in ("list_read", "sieve_read"):
                got = yield from self._timed(
                    ds.read_slab("grid", start, count, sieve=kind == "sieve_read"),
                    h * w * 8,
                )
                if not np.array_equal(got, model[box]):
                    self.failed += 1
            else:
                vals = grid_values(np.arange(r0, r0 + h), np.arange(c0, c0 + w),
                                   100 + 7 * p + k)
                yield from self._timed(
                    ds.write_slab("grid", start, count, vals,
                                  sieve=kind == "sieve_write"),
                    vals.nbytes,
                )
                model[box] = vals

    def _collective(self):
        n, P, ds = self.n, self.P, self.ds
        width = n // P
        for r in range(self.coll_rounds):
            shift = int(self.rng.integers(0, width))
            slabs = [((0, (q * width + shift) % (n - width)), (n, width))
                     for q in range(P)]
            parts = yield from self._timed(
                ds.read_slab_all("grid", slabs), P * n * width * 8
            )
            for q, ((r0, c0), (h, w)) in enumerate(slabs):
                if not np.array_equal(parts[q], self.model[r0:r0 + h, c0:c0 + w]):
                    self.failed += 1
            # disjoint write slabs: one row band per process
            band = n // P
            wslabs = [((q * band, 0), (band, n)) for q in range(P)]
            vals = [grid_values(np.arange(q * band, (q + 1) * band),
                                np.arange(n), 500 + r) for q in range(P)]
            yield from self._timed(
                ds.write_slab_all("grid", wslabs, vals), n * n * 8
            )
            for q in range(P):
                self.model[q * band:(q + 1) * band] = vals[q]

    def _live_worker(self, p: int) -> int:
        """Replay process ``p``'s first slab calls on the live backend;
        returns the number of wrong reads."""
        ds, model, wrong = self.live, self.live_model, 0
        for k, (kind, r0, c0, h, w) in enumerate(self.plan[p][:self.LIVE_OPS]):
            start, count = (r0, c0), (h, w)
            box = (slice(r0, r0 + h), slice(c0, c0 + w))
            if kind in ("list_read", "sieve_read"):
                got = ds.read_slab("grid", start, count, sieve=kind == "sieve_read")
                wrong += not np.array_equal(got, model[box])
            else:
                vals = grid_values(np.arange(r0, r0 + h), np.arange(c0, c0 + w),
                                   100 + 7 * p + k)
                ds.write_slab("grid", start, count, vals,
                              sieve=kind == "sieve_write")
                model[box] = vals  # only thread ``p`` touches its band
        return wrong

    def run(self):
        env = self.env
        t0 = env.now

        def main():
            procs = [env.process(self._worker(p)) for p in range(self.P)]
            yield env.all_of(procs)
            yield from self._collective()

        env.run(env.process(main()))
        self.done_at = env.now - t0
        with ThreadPoolExecutor(self.P) as pool:
            self.failed += sum(pool.map(self._live_worker, range(self.P)))

    def check(self) -> dict:
        box = {}

        def verify():
            box["grid"] = yield from self.ds.read_variable("grid")

        self.env.run(self.env.process(verify()))
        grid = box["grid"]
        live_grid = self.live.read_variable("grid")
        self.close_live()
        self.failed += int(not np.array_equal(grid, self.model))
        self.failed += int(not np.array_equal(live_grid, self.live_model))
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(grid).tobytes())
        h.update(np.ascontiguousarray(live_grid).tobytes())
        h.update(fs_digest(self.systems[0], [self.ds.file]).encode())
        live_ops = sum(len(ops[:self.LIVE_OPS]) for ops in self.plan)
        attempted = len(self.lat) + live_ops + 2
        return {"attempted": attempted, "failed": self.failed,
                "digest": self.fold(h)}


SIM_WORKLOADS = {
    cls.name: cls for cls in (ManyClients, FullStackOrgs, StridedSlabs)
}
