"""live_serve: a DatasetServer in its own process, driven on a schedule.

The server process (``python3 perfbench/livework.py serve ...``) creates a
seeded ``LiveDataset`` grid, starts a ``DatasetServer`` and prints
``READY <port>``. It serves until its stdin closes, then prints one JSON
line: its peak RSS, its server stats, its ``gc`` pauses and, when traced,
the per-layer metrics of its own calls into ``live`` (``LiveDataset`` and
``LiveParallelFile`` slab and view calls), ``datatype``, ``qos`` and the
other wrapped layers.

The client side (:func:`run_segment`) runs in the benchmark's process
over 2 connections. Each connection owns a disjoint band of rows: it
writes only there and reads only there, so its reads are checked exactly
against its own numpy model; the whole grid is checked once at the end of
each segment. A segment measures a closed-loop batch of the mix (host
``run_s`` and ``mb_per_s``), then an open loop at one fixed rate, where
every request is timed from when it was due.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CONNECTIONS = 2
#: op mix of the schedule: row read, row write, column read
MIX = (("row_read", 0.70), ("row_write", 0.20), ("col_read", 0.10))
#: the fixed open-loop rates (req/s), one per segment, and the share of
#: the open-loop time each gets: light, middle, heavy. The mix's
#: closed-loop capacity is about 1500 req/s on 2 vCPUs.
RATES = (150, 400, 600)
SHARES = (0.2, 0.5, 0.3)
MIDDLE = 1
#: latency limit on the open-loop p99 (ms)
P99_LIMIT_MS = 100.0
#: closed-loop requests timed together (run_s is the time of one sub-batch)
SUB_BATCH = 1000
#: a request that takes longer than this counts as failed
TIMEOUT_S = 10.0
TENANT = ("bench", 64e6, 4e6)  # name, bytes/s, burst bytes


def grid_values(rows, cols, salt: int) -> np.ndarray:
    return (np.add.outer(np.asarray(rows) * 4096, np.asarray(cols))
            + salt * 2**24).astype("<f8")


# -- server process ------------------------------------------------------------


def serve(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--salt", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracing

    if args.trace:
        tracing.install()
    from repro.dataset import DatasetSchema, LiveDataset
    from repro.live import LiveParallelFileSystem
    from repro.live.server import DatasetServer

    n = args.n
    lfs = LiveParallelFileSystem(args.root)
    schema = DatasetSchema.build({"row": n, "col": n},
                                 {"grid": ("<f8", ("row", "col"))})
    LiveDataset.create(lfs, "grid", schema, org="IS", n_processes=CONNECTIONS,
                       data={"grid": grid_values(range(n), range(n), args.salt)}
                       ).close()

    async def main():
        server = DatasetServer(lfs, tenants={TENANT[0]: TENANT[1:]})
        await server.start()
        print(f"READY {server.port}", flush=True)
        loop = asyncio.get_running_loop()
        tracing.LEDGER.reset()
        with tracing.GcClock() as gcc:
            await loop.run_in_executor(None, sys.stdin.read)
            stats = server.stats()
            await server.stop()
        return stats, gcc

    stats, gcc = asyncio.run(main())
    out = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stats": stats,
        "gc": {"pause_s": gcc.pause_s, "collections": gcc.collections,
               "cyclic_objs": gc.collect()},
    }
    if args.trace:
        led = tracing.LEDGER
        counters = led.total("counters")
        out["layers"] = {
            **{f"{k}.self_s": v for k, v in led.total("self_s").items()},
            **{f"{k}.calls": v for k, v in led.total("calls").items()},
            "datatype.plans": counters["datatype.plans"],
            "datatype.plan_runs": counters["datatype.plan_runs"],
        }
        if args.spans:
            out["spans"] = led.dump(args.spans)
    print(json.dumps(out), flush=True)
    return 0


class Server:
    """The server child process, started and stopped by the client side."""

    def __init__(self, root: Path, n: int, salt: int, trace: bool):
        self.root = root
        shutil.rmtree(root, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(SRC), MALLOC_MMAP_THRESHOLD_="131072")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "livework.py"), "serve",
             "--root", str(root), "--n", str(n), "--salt", str(salt),
             "--trace", str(int(trace)),
             *(["--spans", str(root.parent / "spans-live_serve.json")]
               if trace else [])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not line.startswith("READY "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> dict:
        try:
            out, _ = self.proc.communicate(input="", timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            shutil.rmtree(self.root, ignore_errors=True)
        return json.loads(out.strip().splitlines()[-1])


# -- client side ---------------------------------------------------------------


class Connection:
    """One client connection with its own row band and numpy model."""

    def __init__(self, client, index: int, n: int, model: np.ndarray):
        self.c = client
        self.n = n
        self.band = (index * n // CONNECTIONS, (index + 1) * n // CONNECTIONS)
        self.model = model  # the whole grid; this connection owns its band
        self.failed = 0
        self.bytes = 0
        self.lat: list[float] = []  # closed-loop round trips, seconds

    async def do(self, op) -> None:
        kind, row, col, salt = op
        t0 = time.perf_counter()
        n, (lo, hi) = self.n, self.band
        try:
            if kind == "row_read":
                got = await asyncio.wait_for(
                    self.c.read("grid", "grid", (row, 0), (1, n)), TIMEOUT_S)
                ok = np.array_equal(got, self.model[row:row + 1])
            elif kind == "col_read":
                got = await asyncio.wait_for(
                    self.c.read("grid", "grid", (lo, col), (hi - lo, 1)),
                    TIMEOUT_S)
                ok = np.array_equal(got, self.model[lo:hi, col:col + 1])
            else:
                vals = grid_values([row], range(n), salt)
                await asyncio.wait_for(
                    self.c.write("grid", "grid", (row, 0), (1, n), vals),
                    TIMEOUT_S)
                self.model[row:row + 1] = vals
                ok = True
            self.bytes += (hi - lo) * 8 if kind == "col_read" else n * 8
        except (asyncio.TimeoutError, RuntimeError, ConnectionError, OSError):
            ok = False
        self.lat.append(time.perf_counter() - t0)
        if not ok:
            self.failed += 1


def make_ops(rng, conn: int, n: int, count: int, salt0: int) -> list:
    """``count`` ops of the mix for connection ``conn`` (rows of its band)."""
    lo, hi = conn * n // CONNECTIONS, (conn + 1) * n // CONNECTIONS
    kinds = rng.choice(len(MIX), size=count, p=[w for _, w in MIX])
    rows = rng.integers(lo, hi, size=count)
    cols = rng.integers(0, n, size=count)
    return [(MIX[int(k)][0], int(r), int(c), salt0 + i)
            for i, (k, r, c) in enumerate(zip(kinds, rows, cols))]


async def _closed_loop(conns, ops_per_conn) -> float:
    t0 = time.perf_counter()

    async def worker(conn, ops):
        for op in ops:
            await conn.do(op)

    await asyncio.gather(*(worker(c, ops) for c, ops in zip(conns, ops_per_conn)))
    return time.perf_counter() - t0


async def _open_loop(conns, schedules) -> dict:
    """Each connection sends its ops at their due times (host clock)."""
    t0 = time.perf_counter() + 0.05
    lat, lag, backlog, last_late = [], [], [0], [0.0]

    async def worker(conn, sched):
        dues = [t0 + d for d, _ in sched]
        for k, (due, (_, op)) in enumerate(zip(dues, sched)):
            now = time.perf_counter()
            if now < due:
                await asyncio.sleep(due - now)
                lag.append(time.perf_counter() - due)
            else:  # behind: count due-but-unsent requests
                backlog[0] = max(backlog[0], bisect.bisect_right(dues, now) - k)
            sent = time.perf_counter()
            await conn.do(op)
            lat.append(time.perf_counter() - due)
            if k == len(sched) - 1:
                last_late[0] = max(last_late[0], sent - due)

    await asyncio.gather(*(worker(c, s) for c, s in zip(conns, schedules)))
    end = time.perf_counter()
    return {"lat": lat, "lag": lag, "backlog_max": backlog[0],
            "last_late_s": last_late[0], "span_s": end - t0}


def latency_ms(lat: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(lat) * 1e3, q))


def meets_limit(phase: dict) -> bool:
    """p99 within the limit, no growing backlog, no failed request."""
    return (latency_ms(phase["lat"], 99) <= P99_LIMIT_MS
            and phase["last_late_s"] * 1e3 <= P99_LIMIT_MS
            and not phase["failed"])


async def _segment(port, n, rng, phases, batch, model):
    from repro.live.server import DatasetClient

    clients = [await DatasetClient.connect("127.0.0.1", port, tenant=TENANT[0])
               for _ in range(CONNECTIONS)]
    conns = [Connection(c, i, n, model) for i, c in enumerate(clients)]
    # warm-up: the server opens the dataset lazily on first use
    await _closed_loop(conns, [make_ops(rng, i, n, 50, 10_000)
                               for i in range(CONNECTIONS)])
    # the closed loop, in sub-batches of SUB_BATCH requests
    subs = []
    for k in range(batch // SUB_BATCH):
        before = sum(c.bytes for c in conns)
        for c in conns:
            c.lat.clear()
        per = SUB_BATCH // CONNECTIONS
        took = await _closed_loop(
            conns, [make_ops(rng, i, n, per, 20_000 + 1000 * k)
                    for i in range(CONNECTIONS)])
        subs.append({"run_s": took,
                     "bytes": sum(c.bytes for c in conns) - before,
                     "lat": [x for c in conns for x in c.lat]})
    attempted = 2 * 50 + batch + 1
    results = []
    for k, (rate, seconds) in enumerate(phases):
        # arrivals of a Poisson process at ``rate``, conditioned on its
        # count, split over the connections
        count = int(rate * seconds)
        dues = np.sort(rng.uniform(0.0, seconds, size=count))
        who = rng.integers(0, CONNECTIONS, size=count)
        schedules = []
        for i in range(CONNECTIONS):
            mine = dues[who == i]
            ops = make_ops(rng, i, n, len(mine), 30_000 + 10_000 * k)
            schedules.append(list(zip(mine.tolist(), ops)))
        failed0 = sum(c.failed for c in conns)
        res = await _open_loop(conns, schedules)
        res.update(rate=rate, sent=count,
                   failed=sum(c.failed for c in conns) - failed0)
        results.append(res)
        attempted += count
    # the whole grid, once, against the union of the connections' models
    whole = await clients[0].read("grid", "grid", (0, 0), (n, n))
    grid_ok = bool(np.array_equal(whole, model))
    for c in clients:
        await c.close()
    return {"closed": subs, "phases": results, "attempted": attempted,
            "failed": sum(c.failed for c in conns) + (not grid_ok)}


def run_segment(out_dir: Path, seed: int, phases, batch: int, n: int,
                trace: bool, tag: str) -> dict:
    """Start a server, measure one segment of ``(rate, seconds)`` phases,
    stop the server."""
    rng = np.random.default_rng([seed, sum(map(ord, tag)), 7])
    salt = 1 + seed % 97
    model = grid_values(range(n), range(n), salt)
    server = Server(out_dir / f"live-{tag}-{os.getpid()}", n, salt, trace)
    try:
        res = asyncio.run(_segment(server.port, n, rng, phases, batch, model))
    finally:
        srv = server.stop()
    res["setup_s"] = server.setup_s
    res["server"] = srv
    return res


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "serve":
        sys.exit(serve(sys.argv[2:]))
    sys.exit("usage: livework.py serve --root DIR --n N --salt S [--trace 0|1]")
