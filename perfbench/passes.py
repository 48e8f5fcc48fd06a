"""One measured pass of a simulated workload, in a fresh process.

    python3 perfbench/passes.py <workload> --seed N [--trace 0|1] [--quick]
        [--setups K] [--spans PATH]

Prints one JSON object: host times (``setup_s`` is the median of at
least ``K`` set-ups), peak RSS, the simulated metrics, the digest, the request
counts and, with ``--trace 1``, the per-layer metrics of the run phase.
``run.py`` starts this script once per pass, so every pass begins with a
fresh interpreter and its own peak RSS.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from tracing import INSTANCES, LEDGER  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pct(stat, q: float) -> float:
    return stat.percentile(q) * 1e3 if stat.count else 0.0


def device_snapshot() -> dict[str, float]:
    """Cumulative device counters, summed over every drive built."""
    out = dict.fromkeys(("requests", "bytes", "seeks", "seek_distance"), 0.0)
    for d in INSTANCES["DeviceController"]:
        out["requests"] += d.disk.total_requests
        out["bytes"] += d.disk.total_bytes
        out["seeks"] += d.disk.total_seeks
        out["seek_distance"] += d.disk.total_seek_distance
    return out


def layer_metrics(wl, before: dict, gc_clock, cyclic: int) -> dict[str, float]:
    """The per-layer metrics of one traced run phase."""
    m: dict[str, float] = {}
    self_s, calls = LEDGER.total("self_s"), LEDGER.total("calls")
    for layer in ("sim",) + tracing.LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        m[f"{layer}.calls"] = calls.get(layer, 0)
    m["sim.events"] = sum(e.steps for e in wl.envs)
    m["sim.processes"] = LEDGER.processes
    m["gc.pause_s"] = gc_clock.pause_s
    m["gc.collections"] = gc_clock.collections
    m["gc.cyclic_objs"] = cyclic
    m["core.contiguous_runs_calls"] = LEDGER.total("watch_calls").get(
        "core.contiguous_runs", 0)
    m["core.contiguous_runs_s"] = LEDGER.total("watch_s").get(
        "core.contiguous_runs", 0.0)
    c = LEDGER.total("counters")
    m["storage.segments_per_batch"] = (
        c["storage.batch_segments"] / c["storage.batches"] if c["storage.batches"] else 0.0
    )
    m["datatype.runs_per_plan"] = (
        c["datatype.plan_runs"] / c["datatype.plans"] if c["datatype.plans"] else 0.0
    )
    m["collective.exchange_bytes"] = c["collective.exchange_bytes"]

    after = device_snapshot()
    for k, v in after.items():
        m[f"devices.{k}"] = v - before[k]
    devs = [d for d in INSTANCES["DeviceController"] if d.latency.count]
    served = sum(d.latency.count for d in devs)
    m["devices.service_ms"] = (
        sum(d.latency.total for d in devs) / served * 1e3 if served else 0.0
    )
    waits = [d.wait_stat for d in devs if d.wait_stat.count]
    m["devices.queue_wait_p50_ms"] = (
        statistics.median(_pct(w, 50) for w in waits) if waits else 0.0
    )
    m["devices.queue_wait_p99_ms"] = max((_pct(w, 99) for w in waits), default=0.0)
    qlen = [d.queue_stat.mean(d.env.now) for d in devs]
    qlen = [q for q in qlen if not math.isnan(q)]
    m["devices.queue_len"] = statistics.fmean(qlen) if qlen else 0.0

    nodes = [n for pfs in wl.systems if pfs.io_cluster is not None
             for n in pfs.io_cluster.nodes]
    batches = sum(n.batches for n in nodes)
    m["ionode.batches"] = batches
    m["ionode.coalesce_ratio"] = (
        sum(n.items_in for n in nodes) / batches if batches else 0.0
    )
    m["ionode.sieve_waste_bytes"] = sum(n.sieve_waste_bytes for n in nodes)
    caches = [n.cache for n in nodes if n.cache is not None]
    looked = sum(c.hits + c.misses for c in caches)
    m["ionode.cache_hit_ratio"] = (
        sum(c.hits for c in caches) / looked if looked else 0.0
    )
    m["ionode.queue_wait_p99_ms"] = max(
        (_pct(n.wait_stat, 99) for n in nodes), default=0.0)
    m["ionode.admission_wait_p99_ms"] = max(
        (_pct(n.admission_stat, 99) for n in nodes), default=0.0)

    res = [pfs.resilience.stats.counters() for pfs in wl.systems
           if pfs.resilience is not None]
    for k in ("retried_ops", "retry_attempts", "failovers", "degraded_reads"):
        m[f"resilience.{k}"] = sum(r[k] for r in res)

    managers = [pfs.qos for pfs in wl.systems if pfs.qos is not None]
    tenants = [t for q in managers for t in q.tenants.values()]
    m["qos.queued_ms"] = sum(t.queued.total for t in tenants) * 1e3
    m["qos.blocked_ms"] = sum(t.blocked.total for t in tenants) * 1e3
    m["qos.dispatches"] = sum(
        s.dispatches for q in managers for s in q.schedulers.values())
    m["qos.throttled_grants"] = sum(
        t.bucket.throttled_grants for t in tenants if t.bucket is not None)

    bufs = INSTANCES["BufferCache"]
    reads = sum(b.reads for b in bufs)
    m["buffering.hit_ratio"] = sum(b.hits for b in bufs) / reads if reads else 0.0
    m["buffering.writebacks"] = sum(b.writebacks for b in bufs)
    m["live.gen_lag_p99_ms"] = 0.0
    m["live.backlog_max"] = 0
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one measured simulated pass")
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setups", type=int, default=2)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    from simwork import SIM_WORKLOADS

    kwargs = {}
    if args.workload == "strided_slabs":  # live host files go under out/
        kwargs["scratch"] = HERE / "out" / f"live-{os.getpid()}"
    wl = SIM_WORKLOADS[args.workload](args.seed, args.quick, **kwargs)
    if args.trace:
        tracing.install()
        args.setups = 1  # counters must come from the one stack measured
    setup_times: list[float] = []
    # at least ``--setups`` set-ups, more while they are cheap (up to 7 or
    # 0.5 s), so short set-ups get enough samples for a steady median
    while len(setup_times) < args.setups or (
        not args.trace and len(setup_times) < 7 and sum(setup_times) < 0.5
    ):
        INSTANCES.clear()
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    gc.collect()
    LEDGER.reset()
    before = device_snapshot()
    with tracing.GcClock() as gc_clock:
        t0 = time.perf_counter()
        wl.run()
        run_s = time.perf_counter() - t0
    cyclic = gc.collect()
    out = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "sim": wl.metrics(),
        "gc": {"pause_s": gc_clock.pause_s, "collections": gc_clock.collections,
               "cyclic_objs": cyclic},
        "events": sum(e.steps for e in wl.envs),
    }
    if args.trace:
        out["layers"] = layer_metrics(wl, before, gc_clock, cyclic)
        if args.spans:
            out["spans"] = LEDGER.dump(args.spans)
    out.update(wl.check())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
