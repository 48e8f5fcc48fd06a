"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, untraced

Workloads (see ``ledger.json`` for why each was chosen and which layer
metric should move which end-to-end metric on it):

* ``many_clients``    closed loop, 8192 clients on four bare PS systems;
* ``full_stack_orgs`` closed loop, six organizations x 4 processes on the
  full stack (I/O nodes, parity, QoS, batching) with transient faults;
* ``strided_slabs``   closed loop, 4 processes of strided dataset slabs
  plus two-phase collective rounds, then the slabs on the live backend;
* ``live_serve``      a ``DatasetServer`` process driven over 2
  connections: closed-loop batches, then an open loop at 150, 400 and
  600 req/s (p99 limit 100 ms). Its host-clock figures spread too much
  between runs on a shared 2-vCPU host for a bounded metric, so it is not
  listed in ``BENCHMARK.json``; ``--workload all`` still runs it.

With ``--trace 0`` a run repeats measured passes (each in a fresh process)
for ``--seconds`` and reports medians of the host metrics. Simulated
metrics and digests must be identical across its passes. With
``--trace 1`` it makes one untraced and one traced pass, checks that they
simulate the same thing, and reports the per-layer metrics plus
``trace.overhead_frac``; spans go to ``perfbench/out/``.

End-to-end metrics are reported on every workload. The simulated
workloads report request latency and throughput on the simulated clock;
``live_serve`` reports them on the host clock (see ``ledger.json``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``failed`` counts
operations that failed, were refused, timed out or returned wrong bytes,
so ``failed / attempted`` is the failed-operations fraction. Any failed
check makes the exit code 1.

Seeds: 1 is the default; 20261017 is held out for confirming later
claims and should not be used while tuning a change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(SRC), str(HERE)]

DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
SIM = ("many_clients", "full_stack_orgs", "strided_slabs")
WORKLOADS = SIM + ("live_serve",)

#: (name, unit) of every end-to-end metric, reported on every workload
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("mb_per_s", "MB/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
)

LAYERS = ("sim", "core", "fs", "storage", "devices", "ionode", "resilience",
          "qos", "buffering", "datatype", "collective", "dataset",
          "container", "live")

#: (name, unit) of every per-layer metric; 0 where a layer did no work
PER_LAYER = tuple(
    m for layer in LAYERS
    for m in ((f"{layer}.self_s", "s"), (f"{layer}.calls", "count"))
) + (
    ("sim.events", "count"),
    ("sim.processes", "count"),
    ("gc.pause_s", "s"),
    ("gc.collections", "count"),
    ("gc.cyclic_objs", "count"),
    ("core.contiguous_runs_calls", "count"),
    ("core.contiguous_runs_s", "s"),
    ("storage.segments_per_batch", "segments/batch"),
    ("devices.requests", "count"),
    ("devices.bytes", "bytes"),
    ("devices.seeks", "count"),
    ("devices.seek_distance", "cylinders"),
    ("devices.service_ms", "ms"),
    ("devices.queue_wait_p50_ms", "ms"),
    ("devices.queue_wait_p99_ms", "ms"),
    ("devices.queue_len", "requests"),
    ("ionode.batches", "count"),
    ("ionode.coalesce_ratio", "items/batch"),
    ("ionode.sieve_waste_bytes", "bytes"),
    ("ionode.cache_hit_ratio", "ratio"),
    ("ionode.queue_wait_p99_ms", "ms"),
    ("ionode.admission_wait_p99_ms", "ms"),
    ("resilience.retried_ops", "count"),
    ("resilience.retry_attempts", "count"),
    ("resilience.failovers", "count"),
    ("resilience.degraded_reads", "count"),
    ("qos.queued_ms", "ms"),
    ("qos.blocked_ms", "ms"),
    ("qos.dispatches", "count"),
    ("qos.throttled_grants", "count"),
    ("buffering.hit_ratio", "ratio"),
    ("buffering.writebacks", "count"),
    ("datatype.runs_per_plan", "runs/plan"),
    ("collective.exchange_bytes", "bytes"),
    ("live.open_p50_ms", "ms"),
    ("live.open_p99_ms", "ms"),
    ("live.gen_lag_p99_ms", "ms"),
    ("live.backlog_max", "requests"),
    ("trace.overhead_frac", "ratio"),
)


def _child_env() -> dict:
    # A fixed mmap threshold keeps glibc from raising it at run time, after
    # which a 16 MiB device image would come zero-filled from the heap
    # instead of lazily from mmap: peak RSS then jumped by 16 MiB on some
    # seeds and not others.
    return dict(os.environ, PYTHONPATH=str(SRC), MALLOC_MMAP_THRESHOLD_="131072")


def sim_pass(workload: str, seed: int, quick: bool, trace: bool,
             setups: int = 2, spans: Path | None = None) -> dict:
    """One measured pass in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "passes.py"), workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--setups", str(setups)]
    if quick:
        cmd.append("--quick")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_simulation(passes: list[dict]) -> bool:
    """Simulated metrics, event counts and digests agree across passes."""
    first = passes[0]
    return all(
        p["digest"] == first["digest"] and p["sim"] == first["sim"]
        and p["events"] == first["events"]
        for p in passes[1:]
    )


def run_sim(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    t0 = time.perf_counter()
    min_passes = 2 if quick else 3
    passes: list[dict] = []
    while True:
        p0 = time.perf_counter()
        passes.append(sim_pass(workload, seed, quick, trace=False))
        last = time.perf_counter() - p0
        used = time.perf_counter() - t0
        if len(passes) >= min_passes and used + last > seconds:
            break
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    metrics = {"setup_s": med("setup_s"), "run_s": med("run_s"),
               "peak_rss_mb": med("peak_rss_mb"), **passes[0]["sim"]}
    return {
        "correct": same_simulation(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }


def trace_sim(workload: str, seed: int, quick: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    plain = sim_pass(workload, seed, quick, trace=False, setups=1)
    traced = sim_pass(workload, seed, quick, trace=True,
                      spans=OUT / f"spans-{workload}.json")
    layers = dict(traced["layers"])
    layers.update({f"gc.{k}": v for k, v in plain["gc"].items()})
    layers["trace.overhead_frac"] = traced["run_s"] / plain["run_s"] - 1.0
    return {
        "correct": same_simulation([plain, traced]),
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": layers,
    }


# -- live_serve ----------------------------------------------------------------


def _live_params(seconds: float, quick: bool) -> tuple[float, int, int]:
    """(open-loop seconds in all, closed-loop requests per segment, grid side)."""
    if quick:
        return 1.0, 1000, 32
    return max(3.0, seconds - 16.0), 6000, 256


def run_live(seed: int, seconds: float, quick: bool) -> dict:
    """Three segments, each with a fresh server: a closed-loop batch, then
    the open loop at one of the fixed rates."""
    from livework import RATES, SHARES, latency_ms, meets_limit, run_segment

    open_s, batch, n = _live_params(seconds, quick)
    OUT.mkdir(exist_ok=True)
    segs = [run_segment(OUT, seed, [(rate, open_s * share)], batch, n, False,
                        f"rate{rate}")
            for rate, share in zip(RATES, SHARES)]
    phases = [s["phases"][0] for s in segs]
    ok = [p for p in phases if meets_limit(p)]
    top = ok[-1] if ok else phases[0]
    subs = [b for s in segs for b in s["closed"]]  # closed-loop sub-batches
    med = statistics.median
    metrics = {
        "setup_s": med(s["setup_s"] for s in segs),
        "run_s": med(b["run_s"] for b in subs),
        "peak_rss_mb": med(s["server"]["peak_rss_mb"] for s in segs),
        "mb_per_s": med(b["bytes"] / b["run_s"] / 1e6 for b in subs),
        "req_p50_ms": med(latency_ms(b["lat"], 50) for b in subs),
        "req_p99_ms": med(latency_ms(b["lat"], 99) for b in subs),
        "req_per_s": top["sent"] / top["span_s"],
    }
    return {
        "correct": True,
        "attempted": sum(s["attempted"] for s in segs),
        "failed": sum(s["failed"] for s in segs),
        "metrics": metrics,
        "open_loop": {
            p["rate"]: {"p50_ms": latency_ms(p["lat"], 50),
                        "p99_ms": latency_ms(p["lat"], 99),
                        "meets_limit": meets_limit(p)}
            for p in phases
        },
    }


def trace_live(seed: int, seconds: float, quick: bool) -> dict:
    from livework import MIDDLE, RATES, SHARES, latency_ms, run_segment

    open_s, batch, n = _live_params(seconds, quick)
    phases = [(RATES[MIDDLE], open_s * SHARES[MIDDLE])]
    OUT.mkdir(exist_ok=True)
    plain = run_segment(OUT, seed, phases, batch, n, False, "plain")
    traced = run_segment(OUT, seed, phases, batch, n, True, "traced")
    srv = traced["server"]
    layers = dict(srv["layers"])
    plans = layers.pop("datatype.plans")
    runs = layers.pop("datatype.plan_runs")
    layers["datatype.runs_per_plan"] = runs / plans if plans else 0.0
    layers.update({f"gc.{k}": v for k, v in plain["server"]["gc"].items()})
    tenant = srv["stats"]["tenants"].get("bench", {})
    layers["qos.blocked_ms"] = tenant.get("admission_wait_s", 0.0) * 1e3
    layers["qos.dispatches"] = tenant.get("requests", 0)
    layers["qos.throttled_grants"] = tenant.get("throttled_grants", 0)
    phase = traced["phases"][0]
    layers["live.open_p50_ms"] = latency_ms(plain["phases"][0]["lat"], 50)
    layers["live.open_p99_ms"] = latency_ms(plain["phases"][0]["lat"], 99)
    lag = phase["lag"]
    layers["live.gen_lag_p99_ms"] = latency_ms(lag, 99) if lag else 0.0
    layers["live.backlog_max"] = phase["backlog_max"]
    layers["trace.overhead_frac"] = (
        statistics.median(b["run_s"] for b in traced["closed"])
        / statistics.median(b["run_s"] for b in plain["closed"]) - 1.0)
    return {
        "correct": True,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": layers,
    }


# -- entry point -----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    if workload == "live_serve":
        res = trace_live(seed, seconds, quick) if trace else run_live(seed, seconds, quick)
    elif trace:
        res = trace_sim(workload, seed, quick)
    else:
        res = run_sim(workload, seed, seconds, quick)
    names = PER_LAYER if trace else END_TO_END
    raw = res["metrics"]
    res["metrics"] = {
        name: {"value": float(raw.get(name, 0.0)), "unit": unit}
        for name, unit in names
    }
    return res


def result_line(res: dict) -> str:
    return json.dumps({
        "correct": bool(res["correct"] and res["failed"] == 0),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": res["metrics"],
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      args.quick)
        print(result_line(res))
        return 0 if res["correct"] and res["failed"] == 0 else 1

    ok, total = True, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        res = measure(w, args.seed, args.seconds, bool(args.trace), args.quick)
        clock = "host" if w == "live_serve" else "sim"
        for name, m in res["metrics"].items():
            note = f"({clock} clock)" if name.startswith(("req_", "mb_")) else ""
            print(f"{w:<16s} {name:<28s} {m['value']:>14.6g} {m['unit']:<14s} {note}")
        for rate, ph in res.get("open_loop", {}).items():
            print(f"{w:<16s} open loop at {rate} req/s: p50 {ph['p50_ms']:.3f} ms, "
                  f"p99 {ph['p99_ms']:.3f} ms (host clock), "
                  f"{'meets' if ph['meets_limit'] else 'misses'} the limit")
        frac = res["failed"] / res["attempted"]
        print(f"{w:<16s} {'ops_failed_frac':<28s} {frac:>14.6g} {'ratio':<14s} "
              f"({res['failed']} of {res['attempted']})")
        ok = ok and res["correct"] and res["failed"] == 0
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update(
            {f"{w}/{k}": v for k, v in res["metrics"].items()})
    total["correct"] = ok
    print(result_line(total))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
