"""Engine throughput: wall-clock cost of the simulator itself.

Drives the six-organization perf workloads (``repro.perf.workloads``)
through four recorder/submission modes, on two stacks:

* ``traced``      — a collecting :class:`~repro.trace.TraceRecorder`,
  per-block submission. This is the speedup baseline.
* ``null``        — :class:`~repro.trace.NullTraceRecorder`, per-block
  submission.
* ``traced_batch``/``null_batch`` — the same two recorders with
  extent-batched (list-I/O) submission (``batch_io=True``).

Every mode runs on the same event loop.

Stacks: ``bare`` (file system straight onto 4 devices) and ``full``
(I/O nodes + parity resilience + QoS — the macro configuration the
acceptance speedup is measured on).

Every mode pair that must be simulation-equivalent is checked with
:func:`repro.perf.workloads.digest`: null == traced per submission mode,
on both stacks, for every organization. The recorder buys wall-clock
only — never a different simulated outcome.

Output: a table in ``benchmarks/results/engine_throughput.txt`` and the
machine-readable ``benchmarks/results/BENCH_engine.json`` (schema in
``repro.perf.report``). Speedups are computed within each stack against
that stack's ``traced`` mode.

``--scale`` instead sweeps the client count (64 → 32768) on one
environment and writes ``BENCH_engine_scale.json`` /
``engine_scale.txt``.

CLI::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --quick \
        [--json PATH] [--check --baseline PATH]

``--check`` prints non-blocking regression warnings (>2x events/sec
drop) against a previously committed baseline JSON. With ``--scale`` it
is blocking instead: every client count run must reproduce the event
count and outcome digest of the baseline (default: the committed
``BENCH_engine_scale.json``), or the script exits 1. A hot-path change
that perturbs event order then fails rather than being re-recorded.
Quick mode (``--quick`` or ``REPRO_BENCH_QUICK=1``) shrinks the workload
for CI.

CLI (scale sweep)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --scale \
        [--quick] [--json PATH] [--check --baseline PATH]
"""

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro import build_parallel_fs
from repro.perf import (
    ORGS,
    WorkloadConfig,
    bench_record,
    digest,
    fs_digest,
    load_bench_json,
    measure_run,
    regression_warnings,
    run_org,
    speedup_rows,
    write_bench_json,
)
from repro.perf.workloads import _fill, seed_file
from repro.qos import QoSConfig
from repro.resilience import ResilienceConfig
from repro.sim import Environment
from repro.trace import NullTraceRecorder, TraceRecorder

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

STACKS = ("bare", "full")
MODES = ("traced", "null", "traced_batch", "null_batch")
N_DEVICES = 4
IO_NODES = 2
THROUGHPUT_TITLE = "Engine throughput: trace recorder and extent-batched submission"
SCALE_TITLE = "Engine scaling: single-heap client sweep"


def workload_config(quick: bool) -> WorkloadConfig:
    if quick:
        return WorkloadConfig(n_records=480)
    return WorkloadConfig(n_records=3840)


def build(mode: str, stack: str):
    """One (recorder mode, stack) environment + file system."""
    env = Environment()
    recorder = TraceRecorder() if mode.startswith("traced") else NullTraceRecorder()
    kw = {}
    if stack == "full":
        kw = dict(
            io_nodes=IO_NODES,
            resilience=ResilienceConfig(protection="parity", spares=1),
            qos=QoSConfig(),
        )
    pfs = build_parallel_fs(
        env,
        N_DEVICES,
        recorder=recorder,
        batch_io=mode.endswith("batch"),
        **kw,
    )
    return env, pfs


def run_mode(mode: str, stack: str, cfg: WorkloadConfig, rounds: int = 1):
    """Run all six orgs in one mode; per-org samples + per-org digests.

    Each org is run ``rounds`` times and the minimum wall-clock sample is
    kept (standard noise rejection: the min is the run least disturbed by
    the host). Digests must agree across rounds — same program, same
    simulated outcome.
    """
    samples, digests = [], {}
    for org in ORGS:
        best = None
        for _ in range(rounds):
            env, pfs = build(mode, stack)
            f = run_org(env, pfs, org, cfg)
            sample = measure_run(env, label=org)
            d = digest(env, pfs, [f])
            if org in digests:
                assert digests[org] == d, (
                    f"nondeterministic rerun: {stack}/{mode} org {org}"
                )
            digests[org] = d
            if best is None or sample.wall_s < best.wall_s:
                best = sample
        samples.append(best)
    return samples, digests


def run_bench(quick: bool):
    """The full sweep: returns (record, table rows)."""
    cfg = workload_config(quick)
    rounds = 1 if quick else 3
    modes = {}
    digests = {}
    for stack in STACKS:
        for mode in MODES:
            name = f"{stack}/{mode}"
            modes[name], digests[name] = run_mode(mode, stack, cfg, rounds)

    # The recorder must not change the simulation: equal digests per
    # (stack, submission mode, org) across recorders.
    for stack in STACKS:
        for submission in ("", "_batch"):
            ref = digests[f"{stack}/traced{submission}"]
            got = digests[f"{stack}/null{submission}"]
            for org in ORGS:
                assert got[org] == ref[org], (
                    f"the trace recorder changed the simulation: "
                    f"{stack}/null{submission} org {org}"
                )

    record = bench_record(
        config={
            "workload": cfg.as_dict(),
            "orgs": list(ORGS),
            "n_devices": N_DEVICES,
            "io_nodes": IO_NODES,
            "stacks": list(STACKS),
            "macro": "full",
        },
        modes=modes,
        baseline_mode="full/traced",
        quick=quick,
    )
    # Speedups are only meaningful within a stack: recompute each mode
    # against its own stack's traced run.
    for name, blk in record["modes"].items():
        stack = name.split("/")[0]
        base = record["modes"][f"{stack}/traced"]["wall_s"]
        record["speedup"][name] = base / blk["wall_s"] if blk["wall_s"] else 0.0

    rows = speedup_rows(record)
    macro = record["speedup"]["full/null_batch"]
    rows.append(f"macro speedup (full stack, null+batch vs traced): {macro:.2f}x")
    return record, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", default=QUICK,
                    help="small workload for CI smoke runs")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="where to write BENCH_engine.json "
                         "(default: benchmarks/results/BENCH_engine.json)")
    ap.add_argument("--check", action="store_true",
                    help="print non-blocking regression warnings vs --baseline; "
                         "with --scale, exit 1 unless every size's events "
                         "and digest match it")
    ap.add_argument("--baseline", default=None, metavar="PATH",
                    help="baseline JSON for --check "
                         "(default: the committed results file)")
    ap.add_argument("--scale", action="store_true",
                    help="run only the client-count scaling curve "
                         "and write BENCH_engine_scale.json")
    args = ap.parse_args(argv)

    results = Path(__file__).parent / "results"
    results.mkdir(exist_ok=True)

    if args.scale:
        default_json = results / "BENCH_engine_scale.json"
        # read before the run: the default output path is the baseline
        baseline_path = Path(args.baseline) if args.baseline else default_json
        baseline = load_bench_json(baseline_path) if args.check else None
        record, rows = run_scale_bench(args.quick)
        title = SCALE_TITLE
        text = "\n".join([title, "=" * len(title), *rows, ""])
        (results / "engine_scale.txt").write_text(text)
        print(text)
        out_path = Path(args.json) if args.json else default_json
        write_bench_json(out_path, record)
        print(f"wrote {out_path}")
        if not args.check:
            return 0
        if baseline is None:
            print(f"scale check: no baseline at {baseline_path}")
            return 1
        mismatches = scale_mismatches(record, baseline)
        for line in mismatches:
            print(line)
        if mismatches:
            return 1
        print("scale check: events and outcome digests match the baseline")
        return 0

    default_json = results / "BENCH_engine.json"
    out_path = Path(args.json) if args.json else default_json
    baseline_path = Path(args.baseline) if args.baseline else default_json

    baseline = load_bench_json(baseline_path) if args.check else None

    record, rows = run_bench(args.quick)
    title = THROUGHPUT_TITLE
    text = "\n".join([title, "=" * len(title), *rows, ""])
    (results / "engine_throughput.txt").write_text(text)
    print(text)

    write_bench_json(out_path, record)
    print(f"wrote {out_path}")

    if args.check:
        if baseline is None:
            print(f"no baseline at {baseline_path}; skipping regression check")
        else:
            warnings = regression_warnings(record, baseline)
            for w in warnings:
                print(w)
            if not warnings:
                print("regression check: events/sec within 2x of baseline")
    return 0


# -- client-count scaling ----------------------------------------------
#
# The second half of the benchmark: how does the engine hold up as the
# *client count* grows? Each client is a think-sleep loop around one
# record's worth of read + write on a PS file — a light, timer-dominated
# workload whose schedule population scales with the client count.
# SCALE_SYSTEMS independent file systems share one environment; the
# outcome digest over all of them is recorded per size so re-recordings
# can be compared.

SCALE_SYSTEMS = 4
SCALE_DEVICES = 2  # per file system
SCALE_CLIENTS = (64, 512, 4096, 32768)
SCALE_CLIENTS_QUICK = (64, 512)
SCALE_ROUNDS = 2
RECORD_SIZE = 32


def _think(cid: int, r: int) -> float:
    """Deterministic pseudo-random think time in [1ms, 51ms)."""
    return 0.001 + ((cid * 2654435761 + r * 40503) & 0xFFFF) % 50000 * 1e-6


def _scale_file(pfs, n_clients: int):
    """One PS file with a single record per client."""
    f = pfs.create(
        "scale",
        "PS",
        n_records=n_clients,
        record_size=RECORD_SIZE,
        records_per_block=1,
        n_processes=n_clients,
    )
    seed_file(f)
    return f


def _spawn_scale_clients(env, file, base_cid: int, n_clients: int):
    """``n_clients`` think/read/write loops; global ids for determinism."""

    def client(p, cid):
        for r in range(SCALE_ROUNDS):
            yield env.sleep(_think(cid, r))
            h = file.internal_view(p)
            while not h.eof:
                yield from h.read_next(1)
            yield env.sleep(_think(cid, r + 7))
            w = file.internal_view(p)
            yield from w.write_next(_fill(1, RECORD_SIZE, cid * 131 + r))

    for p in range(n_clients):
        env.process(client(p, base_cid + p))


def run_scale_point(n_clients: int):
    """Every file system's clients on one environment; (sample, digest)."""
    per_system = n_clients // SCALE_SYSTEMS
    env = Environment()
    systems, files = [], []
    for i in range(SCALE_SYSTEMS):
        pfs = build_parallel_fs(env, SCALE_DEVICES, recorder=NullTraceRecorder())
        f = _scale_file(pfs, per_system)
        _spawn_scale_clients(env, f, i * per_system, per_system)
        systems.append(pfs)
        files.append(f)
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    h = hashlib.sha256()
    for pfs, f in zip(systems, files):
        h.update(fs_digest(pfs, [f]).encode())
    return {
        "wall_s": wall,
        "events": env.steps,
        "events_per_sec": env.steps / wall if wall > 0 else 0.0,
    }, h.hexdigest()[:16]


def run_scale_bench(quick: bool):
    """The scaling curve: returns (record, table rows)."""
    sizes = SCALE_CLIENTS_QUICK if quick else SCALE_CLIENTS
    rows, out = [], []
    for n_clients in sizes:
        sample, fs_hash = run_scale_point(n_clients)
        out.append({"clients": n_clients, **sample, "digest": fs_hash})
        rows.append(
            f"clients={n_clients:>6d}  events={sample['events']:>9,d}  "
            f"{sample['events_per_sec']:>10,.0f} ev/s  digest {fs_hash}"
        )
    record = {
        "bench": "engine_scale",
        "quick": quick,
        "config": {
            "file_systems": SCALE_SYSTEMS,
            "devices_per_file_system": SCALE_DEVICES,
            "rounds": SCALE_ROUNDS,
            "record_size": RECORD_SIZE,
            "client_counts": list(sizes),
        },
        "rows": out,
    }
    return record, rows


def scale_mismatches(record: dict, baseline: dict) -> list[str]:
    """Sizes whose event count or outcome digest differ from ``baseline``.

    Wall-clock figures are not compared; the simulated outcome of each
    client count must be reproduced exactly.
    """
    base = {row["clients"]: row for row in baseline.get("rows", [])}
    out = []
    for row in record["rows"]:
        n = row["clients"]
        ref = base.get(n)
        if ref is None:
            out.append(f"scale check: clients={n} is not in the baseline")
            continue
        for key in ("events", "digest"):
            if row[key] != ref[key]:
                out.append(
                    f"scale check: clients={n} {key} {row[key]} != "
                    f"baseline {ref[key]}"
                )
    return out


# -- pytest entry (CI smoke: REPRO_BENCH_QUICK=1 pytest benchmarks/bench_engine_throughput.py)


def test_engine_throughput(results_dir):
    record, rows = run_bench(quick=QUICK)
    from conftest import write_table

    write_table(results_dir, "engine_throughput", THROUGHPUT_TITLE, rows)
    write_bench_json(results_dir / "BENCH_engine.json", record)
    assert record["speedup"]["full/null_batch"] > 1.0


def test_engine_scale(results_dir):
    baseline = load_bench_json(results_dir / "BENCH_engine_scale.json")
    record, rows = run_scale_bench(quick=QUICK)
    from conftest import write_table

    write_table(results_dir, "engine_scale", SCALE_TITLE, rows)
    write_bench_json(results_dir / "BENCH_engine_scale.json", record)
    assert all(row["events"] > 0 for row in record["rows"])
    if baseline is not None:
        assert scale_mismatches(record, baseline) == []


if __name__ == "__main__":
    raise SystemExit(main())
