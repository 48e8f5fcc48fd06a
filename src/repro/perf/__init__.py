"""Wall-clock performance observability: profiling, reporting, workloads.

The rest of the repo measures *simulated* seconds; this package measures
the simulator — events per wall-clock second, per-subsystem wall-time
attribution, and the shared
deterministic workloads that the engine-throughput benchmark and the
determinism regression tests both drive. See ``docs/PERF.md``.
"""

from .profiler import PerfSample, Profiler, measure_run
from .report import (
    bench_record,
    load_bench_json,
    mode_summary,
    regression_warnings,
    speedup_rows,
    write_bench_json,
)
from .workloads import (
    ORGS,
    WorkloadConfig,
    digest,
    fs_digest,
    make_file,
    run_org,
    seed_file,
    spawn_workload,
)

__all__ = [
    "PerfSample",
    "Profiler",
    "measure_run",
    "bench_record",
    "load_bench_json",
    "mode_summary",
    "regression_warnings",
    "speedup_rows",
    "write_bench_json",
    "ORGS",
    "WorkloadConfig",
    "digest",
    "fs_digest",
    "make_file",
    "run_org",
    "seed_file",
    "spawn_workload",
]
