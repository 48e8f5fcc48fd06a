"""Perf reporting: tables, the BENCH_engine.json schema, regression checks.

``BENCH_engine.json`` schema (one object per file)::

    {
      "bench": "engine_throughput",
      "quick": false,
      "config": {...workload/stack knobs...},
      "modes": {
        "<mode>": {
          "wall_s": float,       # total wall seconds across orgs
          "sim_s": float,        # total simulated seconds
          "events": int,         # engine events processed
          "events_per_sec": float,
          "per_org": {"S": {...same fields...}, ...}
        }, ...
      },
      "baseline_mode": "full/traced",
      "speedup": {"<mode>": float, ...}   # baseline wall_s / mode wall_s
    }

The committed baseline lives at ``benchmarks/results/BENCH_engine.json``;
CI regenerates the file in quick mode and *warns* (non-blocking) when
events/sec drops by more than the regression factor against it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .profiler import PerfSample

__all__ = [
    "mode_summary",
    "bench_record",
    "write_bench_json",
    "load_bench_json",
    "regression_warnings",
    "speedup_rows",
]


def mode_summary(samples: list[PerfSample]) -> dict[str, Any]:
    """Aggregate one mode's per-org samples into the JSON mode block."""
    wall = sum(s.wall_s for s in samples)
    events = sum(s.events for s in samples)
    return {
        "wall_s": wall,
        "sim_s": sum(s.sim_s for s in samples),
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "per_org": {
            s.label: {
                "wall_s": s.wall_s,
                "sim_s": s.sim_s,
                "events": s.events,
                "events_per_sec": s.events_per_sec,
            }
            for s in samples
        },
    }


def bench_record(
    config: dict[str, Any],
    modes: dict[str, list[PerfSample]],
    baseline_mode: str,
    quick: bool,
) -> dict[str, Any]:
    """Build the full ``BENCH_engine.json`` object."""
    mode_blocks = {name: mode_summary(samples) for name, samples in modes.items()}
    base_wall = mode_blocks[baseline_mode]["wall_s"]
    return {
        "bench": "engine_throughput",
        "quick": quick,
        "config": config,
        "modes": mode_blocks,
        "baseline_mode": baseline_mode,
        "speedup": {
            name: (base_wall / blk["wall_s"] if blk["wall_s"] > 0 else 0.0)
            for name, blk in mode_blocks.items()
        },
    }


def write_bench_json(path: str | Path, record: dict[str, Any]) -> None:
    """Write the record to ``path`` (pretty, trailing newline)."""
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def load_bench_json(path: str | Path) -> dict[str, Any] | None:
    """Load a bench record, or ``None`` if the file does not exist."""
    p = Path(path)
    if not p.exists():
        return None
    return json.loads(p.read_text())


def regression_warnings(
    current: dict[str, Any],
    baseline: dict[str, Any],
    factor: float = 2.0,
) -> list[str]:
    """Non-blocking warnings: modes whose events/sec regressed > ``factor``.

    Wall-clock comparisons across different machines are noise; a >2x
    events/sec drop on the *same* workload is still worth a look, which
    is why CI prints these as warnings instead of failing.
    """
    out = []
    for name, blk in current.get("modes", {}).items():
        base = baseline.get("modes", {}).get(name)
        if not base:
            continue
        cur_eps = blk.get("events_per_sec", 0.0)
        base_eps = base.get("events_per_sec", 0.0)
        if base_eps > 0 and cur_eps > 0 and base_eps / cur_eps > factor:
            out.append(
                f"WARNING: mode {name!r} events/sec regressed "
                f"{base_eps / cur_eps:.2f}x vs baseline "
                f"({cur_eps:,.0f} now vs {base_eps:,.0f} baseline)"
            )
    return out


def speedup_rows(record: dict[str, Any]) -> list[str]:
    """Formatted per-mode summary lines from a bench record."""
    base = record["baseline_mode"]
    rows = []
    for name, blk in record["modes"].items():
        marker = " (baseline)" if name == base else ""
        rows.append(
            f"{name:<24s} wall={blk['wall_s']:8.3f} s  "
            f"{blk['events_per_sec']:>12,.0f} ev/s  "
            f"speedup={record['speedup'][name]:5.2f}x{marker}"
        )
    return rows
