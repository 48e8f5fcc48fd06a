"""Wall-clock profiling for simulation runs.

The rest of the repo measures *simulated* time; this module measures the
simulator itself — how many engine events per wall-clock second a
configuration sustains, and where the wall time goes (see
`docs/PERF.md`).

Two tools:

* :func:`measure_run` — run an :class:`~repro.sim.engine.Environment` to
  completion and return a :class:`PerfSample` (wall seconds, simulated
  seconds, events processed, events/sec).
* :class:`Profiler` — named cumulative wall-clock spans
  (``with prof.span("setup"): ...``) for attributing time to subsystems
  or phases around/inside a run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..sim.engine import Environment, Event

__all__ = ["PerfSample", "Profiler", "measure_run"]


@dataclass(frozen=True)
class PerfSample:
    """One measured run: wall time, simulated time, and event throughput."""

    label: str
    wall_s: float
    sim_s: float
    events: int

    @property
    def events_per_sec(self) -> float:
        """Engine events processed per wall-clock second."""
        return self.events / self.wall_s if self.wall_s > 0 else float("inf")

    def row(self) -> str:
        """One formatted report line."""
        return (
            f"{self.label:<28s} wall={self.wall_s:8.3f} s  "
            f"sim={self.sim_s:10.4f} s  events={self.events:>9d}  "
            f"{self.events_per_sec:>12,.0f} ev/s"
        )


def measure_run(
    env: Environment,
    until: float | Event | None = None,
    label: str = "run",
) -> PerfSample:
    """Run ``env`` (to ``until``) and measure it.

    Events and simulated seconds are counted from where the environment
    currently stands, so a pre-populated env measures only the run itself.
    """
    steps0 = env.steps
    now0 = env.now
    t0 = time.perf_counter()
    env.run(until)
    wall = time.perf_counter() - t0
    return PerfSample(
        label=label,
        wall_s=wall,
        sim_s=env.now - now0,
        events=env.steps - steps0,
    )


@dataclass
class Profiler:
    """Cumulative named wall-clock spans (per-subsystem attribution)."""

    spans: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the enclosed block under ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.spans[name] = self.spans.get(name, 0.0) + dt
            self.counts[name] = self.counts.get(name, 0) + 1

    def wall(self, name: str) -> float:
        """Total wall seconds accumulated under ``name``."""
        return self.spans.get(name, 0.0)

    @property
    def total(self) -> float:
        """Wall seconds across all spans."""
        return sum(self.spans.values())

    def rows(self) -> list[str]:
        """Formatted per-span report lines, largest first."""
        total = self.total or 1.0
        out = []
        for name, wall in sorted(self.spans.items(), key=lambda kv: -kv[1]):
            out.append(
                f"{name:<28s} {wall:8.3f} s  {100 * wall / total:5.1f}%  "
                f"({self.counts[name]} span{'s' if self.counts[name] != 1 else ''})"
            )
        return out

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly ``{span: {wall_s, count}}``."""
        return {
            name: {"wall_s": wall, "count": self.counts[name]}
            for name, wall in self.spans.items()
        }
