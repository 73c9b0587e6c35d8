"""Benchmark grid definition, execution, and baseline comparison.

Every cell is a fully pinned :class:`~repro.scenario.spec.Scenario` --
seed, workload, timeouts, topology -- so the *scenario-clock* metrics
(delivered count, p50/p99 latency) are deterministic on the sim backend
and double as a behavior-regression gate, while the *wall-clock*
metrics (throughput per wall second, events per second) measure the
harness itself and are gated within a tolerance.

Sim cells run the saturation methodology of ``benchmarks/bench_util``:
open-loop clients in one region firing well past the cluster's service
rate, with the recovery timers (retry / suspicion / view change) pushed
out so saturation is never mistaken for a fault.  The TCP smoke cell is
a small closed loop over real sockets -- there to catch transport-layer
regressions, not to measure protocol throughput.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import Scenario, WorkloadSpec

#: Artifact schema version (the ``schema`` field of BENCH_<rev>.json).
BENCH_SCHEMA = 1

#: Saturated sim cell shape: 8 open-loop clients x 400 req/s for two
#: simulated seconds from one region = 6400 requests against a cluster
#: that fast-paths far fewer per second -- a deep, stable backlog that
#: keeps every replica's queue full for the whole horizon.
_SIM_CLIENTS = 8
_SIM_REGIONS = ("virginia", "tokyo", "mumbai", "sydney")
#: Contended cells: 8 closed-loop clients x 64 requests = 512 commits on
#: one key, four default checkpoint intervals' worth of history.
_HOT_REQUESTS = 64
_SIM_RATE = 400.0
_SIM_DURATION_MS = 2000.0
_SIM_SEED = 42


@dataclass(frozen=True)
class BenchCell:
    """One pinned cell of the benchmark grid."""

    name: str
    backend: str
    protocol: str
    batch_size: int = 1
    #: Share of requests that hit the one hot key (sim cells).  Any
    #: value but 0.0 also selects a second workload shape, not the
    #: saturated one with hot requests mixed in: the same clients
    #: spread over all four regions, so SPECORDERs from four leaders
    #: interleave on the key and the cell pins what dependency
    #: collection does about it; closed loop, ``_HOT_REQUESTS`` each --
    #: a hot key offered more than it commits never executes anything,
    #: so an open loop has no steady state to pin.  Only 1.0 is in the
    #: grid; a partly contended cell would inherit all three.
    contention: float = 0.0
    #: Included in the reduced CI grid (``--grid smoke``).
    smoke: bool = False

    def scenario(self) -> Scenario:
        if self.backend == "sim":
            if self.contention:
                workload = WorkloadSpec(
                    mode="closed",
                    client_regions=_SIM_REGIONS,
                    clients_per_region=_SIM_CLIENTS // len(_SIM_REGIONS),
                    requests_per_client=_HOT_REQUESTS,
                    contention=self.contention,
                    batch_size=self.batch_size,
                )
            else:
                workload = WorkloadSpec(
                    mode="open",
                    client_regions=_SIM_REGIONS[:1],
                    clients_per_region=_SIM_CLIENTS,
                    rate_per_client=_SIM_RATE,
                    batch_size=self.batch_size,
                )
            return Scenario(
                name=f"bench-{self.name}",
                protocol=self.protocol,
                replica_regions=_SIM_REGIONS,
                latency="experiment1",
                duration_ms=_SIM_DURATION_MS,
                workload=workload,
                seed=_SIM_SEED,
                # Saturation methodology: recovery timers pushed far
                # past the horizon so backlog is never read as a fault.
                slow_path_timeout=30000.0,
                retry_timeout=300000.0,
                suspicion_timeout=300000.0,
                view_change_timeout=300000.0,
            )
        return Scenario(
            name=f"bench-{self.name}",
            protocol=self.protocol,
            replica_regions=("local", "local", "local", "local"),
            latency="local",
            workload=WorkloadSpec(
                mode="closed",
                client_regions=("local",),
                clients_per_region=2,
                requests_per_client=6,
            ),
            seed=_SIM_SEED,
            backends=("tcp",),
        )


#: The pinned grid: protocols x batch {1, 8} on sim (non-batching
#: protocols degrade batch cells to per-command submission -- the cell
#: then measures that degradation path), one fully contended ezBFT
#: cell, plus one TCP smoke cell.
PINNED_GRID: Tuple[BenchCell, ...] = tuple(
    BenchCell(name=f"sim-{protocol}-b{batch}", backend="sim",
              protocol=protocol, batch_size=batch,
              smoke=(batch == 1 and protocol in ("ezbft", "pbft")))
    for protocol in ("ezbft", "pbft", "zyzzyva", "fab")
    for batch in (1, 8)
) + (
    BenchCell(name="sim-ezbft-b1-hot", backend="sim", protocol="ezbft",
              contention=1.0),
    BenchCell(name="tcp-ezbft-smoke", backend="tcp", protocol="ezbft",
              smoke=True),
)


def grid_cells(grid: str = "full") -> Tuple[BenchCell, ...]:
    """The cells of the named grid: ``full`` or the reduced ``smoke``
    subset CI runs."""
    if grid == "full":
        return PINNED_GRID
    if grid == "smoke":
        return tuple(cell for cell in PINNED_GRID if cell.smoke)
    raise ConfigurationError(
        f"unknown bench grid {grid!r}; choose 'full' or 'smoke'")


def current_rev() -> str:
    """Short git revision of the working tree, or ``unknown``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def run_cell(cell: BenchCell) -> Dict[str, Any]:
    """Execute one cell and return its metrics dict."""
    scenario = cell.scenario()
    wall_start = time.perf_counter()
    report = ScenarioRunner(backend=cell.backend).run(scenario)
    wall = time.perf_counter() - wall_start
    events = report.network.get("events_processed")
    latency = report.latency
    metrics: Dict[str, Any] = {
        "backend": cell.backend,
        "protocol": cell.protocol,
        "batch_size": cell.batch_size,
        "contention": cell.contention,
        "delivered": report.delivered,
        "wall_seconds": round(wall, 3),
        # Harness speed: delivered requests per wall-clock second.
        "throughput": round(report.delivered / wall, 1) if wall else 0.0,
        # Scenario-clock metrics (deterministic on sim).
        "scenario_throughput_per_sec": round(
            report.throughput_per_sec, 3),
        "p50_ms": _r3(latency.p50),
        "p99_ms": _r3(latency.p99),
        "fast_path_ratio": _r3(report.fast_path_ratio),
    }
    if events is not None:
        metrics["events"] = events
        metrics["events_per_second"] = round(events / wall, 1) \
            if wall else 0.0
    return metrics


def _r3(value: float) -> Optional[float]:
    import math
    if value is None or math.isnan(value) or math.isinf(value):
        return None
    return round(value, 3)


def run_bench(grid: str = "full",
              progress: Optional[Callable[[BenchCell, Dict[str, Any]],
                                          None]] = None
              ) -> Dict[str, Any]:
    """Run the named grid and return the BENCH artifact dict."""
    cells: Dict[str, Dict[str, Any]] = {}
    for cell in grid_cells(grid):
        metrics = run_cell(cell)
        cells[cell.name] = metrics
        if progress is not None:
            progress(cell, metrics)
    return {
        "schema": BENCH_SCHEMA,
        "rev": current_rev(),
        # Orders the kept BENCH_*.json history (see newest_baseline).
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "grid": grid,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "cells": cells,
    }


def newest_baseline(path: str) -> str:
    """The baseline file to gate against: ``path`` itself when it is a
    file, else the most recently ``recorded`` ``BENCH_*.json`` in that
    directory.  Baselines accumulate as a trajectory; an artifact from
    before the ``recorded`` stamp existed sorts oldest, and the file
    name breaks ties."""
    if not os.path.isdir(path):
        return path
    candidates = glob.glob(os.path.join(path, "BENCH_*.json"))
    if not candidates:
        raise ConfigurationError(f"no BENCH_*.json under {path!r}")

    def recorded(candidate: str) -> Tuple[str, str]:
        with open(candidate, "r", encoding="utf-8") as fh:
            return str(json.load(fh).get("recorded", "")), candidate

    return max(candidates, key=recorded)


#: Sim fields that are deterministic per pinned scenario: a drift here
#: is a *behavior* change, not noise, and requires regenerating the
#: committed baseline deliberately.
_EXACT_SIM_FIELDS = ("delivered", "p50_ms", "p99_ms",
                     "scenario_throughput_per_sec", "events")


def compare(new: Dict[str, Any], baseline: Dict[str, Any],
            tolerance: float = 0.35) -> List[str]:
    """Diff ``new`` against ``baseline``; returns failure descriptions.

    Gates, per cell present in both artifacts:

    - wall-clock ``throughput`` must be at least
      ``(1 - tolerance) x`` the baseline's (machine noise passes, a
      real slowdown fails);
    - on sim cells, the deterministic fields
      (:data:`_EXACT_SIM_FIELDS`) must match exactly -- a mismatch
      means behavior changed and the baseline needs deliberate
      regeneration.

    An empty list means the gate passes.  When both artifacts declare
    the same grid, cells missing from the new run fail (a shrunk grid
    must not pass silently); a reduced-grid run (e.g. CI's ``smoke``
    against the committed ``full`` baseline) only gates the cells it
    actually ran.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ConfigurationError(
            f"tolerance must be in [0, 1), got {tolerance}")
    problems: List[str] = []
    new_cells = new.get("cells", {})
    base_cells = baseline.get("cells", {})
    if new.get("grid") == baseline.get("grid"):
        for name in sorted(set(base_cells) - set(new_cells)):
            problems.append(
                f"{name}: present in baseline but not in the "
                f"new run (grid shrank?)")
    for name in sorted(new_cells):
        fresh = new_cells[name]
        base = base_cells.get(name)
        if base is None:
            continue  # new cell: no baseline to gate against
        floor = base.get("throughput", 0.0) * (1.0 - tolerance)
        got = fresh.get("throughput", 0.0)
        if got < floor:
            problems.append(
                f"{name}: throughput {got:.1f}/s fell below "
                f"{floor:.1f}/s ({(1 - tolerance):.0%} of baseline "
                f"{base.get('throughput', 0.0):.1f}/s)")
        if fresh.get("backend") == "sim":
            for key in _EXACT_SIM_FIELDS:
                if key in base and fresh.get(key) != base.get(key):
                    problems.append(
                        f"{name}: deterministic field {key!r} drifted "
                        f"({base.get(key)!r} -> {fresh.get(key)!r}); "
                        f"behavior changed -- regenerate the baseline "
                        f"deliberately if intended")
    return problems
