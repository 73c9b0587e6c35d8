"""Pinned performance benchmark: the ``repro bench`` subcommand.

The harness can only prove speed wins (or catch regressions) against a
recorded trajectory, so this package pins one benchmark grid and one
JSON artifact shape (``BENCH_<rev>.json``) and keeps both stable:

- :data:`PINNED_GRID` -- all four protocols x batch size {1, 8} on the
  saturated sim workload, plus one TCP smoke cell;
- :func:`run_bench` -- execute the grid, returning the artifact dict;
- :func:`compare` -- diff a fresh artifact against a committed
  baseline under a throughput tolerance gate, with exact matching on
  the deterministic sim fields (delivered / p50 / p99);
- :func:`newest_baseline` -- pick the file to gate against out of the
  kept ``benchmarks/baselines/`` history.

See the README "Performance" section for how the baseline is
regenerated and what the gate enforces in CI.
"""

from repro.bench.runner import (
    BENCH_SCHEMA,
    BenchCell,
    PINNED_GRID,
    compare,
    current_rev,
    grid_cells,
    newest_baseline,
    run_bench,
    run_cell,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchCell",
    "PINNED_GRID",
    "compare",
    "current_rev",
    "grid_cells",
    "newest_baseline",
    "run_bench",
    "run_cell",
]
