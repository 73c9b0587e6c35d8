"""Scenario sweep engine: parameter grids over the scenario API.

The paper's figures are parameter sweeps; this package turns the
PR 3 scenario API into a figure-reproduction machine:

- :class:`SweepSpec` (:mod:`repro.sweep.spec`): a base scenario or
  preset name plus cartesian ``grid`` and lockstep ``zipped`` axes
  over clients/contention/batch size/seeds/protocol/any field.
- :class:`SweepRunner` (:mod:`repro.sweep.runner`): executes every
  cell via :class:`~repro.scenario.runner.ScenarioRunner` on either
  backend, optionally across worker processes.
- :class:`SweepReport` (:mod:`repro.sweep.report`): per-cell
  :class:`~repro.scenario.report.ExperimentReport` plus grouped
  mean/min/max series, CSV/JSON export.
- :func:`plot_series` (:mod:`repro.sweep.plot`): matplotlib-optional
  paper-style curves -- this package imports (and works) without
  matplotlib; only calling the plot helper requires it.

``python -m repro sweep`` is the CLI face::

    python -m repro sweep --preset smoke --grid clients=2,4 \
        --grid seed=1,2 --csv out.csv
"""

from repro.sweep.cache import DEFAULT_CACHE_DIR, SweepCellCache
from repro.sweep.plot import plot_series
from repro.sweep.report import (
    METRICS,
    SERIES_CSV_COLUMNS,
    SeriesPoint,
    SweepCellResult,
    SweepReport,
    metric_value,
)
from repro.sweep.runner import SweepRunner, run_sweep
from repro.sweep.spec import (
    PARAM_ALIASES,
    SweepCell,
    SweepSpec,
    apply_params,
    resolve_param,
    sweep,
)

__all__ = [
    "SweepCellCache",
    "DEFAULT_CACHE_DIR",
    "SweepSpec",
    "SweepCell",
    "SweepRunner",
    "SweepReport",
    "SweepCellResult",
    "SeriesPoint",
    "METRICS",
    "SERIES_CSV_COLUMNS",
    "PARAM_ALIASES",
    "metric_value",
    "resolve_param",
    "apply_params",
    "sweep",
    "run_sweep",
    "plot_series",
]
