"""SweepReport: per-cell experiment reports plus grouped series.

The aggregate view (:meth:`SweepReport.series`) is what the paper's
figures plot: pick an x axis (a sweep axis), a metric, and optionally a
grouping axis (one line per value, typically ``protocol``); cells that
differ only in the remaining axes (typically ``seed``) collapse into
mean/min/max per point.

The tabular view (:meth:`SweepReport.to_rows` / ``to_csv``) emits one
row per (cell, phase): the cell's axis values prepended to the fixed
:data:`~repro.scenario.report.REPORT_CSV_COLUMNS` set.  Wall-clock
fields are excluded, so sweep CSV is byte-stable across runs of a
seeded sim sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.scenario.report import (
    REPORT_CSV_COLUMNS,
    ExperimentReport,
    rows_to_csv,
)

#: Metrics addressable by name in series()/plots, resolved against an
#: :class:`ExperimentReport`.
METRICS = {
    "delivered": lambda r: r.delivered,
    "throughput_per_sec": lambda r: r.throughput_per_sec,
    "latency_mean_ms": lambda r: r.latency.mean,
    "latency_p50_ms": lambda r: r.latency.p50,
    "latency_p90_ms": lambda r: r.latency.p90,
    "latency_p99_ms": lambda r: r.latency.p99,
    "latency_min_ms": lambda r: r.latency.minimum,
    "latency_max_ms": lambda r: r.latency.maximum,
    "fast_path_ratio": lambda r: r.fast_path_ratio,
    "owner_changes": lambda r: r.owner_changes,
    "view_changes": lambda r: r.view_changes,
    "checkpoints_stable": lambda r: r.checkpoints_stable,
    "log_footprint_total": lambda r: r.log_footprint_total,
    "violations": lambda r: len(r.violations),
}


#: Fixed column order for the aggregated series CSV (one row per
#: (group, x) point).  Pinned by the report-schema regression test --
#: extend deliberately, never reorder.
SERIES_CSV_COLUMNS = (
    "group_axis",
    "group",
    "x_axis",
    "x",
    "metric",
    "mean",
    "stddev",
    "ci95",
    "min",
    "max",
    "count",
)


def metric_value(report: ExperimentReport, name: str) -> float:
    """Resolve a named metric; raises naming the metric."""
    try:
        accessor = METRICS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown metric {name!r}; choose from "
            f"{tuple(METRICS)}") from None
    return accessor(report)


#: Two-sided 95% critical values of Student's t by degrees of freedom
#: (1..30); beyond 30 the normal 1.96 is within ~2%.  Small seed
#: counts are the norm in sweeps, where the normal approximation would
#: understate the interval badly (df=2: 4.30 vs 1.96).
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048, 2.045, 2.042,
)


def _t95(df: int) -> float:
    if df < 1:
        raise ConfigurationError("t-interval needs df >= 1")
    return _T95[df - 1] if df <= len(_T95) else 1.96


@dataclass(frozen=True)
class SeriesPoint:
    """Aggregate of one (group, x) bucket across the remaining axes.

    ``stddev`` is the sample standard deviation (n-1) and ``ci95`` the
    half-width of the two-sided 95% confidence interval on the mean
    (Student's t); both are ``None`` for single-sample buckets, where
    spread is undefined -- plots should draw no error bar rather than
    a misleading zero-width one.
    """

    x: Any
    mean: float
    minimum: float
    maximum: float
    count: int
    stddev: Optional[float] = None
    ci95: Optional[float] = None


@dataclass
class SweepCellResult:
    """One executed grid cell: its axis values and full report.

    ``scrape`` is the periodic ``/metrics.json`` time series sampled
    while the cell ran (``None`` unless the sweep runner was given a
    :class:`~repro.obs.ScrapeConfig` and the cell's scenario exposed
    obs endpoints): a list of ``{"t_ms": ..., "replicas": {rid:
    stats-or-None}}`` samples, dashboards-over-sweep-time material.
    """

    params: Tuple[Tuple[str, Any], ...]
    report: ExperimentReport
    scrape: Optional[List[Dict[str, Any]]] = None

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass
class SweepReport:
    """Everything a sweep measured, cell by cell."""

    name: str
    backend: str
    axes: Dict[str, Tuple[Any, ...]]
    cells: List[SweepCellResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def series(self, x: str, y: str = "throughput_per_sec",
               group_by: Optional[str] = None
               ) -> Dict[Any, List[SeriesPoint]]:
        """Grouped mean/min/max curves: ``{group_value: [SeriesPoint
        per x value]}`` (a single ``None`` group without ``group_by``).

        ``x`` and ``group_by`` are sweep axes; ``y`` is a
        :data:`METRICS` name.  Cells sharing (group, x) -- differing
        only in the remaining axes, e.g. seeds -- aggregate into one
        point.  NaN samples (e.g. fast-path ratio of a protocol
        without a fast path) are dropped per-bucket.
        """
        for axis in (x,) if group_by is None else (x, group_by):
            if axis not in self.axes:
                raise ConfigurationError(
                    f"unknown sweep axis {axis!r}; this sweep has "
                    f"{tuple(self.axes)}")
        buckets: Dict[Any, Dict[Any, List[float]]] = {}
        for cell in self.cells:
            params = cell.param_dict
            group = params.get(group_by) if group_by else None
            value = metric_value(cell.report, y)
            if value is None or (isinstance(value, float) and
                                 math.isnan(value)):
                continue
            buckets.setdefault(group, {}) \
                .setdefault(params[x], []).append(float(value))

        # Zipped axes repeat values (e.g. protocol zipped over several
        # contention levels): collapse to first-occurrence order so a
        # curve visits each x (and each group appears) exactly once.
        ordered_groups = list(dict.fromkeys(self.axes[group_by])) \
            if group_by else [None]
        x_values = list(dict.fromkeys(self.axes[x]))
        out: Dict[Any, List[SeriesPoint]] = {}
        for group in ordered_groups:
            if group not in buckets:
                continue
            points = []
            for x_value in x_values:
                samples = buckets[group].get(x_value)
                if not samples:
                    continue
                n = len(samples)
                mean = sum(samples) / n
                stddev = ci95 = None
                if n > 1:
                    variance = sum((s - mean) ** 2
                                   for s in samples) / (n - 1)
                    stddev = math.sqrt(variance)
                    ci95 = _t95(n - 1) * stddev / math.sqrt(n)
                points.append(SeriesPoint(
                    x=x_value,
                    mean=mean,
                    minimum=min(samples),
                    maximum=max(samples),
                    count=n,
                    stddev=stddev,
                    ci95=ci95))
            out[group] = points
        return out

    def cell(self, **params: Any) -> ExperimentReport:
        """The report of the unique cell matching ``params`` exactly
        on those axes; raises if none or several match."""
        for axis in params:
            if axis not in self.axes:
                raise ConfigurationError(
                    f"unknown sweep axis {axis!r}; this sweep has "
                    f"{tuple(self.axes)}")
        matches = [c for c in self.cells
                   if all(c.param_dict.get(k) == v
                          for k, v in params.items())]
        if len(matches) != 1:
            raise ConfigurationError(
                f"{len(matches)} sweep cells match {params!r} "
                f"(need exactly 1)")
        return matches[0].report

    # ------------------------------------------------------------------
    # Tabular / JSON export
    # ------------------------------------------------------------------
    def csv_columns(self) -> List[str]:
        """Axis columns (declaration order, minus any that shadow a
        report column) + the fixed report column set."""
        return [axis for axis in self.axes
                if axis not in REPORT_CSV_COLUMNS] + \
            list(REPORT_CSV_COLUMNS)

    def to_rows(self) -> List[Dict[str, Any]]:
        """One flat dict per (cell, phase)."""
        rows = []
        for cell in self.cells:
            axis_cells = {axis: value
                          for axis, value in cell.params
                          if axis not in REPORT_CSV_COLUMNS}
            for row in cell.report.to_rows():
                rows.append({**axis_cells, **row})
        return rows

    def to_csv(self, path: Optional[str] = None) -> str:
        """The sweep as CSV text (one row per cell x phase);
        optionally written to ``path``."""
        return rows_to_csv(self.to_rows(), self.csv_columns(), path)

    def series_to_rows(self, x: str, y: str = "throughput_per_sec",
                       group_by: Optional[str] = None
                       ) -> List[Dict[str, Any]]:
        """The aggregated :meth:`series` as flat dicts under
        :data:`SERIES_CSV_COLUMNS` -- one row per (group, x) point,
        with the spread statistics plots need for error bars."""
        def r3(value: Optional[float]) -> Optional[float]:
            if value is None or (isinstance(value, float) and
                                 not math.isfinite(value)):
                return None
            return round(value, 3)

        rows = []
        for group, points in self.series(x, y=y,
                                         group_by=group_by).items():
            for point in points:
                rows.append({
                    "group_axis": group_by or "",
                    "group": "" if group is None else group,
                    "x_axis": x,
                    "x": point.x,
                    "metric": y,
                    "mean": r3(point.mean),
                    "stddev": r3(point.stddev),
                    "ci95": r3(point.ci95),
                    "min": r3(point.minimum),
                    "max": r3(point.maximum),
                    "count": point.count,
                })
        return rows

    def series_to_csv(self, x: str, y: str = "throughput_per_sec",
                      group_by: Optional[str] = None,
                      path: Optional[str] = None) -> str:
        """The aggregated series as CSV text (see
        :meth:`series_to_rows`); optionally written to ``path``."""
        return rows_to_csv(self.series_to_rows(x, y=y,
                                               group_by=group_by),
                           list(SERIES_CSV_COLUMNS), path)

    def to_dict(self) -> Dict[str, Any]:
        def cell_dict(cell: SweepCellResult) -> Dict[str, Any]:
            data: Dict[str, Any] = {
                "params": cell.param_dict,
                "report": cell.report.to_dict(),
            }
            # Only when sampled: unscoped sweeps keep the pinned
            # two-key cell shape byte-for-byte.
            if cell.scrape is not None:
                data["scrape"] = cell.scrape
            return data

        return {
            "sweep": self.name,
            "backend": self.backend,
            "axes": {axis: list(values)
                     for axis, values in self.axes.items()},
            "cells": [cell_dict(cell) for cell in self.cells],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent,
                          allow_nan=False)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    # ------------------------------------------------------------------
    def format_text(self) -> str:
        """Human-readable per-cell summary table for the CLI."""
        axis_names = list(self.axes)
        header_cells = axis_names + ["n", "thr/s", "p50", "p99",
                                     "fast"]
        rows: List[List[str]] = []
        for cell in self.cells:
            params = cell.param_dict
            report = cell.report
            fast = report.fast_path_ratio
            fast_s = f"{fast:.0%}" if not math.isnan(fast) else "-"
            rows.append(
                [str(params.get(axis, "")) for axis in axis_names] +
                [str(report.delivered),
                 f"{report.throughput_per_sec:.1f}",
                 f"{report.latency.p50:.1f}",
                 f"{report.latency.p99:.1f}",
                 fast_s])
        widths = [max(len(header_cells[i]),
                      *(len(row[i]) for row in rows)) if rows
                  else len(header_cells[i])
                  for i in range(len(header_cells))]
        lines = [f"sweep      {self.name}  [{self.backend}, "
                 f"{len(self.cells)} cells]"]
        header = "  ".join(cell.rjust(widths[i])
                           for i, cell in enumerate(header_cells))
        lines.append(header)
        lines.append("-" * len(header))
        for row in rows:
            lines.append("  ".join(cell.rjust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)
