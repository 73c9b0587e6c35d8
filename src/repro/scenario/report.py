"""Structured experiment results with JSON and CSV export.

A :class:`ScenarioRunner` run produces one :class:`ExperimentReport`:
per-phase throughput and latency percentiles, fast-path ratio, protocol
health counters (owner/view changes, stable checkpoints, resident log
footprint), aggregate client counters, the executed fault log, and
the safety verdict (:mod:`repro.check`).

Everything in :meth:`ExperimentReport.to_dict` is derived from the
scenario clock, so on the deterministic simulator two runs of the same
seeded scenario serialize identically (wall-clock time is reported
separately in :attr:`ExperimentReport.wall_seconds`).

:meth:`ExperimentReport.to_rows` flattens a report into one dict per
phase under the fixed :data:`REPORT_CSV_COLUMNS` column set -- the
tabular form shared by ``compare --csv`` and
:meth:`repro.sweep.SweepReport.to_csv`.  Wall-clock fields are
deliberately excluded so exported CSV is byte-stable across runs of a
seeded sim scenario.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cluster.metrics import LatencySummary

#: Fixed column order for the tabular (CSV) form of a report: one row
#: per phase, run-level counters repeated on every row.  Pinned by the
#: report-schema regression test -- extend deliberately, never reorder.
REPORT_CSV_COLUMNS = (
    "scenario",
    "protocol",
    "backend",
    "seed",
    "phase",
    "start_ms",
    "end_ms",
    "delivered",
    "throughput_per_sec",
    "latency_count",
    "latency_mean_ms",
    "latency_p50_ms",
    "latency_p90_ms",
    "latency_p99_ms",
    "latency_min_ms",
    "latency_max_ms",
    "fast_path_ratio",
    "warmup_discarded",
    "owner_changes",
    "view_changes",
    "checkpoints_stable",
    "log_footprint_total",
)


def rows_to_csv(rows: List[Dict[str, Any]], columns: List[str],
                path: Optional[str] = None) -> str:
    """Serialize ``rows`` (dicts) under a fixed ``columns`` order; None
    (the JSON form of NaN/inf) becomes an empty CSV field.  Returns the
    CSV text; also writes it to ``path`` when given."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns),
                            restval="", extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: ("" if value is None else value)
                         for key, value in row.items()})
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def _clean(value: float) -> Optional[float]:
    """NaN/inf are not valid strict JSON; map them to null."""
    if value is None or math.isnan(value) or math.isinf(value):
        return None
    return value


def _unclean(value: Optional[float]) -> float:
    """Inverse of :func:`_clean` for report reconstruction."""
    return float("nan") if value is None else value


def _summary_from_dict(data: Dict[str, Any]) -> LatencySummary:
    return LatencySummary(
        count=data["count"],
        mean=_unclean(data["mean_ms"]),
        p50=_unclean(data["p50_ms"]),
        p90=_unclean(data["p90_ms"]),
        p99=_unclean(data["p99_ms"]),
        minimum=_unclean(data["min_ms"]),
        maximum=_unclean(data["max_ms"]),
    )


def _summary_dict(summary: LatencySummary) -> Dict[str, Any]:
    return {
        "count": summary.count,
        "mean_ms": _clean(summary.mean),
        "p50_ms": _clean(summary.p50),
        "p90_ms": _clean(summary.p90),
        "p99_ms": _clean(summary.p99),
        "min_ms": _clean(summary.minimum),
        "max_ms": _clean(summary.maximum),
    }


@dataclass
class PhaseReport:
    """Metrics for one named slice of the run timeline."""

    name: str
    start_ms: float
    end_ms: float
    delivered: int
    throughput_per_sec: float
    latency: LatencySummary
    fast_path_ratio: float
    per_region: Dict[str, LatencySummary] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": _clean(self.end_ms),
            "delivered": self.delivered,
            "throughput_per_sec": round(self.throughput_per_sec, 3),
            "latency": _summary_dict(self.latency),
            "fast_path_ratio": _clean(self.fast_path_ratio),
            "per_region": {region: _summary_dict(summary)
                           for region, summary
                           in sorted(self.per_region.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PhaseReport":
        return cls(
            name=data["name"],
            start_ms=data["start_ms"],
            end_ms=_unclean(data["end_ms"]),
            delivered=data["delivered"],
            throughput_per_sec=data["throughput_per_sec"],
            latency=_summary_from_dict(data["latency"]),
            fast_path_ratio=_unclean(data["fast_path_ratio"]),
            per_region={region: _summary_from_dict(summary)
                        for region, summary
                        in data.get("per_region", {}).items()},
        )


@dataclass
class ExperimentReport:
    """Everything one scenario run measured."""

    scenario: str
    protocol: str
    backend: str
    seed: int
    replica_regions: List[str]
    duration_ms: float
    phases: List[PhaseReport]
    delivered: int
    throughput_per_sec: float
    latency: LatencySummary
    fast_path_ratio: float
    warmup_discarded: int
    owner_changes: int
    view_changes: int
    checkpoints_stable: int
    log_footprint_total: int
    client_stats: Dict[str, int]
    network: Dict[str, int]
    #: The safety verdict: :func:`repro.check.check` of the run, one
    #: ``{"check", "detail"}`` dict per violation; empty when safe.
    violations: List[Dict[str, str]]
    fault_log: List[Dict[str, Any]] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Critical-path summary from :func:`repro.trace.summarize_traces`
    #: when the run was traced; ``None`` (and absent from the
    #: serialized form) otherwise, so untraced reports keep their
    #: pinned schema byte-for-byte.
    trace: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "backend": self.backend,
            "seed": self.seed,
            "replica_regions": list(self.replica_regions),
            "duration_ms": _clean(self.duration_ms),
            "phases": [phase.to_dict() for phase in self.phases],
            "totals": {
                "delivered": self.delivered,
                "throughput_per_sec": round(self.throughput_per_sec, 3),
                "latency": _summary_dict(self.latency),
                "fast_path_ratio": _clean(self.fast_path_ratio),
                "warmup_discarded": self.warmup_discarded,
            },
            "protocol_health": {
                "owner_changes": self.owner_changes,
                "view_changes": self.view_changes,
                "checkpoints_stable": self.checkpoints_stable,
                "log_footprint_total": self.log_footprint_total,
            },
            "client_stats": dict(sorted(self.client_stats.items())),
            "network": dict(sorted(self.network.items())),
            "fault_log": list(self.fault_log),
            "violations": list(self.violations),
            "wall_seconds": round(self.wall_seconds, 3),
        }
        if self.trace is not None:
            data["trace"] = self.trace
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentReport":
        """Reconstruct a report from its :meth:`to_dict` form.

        The round trip preserves :meth:`to_dict` and :meth:`to_rows`
        output exactly (rounding in the serialized form is idempotent),
        which is what lets the sweep cell cache substitute a stored
        report for a fresh run.
        """
        totals = data["totals"]
        health = data["protocol_health"]
        return cls(
            scenario=data["scenario"],
            protocol=data["protocol"],
            backend=data["backend"],
            seed=data["seed"],
            replica_regions=list(data["replica_regions"]),
            duration_ms=_unclean(data["duration_ms"]),
            phases=[PhaseReport.from_dict(phase)
                    for phase in data["phases"]],
            delivered=totals["delivered"],
            throughput_per_sec=totals["throughput_per_sec"],
            latency=_summary_from_dict(totals["latency"]),
            fast_path_ratio=_unclean(totals["fast_path_ratio"]),
            warmup_discarded=totals["warmup_discarded"],
            owner_changes=health["owner_changes"],
            view_changes=health["view_changes"],
            checkpoints_stable=health["checkpoints_stable"],
            log_footprint_total=health["log_footprint_total"],
            client_stats=dict(data["client_stats"]),
            network=dict(data["network"]),
            violations=list(data["violations"]),
            fault_log=list(data["fault_log"]),
            wall_seconds=data["wall_seconds"],
            trace=data.get("trace"),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent,
                          allow_nan=False)

    def to_rows(self) -> List[Dict[str, Any]]:
        """One flat dict per phase under :data:`REPORT_CSV_COLUMNS`.

        Latency values are rounded to 3 decimals (microsecond precision
        on a millisecond clock) and NaN/inf map to None, mirroring
        :meth:`to_dict`.  Wall-clock time is excluded on purpose: the
        tabular form must be stable across runs of a seeded scenario.
        """
        def r3(value: Optional[float]) -> Optional[float]:
            value = _clean(value)
            return None if value is None else round(value, 3)

        rows = []
        for phase in self.phases:
            summary = phase.latency
            rows.append({
                "scenario": self.scenario,
                "protocol": self.protocol,
                "backend": self.backend,
                "seed": self.seed,
                "phase": phase.name,
                "start_ms": r3(phase.start_ms),
                "end_ms": r3(phase.end_ms),
                "delivered": phase.delivered,
                "throughput_per_sec": r3(phase.throughput_per_sec),
                "latency_count": summary.count,
                "latency_mean_ms": r3(summary.mean),
                "latency_p50_ms": r3(summary.p50),
                "latency_p90_ms": r3(summary.p90),
                "latency_p99_ms": r3(summary.p99),
                "latency_min_ms": r3(summary.minimum),
                "latency_max_ms": r3(summary.maximum),
                "fast_path_ratio": r3(phase.fast_path_ratio),
                "warmup_discarded": self.warmup_discarded,
                "owner_changes": self.owner_changes,
                "view_changes": self.view_changes,
                "checkpoints_stable": self.checkpoints_stable,
                "log_footprint_total": self.log_footprint_total,
            })
        return rows

    def to_csv(self, path: Optional[str] = None) -> str:
        """The report as CSV text (one row per phase); optionally
        written to ``path``."""
        return rows_to_csv(self.to_rows(), list(REPORT_CSV_COLUMNS),
                           path)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    # ------------------------------------------------------------------
    def format_text(self) -> str:
        """Human-readable summary for the CLI."""
        lines = [
            f"scenario   {self.scenario}  "
            f"[{self.protocol} / {self.backend} / seed={self.seed}]",
            f"regions    {', '.join(self.replica_regions)}",
            f"duration   {self.duration_ms:.0f} ms scenario time, "
            f"{self.wall_seconds:.2f} s wall",
            f"delivered  {self.delivered} requests "
            f"({self.throughput_per_sec:.1f}/s, "
            f"{self.warmup_discarded} warmup samples discarded)",
        ]
        fast = self.fast_path_ratio
        if not math.isnan(fast):
            lines.append(f"fast path  {fast:.1%}")
        lines.append(
            f"health     owner_changes={self.owner_changes} "
            f"view_changes={self.view_changes} "
            f"checkpoints_stable={self.checkpoints_stable} "
            f"log_footprint={self.log_footprint_total}")
        checks = sorted({v["check"] for v in self.violations})
        lines.append(f"safety     {len(self.violations)} violation(s)" +
                     (f": {', '.join(checks)}" if checks else ""))
        header = (f"{'phase':12s} {'window (ms)':>17s} {'n':>6s} "
                  f"{'thr/s':>8s} {'p50':>7s} {'p90':>7s} {'p99':>7s} "
                  f"{'fast':>6s}")
        lines.append("")
        lines.append(header)
        lines.append("-" * len(header))
        for phase in self.phases:
            summary = phase.latency
            fast = phase.fast_path_ratio
            fast_s = f"{fast:.0%}" if not math.isnan(fast) else "-"
            window = f"{phase.start_ms:.0f}-{phase.end_ms:.0f}"
            lines.append(
                f"{phase.name:12s} {window:>17s} "
                f"{phase.delivered:6d} "
                f"{phase.throughput_per_sec:8.1f} "
                f"{summary.p50:7.1f} {summary.p90:7.1f} "
                f"{summary.p99:7.1f} {fast_s:>6s}")
        if self.fault_log:
            lines.append("")
            lines.append("fault schedule:")
            for entry in self.fault_log:
                lines.append(
                    f"  t={entry['applied_ms']:8.1f}ms  "
                    f"{entry['detail']}")
        return "\n".join(lines)
