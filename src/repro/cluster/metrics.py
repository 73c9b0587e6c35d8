"""Latency, throughput, and resident-footprint metrics collection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


def replica_footprint(replica: Any) -> Dict[str, int]:
    """Sizes of a replica's resident log/execution structures.

    Works for any replica shape: counts whatever of the known
    structures the object exposes.  The memory-bound benchmark samples
    this over a long run to prove checkpoint GC keeps every structure
    O(checkpoint interval) instead of O(history)."""
    sizes: Dict[str, int] = {}
    log_index = getattr(replica, "_log_index", None)
    if log_index is not None:
        sizes["log_entries"] = len(log_index)
    spaces = getattr(replica, "spaces", None)
    if spaces is not None:
        sizes["space_slots"] = sum(len(s) for s in spaces.values())
    slots = getattr(replica, "_slots", None)
    if slots is not None:
        sizes["slots"] = len(slots)
    executor = getattr(replica, "executor", None)
    if executor is not None:
        sizes["executed_instances"] = len(executor.executed)
        sizes["history"] = len(replica.statemachine.record.entries)
        sizes["results"] = len(executor._results)
        sizes["deferred"] = len(executor._deferred)
    pending = getattr(replica, "_pending_spec_orders", None)
    if pending is not None:
        sizes["pending_spec_orders"] = len(pending)
    sizes["total"] = sum(sizes.values())
    return sizes


@dataclass
class LatencySummary:
    """Summary statistics over a set of latency samples (ms)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.1f}ms "
                f"p50={self.p50:.1f} p90={self.p90:.1f} "
                f"p99={self.p99:.1f}")


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile on a pre-sorted list."""
    if not sorted_values:
        return float("nan")
    rank = max(0, min(len(sorted_values) - 1,
                      math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


def summarize(samples: List[float]) -> LatencySummary:
    """Compute a :class:`LatencySummary` from raw samples."""
    if not samples:
        return LatencySummary(0, float("nan"), float("nan"),
                              float("nan"), float("nan"),
                              float("nan"), float("nan"))
    ordered = sorted(samples)
    return LatencySummary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=_percentile(ordered, 0.50),
        p90=_percentile(ordered, 0.90),
        p99=_percentile(ordered, 0.99),
        minimum=ordered[0],
        maximum=ordered[-1],
    )


class LatencyRecorder:
    """Accumulates per-request latency samples, tagged by group and phase.

    Groups are free-form strings; the benchmarks use the client's region
    so they can print the per-region rows the paper's figures show.

    Two scenario-grade facilities sit on top of the raw accumulation:

    - **Warmup exclusion**: ``discard_first`` drops the first N samples
      of every group before they reach any statistic (the classic
      closed-loop warmup transient).  Dropped samples are counted in
      :attr:`warmup_discarded` so reports can show what was excluded.
    - **Phase tagging**: :meth:`begin_phase` opens a named phase; every
      subsequent sample is tagged with it, and the per-phase accessors
      (``summary(group, phase=...)``, ``delivered(phase)``,
      ``fast_path_fraction(phase=...)``, :meth:`phase_window`) slice the
      run along the phase timeline.  Until the first ``begin_phase``
      call, samples land in the implicit ``"main"`` phase.
    """

    DEFAULT_PHASE = "main"

    def __init__(self, discard_first: int = 0) -> None:
        self.discard_first = discard_first
        self.warmup_discarded = 0
        self._seen: Dict[str, int] = {}
        self._samples: Dict[str, List[float]] = {}
        self._paths: Dict[str, Dict[str, int]] = {}
        self._phase_order: List[str] = []
        self._phase_starts: Dict[str, float] = {}
        self._phase_samples: Dict[str, Dict[str, List[float]]] = {}
        self._phase_paths: Dict[str, Dict[str, Dict[str, int]]] = {}
        self._phase_first: Dict[str, float] = {}
        self._phase_last: Dict[str, float] = {}
        self._current_phase: Optional[str] = None
        self.first_delivery: Optional[float] = None
        self.last_delivery: Optional[float] = None
        self.total_delivered = 0

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def begin_phase(self, name: str, now_ms: float = 0.0) -> None:
        """Open phase ``name`` at ``now_ms``; later samples are tagged
        with it.  Phase names must be unique within a run."""
        if name in self._phase_starts:
            raise ValueError(f"phase {name!r} already began")
        self._phase_order.append(name)
        self._phase_starts[name] = now_ms
        self._current_phase = name

    def phases(self) -> Tuple[str, ...]:
        """Phase names in timeline order."""
        return tuple(self._phase_order)

    def phase_window(self, phase: str) -> Tuple[float, float]:
        """``(start_ms, end_ms)`` of a phase: its declared start to the
        next phase's start (or the last delivery for the final phase)."""
        if phase not in self._phase_starts:
            raise KeyError(f"unknown phase {phase!r}")
        start = self._phase_starts[phase]
        index = self._phase_order.index(phase)
        if index + 1 < len(self._phase_order):
            end = self._phase_starts[self._phase_order[index + 1]]
        else:
            end = max(self._phase_last.get(phase, start), start)
        return start, end

    def _ensure_phase(self) -> str:
        if self._current_phase is None:
            self.begin_phase(self.DEFAULT_PHASE, 0.0)
        return self._current_phase  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, group: str, latency_ms: float, path: str,
               now_ms: float) -> None:
        seen = self._seen.get(group, 0)
        self._seen[group] = seen + 1
        if seen < self.discard_first:
            self.warmup_discarded += 1
            return
        phase = self._ensure_phase()
        self._samples.setdefault(group, []).append(latency_ms)
        path_counts = self._paths.setdefault(group, {})
        path_counts[path] = path_counts.get(path, 0) + 1
        by_group = self._phase_samples.setdefault(phase, {})
        by_group.setdefault(group, []).append(latency_ms)
        phase_paths = self._phase_paths.setdefault(phase, {})
        group_paths = phase_paths.setdefault(group, {})
        group_paths[path] = group_paths.get(path, 0) + 1
        if phase not in self._phase_first:
            self._phase_first[phase] = now_ms
        self._phase_last[phase] = now_ms
        if self.first_delivery is None:
            self.first_delivery = now_ms
        self.last_delivery = now_ms
        self.total_delivered += 1

    def groups(self) -> Tuple[str, ...]:
        return tuple(sorted(self._samples))

    def samples(self, group: str,
                phase: Optional[str] = None) -> List[float]:
        if phase is None:
            return list(self._samples.get(group, []))
        return list(self._phase_samples.get(phase, {}).get(group, []))

    def all_samples(self, phase: Optional[str] = None) -> List[float]:
        source = self._samples if phase is None \
            else self._phase_samples.get(phase, {})
        out: List[float] = []
        for samples in source.values():
            out.extend(samples)
        return out

    def summary(self, group: str,
                phase: Optional[str] = None) -> LatencySummary:
        return summarize(self.samples(group, phase=phase))

    def overall(self, phase: Optional[str] = None) -> LatencySummary:
        return summarize(self.all_samples(phase=phase))

    def delivered(self, phase: Optional[str] = None) -> int:
        if phase is None:
            return self.total_delivered
        return sum(len(s)
                   for s in self._phase_samples.get(phase, {}).values())

    def path_counts(self, group: str,
                    phase: Optional[str] = None) -> Dict[str, int]:
        if phase is None:
            return dict(self._paths.get(group, {}))
        return dict(self._phase_paths.get(phase, {}).get(group, {}))

    def fast_path_fraction(self, group: Optional[str] = None,
                           phase: Optional[str] = None) -> float:
        """Fraction of deliveries that took the fast path."""
        source = self._paths if phase is None \
            else self._phase_paths.get(phase, {})
        groups = [group] if group is not None else list(source)
        fast = total = 0
        for g in groups:
            for path, count in source.get(g, {}).items():
                total += count
                if path == "fast":
                    fast += count
        return fast / total if total else float("nan")

    def throughput_per_sec(self, window_ms: Optional[float] = None,
                           phase: Optional[str] = None) -> float:
        """Delivered requests per (simulated) second.

        Uses the observed delivery window (of ``phase``, when given)
        unless ``window_ms`` overrides it.
        """
        delivered = self.delivered(phase=phase)
        if window_ms is None:
            if phase is not None:
                first = self._phase_first.get(phase)
                last = self._phase_last.get(phase)
            else:
                first, last = self.first_delivery, self.last_delivery
            if first is None or last is None or last <= first:
                return 0.0
            window_ms = last - first
        if window_ms <= 0:
            return 0.0
        return delivered * 1000.0 / window_ms
