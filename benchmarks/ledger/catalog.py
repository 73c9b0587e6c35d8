"""The ledger's vocabulary: workloads, metrics, and the statistics
rules every reported number follows.

``BENCHMARK.json`` at the repository root restates the workload list,
:data:`END_TO_END` and :data:`PER_LAYER`; a test keeps the two equal.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

#: name -> why it exists (one line; README.md has the long form).
WORKLOADS: Dict[str, str] = {
    "tcp_steady": (
        "private-key puts over loopback TCP, saturated then paced: "
        "crypto, decode, codec and asyncio transport do the work"),
    "tcp_contended": (
        "every put hits one hot key: all commits take the slow path "
        "and the executor resolves a dependency chain"),
    "tcp_batched": (
        "8-command client batches over TCP: exercises the batching "
        "path, which must not move tcp_steady"),
    "tcp_durable": (
        "tcp_steady with WAL and snapshots attached, then restart "
        "recovery: the only workload where repro.storage works"),
    "sim_saturated": (
        "repro.bench's pinned sim-ezbft-b1 cell: sim kernel and "
        "replica ordering with transport, codec and decode idle"),
    "sim_wan_crash": (
        "WAN sim with r1 crashed 3-7 s under open-loop load, ezBFT vs "
        "PBFT: the paper's latency claim and its fault story"),
}

SIM_WORKLOADS = tuple(w for w in WORKLOADS if w.startswith("sim_"))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen;
    #: ``None`` for diagnostics (per-layer metrics have no bound).
    bound: Optional[float] = None
    #: Workloads reporting it (empty: all).
    on: Tuple[str, ...] = ()
    #: Simulated-clock or counted: must repeat exactly across reps.
    exact_on: Tuple[str, ...] = ()

    def reported_on(self, workload: str) -> bool:
        return not self.on or workload in self.on


#: Every workload reports these; the contract's ``end_to_end`` list.
#: Ten runs of one workload on the shared 2-core sandbox spread by at
#: most half of each wall-clock bound, most by under a third of it
#: (README.md has the table, per workload, with and without reference
#: speed).  The issue asked for 0.10; single runs on this host do not
#: support it, and README.md says so instead of claiming it.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("commits_per_s", "1/s", "higher", 0.20),
    Metric("cpu_ms_per_commit", "ms", "lower", 0.20),
    Metric("commit_p50_ms", "ms", "lower", 0.25,
           exact_on=SIM_WORKLOADS),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)

#: End-to-end metrics only some workloads have.  The contract wants
#: every ``end_to_end`` metric from every workload, so these are gated
#: by the ledger's own ``--aa``.  The driver sees ``outage_ms``,
#: ``wan_p50_vs_pbft`` and ``recover_s`` as per-layer (unbounded)
#: metrics of the same names, ``commit_p99_ms`` as
#: ``bench.commit_p99_ms`` (on ``sim_wan_crash`` the same figure) and
#: ``failed_share`` as its ``attempted`` / ``failed`` counts.
LEDGER_ONLY: Tuple[Metric, ...] = (
    Metric("commit_p99_ms", "ms", "lower", 0.10,
           on=("sim_wan_crash",), exact_on=("sim_wan_crash",)),
    Metric("outage_ms", "ms", "lower", 0.10,
           on=("sim_wan_crash",), exact_on=("sim_wan_crash",)),
    Metric("wan_p50_vs_pbft", "ratio", "lower", 0.10,
           on=("sim_wan_crash",), exact_on=("sim_wan_crash",)),
    Metric("recover_s", "s", "lower", 0.25, on=("tcp_durable",)),
    Metric("failed_share", "ratio", "lower", 0.0),
)

#: Layers of the traced pass, in request-path order.
LAYERS: Tuple[str, ...] = (
    "crypto", "messages", "transport.codec", "transport.asyncio_tcp",
    "sim", "core.replica", "core.client", "core.executor",
    "statemachine", "storage",
)

_PER_LAYER_COMMON = (
    ("calls_per_commit", "count", "lower"),
    ("self_us_per_commit", "us", "lower"),
    ("self_share", "ratio", "lower"),
)

_EXTRAS: Tuple[Tuple[str, str, str], ...] = (
    ("crypto.canonical_us_per_call", "us", "lower"),
    ("crypto.verifies_per_commit", "count", "lower"),
    ("crypto.macs_per_commit", "count", "lower"),
    ("messages.decode_us_per_frame", "us", "lower"),
    ("transport.codec.encode_us_per_frame", "us", "lower"),
    ("transport.codec.decode_us_per_frame", "us", "lower"),
    ("transport.codec.bytes_per_frame", "B", "lower"),
    ("transport.asyncio_tcp.frames_per_commit", "count", "lower"),
    ("transport.asyncio_tcp.bytes_per_commit", "B", "lower"),
    ("transport.asyncio_tcp.frames_dropped", "count", "lower"),
    ("sim.events_per_commit", "count", "lower"),
    ("sim.events_per_wall_s", "1/s", "higher"),
    ("sim.kernel_us_per_event", "us", "lower"),
    ("core.replica.msgs_per_commit", "count", "lower"),
    ("core.replica.owner_changes", "count", "lower"),
    ("core.replica.cmds_per_batch", "count", "higher"),
    ("core.client.fast_path_share", "ratio", "higher"),
    ("core.client.retries_per_commit", "count", "lower"),
    ("core.executor.deferred_peak", "count", "lower"),
    ("graph.scc_calls_per_commit", "count", "lower"),
    ("storage.appends_per_commit", "count", "lower"),
    ("storage.append_us_p50", "us", "lower"),
    ("storage.bytes_per_commit", "B", "lower"),
    ("storage.rotations", "count", "lower"),
    ("storage.snapshot_ms_p50", "ms", "lower"),
    ("storage.fsyncs_per_commit", "count", "higher"),
    ("storage.replay_records_per_s", "1/s", "higher"),
    ("bench.loadgen_self_share", "ratio", "lower"),
    ("bench.loadgen_late_p99_ms", "ms", "lower"),
    ("bench.untraced_share", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "higher"),
    ("bench.commit_p99_ms", "ms", "lower"),
    ("bench.machine_speed", "ratio", "higher"),
    ("obs.on_ratio", "ratio", "higher"),
    ("trace.on_ratio", "ratio", "higher"),
    ("storage.on_ratio", "ratio", "higher"),
)

#: The contract's ``per_layer`` list: three numbers per layer, the
#: extras, and the workload-specific end-to-end metrics that have no
#: other way to the driver.
PER_LAYER: Tuple[Metric, ...] = tuple(
    Metric(f"{layer}.{suffix}", unit, better)
    for layer in LAYERS
    for suffix, unit, better in _PER_LAYER_COMMON
) + tuple(Metric(*extra) for extra in _EXTRAS) + tuple(
    Metric(m.name, m.unit, m.better) for m in LEDGER_ONLY
    if m.name not in ("failed_share", "commit_p99_ms"))


def benchmark_json(command: Sequence[str], paths: Sequence[str],
                   run_seconds: int) -> Dict[str, object]:
    """The ``BENCHMARK.json`` document this catalogue describes."""
    return {
        "command": list(command),
        "paths": list(paths),
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit,
                        "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit,
                       "better": m.better} for m in PER_LAYER],
    }


# ----------------------------------------------------------------------
# Statistics rules
# ----------------------------------------------------------------------
#: Percentiles a latency figure may be reported at, highest first,
#: each with the share of samples beyond it in parts per thousand.
_PERCENTILE_LADDER = ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100))
#: A percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def supported_percentile(count: int) -> float:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    samples beyond it (50 when even the 90th has fewer)."""
    for pct, beyond_per_mille in _PERCENTILE_LADDER:
        if count * beyond_per_mille >= MIN_BEYOND * 1000:
            return pct
    return 50.0


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the rule ``repro.cluster.metrics``
    uses, so sim figures match ``ExperimentReport``'s)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = -(-pct * len(ordered) // 100)  # ceil
    return ordered[max(0, min(len(ordered) - 1, int(rank) - 1))]


def tail(samples: Sequence[float], cap: float = 99.0
         ) -> Tuple[float, float]:
    """``(percentile, value)`` at the highest supported percentile,
    never above ``cap``."""
    pct = min(cap, supported_percentile(len(samples)))
    return pct, percentile(samples, pct)


@dataclass(frozen=True)
class Summary:
    """Median, quartiles and sample count of repeated measurements."""

    median: float
    q1: float
    q3: float
    count: int


def summarize(values: Sequence[float]) -> Summary:
    values = list(values)
    if len(values) == 1:
        return Summary(values[0], values[0], values[0], 1)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Summary(statistics.median(values), q1, q3, len(values))


def worse_by(metric: Metric, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if metric.better == "lower" else -change
