"""The instrumentation seam: no-op by default, live under ``serve``.

Counts do not travel through the seam.  Every event a replica or its
transport node already counts -- commits, executions, owner and view
changes, stable checkpoints, frames -- lives in that owner's ``stats``
dict or ``frames_*`` attributes, and :meth:`LiveInstruments.collect`
copies those counters into the registry at scrape time.  Each count
has one writer, so a report and a ``/metrics`` scrape cannot disagree.

The seam carries only what nothing else records: the execution clock
(:meth:`Instruments.execute` feeds the exec-interval histogram), the
netem shaper's per-link drops and delays, and applied control events.
The default is the module-level :data:`NULL` singleton whose every
method is ``pass``.  Per-frame sites (shaper plans, the transport's
``last_rx_ms`` stamp) guard on :attr:`Instruments.enabled` so the
disabled path is a single attribute test.

``repro serve`` swaps in a :class:`LiveInstruments` that binds metric
children from a shared :class:`~repro.obs.metrics.MetricsRegistry`
once at construction.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricsRegistry,
)


class Instruments:
    """No-op instrument set: the default for every seam.

    Subclasses override what they measure; sites never check for
    ``None``, they just call.  Keep every method argument-cheap --
    plain scalars already at hand, no formatting at the call site.
    """

    #: Per-frame sites check this before calling (branch beats call).
    enabled = False

    def execute(self) -> None:
        """One command executed against the state machine."""

    def netem_dropped(self, src: str, dst: str) -> None:
        """The shaper dropped a frame on the ``src->dst`` link."""

    def netem_delayed(self, src: str, dst: str,
                      delay_ms: float) -> None:
        """The shaper added ``delay_ms`` on the ``src->dst`` link."""

    def control_event(self, event: str) -> None:
        """A signed control-channel fault event was applied."""


#: The shared no-op default every instrumented object starts with.
NULL = Instruments()


def stable_watermark(replica: Any) -> int:
    """Watermark of ``replica``'s latest stable checkpoint: 0 before
    one is stable."""
    stable = replica.checkpoints.stable
    return 0 if stable is None else stable.watermark


class LiveInstruments(Instruments):
    """Registry-backed instruments for one served replica.

    All families live in one process-wide registry; per-replica series
    are distinguished by the ``replica`` label, so a process hosting
    several replicas exposes one coherent scrape.  ``now_ms`` supplies
    the clock for interval measurements (the serve loop passes
    ``loop.time() * 1000``).
    """

    enabled = True

    def __init__(self, registry: MetricsRegistry, *, replica: str,
                 protocol: str,
                 now_ms: Optional[Callable[[], float]] = None) -> None:
        self.registry = registry
        self.replica = replica
        self.protocol = protocol
        self._now_ms = now_ms or (lambda: 0.0)
        self._last_exec_ms: Optional[float] = None

        commits = registry.counter(
            "repro_commits_total",
            "Commands committed, by protocol path",
            labels=("replica", "protocol", "path"))
        self._commit_fast = commits.labels(replica, protocol, "fast")
        self._commit_slow = commits.labels(replica, protocol, "slow")
        self._executed = registry.counter(
            "repro_executed_total",
            "Commands executed against the state machine",
            labels=("replica", "protocol")).labels(replica, protocol)
        self._owner_changes = registry.counter(
            "repro_owner_changes_total",
            "Owner-change votes started",
            labels=("replica",)).labels(replica)
        self._view_changes = registry.counter(
            "repro_view_changes_total",
            "View changes completed",
            labels=("replica",)).labels(replica)
        self._checkpoints = registry.counter(
            "repro_checkpoints_stable_total",
            "Checkpoints that reached a 2f+1 stability quorum",
            labels=("replica",)).labels(replica)
        frames = registry.counter(
            "repro_frames_total",
            "Transport frames, by direction/outcome",
            labels=("replica", "direction"))
        self._frames_rx = frames.labels(replica, "received")
        self._frames_tx = frames.labels(replica, "sent")
        self._frames_drop = frames.labels(replica, "dropped")
        self._exec_interval = registry.histogram(
            "repro_exec_interval_ms",
            "Gap between successive executions (liveness signal)",
            unit="ms", labels=("replica",),
            buckets=DEFAULT_LATENCY_BUCKETS_MS).labels(replica)
        self._netem_drops = registry.counter(
            "repro_netem_dropped_total",
            "Frames the netem shaper dropped, per directed link",
            labels=("link",))
        self._netem_delay = registry.counter(
            "repro_netem_delay_ms_total",
            "Delay the netem shaper added, per directed link",
            unit="ms", labels=("link",))
        self._control = registry.counter(
            "repro_control_events_total",
            "Signed control-channel fault events applied",
            labels=("event",))
        self._checkpoint_watermark = registry.gauge(
            "repro_checkpoint_stable_watermark",
            "Execution count of the latest stable checkpoint",
            labels=("replica",)).labels(replica)

    # ------------------------------------------------------------------
    def collect(self, replica: Any, node: Any) -> None:
        """Set the count families to ``replica``'s ``stats`` and its
        transport ``node``'s ``frames_*`` counters (the serve session
        calls this at scrape time).  A counter here mirrors its owner's
        count, so it is assigned, not incremented; a stat the protocol
        does not keep reads 0."""
        stats = replica.stats
        self._commit_fast.value = float(stats.get("committed_fast", 0))
        self._commit_slow.value = float(stats.get("committed_slow", 0))
        self._executed.value = float(stats["executed"])
        self._owner_changes.value = float(
            stats.get("owner_changes_started", 0))
        self._view_changes.value = float(stats.get("view_changes", 0))
        self._checkpoints.value = float(
            stats.get("checkpoints_stable", 0))
        self._checkpoint_watermark.set(stable_watermark(replica))
        self._frames_rx.value = float(node.frames_received)
        self._frames_tx.value = float(node.frames_sent)
        self._frames_drop.value = float(node.frames_dropped)

    def execute(self) -> None:
        now = self._now_ms()
        if self._last_exec_ms is not None:
            self._exec_interval.observe(now - self._last_exec_ms)
        self._last_exec_ms = now

    def netem_dropped(self, src: str, dst: str) -> None:
        self._netem_drops.labels(f"{src}->{dst}").inc()

    def netem_delayed(self, src: str, dst: str,
                      delay_ms: float) -> None:
        self._netem_delay.labels(f"{src}->{dst}").inc(delay_ms)

    def control_event(self, event: str) -> None:
        self._control.labels(event).inc()
