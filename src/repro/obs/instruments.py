"""The instrumentation seam: no-op by default, live under ``serve``.

Hot paths (replica commit/execute, owner changes, transport frames,
the netem shaper) call one-argument methods on an ``instruments``
attribute.  The default is the module-level :data:`NULL` singleton
whose every method is ``pass`` -- a disabled deployment pays one
attribute load and an empty call at *protocol event* frequency (not
per message), which the bench baseline gate verifies stays in the
noise.  Truly per-frame sites (transport dispatch, shaper plans)
additionally guard on :attr:`Instruments.enabled` so the disabled
path is a single attribute test.

``repro serve`` swaps in a :class:`LiveInstruments` that binds metric
children from a shared :class:`~repro.obs.metrics.MetricsRegistry`
once at construction, so recording an event is a float add.
"""

from __future__ import annotations

from typing import Callable, Optional

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

    def commit(self, path: str) -> None:
        """A command committed (``path`` is ``"fast"`` or ``"slow"``)."""

    def execute(self) -> None:
        """One command executed against the state machine."""

    def owner_change(self) -> None:
        """An owner-change vote started (ezBFT-shaped protocols)."""

    def view_change(self) -> None:
        """A view change completed (primary-based protocols)."""

    def checkpoint_stable(self, watermark: int) -> None:
        """A checkpoint reached a stability quorum at ``watermark``."""

    def frame_received(self) -> None:
        """One transport frame decoded and dispatched."""

    def frame_sent(self) -> None:
        """One transport frame written to a socket."""

    def frame_dropped(self) -> None:
        """One transport frame dropped (unknown peer / netem loss)."""

    def netem_dropped(self, src: str, dst: str) -> None:
        """The shaper dropped a frame on the ``src->dst`` link."""

    def netem_delayed(self, src: str, dst: str,
                      delay_ms: float) -> None:
        """The shaper added ``delay_ms`` on the ``src->dst`` link."""

    def control_event(self, event: str) -> None:
        """A signed control-channel fault event was applied."""


#: The shared no-op default every instrumented object starts with.
NULL = Instruments()


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
    def commit(self, path: str) -> None:
        (self._commit_fast if path == "fast"
         else self._commit_slow).inc()

    def execute(self) -> None:
        self._executed.inc()
        now = self._now_ms()
        if self._last_exec_ms is not None:
            self._exec_interval.observe(now - self._last_exec_ms)
        self._last_exec_ms = now

    def owner_change(self) -> None:
        self._owner_changes.inc()

    def view_change(self) -> None:
        self._view_changes.inc()

    def checkpoint_stable(self, watermark: int) -> None:
        self._checkpoints.inc()
        self._checkpoint_watermark.set(watermark)

    def frame_received(self) -> None:
        self._frames_rx.inc()

    def frame_sent(self) -> None:
        self._frames_tx.inc()

    def frame_dropped(self) -> None:
        self._frames_drop.inc()

    def netem_dropped(self, src: str, dst: str) -> None:
        self._netem_drops.labels(f"{src}->{dst}").inc()

    def netem_delayed(self, src: str, dst: str,
                      delay_ms: float) -> None:
        self._netem_delay.labels(f"{src}->{dst}").inc(delay_ms)

    def control_event(self, event: str) -> None:
        self._control.labels(event).inc()
