"""Protocol liveness for one served replica: the ``/healthz`` body.

Health is judged from signals the replica and its transport node
already maintain -- no extra hot-path bookkeeping:

- **progress**: the replica's ``executed`` counter.  The monitor
  tracks when it last advanced (sampled lazily at healthz time), so
  ``last_commit_age_ms`` is the staleness of the newest execution.
- **quorum reachability**: the transport node records when it last
  decoded a frame from each peer (only while instruments are live);
  a peer heard from inside :data:`REACHABLE_WINDOW_MS` counts as
  reachable, plus this replica itself.
- **checkpoint lag**: executions past the latest stable checkpoint
  watermark (the replica's ``checkpoints`` store) -- growing lag means
  garbage collection has stalled.

``status`` is ``"degraded"`` when the replica is crashed (via the
fault injector) or when traffic has flowed but fewer than a slow
quorum of replicas are currently reachable; otherwise ``"ok"``.  The
endpoint always answers 200 -- health is in the body, not the status
code, so a scrape can tell "degraded" from "dead".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.obs.instruments import stable_watermark

#: Version tag on every healthz body; bump on structural changes.
HEALTH_SCHEMA_VERSION = 1

#: A peer silent for longer than this is considered unreachable.
REACHABLE_WINDOW_MS = 3000.0


class HealthMonitor:
    """Computes the ``/healthz`` dict for one hosted replica.

    ``now_ms`` is the serve loop's clock; ``is_crashed`` asks the
    fault injector whether a CrashReplica currently silences us.
    """

    def __init__(self, replica_id: str, protocol: str,
                 replica: Any, node: Any, config: Any,
                 now_ms: Callable[[], float],
                 is_crashed: Optional[Callable[[], bool]] = None
                 ) -> None:
        self.replica_id = replica_id
        self.protocol = protocol
        self.replica = replica
        self.node = node
        self.config = config
        self._now_ms = now_ms
        self._is_crashed = is_crashed or (lambda: False)
        self._start_ms = now_ms()
        self._seen_executed = 0
        self._progress_ms: Optional[float] = None

    # ------------------------------------------------------------------
    def _executed(self) -> int:
        return int(self.replica.stats.get("executed", 0))

    def checkpoint_lag(self) -> int:
        return max(0, self._executed() - stable_watermark(self.replica))

    def _quorum(self, now: float) -> Dict[str, Any]:
        peers: Dict[str, Optional[float]] = {}
        last_rx = self.node.last_rx_ms
        reachable = 1  # this replica counts toward its own quorum
        for rid in self.config.replica_ids:
            if rid == self.replica_id:
                continue
            seen = last_rx.get(rid)
            if seen is None:
                peers[rid] = None
                continue
            age = max(0.0, now - seen)
            peers[rid] = age
            if age <= REACHABLE_WINDOW_MS:
                reachable += 1
        return {
            "required": self.config.slow_quorum_size,
            "reachable": reachable,
            "peers": peers,
        }

    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        now = self._now_ms()
        executed = self._executed()
        if executed > self._seen_executed:
            self._seen_executed = executed
            self._progress_ms = now
        last_commit_age = None if self._progress_ms is None \
            else max(0.0, now - self._progress_ms)
        watermark = stable_watermark(self.replica)
        quorum = self._quorum(now)
        crashed = bool(self._is_crashed())

        reasons = []
        if crashed:
            reasons.append("replica is crashed (fault injector)")
        total_rx = self.node.frames_received
        if total_rx > 0 and quorum["reachable"] < quorum["required"]:
            reasons.append(
                f"only {quorum['reachable']} of a required "
                f"{quorum['required']} replicas reachable")

        return {
            "schema_version": HEALTH_SCHEMA_VERSION,
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "replica": self.replica_id,
            "protocol": self.protocol,
            "uptime_ms": max(0.0, now - self._start_ms),
            "crashed": crashed,
            "executed": executed,
            "last_commit_age_ms": last_commit_age,
            "quorum": quorum,
            "checkpoint": {
                "stable_watermark": watermark,
                "lag": max(0, executed - watermark),
            },
        }
