"""Schema pin for the obs endpoints: golden /metrics exposition and
/healthz body.

Dashboards, the CI obs-smoke job, and sweep scraping key into these
surfaces by metric name, label set, bucket boundary, and health field;
a rename or a bucket drift must show up as a deliberate golden diff,
not a silently broken dashboard.  Everything is rendered from a fake
clock, fixed stub counters and a fixed event sequence, so both bodies
are byte-stable.

Regenerate after an intentional change with::

    python tests/test_obs_http.py --regen
"""

import asyncio
import json
import os

from repro.obs import (
    HealthMonitor,
    LiveInstruments,
    MetricsRegistry,
    ObsServer,
    fetch_json,
    http_request,
)
from repro.cluster.builder import build_cluster
from repro.sim.latency import LOCAL
from repro.sim.network import CpuModel
from repro.statemachine.checkpoint import Checkpoint, CheckpointStore

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "obs_endpoints.json")


class _FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


class _StubReplica:
    def __init__(self) -> None:
        self.stats = {"executed": 7, "committed_fast": 5}
        self.checkpoints = CheckpointStore(quorum=1)
        self.checkpoints.install_stable(
            Checkpoint(watermark=4, state_digest="digest", snapshot={}))


class _StubNode:
    def __init__(self, now: float) -> None:
        self.frames_received = 42
        self.last_rx_ms = {"r1": now - 100.0, "r2": now - 250.0}


class _StubConfig:
    replica_ids = ("r0", "r1", "r2", "r3")
    slow_quorum_size = 3


class _StubCounts:
    """The counters a replica and its transport node keep, which the
    registry reads at scrape time."""

    def __init__(self) -> None:
        self.stats = {"committed_fast": 2, "committed_slow": 1,
                      "executed": 2, "owner_changes_started": 1,
                      "view_changes": 1, "checkpoints_stable": 1}
        self.checkpoints = CheckpointStore(quorum=1)
        self.checkpoints.install_stable(
            Checkpoint(watermark=4, state_digest="digest", snapshot={}))
        self.frames_received = 1
        self.frames_sent = 1
        self.frames_dropped = 1


def _build_registry(clock: _FakeClock) -> MetricsRegistry:
    registry = MetricsRegistry()
    live = LiveInstruments(registry, replica="r0", protocol="ezbft",
                           now_ms=clock)
    owner = _StubCounts()
    registry.register_collector(lambda: live.collect(owner, owner))
    live.execute()
    clock.now += 12.0
    live.execute()
    live.netem_dropped("r0", "r1")
    live.netem_delayed("r0", "r1", 40.0)
    live.control_event("CrashReplica")
    return registry


def _build_monitor(clock: _FakeClock) -> HealthMonitor:
    monitor = HealthMonitor("r0", "ezbft", _StubReplica(),
                            _StubNode(clock.now), _StubConfig(),
                            clock)
    clock.now += 500.0
    return monitor


def current_bodies():
    clock = _FakeClock()
    registry = _build_registry(clock)
    monitor = _build_monitor(clock)

    async def scrape():
        server = ObsServer(registry, healthz=monitor.healthz)
        await server.start()
        try:
            host, port = server.address
            status, metrics = await http_request(host, port, "/metrics")
            assert status == 200
            healthz = await fetch_json(host, port, "/healthz")
            snapshot = await fetch_json(host, port, "/metrics.json")
        finally:
            await server.stop()
        return metrics.decode("utf-8"), healthz, snapshot

    metrics_text, healthz, snapshot = asyncio.run(scrape())
    return {
        "metrics_text": metrics_text.splitlines(),
        "healthz": healthz,
        "snapshot_schema_version": snapshot["schema_version"],
        "snapshot_metric_names": [f["name"]
                                  for f in snapshot["metrics"]],
    }


def golden_bodies():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_obs_endpoints_match_golden_file():
    current = current_bodies()
    golden = golden_bodies()
    assert set(current) == set(golden), \
        "obs golden sections changed; regenerate deliberately " \
        "(see module docstring)"
    for section in golden:
        assert current[section] == golden[section], (
            f"obs endpoint schema drifted in {section!r}: metric "
            f"names, labels, bucket bounds and health fields are a "
            f"contract with dashboards and the CI smoke job.  If "
            f"intentional, regenerate tests/data/obs_endpoints.json "
            f"(module docstring).")


def test_healthz_always_200_even_when_degraded():
    clock = _FakeClock()
    registry = MetricsRegistry()
    monitor = HealthMonitor("r0", "ezbft", _StubReplica(),
                            _StubNode(clock.now), _StubConfig(),
                            clock, is_crashed=lambda: True)

    async def probe():
        server = ObsServer(registry, healthz=monitor.healthz)
        await server.start()
        try:
            host, port = server.address
            return await http_request(host, port, "/healthz")
        finally:
            await server.stop()

    status, body = asyncio.run(probe())
    payload = json.loads(body)
    assert status == 200
    assert payload["status"] == "degraded"
    assert payload["crashed"] is True
    assert payload["reasons"]


def test_pbft_checkpoint_lag_reads_its_checkpoint_store():
    """PBFT checkpoints through the same ``CheckpointStore`` as ezBFT;
    its health must report that watermark, not a lag that grows with
    every execution."""
    cluster = build_cluster("pbft", ["local"] * 4, LOCAL,
                            cpu=CpuModel.free(), checkpoint_interval=8)
    client = cluster.add_client("c0", "local")
    for i in range(40):
        client.submit(client.next_command("put", f"k{i}", i))
        cluster.run_until_idle()
    replica = cluster.replicas["r0"]
    assert replica.checkpoints.stable.watermark == 40
    clock = _FakeClock()
    monitor = HealthMonitor("r0", "pbft", replica, _StubNode(clock.now),
                            cluster.config, clock)
    body = monitor.healthz()
    assert body["executed"] == 40
    assert body["checkpoint"] == {"stable_watermark": 40, "lag": 0}
    assert monitor.checkpoint_lag() == 0


def test_unknown_path_and_wrong_method():
    registry = MetricsRegistry()

    async def probe():
        server = ObsServer(registry)
        await server.start()
        try:
            host, port = server.address
            missing = await http_request(host, port, "/nope")
            wrong = await http_request(host, port, "/metrics",
                                       method="POST")
            no_monitor = await http_request(host, port, "/healthz")
        finally:
            await server.stop()
        return missing, wrong, no_monitor

    missing, wrong, no_monitor = asyncio.run(probe())
    assert missing[0] == 404
    assert wrong[0] == 405
    assert no_monitor[0] == 404


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(current_bodies(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print("pass --regen to rewrite the golden endpoints file")
