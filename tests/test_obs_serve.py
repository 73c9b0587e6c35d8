"""ServeSession end to end (single process) and the signed control
channel's verification ladder.

The two-process deployment test lives in test_obs_control_remote.py;
here everything runs in one event loop: a served replica subset with
port-0 obs endpoints, live scrapes, signed fault delivery, and a drain
that must leave the loop with no pending tasks.
"""

import asyncio
import json
import socket

import pytest

from repro.errors import ConfigurationError
from repro.obs import ServeSession, fetch_json, http_request
from repro.obs.control import (
    ControlChannel,
    ControlClient,
    control_keypair,
    sign_event,
)
from repro.scenario import Scenario, WorkloadSpec
from repro.scenario.faults import CrashReplica, PacketLoss


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _scenario() -> Scenario:
    return Scenario(
        name="obs-serve-test",
        protocol="ezbft",
        replica_regions=("local",) * 4,
        latency="local",
        hosts={"r2": f"127.0.0.1:{_free_port()}",
               "r3": f"127.0.0.1:{_free_port()}"},
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=2),
        seed=5,
        backends=("tcp",),
    )


def _session(**kwargs) -> ServeSession:
    return ServeSession(
        _scenario(), ("r2", "r3"),
        obs_addresses={"r2": ("127.0.0.1", 0),
                       "r3": ("127.0.0.1", 0)},
        **kwargs)


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------
def test_serve_session_scrape_control_and_drain(tmp_path):
    snapshot_path = tmp_path / "snapshot.json"

    async def run():
        session = _session(snapshot_path=str(snapshot_path))
        await session.start()
        host, port = session.endpoints["r2"]

        health = json.loads(
            (await http_request(host, port, "/healthz"))[1])
        assert health["status"] == "ok"
        assert health["replica"] == "r2"

        snap = await fetch_json(host, port, "/metrics.json")
        stats = {s["labels"]["stat"]: s["value"]
                 for f in snap["metrics"]
                 if f["name"] == "repro_replica_stat"
                 for s in f["samples"]
                 if s["labels"]["replica"] == "r2"}
        assert "executed" in stats

        client = ControlClient()
        result = await client.send(
            host, port, CrashReplica(at_ms=0.0, replica="r2"))
        assert result["applied"] is True
        assert session.injector.is_crashed("r2")
        health = json.loads(
            (await http_request(host, port, "/healthz"))[1])
        assert health["status"] == "degraded"
        assert health["crashed"] is True

        await session.drain()
        # The endpoint is down after drain.
        with pytest.raises(OSError):
            await http_request(host, port, "/healthz", timeout=1.0)
        pending = [t for t in asyncio.all_tasks()
                   if t is not asyncio.current_task()]
        assert pending == [], f"drain left tasks: {pending}"
        return session

    session = asyncio.run(run())
    payload = json.loads(snapshot_path.read_text())
    assert payload["schema_version"] == 1
    assert payload["replicas"] == ["r2", "r3"]
    assert payload["health"]["r2"]["crashed"] is True
    assert any(f["name"] == "repro_control_events_total"
               for f in payload["metrics"]["metrics"])
    assert session.endpoints  # still introspectable post-drain


def test_serve_session_rejects_unhosted_replica():
    scenario = _scenario()
    with pytest.raises(ConfigurationError, match="r1"):
        ServeSession(scenario, ("r1",))


def test_sigterm_drains_and_writes_snapshot(tmp_path):
    import os
    import signal
    import subprocess
    import sys

    from repro.scenario import save_spec

    scenario = _scenario().with_overrides(
        obs={"r2": f"127.0.0.1:{_free_port()}"})
    spec_path = tmp_path / "serve.json"
    snapshot_path = tmp_path / "final-snapshot.json"
    save_spec(scenario, str(spec_path))

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--spec", str(spec_path), "--replicas", "r2,r3",
         "--snapshot", str(snapshot_path), "--json-logs"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env)
    try:
        line = server.stdout.readline()
        assert "serving r2@" in line, f"serve did not come up: {line!r}"
        server.send_signal(signal.SIGTERM)
        out, err = server.communicate(timeout=15)
    except BaseException:
        server.kill()
        server.wait()
        raise
    assert server.returncode == 0, (out, err)

    payload = json.loads(snapshot_path.read_text())
    assert payload["schema_version"] == 1
    assert payload["replicas"] == ["r2", "r3"]
    assert set(payload["health"]) == {"r2", "r3"}
    # --json-logs: every stderr log line is one JSON object carrying
    # the run context.
    log_lines = [ln for ln in err.splitlines() if ln.strip()]
    assert log_lines, "expected structured log output on stderr"
    for ln in log_lines:
        record = json.loads(ln)
        assert record["run"] == scenario.name


def _sample(snapshot, name, **labels):
    family = next(f for f in snapshot["metrics"] if f["name"] == name)
    return next(s["value"] for s in family["samples"]
                if all(s["labels"][k] == v for k, v in labels.items()))


def _scraped_counts(snapshot, rid):
    """Every count family of one replica, as a scrape reports it."""
    return {
        "committed_fast": _sample(snapshot, "repro_commits_total",
                                  replica=rid, path="fast"),
        "committed_slow": _sample(snapshot, "repro_commits_total",
                                  replica=rid, path="slow"),
        "executed": _sample(snapshot, "repro_executed_total",
                            replica=rid),
        "owner_changes_started": _sample(
            snapshot, "repro_owner_changes_total", replica=rid),
        "view_changes": _sample(snapshot, "repro_view_changes_total",
                                replica=rid),
        "checkpoints_stable": _sample(
            snapshot, "repro_checkpoints_stable_total", replica=rid),
        "watermark": _sample(snapshot,
                             "repro_checkpoint_stable_watermark",
                             replica=rid),
        "frames": {d: _sample(snapshot, "repro_frames_total",
                              replica=rid, direction=d)
                   for d in ("received", "sent", "dropped")},
    }


def _owner_counts(replica, node):
    """The same counts, read from the replica and node that keep them."""
    stable = replica.checkpoints.stable
    counts = {key: replica.stats.get(key, 0) for key in (
        "committed_fast", "committed_slow", "executed",
        "owner_changes_started", "view_changes", "checkpoints_stable")}
    counts["watermark"] = 0 if stable is None else stable.watermark
    counts["frames"] = {"received": node.frames_received,
                        "sent": node.frames_sent,
                        "dropped": node.frames_dropped}
    return counts


@pytest.mark.parametrize("protocol", ["ezbft", "pbft"])
def test_scrape_counts_are_the_replica_and_node_counters(protocol):
    """One count source: at every scrape, each hosted replica's count
    families equal its own ``stats`` and its node's ``frames_*``."""
    from repro.scenario.deployment import build_tcp_cluster

    served = ("r1", "r2", "r3")
    scenario = _scenario().with_overrides(
        protocol=protocol, checkpoint_interval=2,
        hosts={rid: f"127.0.0.1:{_free_port()}" for rid in served})

    def check(session, label):
        # snapshot() runs the collectors, exactly as a /metrics.json
        # scrape does, and nothing else runs before the comparison.
        snapshot = session.registry.snapshot()
        for rid in served:
            assert _scraped_counts(snapshot, rid) == _owner_counts(
                session.cluster.replicas[rid],
                session.cluster.nodes[rid]), (rid, label)
        return snapshot

    async def run():
        session = ServeSession(
            scenario, served,
            obs_addresses={rid: ("127.0.0.1", 0) for rid in served})
        await session.start()
        # The scenario process: r0 and the client, in the same loop.
        local = build_tcp_cluster(scenario)
        await local.start()
        try:
            client = await local.add_client("c0")
            local.announce_remote()
            await asyncio.sleep(0.1)
            for i in range(6):
                check(session, i)
                await local.request(client, "put", f"k{i}", i)
            await asyncio.sleep(0.2)
            last = check(session, "settled")
            host, port = session.endpoints["r1"]
            await fetch_json(host, port, "/metrics.json")
            check(session, "after http scrape")
        finally:
            await local.stop()
            await session.drain()
        return last

    counts = _scraped_counts(asyncio.run(run()), "r1")
    assert counts["executed"] == 6
    assert counts["checkpoints_stable"] >= 2
    assert counts["frames"]["received"] > 0
    assert counts["frames"]["sent"] > 0


# ----------------------------------------------------------------------
# Control-channel verification ladder (no sockets needed)
# ----------------------------------------------------------------------
def _channel(applied):
    return ControlChannel(applied.append, ("r0", "r1", "r2", "r3"))


def test_control_channel_applies_signed_event():
    applied = []
    channel = _channel(applied)
    body = sign_event(CrashReplica(at_ms=0.0, replica="r1"),
                      control_keypair())
    status, payload = channel.handle(body)
    assert status == 200 and payload["applied"] is True
    assert len(applied) == 1
    assert isinstance(applied[0], CrashReplica)


def test_control_channel_rejects_garbage_and_missing_keys():
    channel = _channel([])
    assert channel.handle(b"not json")[0] == 400
    assert channel.handle(b'{"v": 1}')[0] == 400
    assert channel.handle(b'"just a string"')[0] == 400


def test_control_channel_rejects_bad_signature():
    applied = []
    channel = _channel(applied)
    wrong_key = control_keypair(seed=b"some-other-deployment")
    body = sign_event(CrashReplica(at_ms=0.0, replica="r1"), wrong_key)
    status, payload = channel.handle(body)
    assert status == 403
    assert applied == []


def test_control_channel_rejects_tampered_event():
    applied = []
    channel = _channel(applied)
    body = sign_event(PacketLoss(at_ms=0.0, probability=0.1),
                      control_keypair())
    envelope = json.loads(body)
    envelope["event"]["probability"] = 1.0  # MAC no longer covers it
    status, _ = channel.handle(json.dumps(envelope).encode())
    assert status == 403
    assert applied == []


def test_control_channel_rejects_replay():
    applied = []
    channel = _channel(applied)
    body = sign_event(CrashReplica(at_ms=0.0, replica="r1"),
                      control_keypair(), nonce="fixed-nonce")
    assert channel.handle(body)[0] == 200
    status, payload = channel.handle(body)
    assert status == 409
    assert "replay" in payload["error"]
    assert len(applied) == 1


def test_control_channel_nonce_window_is_bounded():
    # The replay set must not grow without bound under a long-lived
    # deployment; it evicts in insertion order past MAX_SEEN_NONCES.
    applied = []
    channel = _channel(applied)
    channel.MAX_SEEN_NONCES = 8  # instance override for test speed
    for i in range(8 + 3):
        body = sign_event(CrashReplica(at_ms=0.0, replica="r1"),
                          control_keypair(), nonce=f"nonce-{i}")
        assert channel.handle(body)[0] == 200
    assert len(channel._seen_nonces) == 8

    # Replay WITHIN the window still 409s...
    recent = sign_event(CrashReplica(at_ms=0.0, replica="r1"),
                        control_keypair(), nonce="nonce-10")
    assert channel.handle(recent)[0] == 409
    # ...while a nonce old enough to have been evicted is accepted
    # again (the documented trade-off of a bounded window).
    evicted = sign_event(CrashReplica(at_ms=0.0, replica="r1"),
                         control_keypair(), nonce="nonce-0")
    assert channel.handle(evicted)[0] == 200


def test_control_channel_rejects_invalid_event():
    channel = _channel([])
    # Unknown replica id fails FaultEvent.validate -> 422.
    body = sign_event(CrashReplica(at_ms=0.0, replica="r9"),
                      control_keypair())
    status, payload = channel.handle(body)
    assert status == 422
    assert "r9" in payload["error"]


def test_control_channel_apply_failure_is_500():
    def boom(event):
        raise RuntimeError("injector exploded")

    channel = ControlChannel(boom, ("r0", "r1", "r2", "r3"))
    body = sign_event(CrashReplica(at_ms=0.0, replica="r1"),
                      control_keypair())
    status, payload = channel.handle(body)
    assert status == 500
    assert "injector exploded" in payload["error"]


# ----------------------------------------------------------------------
# Live tracing (/trace) + endpoint-named failures
# ----------------------------------------------------------------------
def test_serve_session_trace_endpoint():
    async def run():
        session = _session(trace=True, trace_ring=16)
        await session.start()
        try:
            # The tracer is attached to every hosted replica and its
            # transport node (one shared ring per process).
            for rid in ("r2", "r3"):
                assert session.cluster.nodes[rid].tracer \
                    is session.tracer
                assert session.cluster.replicas[rid].tracer \
                    is session.tracer
            host, port = session.endpoints["r2"]
            body = await fetch_json(host, port, "/trace")
            assert body["schema"] == 1
            assert body["span_count"] == 0  # no client traffic yet
            assert body["dropped_spans"] == 0
            assert body["spans"] == []
        finally:
            await session.drain()

    asyncio.run(run())


def test_serve_session_trace_404_when_disabled():
    from repro.errors import TransportError

    async def run():
        session = _session()
        await session.start()
        try:
            assert session.tracer is None
            host, port = session.endpoints["r2"]
            with pytest.raises(TransportError, match="404"):
                await fetch_json(host, port, "/trace")
        finally:
            await session.drain()

    asyncio.run(run())


def test_control_send_failure_names_endpoint():
    from repro.errors import TransportError

    port = _free_port()  # nothing listens here

    async def run():
        client = ControlClient()
        with pytest.raises(TransportError) as exc:
            await client.send("127.0.0.1", port,
                              CrashReplica(at_ms=0.0, replica="r1"),
                              timeout=1.0)
        message = str(exc.value)
        assert f"POST /control on 127.0.0.1:{port}" in message
        assert "CrashReplica" in message

    asyncio.run(run())


def test_scrape_failure_names_endpoint():
    from repro.obs import scrape_replica_stats

    port = _free_port()  # nothing listens here

    async def run():
        errors = []
        stats = await scrape_replica_stats(
            {"r7": ("127.0.0.1", port)}, timeout=1.0, errors=errors)
        assert stats == {"r7": None}
        assert len(errors) == 1
        assert f"127.0.0.1:{port}" in errors[0]
        assert "r7" in errors[0]
        assert "/metrics.json" in errors[0]

    asyncio.run(run())
