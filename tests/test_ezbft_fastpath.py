"""ezBFT fast-path behaviour (paper Section IV-A)."""

import pytest

from repro.check import check, observe
from repro.core.instance import EntryStatus
from repro.sim.latency import EXPERIMENT1
from repro.types import InstanceID

from helpers import (
    DeliveryLog,
    geo_cluster,
    lan_cluster,
)


def test_single_request_takes_fast_path():
    cluster = lan_cluster()
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.paths == ["fast"]
    assert log.results == ["OK"]
    assert check(observe(cluster)) == []


def test_fast_path_read_returns_value():
    cluster = lan_cluster()
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v1"))
    cluster.run_until_idle()
    client.submit(client.next_command("get", "k"))
    cluster.run_until_idle()
    assert log.results == ["OK", "v1"]


def test_fast_path_commits_at_every_replica():
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    for replica in cluster.replicas.values():
        assert replica.stats["committed_fast"] == 1
        assert replica.stats["committed_slow"] == 0
        assert replica.stats["executed"] == 1


def test_leader_assigns_sequential_slots():
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local")
    for i in range(3):
        client.submit(client.next_command("put", f"k{i}", i))
        cluster.run_until_idle()
    leader = cluster.replicas[client.target_replica]
    space = leader.spaces[leader.node_id]
    assert [e.instance.slot for e in space.entries()] == [0, 1, 2]


def test_non_interfering_commands_all_fast():
    cluster = lan_cluster()
    log = DeliveryLog()
    clients = [cluster.add_client(f"c{i}", "local",
                                  target_replica=f"r{i}",
                                  on_delivery=log.hook(f"c{i}"))
               for i in range(4)]
    for i, client in enumerate(clients):
        client.submit(client.next_command("put", f"key{i}", i))
    cluster.run_until_idle()
    assert log.paths == ["fast"] * 4
    assert check(observe(cluster)) == []


def test_fast_path_empty_deps_seq_one():
    """Paper's Figure-1 example: first command in an idle system gets
    D = {} and S = 1 everywhere."""
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    for replica in cluster.replicas.values():
        entries = list(replica.spaces[client.target_replica].entries())
        assert len(entries) == 1
        assert entries[0].deps == ()
        assert entries[0].seq == 1
        assert entries[0].status == EntryStatus.EXECUTED


def test_sequential_same_key_commands_still_fast():
    """A client's own dependent history does not break the fast path:
    every replica has the previous command committed, so dependency sets
    match everywhere."""
    cluster = lan_cluster()
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    for i in range(3):
        client.submit(client.next_command("put", "same-key", i))
        cluster.run_until_idle()
    assert log.paths == ["fast"] * 3
    # The later commands depend on the earlier ones.
    leader = cluster.replicas[client.target_replica]
    entries = list(leader.spaces[leader.node_id].entries())
    assert entries[1].deps == (entries[0].instance,)
    assert entries[2].seq > entries[1].seq > entries[0].seq


def test_geo_fast_path_latency_matches_wan_model():
    """Tokyo client -> local leader; slowest reply leg is via Virginia:
    0.4 + (75 + 75) ~= 151ms."""
    cluster = geo_cluster()
    log = DeliveryLog()
    client = cluster.add_client("c0", "tokyo",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.paths == ["fast"]
    assert log.latencies()[0] == pytest.approx(151, abs=5)


def test_geo_client_targets_nearest_replica():
    cluster = geo_cluster()
    client = cluster.add_client("c0", "sydney")
    assert cluster.replica_regions[client.target_replica] == "sydney"


def test_client_exactly_once_timestamps_increase():
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local")
    a = client.next_command("put", "k", 1)
    b = client.next_command("put", "k", 2)
    assert b.timestamp == a.timestamp + 1


def test_duplicate_request_returns_cached_reply():
    """Replicas drop stale timestamps and re-serve the cached reply for
    the current one (paper step 2 nitpick)."""
    cluster = lan_cluster()
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    command = client.next_command("put", "k", "v")
    client.submit(command)
    cluster.run_until_idle()
    assert len(log.records) == 1
    leader = cluster.replicas[client.target_replica]
    before = leader.stats["led"]
    # Re-submit the same command object (same timestamp).
    from repro.messages.base import SignedPayload
    from repro.messages.ezbft import Request

    request = Request(command=command)
    cluster.network.send(
        "c0", client.target_replica,
        SignedPayload.create(request, client.keypair))
    cluster.run_until_idle()
    assert leader.stats["led"] == before  # not led twice


def test_all_replicas_can_lead_concurrently():
    """The leaderless property: four clients, four different leaders,
    all commands commit."""
    cluster = lan_cluster()
    log = DeliveryLog()
    for i in range(4):
        client = cluster.add_client(f"c{i}", "local",
                                    target_replica=f"r{i}",
                                    on_delivery=log.hook(f"c{i}"))
        client.submit(client.next_command("put", f"key{i}", i))
    cluster.run_until_idle()
    assert len(log.records) == 4
    led_counts = [r.stats["led"] for r in cluster.replicas.values()]
    assert led_counts == [1, 1, 1, 1]
    assert check(observe(cluster)) == []
    state = cluster.replicas["r0"].statemachine.final_items()
    assert state == {f"key{i}": i for i in range(4)}
