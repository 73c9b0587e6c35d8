"""Zyzzyva baseline: speculative fast path and commit fallback (the view
change is every baseline's: tests/test_view_change.py)."""

import pytest

from repro.byzantine import silence_node
from repro.check import check, observe

from helpers import (
    DeliveryLog,
    geo_cluster,
    lan_cluster,
)


def test_fast_path_single_request():
    cluster = lan_cluster("zyzzyva")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.paths == ["fast"]
    assert log.results == ["OK"]


def test_three_step_latency_shape():
    cluster = lan_cluster("zyzzyva")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.latencies()[0] == pytest.approx(0.3, abs=0.05)


def test_speculative_state_matches_after_run():
    cluster = lan_cluster("zyzzyva")
    client = cluster.add_client("c0", "local")
    for i in range(3):
        client.submit(client.next_command("put", f"k{i}", i))
        cluster.run_until_idle()
    for replica in cluster.replicas.values():
        for i in range(3):
            assert replica.statemachine.get_speculative(f"k{i}") == i


def test_replicas_execute_into_final_state():
    cluster = lan_cluster("zyzzyva")
    client = cluster.add_client("c0", "local")
    for i in range(3):
        client.submit(client.next_command("put", f"k{i}", i))
        cluster.run_until_idle()
    assert check(observe(cluster)) == []
    for statemachine in cluster.statemachines().values():
        assert statemachine.final_items() == {"k0": 0, "k1": 1, "k2": 2}


def test_history_digests_chain_identically():
    cluster = lan_cluster("zyzzyva")
    client = cluster.add_client("c0", "local")
    for i in range(4):
        client.submit(client.next_command("put", "k", i))
        cluster.run_until_idle()
    digests = {r._history_digest for r in cluster.replicas.values()}
    assert len(digests) == 1


def test_silent_backup_forces_slow_path():
    cluster = lan_cluster("zyzzyva")
    silence_node(cluster, "r3")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.paths == ["slow"]
    assert log.results == ["OK"]


def test_slow_path_sends_local_commits():
    cluster = lan_cluster("zyzzyva")
    silence_node(cluster, "r3")
    client = cluster.add_client("c0", "local")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    for rid in ("r0", "r1", "r2"):
        assert cluster.replicas[rid]._max_committed >= 0


def test_sequential_requests_fifo_order():
    cluster = lan_cluster("zyzzyva")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    for i in range(5):
        client.submit(client.next_command("put", "k", i))
        cluster.run_until_idle()
    assert log.results == ["OK"] * 5
    for replica in cluster.replicas.values():
        assert replica.statemachine.get_speculative("k") == 4


def test_concurrent_clients_all_commit():
    cluster = lan_cluster("zyzzyva")
    log = DeliveryLog()
    for i in range(3):
        client = cluster.add_client(f"c{i}", "local",
                                    on_delivery=log.hook(f"c{i}"))
        client.submit(client.next_command("put", f"k{i}", i))
    cluster.run_until_idle()
    assert sorted(log.paths) == ["fast"] * 3
    specs = [tuple(sorted((k, r.statemachine.get_speculative(k))
                          for k in ("k0", "k1", "k2")))
             for r in cluster.replicas.values()]
    assert len(set(specs)) == 1


def test_geo_latency_matches_table1_model():
    """Zyzzyva from Tokyo with a Virginia primary: paper Table I says
    236ms; the model gives ~228 + processing."""
    cluster = geo_cluster("zyzzyva", primary_region="virginia")
    log = DeliveryLog()
    client = cluster.add_client("c0", "tokyo",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.paths == ["fast"]
    assert log.latencies()[0] == pytest.approx(236, abs=15)
