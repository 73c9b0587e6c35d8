"""Zyzzyva baseline: speculative fast path, commit fallback, view change."""

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


def test_view_change_on_silent_primary():
    cluster = lan_cluster("zyzzyva")
    silence_node(cluster, "r0")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.results == ["OK"]
    for rid in ("r1", "r2", "r3"):
        assert cluster.replicas[rid].view >= 1


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


def test_new_view_without_proof_leaves_replica_in_its_view():
    """r1 is the primary of view 1, but a NEW-VIEW it signs with no
    I-HATE-THE-PRIMARY votes in its proof moves no one."""
    from repro.messages.base import SignedPayload
    from repro.messages.zyzzyva import ZNewView

    cluster = lan_cluster("zyzzyva")
    r0 = cluster.replicas["r0"]
    r0.on_message("r1", SignedPayload.create(
        ZNewView(new_view=1, primary="r1", max_committed_seqno=-1),
        cluster.replicas["r1"].keypair))
    assert r0.view == 0
    assert r0.stats["invalid_messages"] == 1


def test_new_view_carries_the_votes_that_depose_the_primary():
    """With r0 silent, r1 collects 2f+1 I-HATE-THE-PRIMARYs for view 0
    and ships them as its NEW-VIEW's proof; r2 and r3 check it and
    follow."""
    from repro.messages.base import SignedPayload
    from repro.messages.zyzzyva import IHateThePrimary, ZNewView

    cluster = lan_cluster("zyzzyva")
    silence_node(cluster, "r0")
    seen = []

    def spy(sender, message):
        if isinstance(message, SignedPayload) and \
                isinstance(message.payload, ZNewView):
            seen.append(message.payload)
        cluster.replicas["r2"].on_message(sender, message)
    cluster.set_handler("r2", spy)
    client = cluster.add_client("c0", "local")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert [msg.new_view for msg in seen] == [1]
    votes = [envelope.payload for envelope in seen[0].proof]
    assert all(isinstance(vote, IHateThePrimary) and vote.view == 0
               for vote in votes)
    assert len({vote.replica for vote in votes}) == \
        cluster.config.slow_quorum_size
    assert cluster.replicas["r2"].view == cluster.replicas["r3"].view == 1
