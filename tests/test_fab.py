"""FaB baseline: two-step agreement, quorum sizes, fault tolerance."""

import pytest

from repro.byzantine import silence_node
from repro.messages.base import SignedPayload

from helpers import (
    DeliveryLog,
    assert_replicas_consistent,
    lan_cluster,
)


def test_single_request_commits():
    cluster = lan_cluster("fab")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.results == ["OK"]
    assert_replicas_consistent(cluster)


def test_four_step_latency_shape():
    """FaB: request + propose + accept + reply = 4 one-way hops."""
    cluster = lan_cluster("fab")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.latencies()[0] == pytest.approx(0.4, abs=0.05)


def test_accept_quorum_size_n4():
    cluster = lan_cluster("fab")
    replica = cluster.replicas["r0"]
    # ceil((4 + 1 + 1) / 2) = 3.
    assert replica.accept_quorum == 3


def test_sequential_ordering():
    cluster = lan_cluster("fab")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    for i in range(4):
        client.submit(client.next_command("put", "k", i))
        cluster.run_until_idle()
    state = assert_replicas_consistent(cluster)
    assert state == {"k": 3}


def test_tolerates_one_silent_acceptor():
    cluster = lan_cluster("fab")
    silence_node(cluster, "r3")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.results == ["OK"]
    assert_replicas_consistent(cluster, exclude=("r3",))


def test_concurrent_clients():
    cluster = lan_cluster("fab")
    log = DeliveryLog()
    for i in range(3):
        client = cluster.add_client(f"c{i}", "local",
                                    on_delivery=log.hook(f"c{i}"))
        client.submit(client.next_command("put", "shared", i))
    cluster.run_until_idle()
    assert len(log.records) == 3
    assert_replicas_consistent(cluster)


def test_acceptor_accepts_one_value_per_slot():
    cluster = lan_cluster("fab")
    client = cluster.add_client("c0", "local")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    replica = cluster.replicas["r1"]
    from repro.crypto.digest import digest
    from repro.messages.fab import FabPropose, FabRequest

    evil = FabRequest(command=client.next_command("put", "k", "EVIL"))
    conflicting = FabPropose(proposal_number=replica.view, seqno=0,
                             request_digest=digest(evil.to_wire()),
                             request=evil)
    replica.on_message("r0", SignedPayload.create(
        conflicting, cluster.replicas["r0"].keypair))
    cluster.run_until_idle()
    slot = replica._slots[0]
    assert slot.request.command.value == "v"  # first value sticks
