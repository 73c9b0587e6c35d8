"""FaB baseline: two-step agreement, quorum sizes, fault tolerance."""

import math

import pytest

from repro.byzantine import silence_node
from repro.check import check, observe
from repro.messages.base import SignedPayload

from helpers import (
    DeliveryLog,
    faults,
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
    assert check(observe(cluster)) == []


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
    """FaB's learning quorum ceil((N + f + 1) / 2) is the slow quorum
    at N = 3f+1: two of four acceptors learn nothing, three do."""
    cluster = lan_cluster("fab")
    config = cluster.config
    assert math.ceil((config.n + config.f + 1) / 2) == \
        config.slow_quorum_size == 3
    silence_node(cluster, "r2")
    silence_node(cluster, "r3")
    client = cluster.add_client("c0", "local")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run(until=100.0)
    assert cluster.replicas["r0"].stats["executed"] == 0


def test_sequential_ordering():
    cluster = lan_cluster("fab")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    for i in range(4):
        client.submit(client.next_command("put", "k", i))
        cluster.run_until_idle()
    assert check(observe(cluster)) == []
    state = cluster.replicas["r0"].statemachine.final_items()
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
    assert check(observe(cluster, faults("CrashReplica", "r3"))) == []


def test_concurrent_clients():
    cluster = lan_cluster("fab")
    log = DeliveryLog()
    for i in range(3):
        client = cluster.add_client(f"c{i}", "local",
                                    on_delivery=log.hook(f"c{i}"))
        client.submit(client.next_command("put", "shared", i))
    cluster.run_until_idle()
    assert len(log.records) == 3
    assert check(observe(cluster)) == []


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
    assert slot.propose.request.command.value == "v"  # first value sticks


def test_early_accepts_count_only_for_the_digest_they_name():
    """r2 and r3, silenced, sign ACCEPTs for request Y at seqno 0 and
    send them to r1 before r0's PROPOSE of X arrives: accepts of Y are
    not accepts of X, so r1 never learns X."""
    from repro.crypto.digest import digest
    from repro.messages.fab import FabAccept, FabPropose, FabRequest

    cluster = lan_cluster("fab")
    silence_node(cluster, "r2")
    silence_node(cluster, "r3")
    client = cluster.add_client("c0", "local")
    x = FabRequest(command=client.next_command("put", "k", "X"))
    y = FabRequest(command=client.next_command("put", "k", "Y"))
    r1 = cluster.replicas["r1"]
    for rid in ("r2", "r3"):
        r1.on_message(rid, SignedPayload.create(
            FabAccept(proposal_number=0, seqno=0,
                      request_digest=digest(y), acceptor=rid),
            cluster.replicas[rid].keypair))
    r1.on_message("r0", SignedPayload.create(
        FabPropose(proposal_number=0, seqno=0, request_digest=digest(x),
                   request=x),
        cluster.replicas["r0"].keypair))
    cluster.run_until_idle()
    assert not r1._slots[0].learned
    assert r1.statemachine.final_items() == {}
