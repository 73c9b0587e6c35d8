"""PBFT baseline: ordering and its equivocation check (the view change
is every baseline's: tests/test_view_change.py)."""

import pytest

from repro.byzantine import silence_node
from repro.check import check, observe
from repro.messages.base import SignedPayload

from helpers import (
    DeliveryLog,
    geo_cluster,
    lan_cluster,
)


def test_single_request_commits():
    cluster = lan_cluster("pbft")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.results == ["OK"]
    assert check(observe(cluster)) == []


def test_five_step_latency_shape():
    """PBFT client latency = request + pre-prepare + prepare + commit +
    reply = 5 one-way hops.  In the LAN model each hop is 0.1ms."""
    cluster = lan_cluster("pbft")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.latencies()[0] == pytest.approx(0.5, abs=0.05)


def test_sequential_requests_ordered():
    cluster = lan_cluster("pbft")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    for i in range(5):
        client.submit(client.next_command("put", "k", i))
        cluster.run_until_idle()
    assert log.results == ["OK"] * 5
    assert check(observe(cluster)) == []
    state = cluster.replicas["r0"].statemachine.final_items()
    assert state == {"k": 4}


def test_concurrent_clients_totally_ordered():
    cluster = lan_cluster("pbft")
    log = DeliveryLog()
    for i in range(3):
        client = cluster.add_client(f"c{i}", "local",
                                    on_delivery=log.hook(f"c{i}"))
        client.submit(client.next_command("put", "shared", i))
    cluster.run_until_idle()
    assert len(log.records) == 3
    assert check(observe(cluster)) == []


def test_backup_forwards_request_to_primary():
    cluster = lan_cluster("pbft")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    # Manually send the request to a backup instead of the primary.
    from repro.messages.base import SignedPayload
    from repro.messages.pbft import PBFTRequest
    from repro.protocols.base import PendingRequest

    command = client.next_command("put", "k", "v")
    client._pending[command.ident] = PendingRequest(
        command=command, start_time=cluster.sim.now)
    request = PBFTRequest(command=command)
    cluster.network.send("c0", "r2",
                         SignedPayload.create(request, client.keypair))
    cluster.run_until_idle()
    assert log.results == ["OK"]


def test_equivocating_preprepare_triggers_view_change():
    cluster = lan_cluster("pbft")
    client = cluster.add_client("c0", "local")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    replica = cluster.replicas["r1"]
    from repro.crypto.digest import digest
    from repro.messages.pbft import PBFTRequest, PrePrepare

    fake_request = PBFTRequest(
        command=client.next_command("put", "k", "EVIL"))
    conflicting = PrePrepare(
        view=replica.view, seqno=0,
        request_digest=digest(fake_request.to_wire()),
        request=fake_request)
    replica.on_message("r0", SignedPayload.create(
        conflicting, cluster.replicas["r0"].keypair))
    # It asks for view 1 and orders nothing more in view 0.
    assert replica._view_changing and replica.view == 0


def test_reply_cache_for_duplicate_request():
    cluster = lan_cluster("pbft")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    command = client.next_command("put", "k", "v")
    client.submit(command)
    cluster.run_until_idle()
    primary = cluster.replicas["r0"]
    executed_before = primary.stats["executed"]
    from repro.messages.base import SignedPayload
    from repro.messages.pbft import PBFTRequest

    cluster.network.send(
        "c0", "r0",
        SignedPayload.create(PBFTRequest(command=command),
                             client.keypair))
    cluster.run_until_idle()
    assert primary.stats["executed"] == executed_before


def test_early_votes_count_only_for_the_digest_they_name():
    """r2 and r3, silenced, sign PREPAREs and COMMITs for request Y at
    seqno 0 and send them to r1 before r0's PRE-PREPARE of X arrives:
    votes for Y are not votes for X, so r1 never prepares X."""
    from repro.crypto.digest import digest
    from repro.messages.pbft import (
        PBFTCommit, PBFTRequest, PrePrepare, Prepare)

    cluster = lan_cluster("pbft")
    silence_node(cluster, "r2")
    silence_node(cluster, "r3")
    client = cluster.add_client("c0", "local")
    x = PBFTRequest(command=client.next_command("put", "k", "X"))
    y = PBFTRequest(command=client.next_command("put", "k", "Y"))
    r1 = cluster.replicas["r1"]
    for rid in ("r2", "r3"):
        keypair = cluster.replicas[rid].keypair
        for vote in (Prepare(view=0, seqno=0, request_digest=digest(y),
                             replica=rid),
                     PBFTCommit(view=0, seqno=0, request_digest=digest(y),
                                replica=rid)):
            r1.on_message(rid, SignedPayload.create(vote, keypair))
    r1.on_message("r0", SignedPayload.create(
        PrePrepare(view=0, seqno=0, request_digest=digest(x), request=x),
        cluster.replicas["r0"].keypair))
    cluster.run_until_idle()
    assert not r1._slots[0].prepared
    assert r1.statemachine.final_items() == {}
