"""Unit-level tests for the byzantine behaviour implementations."""

import pytest

from repro.byzantine import (
    CorruptResultReplica,
    DepSuppressingReplica,
    EquivocatingLeaderReplica,
    SilentReplica,
    install_byzantine,
    silence_node,
)
from repro.check import check, observe
from repro.core.replica import EzBFTReplica
from repro.crypto.digest import canonical_bytes
from repro.messages.base import SignedPayload
from repro.messages.ezbft import SpecOrder, SpecReplyBundle

from helpers import DeliveryLog, faults, lan_cluster


def sniff_spec_replies(cluster, client):
    """Interpose on ``client``'s handler; returns the list that fills
    with every signed SPECREPLY header its bundles carry."""
    replies = []
    original = client.on_message

    def tracer(sender, message):
        if isinstance(message, SpecReplyBundle):
            replies.extend(envelope.payload
                           for envelope in message.replies)
        original(sender, message)

    cluster.network.set_handler(client.client_id, tracer)
    return replies


def test_install_byzantine_swaps_replica_object():
    cluster = lan_cluster()
    original = cluster.replicas["r1"]
    swapped = install_byzantine(cluster, "r1", SilentReplica)
    assert cluster.replicas["r1"] is swapped
    assert swapped is not original
    assert isinstance(swapped, SilentReplica)
    # Same signing identity: the byzantine replica can still sign as r1.
    assert swapped.keypair is original.keypair


def test_silent_replica_never_responds():
    cluster = lan_cluster()
    install_byzantine(cluster, "r1", SilentReplica)
    client = cluster.add_client("c0", "local", target_replica="r0")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    byz = cluster.replicas["r1"]
    assert byz.stats["spec_ordered"] == 0
    assert byz.stats["led"] == 0


@pytest.mark.parametrize("batch_size", [1, 4])
def test_equivocating_leader_sends_conflicting_signed_orders(batch_size):
    """Equivocation survives batching: whether a flush leads one
    request or four, the byzantine override is the path taken, every
    client catches the leader out, and every command still commits
    through another leader."""
    cluster = lan_cluster(batch_size=batch_size)
    byz = install_byzantine(cluster, "r1", EquivocatingLeaderReplica)
    seen = {}
    for rid in ("r0", "r2", "r3"):
        replica = cluster.replicas[rid]
        original = replica.on_message

        def tracer(sender, message, rid=rid, original=original):
            if isinstance(message, SignedPayload) and \
                    isinstance(message.payload, SpecOrder) and \
                    message.signer == "r1":
                seen.setdefault(rid, set()).add(message.payload_digest())
            original(sender, message)

        cluster.network.set_handler(rid, tracer)
    log = DeliveryLog()
    clients = [cluster.add_client(f"c{i}", "local", target_replica="r1",
                                  on_delivery=log.hook(f"c{i}"))
               for i in range(4)]
    for i, client in enumerate(clients):
        client.submit(client.next_command("put", f"k{i}", i))
    cluster.run_until_idle()
    # At least two distinct SPECORDER digests were distributed.
    assert len(set().union(*seen.values())) >= 2
    assert byz.stats["led"] == 4
    assert byz.stats["batches_led"] == 0
    assert [c.stats["poms_sent"] for c in clients] == [1] * 4
    assert sorted(log.results) == ["OK"] * 4
    assert check(observe(cluster, faults("SwapByzantine", "r1"))) == []


def test_dep_suppressor_reports_empty_deps():
    cluster = lan_cluster()
    install_byzantine(cluster, "r2", DepSuppressingReplica)
    client = cluster.add_client("c0", "local", target_replica="r0")
    replies = sniff_spec_replies(cluster, client)
    # Seed interfering history so honest replicas WOULD report deps.
    client.submit(client.next_command("put", "hot", 1))
    cluster.run_until_idle()
    client.submit(client.next_command("put", "hot", 2))
    cluster.run_until_idle()
    by_replica = {r.replica: r for r in replies
                  if r.timestamp == 2}
    assert by_replica["r2"].deps == ()       # the lie
    assert by_replica["r2"].seq == 1
    assert by_replica["r0"].deps != ()       # honest replicas report


def test_corrupt_result_is_detectable_in_replies():
    cluster = lan_cluster()
    install_byzantine(cluster, "r2", CorruptResultReplica)
    client = cluster.add_client("c0", "local", target_replica="r0")
    replies = sniff_spec_replies(cluster, client)
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    results = {r.replica: r.result for r in replies}
    assert results["r2"] == "##corrupt##"
    assert results["r0"] == "OK"


def test_byzantine_lies_survive_batching():
    """The batch path builds its bundle from the same
    ``_send_spec_reply`` hook, so a lying replica still lies."""
    cluster = lan_cluster(batch_size=8, batch_timeout_ms=5.0)
    install_byzantine(cluster, "r2", CorruptResultReplica)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    replies = sniff_spec_replies(cluster, client)
    client.submit_batch([client.next_command("put", f"k{i}", i)
                         for i in range(4)])
    cluster.run_until_idle()
    assert [r.result for r in replies if r.replica == "r2"] == \
        ["##corrupt##"] * 4
    assert log.results == ["OK"] * 4
    assert set(log.paths) == {"slow"}  # r2 never matches


class ForgedOrderReplica(EzBFTReplica):
    """Votes honestly but attaches a made-up SPECORDER in the leader's
    name: same proposal, different seq, a tag it cannot compute."""

    def _send_spec_reply(self, entry, signed_order, request_digest=None):
        real = signed_order.payload
        forged = SignedPayload(
            body=canonical_bytes(SpecOrder(
                leader=real.leader, owner_number=real.owner_number,
                instance=real.instance, command=real.command,
                deps=real.deps, seq=real.seq + 7,
                log_digest=real.log_digest,
                request_digest=real.request_digest)),
            signature=type(signed_order.signature)(
                signer=signed_order.signer, tag="0" * 64))
        super()._send_spec_reply(entry, forged, request_digest)


class ReplayedOrderReplica(EzBFTReplica):
    """Votes honestly but attaches the leader's validly signed
    SPECORDER for an *earlier* command."""

    first_order = None

    def _send_spec_reply(self, entry, signed_order, request_digest=None):
        if self.first_order is None:
            self.first_order = signed_order
        super()._send_spec_reply(
            entry, self.first_order,
            request_digest or signed_order.payload.request_digest)


@pytest.mark.parametrize("behavior",
                         [ForgedOrderReplica, ReplayedOrderReplica])
def test_bogus_attached_order_cannot_frame_a_correct_leader(behavior):
    """One byzantine replica must not be able to make a correct client
    denounce (POM) or abandon (target rotation) a correct leader."""
    cluster = lan_cluster()
    install_byzantine(cluster, "r2", behavior)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    for i in range(2):
        client.submit(client.next_command("put", f"k{i}", i))
        cluster.run_until_idle()
    assert client.stats["poms_sent"] == 0
    assert client.stats["retries"] == 0
    assert client.target_replica == "r0"
    assert log.results == ["OK", "OK"]
    assert set(log.paths) == {"fast"}  # the headers themselves match
    assert all(r.stats["owner_changes_started"] == 0
               for r in cluster.replicas.values())
    assert check(observe(cluster)) == []


def test_silence_node_works_for_any_protocol():
    cluster = lan_cluster("pbft")
    silence_node(cluster, "r3")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.results == ["OK"]  # 2f+1 correct replicas suffice


def test_byzantine_cannot_forge_other_replicas_signatures():
    """The central crypto assumption: a byzantine replica object has no
    access to other nodes' keys, so messages it fabricates in their name
    fail verification."""
    cluster = lan_cluster()
    byz = install_byzantine(cluster, "r1", SilentReplica)
    from repro.crypto.digest import digest
    from repro.messages.ezbft import StartOwnerChange

    forged_payload = StartOwnerChange(sender="r0", suspect="r3",
                                      owner_number=3)
    # Signed with r1's key but claiming to be from r0:
    forged = SignedPayload.create(forged_payload, byz.keypair)
    victim = cluster.replicas["r2"]
    victim.on_message("r0", SignedPayload(
        body=canonical_bytes(forged_payload), signature=forged.signature))
    cluster.run_until_idle()
    # The forgery is dropped: r1's tag does not verify as r0's...
    assert victim.stats["invalid_messages"] >= 0
    # ...and no vote was recorded for the fabricated suspicion.
    assert ("r3", 3) not in victim.owner_changes._votes
