"""Unit-level tests for the byzantine behaviours: policies over what a
live replica sends, on every protocol."""

from dataclasses import replace

import pytest

from repro.byzantine import (
    BEHAVIORS,
    install_byzantine,
    silence_node,
)
from repro.byzantine.behaviors import CORRUPT
from repro.check import check, observe
from repro.crypto.digest import canonical_bytes
from repro.errors import ConfigurationError
from repro.messages.base import SignedPayload
from repro.messages.batching import BatchSpecOrder
from repro.messages.ezbft import SpecOrder, SpecReplyBundle
from repro.protocols import available_protocols
from repro.scenario import Scenario, SwapByzantine, WorkloadSpec

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


def sniff_sent(cluster, node_id):
    """Interpose on every other node's handler; returns the list that
    fills with ``(dst, message)`` for each message ``node_id`` sends."""
    sent = []
    for dst in cluster.network.node_ids():
        if dst == node_id:
            continue
        deliver = cluster.network.handler_of(dst)

        def tracer(sender, message, dst=dst, deliver=deliver):
            if sender == node_id:
                sent.append((dst, message))
            deliver(sender, message)

        cluster.network.set_handler(dst, tracer)
    return sent


def proposals(sent):
    """The signed SPECORDER/BATCHSPECORDER envelopes in ``sent``."""
    return [message for _, message in sent
            if isinstance(message, SignedPayload) and
            isinstance(message.payload, (SpecOrder, BatchSpecOrder))]


def test_install_byzantine_keeps_the_live_replica():
    cluster = lan_cluster()
    original = cluster.replicas["r1"]
    keypair, stats = original.keypair, original.stats
    swapped = install_byzantine(cluster, "r1", "silent")
    assert swapped is original
    assert cluster.replicas["r1"] is original
    assert cluster.network.handler_of("r1") == original.on_message
    # Same signing identity, same counters: only its sends change.
    assert swapped.keypair is keypair
    assert swapped.stats is stats


def test_unexpressible_behavior_is_refused_before_install():
    cluster = lan_cluster("pbft")
    with pytest.raises(ConfigurationError,
                       match="'equivocate' cannot run on protocol 'pbft'"):
        install_byzantine(cluster, "r1", "equivocate")
    with pytest.raises(ConfigurationError, match="unknown byzantine"):
        install_byzantine(cluster, "r1", "lazy")


def test_silent_replica_never_responds():
    cluster = lan_cluster()
    install_byzantine(cluster, "r1", "silent")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    sent = sniff_sent(cluster, "r1")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.results == ["OK"]
    # r1 took part (it received the order) but nothing left it.
    assert cluster.replicas["r1"].stats["spec_ordered"] == 1
    assert sent == []


@pytest.mark.parametrize("batch_size", [1, 4])
def test_equivocating_leader_sends_conflicting_signed_orders(batch_size):
    """Equivocation survives batching: whether a flush leads one
    request or four, the proposal leaves in two signed versions,
    every client catches the leader out, and every command still
    commits through another leader."""
    cluster = lan_cluster(batch_size=batch_size)
    install_byzantine(cluster, "r1", "equivocate")
    log = DeliveryLog()
    clients = [cluster.add_client(f"c{i}", "local", target_replica="r1",
                                  on_delivery=log.hook(f"c{i}"))
               for i in range(4)]
    sent = sniff_sent(cluster, "r1")
    commands = [client.next_command("put", f"k{i}", i)
                for i, client in enumerate(clients)]
    for client, command in zip(clients, commands):
        client.submit(command)
    cluster.run_until_idle()
    versions = {order.payload_digest(): order.payload
                for order in proposals(sent)}
    # At least two distinct SPECORDER digests were distributed, and
    # r1 led all four commands, ``batch_size`` per proposal.
    assert len(versions) >= 2
    inner = [getattr(p, "orders", (p,)) for p in versions.values()]
    assert {len(orders) for orders in inner} == {batch_size}
    assert {o.command.ident for orders in inner for o in orders} == \
        {command.ident for command in commands}
    assert [c.stats["poms_sent"] for c in clients] == [1] * 4
    assert sorted(log.results) == ["OK"] * 4
    assert check(observe(cluster, faults("SwapByzantine", "r1"))) == []


def test_dep_suppressor_reports_empty_deps():
    cluster = lan_cluster()
    install_byzantine(cluster, "r2", "dep_suppress")
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
    install_byzantine(cluster, "r2", "corrupt_result")
    client = cluster.add_client("c0", "local", target_replica="r0")
    replies = sniff_spec_replies(cluster, client)
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    results = {r.replica: r.result for r in replies}
    assert results["r2"] == CORRUPT
    assert results["r0"] == "OK"


def test_byzantine_lies_survive_batching():
    """A batch's bundle carries several signed headers; the policy
    rewrites and re-signs each, so a lying replica still lies."""
    cluster = lan_cluster(batch_size=8, batch_timeout_ms=5.0)
    install_byzantine(cluster, "r2", "corrupt_result")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    replies = sniff_spec_replies(cluster, client)
    client.submit_batch([client.next_command("put", f"k{i}", i)
                         for i in range(4)])
    cluster.run_until_idle()
    assert [r.result for r in replies if r.replica == "r2"] == \
        [CORRUPT] * 4
    assert log.results == ["OK"] * 4
    assert set(log.paths) == {"slow"}  # r2 never matches


def forged_order():
    """Votes honestly but attaches a made-up SPECORDER in the leader's
    name: same proposal, different seq, a tag it cannot compute."""
    def policy(replica, dst, message):
        if not isinstance(message, SpecReplyBundle):
            return message
        order = message.spec_order
        real = order.payload
        forged = SignedPayload(
            body=canonical_bytes(replace(real, seq=real.seq + 7)),
            signature=type(order.signature)(signer=order.signer,
                                            tag="0" * 64))
        return replace(message, spec_order=forged)
    return policy


def replayed_order():
    """Votes honestly but attaches the leader's validly signed
    SPECORDER for an *earlier* command."""
    first = []

    def policy(replica, dst, message):
        if not isinstance(message, SpecReplyBundle):
            return message
        if not first:
            first.append(message.spec_order)
        return replace(message, spec_order=first[0])
    return policy


@pytest.mark.parametrize("behavior", [forged_order, replayed_order],
                         ids=["forged", "replayed"])
def test_bogus_attached_order_cannot_frame_a_correct_leader(behavior):
    """One byzantine replica must not be able to make a correct client
    denounce (POM) or abandon (target rotation) a correct leader."""
    cluster = lan_cluster()
    install_byzantine(cluster, "r2", behavior())
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
    byz = install_byzantine(cluster, "r1", "silent")
    from repro.messages.ezbft import StartOwnerChange

    forged_payload = StartOwnerChange(sender="r0", suspect="r3",
                                      owner_number=3)
    # Signed with r1's key but claiming to be from r0:
    forged = SignedPayload.create(forged_payload, byz.keypair)
    victim = cluster.replicas["r2"]
    before = victim.stats["invalid_messages"]
    victim.on_message("r0", SignedPayload(
        body=canonical_bytes(forged_payload), signature=forged.signature))
    cluster.run_until_idle()
    # The forgery is dropped: r1's tag does not verify as r0's...
    assert victim.stats["invalid_messages"] == before + 1
    # ...and no vote was recorded for the fabricated suspicion.
    assert ("r3", 3) not in victim.owner_changes._votes


# ----------------------------------------------------------------------
# Every behaviour on every protocol
# ----------------------------------------------------------------------
#: What only ezBFT's messages can carry.
EZBFT_ONLY = {"dep_suppress", "equivocate"}
#: The byzantine replica: the clients' target on ezBFT (so it leads
#: what it equivocates about), the view-0 primary on the baselines.
BYZANTINE = "r0"


def fired(behavior, sent):
    """Whether ``sent`` -- everything that left the byzantine node --
    shows ``behavior`` at work."""
    if behavior == "silent":
        return sent == []
    if behavior == "equivocate":
        return len({o.payload_digest() for o in proposals(sent)}) >= 2
    headers = [header.payload for _, message in sent
               if isinstance(message, SpecReplyBundle)
               for header in message.replies]
    if behavior == "dep_suppress":
        return bool(headers) and all(
            h.deps == () and h.seq == 1 for h in headers)
    signed = [message.payload for _, message in sent
              if isinstance(message, SignedPayload)]
    return any(getattr(payload, "result", None) == CORRUPT
               for payload in headers + signed)


#: Pairs whose run shows a protocol bug: the bug, and how it fails.
KNOWN_BUGS = {}


@pytest.mark.parametrize("protocol", available_protocols())
@pytest.mark.parametrize("behavior", sorted(BEHAVIORS))
def test_every_behavior_runs_or_is_refused(behavior, protocol, request):
    """Each (behaviour, protocol) pair is either refused by name before
    any node is built, or runs a closed-loop LAN workload to the end
    with the behaviour observably firing and no safety violation."""
    if (behavior, protocol) in KNOWN_BUGS:
        reason, raises = KNOWN_BUGS[behavior, protocol]
        request.applymarker(pytest.mark.xfail(strict=True, reason=reason,
                                              raises=raises))
    scenario = Scenario(
        name="byzantine", protocol=protocol,
        replica_regions=("local",) * 4, latency="local",
        workload=WorkloadSpec(mode="closed", clients_per_region=2,
                              requests_per_client=4),
        faults=(SwapByzantine(at_ms=0.0, replica=BYZANTINE,
                              behavior=behavior),))
    if behavior in EZBFT_ONLY and protocol != "ezbft":
        with pytest.raises(ConfigurationError,
                           match=f"{behavior!r} cannot run on protocol "
                                 f"{protocol!r}"):
            scenario.validate()
        return
    scenario.validate()
    cluster = lan_cluster(protocol)
    install_byzantine(cluster, BYZANTINE, behavior)
    log = DeliveryLog()
    clients = [cluster.add_client(f"c{i}", "local",
                                  target_replica=BYZANTINE,
                                  on_delivery=log.hook(f"c{i}"))
               for i in range(2)]
    sent = sniff_sent(cluster, BYZANTINE)
    for _ in range(4):
        for client in clients:
            # One hot key: every command interferes with the last, so
            # honest replicas report dependencies.
            client.submit(client.next_command("put", "hot",
                                              client.client_id))
        # Bounded: a protocol that cannot get past the fault fails here
        # instead of retrying for ever.
        cluster.run_until_idle(max_events=100_000)
    assert log.results == ["OK"] * 8
    assert fired(behavior, sent)
    assert check(observe(cluster, faults("SwapByzantine", BYZANTINE))) \
        == []
