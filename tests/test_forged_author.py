"""A signed message reaches a handler only as the node it names.

Every registered message class declares its author field (``AUTHOR``)
and the one dispatcher every replica and client runs admits an envelope
only when its signer is that author.  Each case below holds one node's
key and signs messages that name *other* nodes; the victim must drop
every one of them -- a replica counting it in ``invalid_messages`` --
and end in the state honest traffic alone would leave it in.
"""

from dataclasses import fields

import pytest

from repro.byzantine import silence_node
from repro.crypto.digest import digest
from repro.messages.base import MESSAGE_REGISTRY, SignedPayload
from repro.messages.batching import BatchRequest
from repro.messages.ezbft import CommitReply
from repro.messages.fab import FabAccept, FabRequest
from repro.messages.pbft import (
    PBFTCommit,
    PBFTRequest,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.messages.zyzzyva import IHateThePrimary, LocalCommit, ZNewView
from repro.statemachine.base import Command

from helpers import DeliveryLog, lan_cluster


def _forge(cluster, signer, payload):
    """``payload`` signed with ``signer``'s own key."""
    return SignedPayload.create(payload, cluster.replicas[signer].keypair)


def _deliver_all(node, sender, envelopes):
    """Hand ``envelopes`` to ``node``; returns how many a replica
    counted as invalid."""
    stats = getattr(node, "stats", {})
    before = stats.get("invalid_messages", 0)
    for envelope in envelopes:
        node.on_message(sender, envelope)
    return stats.get("invalid_messages", 0) - before


def _drop_at(cluster, client, payload_cls):
    """Keep ``client`` from ever seeing a signed ``payload_cls``."""
    def handler(sender, message):
        if isinstance(message, SignedPayload) and \
                isinstance(message.payload, payload_cls):
            return
        client.on_message(sender, message)
    cluster.set_handler(client.client_id, handler)


def _ezbft_client_slow_commit_replies():
    """r3 signs COMMITREPLYs naming r0, r1 and r2 to a client whose
    request is on the slow path."""
    cluster = lan_cluster("ezbft")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    silence_node(cluster, "r3")
    _drop_at(cluster, client, CommitReply)
    command = client.next_command("put", "k", "v")
    client.submit(command)
    cluster.run(until=150.0)
    pending = client._pending[command.ident]
    assert pending.phase == "slow"
    forged = [_forge(cluster, "r3", CommitReply(
        replica=rid, instance=pending.spec_replies["r0"][0].instance,
        client_id="c0", timestamp=command.timestamp, result="FORGED"))
        for rid in ("r0", "r1", "r2")]
    invalid = _deliver_all(client, "r3", forged)
    assert log.results == []
    assert client.stats["delivered_slow"] == 0
    return invalid


def _pbft_backup_forged_quorums():
    """The primary r0 sends r1 a PRE-PREPARE, PREPAREs naming r2 and
    r3, and COMMITs naming r0, r2 and r3: only its own COMMIT is its to
    sign, and r1 never prepares, so nothing executes."""
    cluster = lan_cluster("pbft")
    client = cluster.add_client("c0", "local")
    request = PBFTRequest(command=client.next_command("put", "k", "EVIL"))
    d = digest(request)
    r1 = cluster.replicas["r1"]
    r1.on_message("r0", _forge(cluster, "r0", PrePrepare(
        view=0, seqno=0, request_digest=d, request=request)))
    invalid = _deliver_all(r1, "r0", [
        _forge(cluster, "r0", Prepare(view=0, seqno=0, request_digest=d,
                                      replica=rid))
        for rid in ("r2", "r3")])
    invalid += _deliver_all(r1, "r0", [
        _forge(cluster, "r0", PBFTCommit(view=0, seqno=0,
                                         request_digest=d, replica=rid))
        for rid in ("r0", "r2", "r3")])
    cluster.run_until_idle()
    assert r1.stats["executed"] == 0
    assert r1.statemachine.final_items() == {}
    for rid in ("r2", "r3"):
        assert cluster.replicas[rid].stats["executed"] == 0
    return invalid


def _pbft_forged_view_changes():
    """r3 signs VIEW-CHANGEs naming r0, r2 and r3 to r1, the primary of
    view 1."""
    cluster = lan_cluster("pbft")
    r1 = cluster.replicas["r1"]
    invalid = _deliver_all(r1, "r3", [
        _forge(cluster, "r3", ViewChange(
            new_view=1, last_stable_seqno=0, prepared=(), requests=(),
            replica=rid))
        for rid in ("r0", "r2", "r3")])
    assert r1.view == 0
    assert r1.stats["view_changes"] == 0
    return invalid


def _zyzzyva_forged_ihtp():
    """r3 signs I-HATE-THE-PRIMARYs naming r0, r2 and r3 to r1, the
    primary of view 1."""
    cluster = lan_cluster("zyzzyva")
    r1 = cluster.replicas["r1"]
    invalid = _deliver_all(r1, "r3", [
        _forge(cluster, "r3", IHateThePrimary(view=0, replica=rid))
        for rid in ("r0", "r2", "r3")])
    assert r1.view == 0
    assert r1.stats["view_changes"] == 0
    return invalid


def _zyzzyva_forged_new_view():
    """r3 signs a NEW-VIEW naming r1, the primary of view 1."""
    cluster = lan_cluster("zyzzyva")
    r0 = cluster.replicas["r0"]
    invalid = _deliver_all(r0, "r3", [_forge(cluster, "r3", ZNewView(
        new_view=1, primary="r1", max_committed_seqno=-1))])
    assert r0.view == 0
    return invalid


def _fab_forged_accepts():
    """r3 signs ACCEPTs naming all four acceptors."""
    cluster = lan_cluster("fab")
    request = FabRequest(command=Command(client_id="c0", timestamp=1,
                                         op="put", key="k", value="v"))
    d = digest(request)
    r0 = cluster.replicas["r0"]
    invalid = _deliver_all(r0, "r3", [
        _forge(cluster, "r3", FabAccept(proposal_number=0, seqno=0,
                                        request_digest=d, acceptor=rid))
        for rid in ("r0", "r1", "r2", "r3")])
    assert r0._slots[0].accepts == {"r3"}
    return invalid


def _zyzzyva_client_forged_local_commits():
    """With r3 silent the client takes the commit phase; r2 then signs
    LOCAL-COMMITs naming r0, r1 and r2."""
    cluster = lan_cluster("zyzzyva")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    silence_node(cluster, "r3")
    _drop_at(cluster, client, LocalCommit)
    command = client.next_command("put", "k", "v")
    client.submit(command)
    cluster.run(until=150.0)
    pending = client._pending[command.ident]
    assert pending.phase == "commit"
    resp, _ = pending.replies["r0"]
    forged = [_forge(cluster, "r2", LocalCommit(
        view=resp.view, seqno=resp.seqno,
        request_digest=resp.request_digest,
        history_digest=resp.history_digest, replica=rid,
        client_id="c0"))
        for rid in ("r0", "r1", "r2")]
    invalid = _deliver_all(client, "r2", forged)
    assert log.results == []
    assert client.stats["delivered_slow"] == 0
    return invalid


@pytest.mark.parametrize("case, rejected", [
    (_ezbft_client_slow_commit_replies, 0),
    (_pbft_backup_forged_quorums, 4),
    (_pbft_forged_view_changes, 2),
    (_zyzzyva_forged_ihtp, 2),
    (_zyzzyva_forged_new_view, 1),
    (_fab_forged_accepts, 3),
    (_zyzzyva_client_forged_local_commits, 0),
], ids=lambda value: getattr(value, "__name__", "").lstrip("_") or None)
def test_forged_author_is_rejected(case, rejected):
    """Each forgery is dropped; a replica counts exactly the envelopes
    that named someone other than their signer, and a client, whose
    stats feed the report, counts nothing."""
    assert case() == rejected


def test_every_registered_message_declares_its_author():
    """``AUTHOR`` is declared in every registered class's own body:
    ``None`` (unsigned, or its handler checks a role) or the name of a
    field or property of the class."""
    for msg_type, cls in MESSAGE_REGISTRY.items():
        assert "AUTHOR" in vars(cls), msg_type
        author = cls.AUTHOR
        if author is not None:
            names = {f.name for f in fields(cls)}
            assert author in names or \
                isinstance(getattr(cls, author, None), property), msg_type


def _mixed_batch(cluster, client):
    """A BATCHREQUEST ``client`` signs that also carries c1's command."""
    commands = (client.next_command("put", "a", 1),
                Command(client_id="c1", timestamp=1, op="put", key="b",
                        value=2))
    return SignedPayload.create(BatchRequest(commands=commands),
                                client.keypair)


@pytest.mark.parametrize("protocol, ordered", [
    ("ezbft", "led"),
    ("pbft", "pre_prepares"),
])
def test_mixed_author_batch_request_is_rejected(protocol, ordered):
    """A BATCHREQUEST's author is its client, and every command in it
    must be that client's: the ezBFT owner and the PBFT primary drop a
    batch that carries another client's command."""
    cluster = lan_cluster(protocol)
    client = cluster.add_client("c0", "local", target_replica="r0") \
        if protocol == "ezbft" else cluster.add_client("c0", "local")
    r0 = cluster.replicas["r0"]
    r0.on_message("c0", _mixed_batch(cluster, client))
    cluster.run_until_idle()
    assert r0.stats["invalid_messages"] == 1
    assert r0.stats[ordered] == 0
    assert r0.statemachine.final_items() == {}
