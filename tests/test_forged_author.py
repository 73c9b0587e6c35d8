"""A signed message reaches a handler only as the node it names, and
a replica-authored one only from a replica.

Every registered message class declares its author field (``AUTHOR``)
and the one dispatcher every replica and client runs admits an envelope
only when its signer is that author.  The field names the role too:
``client_id`` a client, any other a replica, and clients hold keys, so
a client that signs a replica's message in its own name is dropped as
well.  Each case below holds one node's key and signs messages that
name *other* nodes, or, as a client, itself as a replica; the victim
must drop every one of them -- a replica counting it in
``invalid_messages`` -- and end in the state honest traffic alone would
leave it in.
"""

import asyncio
from dataclasses import fields

import pytest

from repro.byzantine import silence_node
from repro.crypto.digest import digest
from repro.messages.base import MESSAGE_REGISTRY, SignedPayload
from repro.messages.batching import BatchRequest
from repro.messages.ezbft import CommitReply, EzCheckpoint, StartOwnerChange
from repro.messages.fab import FabAccept, FabPropose, FabRequest
from repro.messages.pbft import (
    NewView,
    PBFTCommit,
    PBFTReply,
    PBFTRequest,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.messages.zyzzyva import LocalCommit, SpecResponse, ZCommit
from repro.statemachine.base import Command
from repro.transport.asyncio_tcp import AsyncioCluster

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


def _forged_view_changes(protocol):
    """r3 signs VIEW-CHANGEs naming r0, r2 and r3 to r1, the primary of
    view 1."""
    def case():
        cluster = lan_cluster(protocol)
        r1 = cluster.replicas["r1"]
        invalid = _deliver_all(r1, "r3", [
            _forge(cluster, "r3", _view_change(rid))
            for rid in ("r0", "r2", "r3")])
        assert r1.view == 0
        assert not r1._view_changing
        return invalid
    case.__name__ = f"_{protocol}_forged_view_changes"
    return case


def _zyzzyva_forged_new_view():
    """r3 signs a NEW-VIEW naming r1, the primary of view 1."""
    cluster = lan_cluster("zyzzyva")
    r0 = cluster.replicas["r0"]
    invalid = _deliver_all(r0, "r3", [_forge(cluster, "r3", NewView(
        new_view=1, proof=(), orders=(), primary="r1"))])
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
    assert {key: set(votes) for key, votes in r0._slots[0].accepts.items()} \
        == {(0, d): {"r3"}}
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
    *[(_forged_view_changes(protocol), 2)
      for protocol in ("pbft", "fab", "zyzzyva")],
    (_zyzzyva_forged_new_view, 1),
    (_fab_forged_accepts, 3),
    (_zyzzyva_client_forged_local_commits, 0),
], ids=lambda value: getattr(value, "__name__", "").lstrip("_") or None)
def test_forged_author_is_rejected(case, rejected):
    """Each forgery is dropped; a replica counts exactly the envelopes
    that named someone other than their signer, and a client, whose
    stats feed the report, counts nothing."""
    assert case() == rejected


def _self_signed(cluster, make, client_ids=("c0", "c1")):
    """Per client, ``make(client_id)`` -- a replica's message naming
    the client -- signed with that client's own key."""
    return [SignedPayload.create(make(cid),
                                 cluster.add_client(cid, "local").keypair)
            for cid in client_ids]


def _view_change(replica):
    return ViewChange(new_view=1, checkpoint=(), certificates=(),
                      replica=replica)


def _pbft_pre_prepared(cluster):
    """r1 holds r0's PRE-PREPARE of one request at seqno 0; returns r1
    and the request's digest."""
    request = PBFTRequest(command=cluster.add_client(
        "c9", "local").next_command("put", "k", "v"))
    d = digest(request)
    r1 = cluster.replicas["r1"]
    r1.on_message("r0", _forge(cluster, "r0", PrePrepare(
        view=0, seqno=0, request_digest=d, request=request)))
    return r1, d


def _client_view_changes(protocol):
    """c0 and c1 each sign a VIEW-CHANGE naming itself to r1, the
    primary of view 1: with r1's own, that would be 2f+1 votes."""
    def case():
        cluster = lan_cluster(protocol)
        r1 = cluster.replicas["r1"]
        invalid = _deliver_all(r1, "c0",
                               _self_signed(cluster, _view_change))
        assert r1.view == 0
        assert not r1._view_changing
        return invalid
    case.__name__ = f"_{protocol}_client_view_changes"
    return case


def _pbft_client_prepares():
    """With r0's PRE-PREPARE in hand, r1 gets PREPAREs from c0 and c1:
    a prepared certificate counts replicas' PREPAREs only."""
    cluster = lan_cluster("pbft")
    r1, d = _pbft_pre_prepared(cluster)
    invalid = _deliver_all(r1, "c0", _self_signed(
        cluster, lambda cid: Prepare(view=0, seqno=0, request_digest=d,
                                     replica=cid)))
    assert not r1._slots[0].prepared
    return invalid


def _pbft_client_commits():
    """r1 prepares honestly (r0's and r2's PREPAREs), then gets COMMITs
    from c0 and c1: it must not commit or execute."""
    cluster = lan_cluster("pbft")
    r1, d = _pbft_pre_prepared(cluster)
    _deliver_all(r1, "r0", [
        _forge(cluster, rid, Prepare(view=0, seqno=0, request_digest=d,
                                     replica=rid))
        for rid in ("r0", "r2")])
    assert r1._slots[0].prepared
    invalid = _deliver_all(r1, "c0", _self_signed(
        cluster, lambda cid: PBFTCommit(view=0, seqno=0,
                                        request_digest=d, replica=cid)))
    assert not r1._slots[0].committed
    assert r1.stats["executed"] == 0
    return invalid


def _client_checkpoints(protocol):
    """r1, deaf to its peers' EZCHECKPOINTs, holds its own capture; c0
    and c1 attest the same digest, which must not make it stable."""
    def case():
        cluster = lan_cluster(protocol, checkpoint_interval=1)
        r1 = cluster.replicas["r1"]

        def deaf(sender, message):
            if not (isinstance(message, SignedPayload) and
                    isinstance(message.payload, EzCheckpoint)):
                r1.on_message(sender, message)
        cluster.set_handler("r1", deaf)
        client = cluster.add_client("c9", "local")
        client.submit(client.next_command("put", "k", "v"))
        cluster.run_until_idle()
        stable = cluster.replicas["r0"].checkpoints.stable
        assert stable is not None and r1.checkpoints.stable is None
        invalid = _deliver_all(r1, "c0", _self_signed(
            cluster, lambda cid: EzCheckpoint(
                replica=cid, watermark=stable.watermark,
                state_digest=stable.state_digest)))
        assert r1.checkpoints.stable is None
        assert r1.stats["checkpoints_stable"] == 0
        return invalid
    case.__name__ = f"_{protocol}_client_checkpoints"
    return case


def _fab_client_accepts():
    """r1 accepts r0's PROPOSE, then gets ACCEPTs from c0 and c1: with
    its own that would be the learning quorum."""
    cluster = lan_cluster("fab")
    request = FabRequest(command=cluster.add_client(
        "c9", "local").next_command("put", "k", "v"))
    d = digest(request)
    r1 = cluster.replicas["r1"]
    r1.on_message("r0", _forge(cluster, "r0", FabPropose(
        proposal_number=0, seqno=0, request_digest=d, request=request)))
    invalid = _deliver_all(r1, "c0", _self_signed(
        cluster, lambda cid: FabAccept(proposal_number=0, seqno=0,
                                       request_digest=d, acceptor=cid)))
    assert not r1._slots[0].learned
    assert r1.stats["executed"] == 0
    return invalid


def _ezbft_client_start_owner_change():
    """c0 and c1 each sign a STARTOWNERCHANGE against r0 naming itself
    to r1: f+1 of them would freeze r0's space."""
    cluster = lan_cluster("ezbft")
    r1 = cluster.replicas["r1"]
    invalid = _deliver_all(r1, "c0", _self_signed(
        cluster, lambda cid: StartOwnerChange(sender=cid, suspect="r0",
                                              owner_number=0)))
    assert not r1.spaces["r0"].frozen
    return invalid


def _pbft_client_forged_replies():
    """c1 and c2 each sign a REPLY naming itself to c0: f+1 matching
    replies, but not from replicas."""
    cluster = lan_cluster("pbft")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", on_delivery=log.hook("c0"))
    command = client.next_command("put", "k", "v")
    client.submit(command)
    invalid = _deliver_all(client, "c1", _self_signed(
        cluster, lambda cid: PBFTReply(
            view=0, timestamp=command.timestamp, client_id="c0",
            replica=cid, result="FORGED"), ("c1", "c2")))
    assert log.results == []
    cluster.run_until_idle()
    assert log.results == ["OK"]
    return invalid


def _pbft_new_view_with_client_votes():
    """r1, the primary of view 1, signs a NEW-VIEW whose proof is its
    own VIEW-CHANGE and those c0 and c1 signed naming themselves."""
    cluster = lan_cluster("pbft")
    r0 = cluster.replicas["r0"]
    proof = (_forge(cluster, "r1", _view_change("r1")),
             *_self_signed(cluster, _view_change))
    invalid = _deliver_all(r0, "r1", [_forge(cluster, "r1", NewView(
        new_view=1, proof=proof, orders=(), primary="r1"))])
    assert r0.view == 0
    return invalid


def _zyzzyva_commit_with_client_response():
    """A commit certificate of three matching SPEC-RESPONSEs: r3's and
    those c0 and c1 signed naming themselves."""
    cluster = lan_cluster("zyzzyva")
    r1 = cluster.replicas["r1"]

    def response(replica):
        return SpecResponse(view=0, seqno=0, history_digest="h",
                            request_digest="d", client_id="c0",
                            timestamp=1, replica=replica, result="OK")
    certificate = (_forge(cluster, "r3", response("r3")),
                   *_self_signed(cluster, response))
    invalid = _deliver_all(r1, "c0", [ZCommit(
        client_id="c0", seqno=0, certificate=certificate)])
    assert r1._max_committed == -1
    return invalid


@pytest.mark.parametrize("case, rejected", [
    *[(_client_view_changes(protocol), 2)
      for protocol in ("pbft", "fab", "zyzzyva")],
    (_pbft_client_prepares, 2),
    (_pbft_client_commits, 2),
    *[(_client_checkpoints(protocol), 2)
      for protocol in ("pbft", "fab", "zyzzyva")],
    (_fab_client_accepts, 2),
    (_ezbft_client_start_owner_change, 2),
    (_pbft_client_forged_replies, 0),
    (_pbft_new_view_with_client_votes, 1),
    (_zyzzyva_commit_with_client_response, 1),
], ids=lambda value: getattr(value, "__name__", "").lstrip("_") or None)
def test_client_signed_replica_message_is_rejected(case, rejected):
    """A client's key signs no replica's message, received on its own
    or as a member of a proof or certificate: a replica counts each
    such envelope (or the message carrying it) as invalid once."""
    assert case() == rejected


def test_client_view_changes_over_tcp_are_rejected():
    """The same rule behind real frames: c0 and c1, on loopback
    sockets, each send the PBFT primary of view 1 a VIEW-CHANGE naming
    itself."""
    async def scenario():
        cluster = AsyncioCluster(protocol="pbft", num_replicas=4)
        await cluster.start()
        try:
            for cid in ("c0", "c1"):
                client = await cluster.add_client(cid)
                client.ctx.send("r1", client.sign(_view_change(cid)))
            r1 = cluster.replicas["r1"]
            for _ in range(200):
                if r1.stats["invalid_messages"] >= 2:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            return r1.view, r1.stats["invalid_messages"]
        finally:
            await cluster.stop()

    assert asyncio.run(scenario()) == (0, 2)


#: The 17 registered classes whose author is a replica: every
#: ``AUTHOR`` but ``None`` and ``"client_id"``.
REPLICA_AUTHORED = {
    "ez-batch-spec-order", "ez-checkpoint", "ez-commit-reply",
    "ez-new-owner", "ez-owner-change", "ez-spec-order", "ez-spec-reply",
    "ez-start-owner-change", "fab-accept", "fab-reply", "new-view",
    "pbft-commit", "pbft-prepare", "pbft-reply", "view-change",
    "zyzzyva-local-commit", "zyzzyva-spec-response",
}


def test_replica_authored_classes_are_pinned():
    """The role follows from ``AUTHOR`` alone: these 17 classes need a
    replica's signature, and no class is added to or dropped from the
    set without this test changing."""
    replica_authored = {
        msg_type for msg_type, cls in MESSAGE_REGISTRY.items()
        if cls.AUTHOR not in (None, "client_id")}
    assert replica_authored == REPLICA_AUTHORED
    assert len(REPLICA_AUTHORED) == 17


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
