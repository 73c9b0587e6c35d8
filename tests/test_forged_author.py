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

An ordering message also declares the number its signer's role rotates
with (``ROLE``: a view, a proposal or owner number), and is authentic
only if the replica that number rotates to signed it.  The cases at the
end sign such messages with a replica that does not hold the role, on
their own and as members of a VIEW-CHANGE or NEW-VIEW; and honest runs
with a crash reject nothing at all.
"""

import asyncio
import dataclasses
import os
import typing
from dataclasses import dataclass, fields

import pytest

from repro.byzantine import silence_node
from repro.crypto.digest import digest
from repro.errors import SerializationError
from repro.messages.base import (
    MESSAGE_REGISTRY,
    SignedPayload,
    register_message,
)
from repro.messages.batching import (
    BatchPrePrepare,
    BatchRequest,
    BatchSpecOrder,
)
from repro.messages.ezbft import (
    CommitReply,
    EzCheckpoint,
    LogEntrySummary,
    NewOwner,
    OwnerChange,
    Request,
    ResendRequest,
    SpecOrder,
    StartOwnerChange,
)
from repro.messages.fab import FabAccept, FabPropose
from repro.messages.pbft import (
    NewView,
    PBFTCommit,
    PBFTReply,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.messages.zyzzyva import (
    LocalCommit,
    OrderReq,
    SpecResponse,
    ZCommit,
)
from repro.scenario import ScenarioRunner, load_spec
from repro.statemachine.base import Command
from repro.transport.asyncio_tcp import AsyncioCluster
from repro.types import InstanceID

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
        replica=rid, instance=pending.replies["r0"][0].instance,
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
    request = Request(command=client.next_command("put", "k", "EVIL"))
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
    request = Request(command=Command(client_id="c0", timestamp=1,
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
    request = Request(command=cluster.add_client(
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
    request = Request(command=cluster.add_client(
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


#: The 16 registered classes whose author is a replica: every
#: ``AUTHOR`` but ``None`` and ``"client_id"``.
REPLICA_AUTHORED = {
    "ez-batch-spec-order", "ez-checkpoint", "ez-commit-reply",
    "ez-new-owner", "ez-owner-change", "ez-spec-order", "ez-spec-reply",
    "ez-start-owner-change", "fab-accept", "new-view",
    "pbft-commit", "pbft-prepare", "pbft-reply", "view-change",
    "zyzzyva-local-commit", "zyzzyva-spec-response",
}


def test_replica_authored_classes_are_pinned():
    """The role follows from ``AUTHOR`` alone: these 16 classes need a
    replica's signature, and no class is added to or dropped from the
    set without this test changing."""
    replica_authored = {
        msg_type for msg_type, cls in MESSAGE_REGISTRY.items()
        if cls.AUTHOR not in (None, "client_id")}
    assert replica_authored == REPLICA_AUTHORED
    assert len(REPLICA_AUTHORED) == 16


def test_every_registered_message_declares_its_author():
    """``AUTHOR`` is declared in every registered class's own body:
    ``None`` (no author) or the name of a field or property of the
    class; ``ROLE``, ``None`` unless declared, names an int field or a
    property."""
    for msg_type, cls in MESSAGE_REGISTRY.items():
        assert "AUTHOR" in vars(cls), msg_type
        author = cls.AUTHOR
        if author is not None:
            names = {f.name for f in fields(cls)}
            assert author in names or \
                isinstance(getattr(cls, author, None), property), msg_type
        role = cls.ROLE
        if role is not None:
            assert typing.get_type_hints(cls).get(role) is int or \
                isinstance(getattr(cls, role, None), property), msg_type


#: The 8 registered classes whose signer must hold a role, and the
#: number the role rotates with.
ROLE_NUMBERS = {
    "pbft-pre-prepare": "view", "pbft-batch-pre-prepare": "view",
    "zyzzyva-order-req": "view", "fab-propose": "proposal_number",
    "new-view": "new_view", "ez-spec-order": "owner_number",
    "ez-batch-spec-order": "owner_number",
    "ez-new-owner": "new_owner_number",
}


def test_role_classes_are_pinned():
    """These 8 classes, and no others, need the signature of the
    replica their number rotates to: the view's primary, the proposer,
    the space's owner."""
    roles = {msg_type: cls.ROLE for msg_type, cls in MESSAGE_REGISTRY.items()
             if cls.ROLE is not None}
    assert roles == ROLE_NUMBERS
    assert len(ROLE_NUMBERS) == 8


def test_a_role_must_name_an_int_field_or_property():
    @dataclass(frozen=True)
    class Misrolled:
        MSG_TYPE = "test-misrolled"
        AUTHOR = None
        ROLE = "replica"

        replica: str

    with pytest.raises(SerializationError, match="ROLE"):
        register_message(Misrolled)
    assert "test-misrolled" not in MESSAGE_REGISTRY


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


# ----------------------------------------------------------------------
# The primary's role (``ROLE``)
# ----------------------------------------------------------------------
def _pbft_request(cluster):
    return Request(command=cluster.add_client(
        "c9", "local").next_command("put", "k", "v"))


def _pre_prepare(request, view=0, seqno=0):
    return PrePrepare(view=view, seqno=seqno, request_digest=digest(request),
                      request=request)


def _pbft_pre_prepare_from_a_backup():
    """r2, a backup of view 0, signs a PRE-PREPARE to r1."""
    cluster = lan_cluster("pbft")
    r1 = cluster.replicas["r1"]
    invalid = _deliver_all(r1, "r2", [_forge(
        cluster, "r2", _pre_prepare(_pbft_request(cluster)))])
    assert r1._slots == {}
    return invalid


def _pbft_batch_pre_prepare_from_a_backup():
    """r2, a backup of view 0, signs a BATCHPREPREPARE to r1."""
    cluster = lan_cluster("pbft")
    request = _pbft_request(cluster)
    r1 = cluster.replicas["r1"]
    invalid = _deliver_all(r1, "r2", [_forge(cluster, "r2", BatchPrePrepare(
        view=0, pre_prepares=(_pre_prepare(request),
                              _pre_prepare(request, seqno=1))))])
    assert r1._slots == {}
    return invalid


def _fab_propose_from_a_non_proposer():
    """r2 signs a PROPOSE for proposal number 0, r0's, to r1."""
    cluster = lan_cluster("fab")
    request = Request(command=Command(client_id="c0", timestamp=1,
                                      op="put", key="k", value="v"))
    r1 = cluster.replicas["r1"]
    invalid = _deliver_all(r1, "r2", [_forge(cluster, "r2", FabPropose(
        proposal_number=0, seqno=0, request_digest=digest(request),
        request=request))])
    assert r1._slots == {}
    return invalid


def _zyzzyva_order_req_from_a_backup():
    """r2, a backup of view 0, signs an ORDER-REQ to r1."""
    cluster = lan_cluster("zyzzyva")
    request = Request(command=Command(client_id="c0", timestamp=1,
                                      op="put", key="k", value="v"))
    d = digest(request)
    r1 = cluster.replicas["r1"]
    invalid = _deliver_all(r1, "r2", [_forge(cluster, "r2", OrderReq(
        view=0, seqno=0, history_digest=digest(["", d]),
        request_digest=d, request=request))])
    assert r1._slots == {}
    assert r1.stats["executed"] == 0
    return invalid


def _spec_order(owner_number=0, slot=0, leader="r0", space="r0"):
    command = Command(client_id="c0", timestamp=slot + 1, op="put",
                      key="k", value=slot)
    return SpecOrder(leader=leader, owner_number=owner_number,
                     instance=InstanceID(space, slot), command=command,
                     deps=(), seq=1, log_digest="",
                     request_digest=digest(Request(command=command)))


def _ezbft_spec_order_for_another_owner():
    """r1 signs a SPECORDER in its own name for owner number 0, r0's,
    into r0's space."""
    cluster = lan_cluster("ezbft")
    r2 = cluster.replicas["r2"]
    invalid = _deliver_all(r2, "r1", [_forge(
        cluster, "r1", _spec_order(leader="r1"))])
    assert r2._log_index == {}
    return invalid


def _ezbft_new_owner_from_a_non_owner():
    """r3 signs, naming itself, the NEWOWNER of owner number 2 of r1's
    space -- r2's to send -- with a proof that holds (the OWNERCHANGEs
    r0 and r2 sent r2) and the history derived from it.  The same
    NEWOWNER from r2 installs."""
    cluster = lan_cluster("ezbft")
    r0 = cluster.replicas["r0"]
    proof = tuple(_forge(cluster, rid, OwnerChange(
        sender=rid, suspect="r1", new_owner_number=2, entries=()))
        for rid in ("r0", "r2"))

    def new_owner(rid):
        return _forge(cluster, rid, NewOwner(
            new_owner=rid, suspect="r1", new_owner_number=2,
            safe_entries=(), proof=proof))
    invalid = _deliver_all(r0, "r3", [new_owner("r3")])
    assert not r0.spaces["r1"].frozen
    assert r0.spaces["r1"].owner_number == 1
    assert _deliver_all(r0, "r2", [new_owner("r2")]) == 0
    assert r0.spaces["r1"].frozen and r0.spaces["r1"].owner_number == 2
    return invalid


def _certified_cluster(protocol):
    """A cluster that ordered one request: each replica's slot 0 holds
    the certificate its VIEW-CHANGE would report."""
    cluster = lan_cluster(protocol)
    client = cluster.add_client("c0", "local")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    return cluster


def _reported(cluster, rid, certificate=None):
    """``rid``'s VIEW-CHANGE to view 1, reporting slot 0 with
    ``certificate`` (its own by default)."""
    if certificate is None:
        certificate = cluster.replicas[rid]._slots[0].certificate
    return _forge(cluster, rid, ViewChange(
        new_view=1, checkpoint=(), certificates=(certificate,),
        replica=rid))


def _view_change_with_a_backup_order(protocol):
    """r3 sends r1, the primary of view 1, a VIEW-CHANGE whose
    certificate's order r2, a backup of view 0, signed again; the same
    VIEW-CHANGE with r3's real certificate counts."""
    def case():
        cluster = _certified_cluster(protocol)
        r1 = cluster.replicas["r1"]
        order, *votes = cluster.replicas["r3"]._slots[0].certificate
        forged = (_forge(cluster, "r2", order.payload), *votes)
        invalid = _deliver_all(r1, "r3", [_reported(cluster, "r3", forged)])
        assert 1 not in r1._view_change_votes
        assert _deliver_all(r1, "r3", [_reported(cluster, "r3")]) == 0
        assert set(r1._view_change_votes[1]) == {"r3"}
        return invalid
    case.__name__ = f"_{protocol}_view_change_with_a_backup_order"
    return case


def _view_change_with_a_non_int_role(protocol):
    """r3's VIEW-CHANGE to r1 reports slot 0 with an order r0 signed
    whose view (or proposal number) is the string ``"0"``: no replica
    holds that role, and checking it raises nothing."""
    def case():
        cluster = _certified_cluster(protocol)
        r1 = cluster.replicas["r1"]
        order, *votes = cluster.replicas["r3"]._slots[0].certificate
        payload = order.payload
        forged = (_forge(cluster, "r0", dataclasses.replace(
            payload, **{payload.ROLE: "0"})), *votes)
        invalid = _deliver_all(r1, "r3", [_reported(cluster, "r3", forged)])
        assert 1 not in r1._view_change_votes
        return invalid
    case.__name__ = f"_{protocol}_view_change_with_a_non_int_role"
    return case


def _new_view_with_a_backup_order(protocol):
    """r1, the primary of view 1, sends r0 a NEW-VIEW whose proof holds
    and whose one re-issued order r2 signed; the same NEW-VIEW with r1's
    order installs."""
    def case():
        cluster = _certified_cluster(protocol)
        r0, r1 = cluster.replicas["r0"], cluster.replicas["r1"]
        proof = tuple(_reported(cluster, rid) for rid in ("r1", "r2", "r3"))
        order = r1._order_at(
            1, 0, r1._slots[0].certificate[0].payload.request)

        def new_view(order_signer):
            return _forge(cluster, "r1", NewView(
                new_view=1, proof=proof, primary="r1",
                orders=(_forge(cluster, order_signer, order),)))
        invalid = _deliver_all(r0, "r1", [new_view("r2")])
        assert r0.view == 0
        assert _deliver_all(r0, "r1", [new_view("r1")]) == 0
        assert r0.view == 1
        return invalid
    case.__name__ = f"_{protocol}_new_view_with_a_backup_order"
    return case


def _pbft_batch_naming_another_view():
    """r0, the primary of view 0, signs a view-0 batch carrying a view-1
    PRE-PREPARE to r2, which is in view 1: r0's role covers the batch's
    view only."""
    cluster = lan_cluster("pbft", primary_index=1)
    r2 = cluster.replicas["r2"]
    assert r2.view == 1
    invalid = _deliver_all(r2, "r0", [_forge(cluster, "r0", BatchPrePrepare(
        view=0, pre_prepares=(_pre_prepare(_pbft_request(cluster),
                                           view=1),)))])
    assert r2._slots == {}
    return invalid


def _ezbft_batch(inner_number):
    """r0's BATCHSPECORDER for owner number 0 of its space whose second
    order names ``inner_number``."""
    return BatchSpecOrder(leader="r0", owner_number=0, orders=(
        _spec_order(), _spec_order(inner_number, slot=1)))


def _ezbft_batch_naming_another_owner_number():
    """r0 signs a BATCHSPECORDER for owner number 0 whose second order
    names owner number 4, which rotates to r0 too."""
    cluster = lan_cluster("ezbft")
    r1 = cluster.replicas["r1"]
    invalid = _deliver_all(r1, "r0", [_forge(cluster, "r0", _ezbft_batch(4))])
    assert r1._log_index == {}
    return invalid


@pytest.mark.parametrize("case, rejected", [
    (_pbft_pre_prepare_from_a_backup, 1),
    (_pbft_batch_pre_prepare_from_a_backup, 1),
    (_fab_propose_from_a_non_proposer, 1),
    (_zyzzyva_order_req_from_a_backup, 1),
    (_ezbft_spec_order_for_another_owner, 1),
    (_ezbft_new_owner_from_a_non_owner, 1),
    *[(make(protocol), 1)
      for make in (_view_change_with_a_backup_order,
                   _view_change_with_a_non_int_role,
                   _new_view_with_a_backup_order)
      for protocol in ("pbft", "fab", "zyzzyva")],
    (_pbft_batch_naming_another_view, 1),
    (_ezbft_batch_naming_another_owner_number, 1),
], ids=lambda value: getattr(value, "__name__", "").lstrip("_") or None)
def test_forged_primary_is_rejected(case, rejected):
    """A replica that does not hold the role its message's number
    rotates to signs it in its own name, alone or inside a certificate;
    or the role's holder signs a batch whose inner order names another
    number.  The victim counts the envelope (or the message carrying
    it) as invalid once and acts on none of it."""
    assert case() == rejected


def _pbft_view_change_naming_view(new_view):
    """r3's VIEW-CHANGE to r1, the primary of view 1, signed in its own
    name, whose new view is ``new_view``; returns how many r1 counted
    as invalid."""
    cluster = lan_cluster("pbft")
    r1 = cluster.replicas["r1"]
    return _deliver_all(r1, "r3", [_forge(cluster, "r3", ViewChange(
        new_view=new_view, checkpoint=(), certificates=(),
        replica="r3"))])


def _ezbft_owner_change_naming(new_owner_number):
    """r3's OWNERCHANGE to r2 suspecting r1, signed in its own name,
    whose new owner number is ``new_owner_number``; returns how many r2
    counted as invalid."""
    cluster = lan_cluster("ezbft")
    r2 = cluster.replicas["r2"]
    return _deliver_all(r2, "r3", [_forge(cluster, "r3", OwnerChange(
        sender="r3", suspect="r1", new_owner_number=new_owner_number,
        entries=()))])


@pytest.mark.parametrize("case, value", [
    (_pbft_view_change_naming_view, "1"),
    (_pbft_view_change_naming_view, True),
    (_ezbft_owner_change_naming, "2"),
    (_ezbft_owner_change_naming, 2.0),
], ids=["pbft-view-str", "pbft-view-bool", "ezbft-owner-number-str",
        "ezbft-owner-number-float"])
def test_a_number_field_holding_no_int_is_rejected(case, value):
    """A replica signs, in its own name, a message whose ``int`` field
    holds a string, a bool or a float: the victim counts it invalid
    once and no handler meets it (at the parent the string raised
    ``TypeError`` out of the handler).  The same message holding an
    int is accepted."""
    assert case(value) == 1
    assert case(int(value)) == 0


def test_int_fields_are_recorded_from_the_annotations():
    assert ViewChange.INT_FIELDS == ("new_view",)
    assert OwnerChange.INT_FIELDS == ("new_owner_number", "base_slot")
    assert SignedPayload.INT_FIELDS == ()


def _put(timestamp, client="c9"):
    return Command(client_id=client, timestamp=timestamp, op="put",
                   key="k", value="v")


@pytest.mark.parametrize("timestamp", ("5", 5.0, True))
@pytest.mark.parametrize("protocol", ("ezbft", "fab", "pbft", "zyzzyva"))
def test_a_command_timestamp_holding_no_int_is_rejected(protocol,
                                                        timestamp):
    """A client signs a REQUEST whose command's timestamp is a string,
    a float or a bool, and sends it to every replica: each counts it
    invalid once and no handler meets it (unchecked, the string raises
    ``TypeError`` out of the exactly-once check).  The int timestamp
    that follows is admitted everywhere."""
    cluster = lan_cluster(protocol)
    client = cluster.add_client("c9", "local")

    def request(ts):
        return SignedPayload.create(
            Request(command=_put(ts)), client.keypair)
    for replica in cluster.replicas.values():
        assert _deliver_all(replica, "c9", [request(timestamp)]) == 1
    for replica in cluster.replicas.values():
        assert _deliver_all(replica, "c9", [request(5)]) == 0


@pytest.mark.parametrize("timestamp", ("5", 5.0))
def test_a_spec_order_carrying_a_non_int_timestamp_is_rejected(timestamp):
    """r0, the owner of its space, signs a SPECORDER whose command's
    timestamp is no int; r1 counts it invalid and logs nothing
    (unchecked, it raises from the exactly-once watermark).  A
    BATCHSPECORDER carrying it, and a RESENDREQ -- unsigned -- relaying
    it, go the same way."""
    cluster = lan_cluster("ezbft")
    for client in ("c0", "c9"):
        cluster.add_client(client, "local")
    r1 = cluster.replicas["r1"]
    order = dataclasses.replace(_spec_order(), command=_put(timestamp))
    batch = BatchSpecOrder(leader="r0", owner_number=0, orders=(
        order, _spec_order(slot=1)))
    assert _deliver_all(r1, "r0", [_forge(cluster, "r0", order),
                                   _forge(cluster, "r0", batch)]) == 2
    assert r1._log_index == {}
    resend = ResendRequest(request=Request(command=_put(timestamp)),
                           forwarder="r2")
    assert _deliver_all(r1, "r2", [resend]) == 1
    assert r1._log_index == {}
    assert _deliver_all(r1, "r0", [_forge(cluster, "r0", _spec_order())]) \
        == 0
    assert len(r1._log_index) == 1


def test_nested_int_fields_are_recorded_from_the_annotations():
    """Where a command can sit -- directly, in a tuple, behind an
    ``Optional`` -- is recorded as ``STRUCT_FIELDS``; an envelope or a
    dependency set holds no int field the check would have to reach."""
    assert Command.INT_FIELDS == ("timestamp",)
    assert Request.STRUCT_FIELDS == ("command",)
    assert BatchRequest.STRUCT_FIELDS == ("commands",)
    assert BatchSpecOrder.STRUCT_FIELDS == ("orders",)
    assert LogEntrySummary.STRUCT_FIELDS == ("command",)
    assert SpecOrder.STRUCT_FIELDS == ("command",)
    assert SignedPayload.STRUCT_FIELDS == ()


def test_a_non_int_timestamp_over_tcp_is_rejected():
    """The same REQUEST in a real frame over a loopback socket: r0
    counts it invalid and keeps serving."""
    async def scenario():
        cluster = AsyncioCluster(protocol="ezbft", num_replicas=4)
        await cluster.start()
        try:
            r0 = cluster.replicas["r0"]
            client = cluster.replicas["r1"]
            bad = SignedPayload.create(Request(command=_put(
                "5", client="r1")), client.keypair)
            client.ctx.send("r0", bad)
            for _ in range(200):
                if r0.stats["invalid_messages"] >= 1:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            return r0.stats["invalid_messages"], r0.stats["led"]
        finally:
            await cluster.stop()

    assert asyncio.run(scenario()) == (1, 0)


def test_state_transfer_drops_a_batch_order_naming_another_owner_number():
    """A catch-up entry backed by a batch whose inner order names
    another owner number than the batch does is no evidence; the same
    entry backed by an honest batch is."""
    cluster = lan_cluster("ezbft")
    checker = cluster.replicas["r1"].checkpointing

    def entry(inner_number):
        order = _spec_order(inner_number, slot=1)
        return checker._entry_from_summary(LogEntrySummary(
            instance=order.instance, command=order.command, deps=(),
            seq=1, status="spec-ordered", owner_number=inner_number,
            proof_kind="spec-order",
            proof=(_forge(cluster, "r0", _ezbft_batch(inner_number)),)))
    assert entry(0) is not None
    assert entry(4) is None


def test_forged_pre_prepare_over_tcp_is_rejected():
    """The role behind real frames: r2, a backup of view 0, sends r1 a
    PRE-PREPARE it signed over a loopback socket."""
    async def scenario():
        cluster = AsyncioCluster(protocol="pbft", num_replicas=4)
        await cluster.start()
        try:
            request = Request(command=Command(
                client_id="c0", timestamp=1, op="put", key="k", value="v"))
            r1, r2 = cluster.replicas["r1"], cluster.replicas["r2"]
            r2.ctx.send("r1", r2.sign(_pre_prepare(request)))
            for _ in range(200):
                if r1.stats["invalid_messages"] >= 1:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            return r1._slots, r1.stats["invalid_messages"]
        finally:
            await cluster.stop()

    assert asyncio.run(scenario()) == ({}, 1)


SPECS = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                     "specs")


@pytest.mark.parametrize("protocol", ("ezbft", "pbft", "zyzzyva", "fab"))
@pytest.mark.parametrize("spec, delivered", [("primary_crash", 24),
                                             ("crash_recovery", 12)])
def test_honest_runs_reject_nothing(spec, delivered, protocol):
    """A crash, view changes, owner changes, re-issued orders, FILL-HOLE
    resends and a recovery, all from honest replicas: no replica counts
    one message invalid."""
    scenario = load_spec(os.path.join(SPECS, spec + ".json"))
    report, cluster = ScenarioRunner(backend="sim").run_with_cluster(
        dataclasses.replace(scenario, protocol=protocol))
    assert report.violations == []
    assert report.delivered == delivered
    assert {rid: replica.stats["invalid_messages"]
            for rid, replica in cluster.replicas.items()} == \
        dict.fromkeys(cluster.replicas, 0)
