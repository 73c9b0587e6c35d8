"""Wire round-trip tests for every registered message type."""

import pytest

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.errors import SerializationError
from repro.messages import decode
from repro.messages.base import MESSAGE_REGISTRY, SignedPayload
from repro.messages import batching, ezbft, fab, pbft, zyzzyva
from repro.statemachine.base import Command
from repro.types import InstanceID


CMD = Command(client_id="c0", timestamp=7, op="put", key="k", value="v")
INST = InstanceID("r0", 3)
KEYPAIR = KeyPair.generate("r0", seed=b"test")


def _signed(payload):
    return SignedPayload.create(payload, KEYPAIR)


def _spec_order():
    return ezbft.SpecOrder(
        leader="r0", owner_number=0, instance=INST, command=CMD,
        deps=(InstanceID("r1", 0), InstanceID("r2", 5)), seq=4,
        log_digest="abc", request_digest="def")


def _spec_reply():
    return ezbft.SpecReply(
        replica="r1", owner_number=0, instance=INST,
        deps=(InstanceID("r1", 0),), seq=4, request_digest="def",
        client_id="c0", timestamp=7, result="OK")


SAMPLES = [
    ezbft.Request(command=CMD),
    ezbft.Request(command=CMD, original_replica="r2"),
    _spec_order(),
    _spec_reply(),
    ezbft.SpecReplyBundle(replies=(_signed(_spec_reply()),),
                          spec_order=_signed(_spec_order())),
    ezbft.SpecReplyBundle(replies=(_signed(_spec_reply()),)),
    ezbft.SpecReplyBundle(
        replies=(_signed(_spec_reply()), _signed(_spec_reply())),
        spec_order=_signed(batching.BatchSpecOrder(
            leader="r0", owner_number=0,
            orders=(_spec_order(), _spec_order())))),
    ezbft.CommitFast(client_id="c0", instance=INST,
                     certificate=(_signed(_spec_reply()),)),
    ezbft.Commit(client_id="c0", instance=INST, command=CMD,
                 deps=(InstanceID("r1", 0),), seq=9,
                 certificate=(_signed(_spec_reply()),)),
    ezbft.CommitReply(replica="r1", instance=INST, client_id="c0",
                      timestamp=7, result="OK"),
    ezbft.ResendRequest(request=ezbft.Request(command=CMD,
                                              original_replica="r0"),
                        forwarder="r2"),
    ezbft.ProofOfMisbehavior(
        suspect="r0", owner_number=0,
        evidence=(_signed(_spec_order()), _signed(_spec_order()))),
    ezbft.StartOwnerChange(sender="r1", suspect="r0", owner_number=0),
    ezbft.OwnerChange(
        sender="r1", suspect="r0", new_owner_number=1,
        entries=(ezbft.LogEntrySummary(
            instance=INST, command=CMD, deps=(), seq=1,
            status="spec-ordered", owner_number=0,
            proof_kind="spec-order", proof=(_signed(_spec_order()),)),)),
    ezbft.NewOwner(
        new_owner="r1", suspect="r0", new_owner_number=1,
        safe_entries=(ezbft.LogEntrySummary(
            instance=INST, command=None, deps=(), seq=0,
            status="committed", owner_number=1,
            proof_kind="commit", proof=()),)),
    pbft.PBFTRequest(command=CMD),
    pbft.PrePrepare(view=0, seqno=1, request_digest="d",
                    request=pbft.PBFTRequest(command=CMD)),
    pbft.Prepare(view=0, seqno=1, request_digest="d", replica="r1"),
    pbft.PBFTCommit(view=0, seqno=1, request_digest="d", replica="r1"),
    pbft.PBFTReply(view=0, timestamp=7, client_id="c0", replica="r1",
                   result="OK"),
    pbft.PBFTCheckpoint(seqno=128, state_digest="d", replica="r1"),
    pbft.ViewChange(new_view=1, last_stable_seqno=0,
                    prepared=((1, "d", 0),),
                    requests=(pbft.PBFTRequest(command=CMD),),
                    replica="r1"),
    pbft.NewView(new_view=1,
                 view_change_proof=(_signed(pbft.ViewChange(
                     new_view=1, last_stable_seqno=0, prepared=(),
                     requests=(), replica="r1")),),
                 pre_prepares=(), primary="r1"),
    zyzzyva.ZRequest(command=CMD),
    zyzzyva.OrderReq(view=0, seqno=1, history_digest="h",
                     request_digest="d",
                     request=zyzzyva.ZRequest(command=CMD)),
    zyzzyva.SpecResponse(view=0, seqno=1, history_digest="h",
                         request_digest="d", client_id="c0",
                         timestamp=7, replica="r1", result="OK"),
    zyzzyva.ZCommit(client_id="c0", seqno=1, certificate=()),
    zyzzyva.LocalCommit(view=0, seqno=1, request_digest="d",
                        history_digest="h", replica="r1",
                        client_id="c0"),
    zyzzyva.FillHole(view=0, seqno=1, replica="r1"),
    zyzzyva.IHateThePrimary(view=0, replica="r1"),
    zyzzyva.ZNewView(new_view=1, primary="r1", max_committed_seqno=5),
    fab.FabRequest(command=CMD),
    fab.FabPropose(proposal_number=0, seqno=1, request_digest="d",
                   request=fab.FabRequest(command=CMD)),
    fab.FabAccept(proposal_number=0, seqno=1, request_digest="d",
                  acceptor="r1"),
    fab.FabReply(seqno=1, client_id="c0", timestamp=7, replica="r1",
                 result="OK"),
]


@pytest.mark.parametrize("message", SAMPLES,
                         ids=lambda m: type(m).__name__)
def test_wire_roundtrip(message):
    wire = message.to_wire()
    again = decode(wire)
    assert again == message
    assert again.to_wire() == wire


@pytest.mark.parametrize("message", SAMPLES,
                         ids=lambda m: type(m).__name__)
def test_cpu_cost_units_positive(message):
    assert message.cpu_cost_units >= 1


def test_signed_payload_roundtrip_and_verify():
    registry = KeyRegistry()
    registry.register(KEYPAIR)
    signed = _signed(_spec_order())
    wire = signed.to_wire()
    again = SignedPayload.from_wire(wire)
    assert again == signed
    assert again.verify(registry)
    assert again.signer == "r0"


def test_signed_payload_detects_tamper():
    registry = KeyRegistry()
    registry.register(KEYPAIR)
    signed = _signed(_spec_order())
    tampered = SignedPayload(
        payload=ezbft.SpecOrder(
            leader="r0", owner_number=0, instance=INST, command=CMD,
            deps=(), seq=999, log_digest="abc", request_digest="def"),
        signature=signed.signature)
    assert not tampered.verify(registry)


def test_decode_unknown_type():
    with pytest.raises(SerializationError):
        decode({"type": "martian"})


def test_decode_missing_type():
    with pytest.raises(SerializationError):
        decode({"no": "type"})


def test_registry_covers_all_samples():
    for message in SAMPLES:
        assert type(message).MSG_TYPE in MESSAGE_REGISTRY


def test_spec_reply_matching_semantics():
    a = _spec_reply()
    b = ezbft.SpecReply(
        replica="r2", owner_number=a.owner_number, instance=a.instance,
        deps=a.deps, seq=a.seq, request_digest=a.request_digest,
        client_id=a.client_id, timestamp=a.timestamp, result=a.result)
    assert a.matches_fast(b)  # replica identity is not a matching field
    c = ezbft.SpecReply(
        replica="r2", owner_number=a.owner_number, instance=a.instance,
        deps=a.deps, seq=a.seq + 1, request_digest=a.request_digest,
        client_id=a.client_id, timestamp=a.timestamp, result=a.result)
    assert not a.matches_fast(c)


def test_spec_reply_is_the_signed_header_only():
    """The paper closes the signed tuple before SO: the header has no
    proposal field and its signed bytes mention none."""
    import dataclasses

    from repro.crypto.digest import canonical_bytes

    assert "spec_order" not in {
        f.name for f in dataclasses.fields(ezbft.SpecReply)}
    assert b"spec_order" not in canonical_bytes(_spec_reply())
    carriers = [cls for cls in MESSAGE_REGISTRY.values()
                if cls.__module__ == ezbft.__name__
                and "spec_order" in {
                    f.name for f in dataclasses.fields(cls)}]
    assert carriers == [ezbft.SpecReplyBundle]


def test_spec_reply_rejects_pre_split_wire_form():
    wire = _spec_reply().to_wire()
    wire["spec_order"] = _signed(_spec_order()).to_wire()
    with pytest.raises(SerializationError, match="spec_order"):
        decode(wire)


def test_spec_reply_bundle_rejects_empty_and_oversized():
    header = _signed(_spec_reply())
    with pytest.raises(SerializationError):
        ezbft.SpecReplyBundle(replies=())
    with pytest.raises(SerializationError):
        decode({"type": "ez-spec-reply-bundle", "replies": [],
                "spec_order": None})
    # More headers than the attached proposal has instances: one for
    # a SPECORDER (or no attachment), len(orders) for a batch.
    with pytest.raises(SerializationError):
        ezbft.SpecReplyBundle(replies=(header, header))
    with pytest.raises(SerializationError):
        ezbft.SpecReplyBundle(replies=(header, header),
                              spec_order=_signed(_spec_order()))
    bundle = ezbft.SpecReplyBundle(replies=(header,))
    assert bundle.spec_order is None and bundle.cpu_cost_units == 1


def test_spec_reply_bundle_costs_one_unit_per_header():
    batch = _signed(batching.BatchSpecOrder(
        leader="r0", owner_number=0,
        orders=tuple(_spec_order() for _ in range(8))))
    headers = tuple(_signed(_spec_reply()) for _ in range(8))
    assert ezbft.SpecReplyBundle(
        replies=headers, spec_order=batch).cpu_cost_units == 8
    assert ezbft.SpecReplyBundle(
        replies=headers[:1], spec_order=batch).cpu_cost_units == 1


def test_spec_response_matching_semantics():
    a = zyzzyva.SpecResponse(view=0, seqno=1, history_digest="h",
                             request_digest="d", client_id="c0",
                             timestamp=7, replica="r1", result="OK")
    b = zyzzyva.SpecResponse(view=0, seqno=1, history_digest="h",
                             request_digest="d", client_id="c0",
                             timestamp=7, replica="r2", result="OK")
    assert a.matches(b)
    c = zyzzyva.SpecResponse(view=0, seqno=1, history_digest="OTHER",
                             request_digest="d", client_id="c0",
                             timestamp=7, replica="r2", result="OK")
    assert not a.matches(c)
