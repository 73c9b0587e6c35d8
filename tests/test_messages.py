"""Wire round-trip tests for every registered message type, and the
golden pin of the wire format itself.

``to_wire``/``from_wire`` are derived from the dataclass fields
(:mod:`repro.wire`), so renaming a field changes the TCP frame and the
WAL record with no second place to edit.  ``tests/data/wire_schema.json``
pins, for every sample below, its wire keys and the sha256 of its
canonical bytes: a format change must update it *deliberately*.
Regenerate after an intentional change with::

    python tests/test_messages.py --regen
"""

import dataclasses
import hashlib
import json
import os
import sys

import pytest

from repro.byzantine import install_byzantine, silence_node
from repro.byzantine.behaviors import rewriting
from repro.check import check, observe
from repro.crypto.digest import WRITERS, _encode, canonical_bytes
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signatures import sign
from repro.errors import SerializationError
from repro.messages import decode
from repro.messages.base import MESSAGE_REGISTRY, SignedPayload
from repro.messages import batching, ezbft, fab, pbft, zyzzyva
from repro.statemachine.base import Command
from repro.types import InstanceID

from helpers import DeliveryLog, lan_cluster


CMD = Command(client_id="c0", timestamp=7, op="put", key="k", value="v")
INST = InstanceID("r0", 3)
KEYPAIR = KeyPair.generate("r0", seed=b"test")
#: A fast certificate's headers must be signed by the replica they name.
R1_KEYPAIR = KeyPair.generate("r1", seed=b"test")


def _signed(payload, keypair=KEYPAIR):
    return SignedPayload.create(payload, keypair)


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
                     certificate=(_signed(_spec_reply(), R1_KEYPAIR),)),
    ezbft.BatchCommitFast(commits=(
        ezbft.CommitFast(
            client_id="c0", instance=INST,
            certificate=(_signed(_spec_reply(), R1_KEYPAIR),)),) * 2),
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
    pbft.PrePrepare(view=0, seqno=1, request_digest="d",
                    request=ezbft.Request(command=CMD)),
    pbft.Prepare(view=0, seqno=1, request_digest="d", replica="r1"),
    pbft.PBFTCommit(view=0, seqno=1, request_digest="d", replica="r1"),
    pbft.PBFTReply(view=0, timestamp=7, client_id="c0", replica="r1",
                   result="OK"),
    pbft.ViewChange(
        new_view=1,
        checkpoint=(_signed(ezbft.EzCheckpoint(
            replica="r0", watermark=128, state_digest="d")),),
        certificates=((_signed(pbft.PrePrepare(
            view=0, seqno=129, request_digest="d",
            request=ezbft.Request(command=CMD))),
            _signed(pbft.Prepare(view=0, seqno=129, request_digest="d",
                                 replica="r0"))),),
        replica="r1"),
    pbft.NewView(new_view=1,
                 proof=(_signed(pbft.ViewChange(
                     new_view=1, checkpoint=(), certificates=(),
                     replica="r1")),),
                 orders=(_signed(pbft.PrePrepare(
                     view=1, seqno=0, request_digest="d", request=None)),),
                 primary="r1"),
    zyzzyva.OrderReq(view=0, seqno=1, history_digest="h",
                     request_digest="d",
                     request=ezbft.Request(command=CMD)),
    zyzzyva.SpecResponse(view=0, seqno=1, history_digest="h",
                         request_digest="d", client_id="c0",
                         timestamp=7, replica="r1", result="OK"),
    zyzzyva.ZCommit(client_id="c0", seqno=1, certificate=()),
    zyzzyva.LocalCommit(view=0, seqno=1, request_digest="d",
                        history_digest="h", replica="r1",
                        client_id="c0"),
    zyzzyva.FillHole(view=0, seqno=1, replica="r1"),
    fab.FabPropose(proposal_number=0, seqno=1, request_digest="d",
                   request=ezbft.Request(command=CMD)),
    fab.FabAccept(proposal_number=0, seqno=1, request_digest="d",
                  acceptor="r1"),
    ezbft.EzCheckpoint(replica="r1", watermark=128, state_digest="d"),
    ezbft.StateTransferRequest(replica="r1", have_watermark=64,
                               frontier=(("r0", 12), ("r1", 0))),
    ezbft.StateTransferReply(
        replica="r1", watermark=128,
        snapshot={"final": {"k": {"nested": [1, 2.5, {"deep": None}]}},
                  "applied": 128},
        proof=(_signed(ezbft.EzCheckpoint(
            replica="r0", watermark=128, state_digest="d")),),
        entries=(ezbft.LogEntrySummary(
            instance=INST, command=CMD, deps=(InstanceID("r1", 0),),
            seq=2, status="committed", owner_number=0,
            proof_kind="commit", proof=(_signed(_spec_reply()),)),),
        new_owners=(_signed(ezbft.NewOwner(
            new_owner="r1", suspect="r0", new_owner_number=1,
            safe_entries=())),)),
    batching.BatchRequest(commands=(
        CMD, dataclasses.replace(CMD, timestamp=8, op="get", value=None))),
    batching.BatchSpecOrder(leader="r0", owner_number=0,
                            orders=(_spec_order(), _spec_order())),
    batching.BatchPrePrepare(view=0, pre_prepares=(
        pbft.PrePrepare(view=0, seqno=1, request_digest="d",
                        request=ezbft.Request(command=CMD)),)),
    _signed(_spec_order()),
]

#: The two wire structs that never ride top-level (no ``MSG_TYPE``).
STRUCT_SAMPLES = [
    CMD,
    ezbft.LogEntrySummary(
        instance=INST, command=None, deps=(InstanceID("r2", 1),), seq=3,
        status="spec-ordered", owner_number=0, proof_kind="spec-order",
        proof=(_signed(_spec_order()),)),
]

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "wire_schema.json")


def current_wire_schema():
    return [{"type": getattr(type(m), "MSG_TYPE", type(m).__name__),
             "keys": sorted(m.to_wire()),
             "sha256": hashlib.sha256(canonical_bytes(m)).hexdigest()}
            for m in SAMPLES + STRUCT_SAMPLES]


def test_wire_schema_matches_golden_file():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    current = current_wire_schema()
    assert len(current) == len(golden), \
        "samples changed; regenerate the golden file deliberately " \
        "(see module docstring)"
    for now, pinned in zip(current, golden):
        assert now == pinned, (
            f"wire form of {pinned['type']!r} moved: TCP frames, "
            f"signatures and WAL records written before this change "
            f"no longer match.  If intentional, regenerate "
            f"tests/data/wire_schema.json (module docstring).")


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
        body=canonical_bytes(ezbft.SpecOrder(
            leader="r0", owner_number=0, instance=INST, command=CMD,
            deps=(), seq=999, log_digest="abc", request_digest="def")),
        signature=signed.signature)
    assert not tampered.verify(registry)


def test_role_message_without_the_rotation_is_not_authentic():
    """A role is checked against the registry's ordered replica ids: a
    registry that knows none holds no role (and divides by nothing),
    and a role number that is no int names no holder."""
    pre_prepare = pbft.PrePrepare(view=0, seqno=0, request_digest="d",
                                  request=None)
    signed = _signed(pre_prepare)
    empty = KeyRegistry()
    empty.register(KEYPAIR)
    assert signed.verify(empty)
    assert signed.authentic(empty) is False
    cluster = KeyRegistry(("r0", "r1", "r2", "r3"))
    cluster.register(KEYPAIR)
    assert signed.authentic(cluster)
    for view in ("0", 4.0, None):
        assert not _signed(dataclasses.replace(
            pre_prepare, view=view)).authentic(cluster)


def test_decode_unknown_type():
    with pytest.raises(SerializationError):
        decode({"type": "martian"})


def test_decode_missing_type():
    with pytest.raises(SerializationError):
        decode({"no": "type"})


def test_registry_covers_all_samples():
    for message in SAMPLES:
        assert type(message).MSG_TYPE in MESSAGE_REGISTRY
    assert set(MESSAGE_REGISTRY.values()) == {type(m) for m in SAMPLES}


@pytest.mark.parametrize("message", SAMPLES + STRUCT_SAMPLES,
                         ids=lambda m: type(m).__name__)
def test_roundtrip_through_bytes(message):
    """What the TCP path does: nested ``from_wire`` positions see the
    plain dicts ``json.loads`` delivers, not embedded objects."""
    raw = canonical_bytes(message)
    wire = json.loads(raw)
    again = decode(wire) if hasattr(message, "MSG_TYPE") \
        else type(message).from_wire(wire)
    assert again == message
    assert canonical_bytes(again) == raw


# ----------------------------------------------------------------------
# The derivation's edges (the grammar itself is stated in repro.wire)
# ----------------------------------------------------------------------
def _without(message, *keys):
    wire = json.loads(canonical_bytes(message))
    for key in keys:
        del wire[key]
    return wire


def test_absent_defaulted_field_decodes_to_its_default():
    owner_change = next(m for m in SAMPLES
                        if isinstance(m, ezbft.OwnerChange))
    assert decode(_without(owner_change, "base_slot")).base_slot == 0
    request = ezbft.Request(command=CMD)
    assert decode(_without(request, "original_replica")) == request
    get = Command(client_id="c0", timestamp=1, op="get")
    assert Command.from_wire(_without(get, "key", "value")) == get
    # Newly lenient with the derived codec: an absent proof is the
    # empty proof, which is constructible anyway and which every
    # validator refuses for want of a quorum.
    for message in SAMPLES + STRUCT_SAMPLES:
        if isinstance(message, (ezbft.NewOwner, ezbft.LogEntrySummary,
                                ezbft.StateTransferReply)):
            again = type(message).from_wire(_without(message, "proof"))
            assert again == dataclasses.replace(message, proof=())


def test_absent_required_field_is_a_key_error_naming_it():
    for message in SAMPLES + STRUCT_SAMPLES:
        if isinstance(message, ezbft.CommitFast):
            continue  # its wire keys are not its field list
        for f in dataclasses.fields(message):
            if f.default is dataclasses.MISSING:
                with pytest.raises(KeyError, match=f"'{f.name}'"):
                    type(message).from_wire(_without(message, f.name))


def test_field_type_outside_the_grammar_fails_at_class_definition():
    from typing import Dict, List

    from repro.messages.base import wire_struct

    for annotation in (List[SignedPayload], Dict[str, Command], tuple):
        @dataclasses.dataclass(frozen=True)
        class Stray:
            ok: int
            nested: annotation

        with pytest.raises(SerializationError, match="Stray.nested"):
            wire_struct(Stray)
        assert not hasattr(Stray, "to_wire")


def test_a_method_the_class_defines_itself_wins():
    def written_in(function):
        return function.__code__.co_filename

    assert written_in(ezbft.CommitFast.to_wire) == ezbft.__file__
    assert written_in(ezbft.CommitFast.from_wire.__func__) == ezbft.__file__
    assert written_in(ezbft.SpecReply.from_wire.__func__) == ezbft.__file__
    assert written_in(SignedPayload.to_wire).endswith("base.py")
    # ...and the other half of the pair is still derived.
    assert written_in(ezbft.SpecReply.to_wire).startswith("<wire codec")
    # A derived to_wire comes with a compiled canonical writer; a
    # hand-written one is encoded through itself.
    assert written_in(WRITERS[ezbft.SpecReply]).startswith(
        "<canonical writer of repro.messages.ezbft.SpecReply")
    assert ezbft.CommitFast not in WRITERS
    assert SignedPayload not in WRITERS


def test_derived_source_is_inspectable():
    import inspect

    source = inspect.getsource(ezbft.SpecOrder.to_wire)
    assert source.startswith("def to_wire(self):")
    assert '"deps": deps_to_wire(self.deps),' in source
    writer = inspect.getsource(WRITERS[ezbft.SpecOrder])
    assert writer.startswith("def write_canonical(self, out):")
    assert "write_deps(self.deps, out)" in writer
    assert writer.rstrip().endswith(
        """append(',"type":"ez-spec-order"}')""")
    assert 'command=as_message(wire["command"], Command),' \
        in inspect.getsource(ezbft.SpecOrder.from_wire)
    assert ezbft.SpecOrder.to_wire.__qualname__ == "SpecOrder.to_wire"
    assert ezbft.SpecOrder.to_wire.__module__ == ezbft.__name__


def _matches(a, b):
    """Whether headers ``a`` and ``b``, each signed by the replica it
    names, are one fast statement (paper step 4.1)."""
    return ezbft.statement_of(
        _signed(a, KeyPair.generate(a.replica, seed=b"test"))) == \
        ezbft.statement_of(
            _signed(b, KeyPair.generate(b.replica, seed=b"test")))


def test_spec_reply_matching_semantics():
    a = _spec_reply()
    b = ezbft.SpecReply(
        replica="r2", owner_number=a.owner_number, instance=a.instance,
        deps=a.deps, seq=a.seq, request_digest=a.request_digest,
        client_id=a.client_id, timestamp=a.timestamp, result=a.result)
    assert _matches(a, b)  # replica identity is not a matching field
    c = ezbft.SpecReply(
        replica="r2", owner_number=a.owner_number, instance=a.instance,
        deps=a.deps, seq=a.seq + 1, request_digest=a.request_digest,
        client_id=a.client_id, timestamp=a.timestamp, result=a.result)
    assert not _matches(a, c)
    # d = H(m) is a signed field of the header like any other.
    assert not _matches(
        a, dataclasses.replace(b, request_digest="another request"))
    # Every signed field but the signer's id takes part.
    changed = {"owner_number": 9, "instance": InstanceID("r9", 9),
               "deps": (), "seq": 99, "request_digest": "x",
               "client_id": "c9", "timestamp": 99, "result": "other"}
    assert set(changed) | {"replica"} == {
        f.name for f in dataclasses.fields(ezbft.SpecReply)}
    for name, value in changed.items():
        assert not _matches(a, dataclasses.replace(b, **{name: value}))
    # Not a SPECREPLY header: no statement, so it matches nothing.
    assert ezbft.statement_of(_signed(_spec_order())) is None


def test_header_naming_a_foreign_digest_is_not_a_fast_vote():
    """r3 signs headers that name some other request's digest: they
    must not count toward the client's 3f+1, and a certificate holding
    one is not a fast certificate."""
    wrong_digest = rewriting((ezbft.SpecReply,),
                             lambda header: {"request_digest": "00" * 32})

    cluster = lan_cluster()
    install_byzantine(cluster, "r3", wrong_digest)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    headers = {}
    deliver = cluster.network.handler_of("c0")

    def sniff(sender, message):
        if isinstance(message, ezbft.SpecReplyBundle):
            headers[sender] = message.replies[0]
        deliver(sender, message)

    cluster.network.set_handler("c0", sniff)
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.paths == ["slow"]
    assert client.stats["delivered_fast"] == 0
    assert headers["r3"].payload.request_digest == "00" * 32
    forged = ezbft.CommitFast(
        client_id="c0", instance=headers["r0"].payload.instance,
        certificate=tuple(headers[rid] for rid in sorted(headers)))
    assert len(forged.certificate) == 4
    assert all(h.verify(cluster.registry) for h in forged.certificate)
    assert not cluster.replicas["r1"]._validate_fast_certificate(forged)
    with pytest.raises(SerializationError, match="request_digest"):
        forged.to_wire()


def test_matching_is_of_signed_bytes_not_of_python_equality():
    """``5 == 5.0`` and ``1 == True`` in Python, but each is spelled
    differently under the signature: such headers are not one
    statement, because matching compares signed bytes.  An integer
    field signed as a float is the signer's own envelope: it verifies
    once decoded and decodes to the same int at every node, and it
    never matches the header spelled canonically."""
    a = _spec_reply()
    b = dataclasses.replace(a, replica="r2")
    for honest, respelled in [(5, 5.0), (1, True), (0, False),
                              (0.0, -0.0), ([1], [1.0]),
                              ({"n": 1}, {"n": True})]:
        assert honest == respelled
        mine = dataclasses.replace(a, result=honest)
        assert _matches(mine, dataclasses.replace(b, result=honest))
        assert not _matches(mine, dataclasses.replace(b, result=respelled))
        assert not _matches(dataclasses.replace(b, result=respelled), mine)
    # Same value, same bytes, different Python container: one statement.
    assert _matches(dataclasses.replace(a, result={"x": [1, 2], "y": None}),
                    dataclasses.replace(b, result={"y": None, "x": [1, 2]}))
    registry = KeyRegistry()
    registry.register(KEYPAIR)
    for name in ("owner_number", "seq", "timestamp"):
        lie = dataclasses.replace(a, **{name: float(getattr(a, name))})
        signed = _signed(lie)
        assert signed.verify(registry)  # it signed what it said
        arrived = decode(json.loads(canonical_bytes(signed)))
        assert type(getattr(arrived.payload, name)) is int
        assert getattr(arrived.payload, name) == getattr(a, name)
        assert arrived.verify(registry)  # ...and still says it
        assert ezbft.statement_of(arrived) != \
            ezbft.statement_of(_signed(a))


def test_result_spelled_differently_is_not_a_fast_vote():
    """r3 answers ``5.0`` where the others answer ``5`` and ``True``
    for ``1``.  Were those counted as matching, the COMMITFAST would
    ship one spelling for all four signatures, every replica would
    refuse it, and the client -- already done -- would never retry.
    They are not fast votes: the reads go the slow path and final
    execution proceeds.  COMMITFASTs cross a real encode/decode here,
    which the simulator otherwise skips."""
    respelling = rewriting((ezbft.SpecReply,), lambda header: {
        "result": {5: 5.0, 1: True}.get(header.result, header.result)})

    cluster = lan_cluster()
    install_byzantine(cluster, "r3", respelling)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    headers = {}
    to_client = cluster.network.handler_of("c0")

    def sniff(sender, message):
        if isinstance(message, ezbft.SpecReplyBundle):
            headers[sender] = message.replies[0]
        to_client(sender, message)

    cluster.network.set_handler("c0", sniff)

    def over_the_wire(deliver):
        def handler(sender, message):
            if isinstance(message, (ezbft.CommitFast,
                                    ezbft.BatchCommitFast)):
                message = decode(json.loads(canonical_bytes(message)))
            deliver(sender, message)
        return handler

    for rid in cluster.replicas:
        cluster.network.set_handler(
            rid, over_the_wire(cluster.network.handler_of(rid)))

    script = [("put", 5), ("get", None), ("put", 1), ("get", None),
              ("put", 6), ("get", None)]
    lied_about = {}
    for op, value in script:
        client.submit(client.next_command(op, "k", value))
        cluster.run_until_idle()
        if log.records[-1][1] in (5, 1):
            lied_about[log.records[-1][1]] = dict(headers)
    assert [r[1] for r in log.records] == ["OK", 5, "OK", 1, "OK", 6]
    assert [type(r[1]) for r in log.records][1::2] == [int, int, int]
    # (Writes after a slow commit may themselves go slow: dependency
    # frontiers differ until execution catches up -- not the subject.)
    assert [log.paths[i] for i in (1, 3)] == ["slow", "slow"]
    assert log.paths[0] == log.paths[5] == "fast"
    for rid, replica in cluster.replicas.items():
        assert replica.stats["invalid_messages"] == 0, rid
        assert replica.statemachine.get_final("k") == 6, rid

    for honest, seen in lied_about.items():
        assert type(seen["r3"].payload.result) is not int
        assert seen["r3"].payload.result == honest
        forged = ezbft.CommitFast(
            client_id="c0", instance=seen["r0"].payload.instance,
            certificate=tuple(seen[rid] for rid in sorted(seen)))
        assert len(forged.certificate) == 4
        assert all(h.verify(cluster.registry)
                   for h in forged.certificate)
        assert not cluster.replicas["r1"] \
            ._validate_fast_certificate(forged)
        with pytest.raises(SerializationError, match="'result'"):
            forged.to_wire()


def non_canonical(replica, dst, message):
    """Answers honestly but signs its SPECREPLY headers spelled its own
    way: ``seq`` as a float (``4.0``), the keys in reverse order."""
    if not isinstance(message, ezbft.SpecReplyBundle):
        return message
    respelled = []
    for header in message.replies:
        wire = json.loads(header.body)
        wire["seq"] = float(wire["seq"])
        body = json.dumps(dict(sorted(wire.items(), reverse=True)),
                          separators=(",", ":")).encode("ascii")
        respelled.append(SignedPayload(
            body=body, signature=sign(body, replica.keypair)))
    return dataclasses.replace(message, replies=tuple(respelled))


def test_non_canonical_header_bytes_verify_but_never_match():
    """r3 signs what it means in bytes no correct replica writes.  Its
    headers are its own envelopes -- they verify and decode to the
    honest fields at every node -- but they are left out of the
    client's fast group, a COMMITFAST whose statement is r3's bytes is
    refused (the respelled statement is not what r0..r2 signed), and
    every replica ends in the same state."""
    cluster = lan_cluster()
    install_byzantine(cluster, "r3", non_canonical)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    headers = {}
    to_client = cluster.network.handler_of("c0")

    def sniff(sender, message):
        if isinstance(message, ezbft.SpecReplyBundle):
            headers[sender] = message.replies[0]
        to_client(sender, message)

    cluster.network.set_handler("c0", sniff)
    for i in range(3):
        client.submit(client.next_command("put", "k", i))
        cluster.run_until_idle()
    assert log.results == ["OK"] * 3
    assert client.stats["delivered_fast"] == 0  # 3 of 4 match
    theirs = headers["r3"]
    assert theirs.verify(cluster.registry)
    assert theirs.body != canonical_bytes(theirs.payload)
    honest = dataclasses.replace(theirs.payload, replica="r2")
    assert honest == headers["r2"].payload
    assert type(theirs.payload.seq) is int
    statements = {rid: ezbft.statement_of(h) for rid, h in headers.items()}
    assert statements["r0"] == statements["r1"] == statements["r2"]
    assert statements["r3"] != statements["r0"]

    order = ["r3", "r0", "r1", "r2"]
    forged = ezbft.CommitFast.from_wire({
        "type": ezbft.CommitFast.MSG_TYPE, "client_id": "c0",
        "instance": theirs.payload.instance.to_wire(),
        "statement": theirs.body.decode("ascii"),
        "signatures": [[rid, headers[rid].signature.tag]
                       for rid in order]})
    assert [h.verify(cluster.registry) for h in forged.certificate] == \
        [True, False, False, False]
    for replica in cluster.replicas.values():
        assert not replica._validate_fast_certificate(forged)
    with pytest.raises(SerializationError, match="'seq'"):
        ezbft.CommitFast(client_id="c0", instance=theirs.payload.instance,
                         certificate=tuple(headers[r] for r in order)
                         ).to_wire()
    assert check(observe(cluster)) == []
    for rid, replica in cluster.replicas.items():
        assert replica.statemachine.get_final("k") == 2, rid
        assert replica.stats["invalid_messages"] == 0, rid


def _envelopes(value):
    """Every signed envelope reachable through ``value``'s fields."""
    if isinstance(value, SignedPayload):
        yield value
        yield from _envelopes(value.payload)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _envelopes(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _envelopes(item)


def test_decoding_and_verifying_encodes_nothing(monkeypatch):
    """What arrived is checked as it arrived.  Decoding every sample, a
    real COMMITFAST and a real slow-path COMMIT from their bytes, then
    verifying every envelope inside and validating both certificates,
    reaches the canonical encoder zero times -- where re-encoding what
    ``verify`` checks cost 8.1 + 4.0 full encodes per commit on the
    ledger's ``tcp_steady`` and 16.1 on ``tcp_contended``."""
    cluster = lan_cluster()
    commits = []
    deliver = cluster.network.handler_of("r2")

    def keep(sender, message):
        if isinstance(message, ezbft.CommitFast) or (
                isinstance(message, SignedPayload)
                and isinstance(message.payload, ezbft.Commit)):
            commits.append(message)
        deliver(sender, message)

    cluster.network.set_handler("r2", keep)
    client = cluster.add_client("c0", "local", target_replica="r0")
    client.submit(client.next_command("put", "k", "fast"))
    cluster.run_until_idle()
    silence_node(cluster, "r3")
    client.submit(client.next_command("put", "k", "slow"))
    cluster.run_until_idle()
    fast, slow = commits
    assert len(fast.certificate) == 4 and len(slow.payload.certificate) == 3

    registry = KeyRegistry()
    registry.register(KEYPAIR)
    registry.register(R1_KEYPAIR)
    frames = [(canonical_bytes(m), registry) for m in SAMPLES] + \
        [(canonical_bytes(m), cluster.registry) for m in commits]
    encoded = []

    def counting(value):
        encoded.append(type(value).__name__)
        return _encode(value)

    monkeypatch.setattr(sys.modules["repro.crypto.digest"], "_encode",
                        counting)
    checked = 0
    decoded = []
    for raw, keys in frames:
        message = decode(json.loads(raw))
        decoded.append(message)
        for envelope in _envelopes(message):
            assert envelope.verify(keys)
            checked += 1
    replica = cluster.replicas["r1"]
    assert replica._validate_fast_certificate(decoded[-2])
    assert replica._validate_slow_certificate(decoded[-1].payload)
    assert encoded == []
    assert checked >= 25


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


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(current_wire_schema(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print("pass --regen to rewrite the golden wire-schema file")
