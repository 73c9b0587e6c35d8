"""The parse cache under ``parse_signed``: each signed text is parsed
once per process while its payload lives.

Handing out an earlier parse of identical text must be invisible: the
parser is deterministic, a payload mutated in process is never handed
out again (its content hash is checked on every hit), entries leave
with their payloads, and a spelling of the same message in other bytes
is a text of its own.
"""

import dataclasses
import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.digest import canonical_bytes
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.errors import SerializationError
from repro.messages import base
from repro.messages.base import SignedPayload, decode, parse_signed
from repro.messages.ezbft import Commit, CommitFast, SpecOrder, SpecReply
from repro.statemachine.base import Command
from repro.types import InstanceID

REPLICAS = ("r0", "r1", "r2", "r3")
PAIRS = {node: KeyPair.generate(node, seed=b"parse-cache")
         for node in (*REPLICAS, "c0")}


def _registry(**keys):
    """A registry of the replicas (in rotation order) and c0, with
    ``keys`` in place of their own pairs."""
    registry = KeyRegistry(REPLICAS)
    for pair in {**PAIRS, **keys}.values():
        registry.register(pair)
    return registry


def _header(replica="r0", **fields):
    return SpecReply(**{
        "replica": replica, "owner_number": 0,
        "instance": InstanceID("r0", 0), "deps": (), "seq": 5,
        "request_digest": "d", "client_id": "c0", "timestamp": 1,
        "result": "OK", **fields})


def _signed(payload, signer):
    return SignedPayload.create(payload, PAIRS[signer])


def _count_scans(monkeypatch):
    """A list that grows by one for every text the JSON scanner of
    ``parse_signed`` reads."""
    scans = []
    scan = base._scan_json

    def counting(text, index):
        scans.append(text)
        return scan(text, index)
    monkeypatch.setattr(base, "_scan_json", counting)
    return scans


def test_identical_text_is_parsed_once(monkeypatch):
    scans = _count_scans(monkeypatch)
    wire = _signed(_header(), "r0").to_wire()
    first = SignedPayload.from_wire(wire)
    second = SignedPayload.from_wire(wire)
    assert second.payload is first.payload
    assert len(scans) == 1
    assert first.verify(_registry()) and second.verify(_registry())


def test_a_payload_mutated_after_parsing_is_never_handed_out_again():
    """Two envelopes of bytes B share one parse; a byzantine in-process
    mutation of it fails both, and the next parse of B is B's content
    again, which verifies.  Without the content-hash check the cache
    would hand out the forged payload, and an envelope bound to it
    would verify."""
    registry = _registry()
    wire = _signed(_header(), "r0").to_wire()
    first = SignedPayload.from_wire(wire)
    second = SignedPayload.from_wire(wire)
    assert second.payload is first.payload
    object.__setattr__(first.payload, "result", "FORGED")
    assert not first.verify(registry) and not second.verify(registry)
    third = SignedPayload.from_wire(wire)
    assert third.payload is not first.payload
    assert third.payload == _header()
    assert third.verify(registry) and third.authentic(registry)


def test_a_payload_mutated_into_unhashable_content_is_parsed_again():
    wire = _signed(_header(), "r0").to_wire()
    first = SignedPayload.from_wire(wire)
    object.__setattr__(first.payload, "result", {"forged": True})
    again = SignedPayload.from_wire(wire)
    assert again.payload == _header()
    assert again.verify(_registry())


def test_a_non_canonical_spelling_gets_its_own_entry():
    """``5.0`` for ``5``, or the keys in another order: the same
    message under other bytes.  Each spelling is parsed and cached
    under its own text and never aliases the canonical payload; the
    canonical signature does not cover it."""
    signed = _signed(_header(), "r0")
    canonical = signed.body.decode("ascii")
    spelled = canonical.replace('"seq":5', '"seq":5.0')
    reordered = json.dumps(
        dict(reversed(list(json.loads(canonical).items()))),
        separators=(",", ":"))
    assert len({canonical, spelled, reordered}) == 3
    payload = parse_signed(canonical)
    for text in (spelled, reordered):
        other = parse_signed(text)
        assert other == payload and other is not payload
        assert parse_signed(text) is other
        assert parse_signed(canonical) is payload
        forged = SignedPayload.from_wire(
            {"body": text, "signature": signed.signature})
        assert forged.payload is other
        assert not forged.verify(_registry())


def test_entries_leave_with_their_payloads():
    wires = [_signed(_header(seq=seq), "r0").to_wire() for seq in range(4)]
    envelopes = [SignedPayload.from_wire(wire) for wire in wires]
    assert all(wire["body"] in base._PARSED for wire in wires)
    del envelopes
    gc.collect()
    assert not any(wire["body"] in base._PARSED for wire in wires)


def test_a_later_parse_outlives_the_entry_it_replaced():
    """A payload mutated in process is replaced by a new parse; its
    death later must not take the new entry with it."""
    wire = _signed(_header(), "r0").to_wire()
    first = SignedPayload.from_wire(wire)
    object.__setattr__(first.payload, "result", "FORGED")
    again = SignedPayload.from_wire(wire)
    del first
    gc.collect()
    assert base._cached_parse(wire["body"]) is again.payload


def test_an_unhashable_payload_is_parsed_every_time(monkeypatch):
    scans = _count_scans(monkeypatch)
    text = canonical_bytes(_header(result={"a": 1})).decode("ascii")
    first, second = parse_signed(text), parse_signed(text)
    assert first == second and first is not second
    assert len(scans) == 2
    assert text not in base._PARSED


def test_a_failed_parse_is_not_cached(monkeypatch):
    scans = _count_scans(monkeypatch)
    text = canonical_bytes(_header()).decode("ascii") + " "
    for _ in range(2):
        with pytest.raises(SerializationError):
            parse_signed(text)
    assert len(scans) == 2 and text not in base._PARSED


def _commit(certificate):
    return Commit(client_id="c0", instance=InstanceID("r0", 0),
                  command=Command(client_id="c0", timestamp=1, op="put",
                                  key="k", value="v"),
                  deps=(), seq=5, certificate=certificate)


def test_a_node_with_another_registry_recomputes_the_mac_verdict(
        monkeypatch):
    """Co-located nodes decoding one COMMIT share its parse, so its
    headers carry one verify memo: a node with the same registry reuses
    the verdict, a node with another registry computes its own -- here
    with another key for r0, under which the header is forged."""
    headers = tuple(_signed(_header(rid), rid) for rid in REPLICAS[:3])
    wire = _signed(_commit(headers), "c0").to_wire()
    at_one, at_other = (SignedPayload.from_wire(wire) for _ in range(2))
    assert at_other.payload is at_one.payload
    member = at_one.payload.certificate[0]
    macs = []
    is_valid = base.is_valid

    def counting(*args):
        macs.append(args)
        return is_valid(*args)
    monkeypatch.setattr(base, "is_valid", counting)
    shared = _registry()
    assert member.authentic(shared)
    assert at_other.payload.certificate[0].authentic(shared)
    assert len(macs) == 1
    other = _registry(r0=KeyPair.generate("r0", seed=b"another key"))
    assert not member.authentic(other)
    assert len(macs) == 2


def test_a_fast_certificate_shares_its_statement_parse():
    """A COMMITFAST ships its first header's signed bytes and 3f+1
    signatures.  Every node that decodes it in one process shares one
    parse of that header; the siblings are rebuilt from it, and every
    header verifies."""
    registry = _registry()
    commit = CommitFast(client_id="c0", instance=InstanceID("r0", 0),
                        certificate=tuple(_signed(_header(rid), rid)
                                          for rid in REPLICAS))
    frame = canonical_bytes(commit)
    one, other = (decode(json.loads(frame)) for _ in range(2))
    assert other.certificate[0].payload is one.certificate[0].payload
    for decoded in (one, other):
        assert [s.payload for s in decoded.certificate] == \
            [_header(rid) for rid in REPLICAS]
        assert all(s.authentic(registry) for s in decoded.certificate)


# ----------------------------------------------------------------------
# A cached parse equals an uncached one, on generated messages
# ----------------------------------------------------------------------
ids = st.text(alphabet="rc0123-_", min_size=1, max_size=4)
scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.text(max_size=6))
values = st.one_of(scalars, st.lists(scalars, max_size=2),
                   st.dictionaries(st.text(max_size=3), scalars,
                                   max_size=2))
instances = st.builds(InstanceID, ids, st.integers(0, 99))
dep_sets = st.lists(instances, max_size=3).map(
    lambda deps: tuple(sorted(set(deps))))
commands = st.builds(Command, client_id=ids,
                     timestamp=st.integers(0, 99),
                     op=st.sampled_from(["put", "get", "incr"]),
                     key=st.text(max_size=4), value=values)
headers = st.builds(
    SpecReply, replica=ids, owner_number=st.integers(0, 9),
    instance=instances, deps=dep_sets, seq=st.integers(0, 99),
    request_digest=st.text(max_size=6), client_id=ids,
    timestamp=st.integers(0, 99), result=values)
orders = st.builds(
    SpecOrder, leader=ids, owner_number=st.integers(0, 9),
    instance=instances, command=commands, deps=dep_sets,
    seq=st.integers(0, 99), log_digest=st.text(max_size=6),
    request_digest=st.text(max_size=6))
commits = st.lists(headers, min_size=1, max_size=3).map(
    lambda members: _commit(tuple(
        _signed(dataclasses.replace(member, replica="r0"), "r0")
        for member in members)))
messages = st.one_of(headers, orders, commits)


@settings(max_examples=60, deadline=None)
@given(messages)
def test_a_cached_parse_equals_an_uncached_one(message):
    text = canonical_bytes(message).decode("ascii")
    first = parse_signed(text)
    again = parse_signed(text)
    assert first == again == decode(json.loads(text))
    try:
        hash(first)
    except TypeError:
        assert again is not first
    else:
        assert again is first
