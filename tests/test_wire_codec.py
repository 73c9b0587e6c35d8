"""The compact TCP frame codec: round trips and corrupt-peer guards."""

import pytest

from repro.crypto.digest import canonical_bytes
from repro.crypto.keys import KeyRegistry
from repro.errors import TransportError
from repro.messages.base import SignedPayload, decode
from repro.messages.ezbft import Commit, Request, SpecReply
from repro.statemachine.base import Command
from repro.transport.codec import (
    ENVELOPE,
    HELLO,
    MESSAGE,
    decode_frame,
    encode_frame,
)
from repro.types import InstanceID


def _request() -> Request:
    return Request(command=Command(client_id="c0", timestamp=3,
                                   op="put", key="k", value="v"))


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def test_hello_round_trip():
    body = encode_frame("replica-0", ("10.0.0.7", 9001))
    sender, addr, wire = decode_frame(body)
    assert sender == "replica-0"
    assert addr == ("10.0.0.7", 9001)
    assert wire is None
    assert body[0] == HELLO


def test_message_round_trip_through_registry():
    req = _request()
    body = encode_frame("replica-1", ("localhost", 1234), req)
    sender, addr, wire = decode_frame(body)
    assert sender == "replica-1"
    assert addr == ("localhost", 1234)
    assert body[0] == MESSAGE
    assert decode(wire) == req


def test_message_body_is_canonical_bytes_verbatim():
    # The frame body must reuse the cached canonical encoding, not a
    # second independent serialization.
    req = _request()
    body = encode_frame("n0", ("h", 1), req)
    assert body.endswith(canonical_bytes(req))


def test_signed_envelope_rides_as_its_signed_bytes():
    """A top-level envelope's frame ends with the bytes its signer
    MAC'd, unescaped, and decodes to the envelope's wire dict; an
    envelope nested in a message's JSON rides escaped inside it."""
    registry = KeyRegistry()
    client = registry.create("c0", seed=b"codec")
    replica = registry.create("r1", seed=b"codec")
    header = SignedPayload.create(SpecReply(
        replica="r1", owner_number=0, instance=InstanceID("r0", 1),
        deps=(), seq=1, request_digest="d", client_id="c0", timestamp=3,
        result="OK"), replica)
    envelope = SignedPayload.create(Commit(
        client_id="c0", instance=InstanceID("r0", 1),
        command=_request().command, deps=(), seq=1,
        certificate=(header,)), client)
    body = encode_frame("c0", ("h", 1), envelope)
    assert body.endswith(envelope.body)
    assert ENVELOPE + b"\x00\x02c0" in body
    _, _, wire = decode_frame(body)
    assert wire == envelope.to_wire()
    again = decode(wire)
    assert again == envelope
    assert again.verify(registry)
    assert again.payload.certificate[0].verify(registry)
    assert len(body) < len(canonical_bytes(envelope))


def test_unicode_sender_and_host():
    body = encode_frame("réplica-β", ("höst", 65535))
    sender, addr, _ = decode_frame(body)
    assert sender == "réplica-β"
    assert addr == ("höst", 65535)


# ----------------------------------------------------------------------
# Encode-side guards
# ----------------------------------------------------------------------
def test_oversized_sender_rejected():
    with pytest.raises(TransportError):
        encode_frame("x" * 70000, ("h", 1))


def test_port_out_of_range_rejected():
    with pytest.raises(TransportError):
        encode_frame("n0", ("h", 70000))
    with pytest.raises(TransportError):
        encode_frame("n0", ("h", -1))


# ----------------------------------------------------------------------
# Decode-side guards (corrupt peer)
# ----------------------------------------------------------------------
def test_empty_frame_rejected():
    with pytest.raises(TransportError):
        decode_frame(b"")


def test_truncated_header_rejected():
    body = encode_frame("replica-0", ("host", 9001))
    with pytest.raises(TransportError):
        decode_frame(body[:4])


def test_hello_with_trailing_bytes_rejected():
    body = encode_frame("replica-0", ("host", 9001))
    with pytest.raises(TransportError):
        decode_frame(body + b"junk")


def test_unknown_frame_kind_rejected():
    body = encode_frame("replica-0", ("host", 9001))
    with pytest.raises(TransportError, match="kind"):
        decode_frame(bytes((0x7F,)) + body[1:])


def test_non_json_message_body_rejected():
    head = encode_frame("n0", ("h", 1))
    with pytest.raises(TransportError):
        decode_frame(bytes((MESSAGE,)) + head[1:] + b"\xff\x00{")


def test_non_object_json_body_rejected():
    head = encode_frame("n0", ("h", 1))
    with pytest.raises(TransportError, match="expected an object"):
        decode_frame(bytes((MESSAGE,)) + head[1:] + b"[1,2]")


def test_malformed_envelope_body_rejected():
    head = encode_frame("n0", ("h", 1))
    frame = bytes((MESSAGE,)) + head[1:] + ENVELOPE
    for tail in (b"", b"\x00\x02c0\x00", b"\x00\x02c0\x00\x01t\xff{}"):
        with pytest.raises(TransportError, match="envelope"):
            decode_frame(frame + tail)
