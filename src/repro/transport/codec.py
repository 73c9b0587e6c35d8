"""Compact length-prefixed wire codec for the TCP transport.

The previous format serialized every frame with a generic
``json.dumps({"sender": ..., "addr": ..., "message": msg.to_wire()})``,
re-encoding the message wire dict even though the crypto layer had just
produced (and memoized) its canonical bytes to sign it.  This codec
ships the routing envelope as a tiny fixed binary header and reuses the
message's cached canonical encoding verbatim as the frame body.

Frame body layout (the transport's 4-byte outer length prefix is *not*
part of this codec):

    kind:       1 byte   -- HELLO (address announcement), MESSAGE, or
                            TRACED (a MESSAGE carrying trace context)
    sender_len: 2 bytes  big-endian
    sender:     UTF-8 node id
    host_len:   2 bytes  big-endian
    host:       UTF-8 listen host of the sender
    port:       2 bytes  big-endian listen port of the sender
    trace_len:  2 bytes  big-endian       (TRACED frames only)
    trace:      compact JSON trace context (TRACED frames only; see
                :mod:`repro.messages.trace`)
    body:       the message (MESSAGE/TRACED frames only), as either
      - canonical JSON bytes of its wire dict (first byte ``{``), or,
        for a signed envelope (``repro.messages.base.SignedPayload``),
      - ENVELOPE (one 0x00 byte), signer_len (2 bytes), UTF-8 signer,
        tag_len (2 bytes), UTF-8 tag, then the signed bytes verbatim.

A JSON body is exactly :func:`repro.crypto.digest.canonical_bytes` of
the message, so the receive side decodes it with ``json.loads`` and the
ordinary message registry -- anything that round trips through the
simulator round trips here unchanged.  An envelope body is the same
envelope without the JSON around it: the bytes its signer MAC'd ride as
they are instead of escaped into a string, and decode to the wire dict
``{"type": "signed", "body": ..., "signature": ...}`` that
``SignedPayload.from_wire`` parses and verifies -- never a re-encoding
of them.  (Envelopes nested inside a message, a certificate's signed
headers, are that message's JSON and ride escaped.)

TRACED is strictly additive: a deployment with tracing off never emits
it, old frames decode exactly as before, and the trace section never
touches the message bytes (signed bytes and digest memos stay as they
are).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Optional, Tuple

from repro.crypto.digest import canonical_bytes
from repro.errors import TransportError
from repro.messages.base import SignedPayload

#: Frame kinds.
HELLO = 0
MESSAGE = 1
TRACED = 2

#: First byte of a body that is a signed envelope, not JSON.
ENVELOPE = b"\x00"

_LEN = struct.Struct(">H")
_PORT = struct.Struct(">H")

Address = Tuple[str, int]


def encode_frame(sender: str, addr: Address,
                 message: Optional[Any] = None,
                 trace: Optional[bytes] = None) -> bytes:
    """Encode one frame body.  ``message=None`` makes a HELLO frame;
    ``trace`` (pre-encoded context bytes) upgrades a MESSAGE frame to
    TRACED and is ignored for HELLOs."""
    sender_b = sender.encode("utf-8")
    host, port = addr
    host_b = str(host).encode("utf-8")
    if len(sender_b) > 0xFFFF or len(host_b) > 0xFFFF:
        raise TransportError("sender/host name exceeds 65535 bytes")
    if not 0 <= int(port) <= 0xFFFF:
        raise TransportError(f"port {port!r} out of range")
    traced = message is not None and trace is not None
    if traced and len(trace) > 0xFFFF:
        raise TransportError("trace context exceeds 65535 bytes")
    kind = HELLO if message is None else (TRACED if traced else MESSAGE)
    parts = [
        bytes((kind,)),
        _LEN.pack(len(sender_b)), sender_b,
        _LEN.pack(len(host_b)), host_b,
        _PORT.pack(int(port)),
    ]
    if message is None:
        return b"".join(parts)
    if traced:
        parts.append(_LEN.pack(len(trace)))
        parts.append(trace)
    envelope = _envelope_section(message)
    if envelope is not None:
        parts.extend(envelope)
    else:
        # The cached canonical encoding of the message: no second
        # serialization pass over its wire dict.
        parts.append(canonical_bytes(message))
    return b"".join(parts)


def _envelope_section(message: Any) -> Optional[list]:
    """The ENVELOPE body of a signed envelope, or ``None`` for anything
    that travels as JSON."""
    if type(message) is not SignedPayload:
        return None
    signature = message.signature
    if type(signature.signer) is not str or type(signature.tag) is not str:
        return None
    signer = signature.signer.encode("utf-8")
    tag = signature.tag.encode("utf-8")
    if len(signer) > 0xFFFF or len(tag) > 0xFFFF:
        raise TransportError("signer/tag exceeds 65535 bytes")
    return [ENVELOPE, _LEN.pack(len(signer)), signer,
            _LEN.pack(len(tag)), tag, message.body]


def decode_frame(body: bytes) -> Tuple[str, Address, Optional[dict]]:
    """Decode one frame body to ``(sender, addr, wire_dict_or_None)``.

    HELLO frames decode with ``None`` in the message slot; any trace
    context on a TRACED frame is dropped (use
    :func:`decode_frame_traced` to keep it).  Malformed input raises
    :class:`TransportError` (corrupt peer guard).
    """
    sender, addr, wire, _ = decode_frame_traced(body)
    return sender, addr, wire


def decode_frame_traced(body: bytes) -> Tuple[str, Address,
                                              Optional[dict],
                                              Optional[bytes]]:
    """Decode one frame body to ``(sender, addr, wire_dict_or_None,
    trace_bytes_or_None)`` -- the transport's dispatch entry point."""
    try:
        kind = body[0]
        offset = 1
        (sender_len,) = _LEN.unpack_from(body, offset)
        offset += _LEN.size
        sender = body[offset:offset + sender_len].decode("utf-8")
        offset += sender_len
        (host_len,) = _LEN.unpack_from(body, offset)
        offset += _LEN.size
        host = body[offset:offset + host_len].decode("utf-8")
        offset += host_len
        (port,) = _PORT.unpack_from(body, offset)
        offset += _PORT.size
        trace: Optional[bytes] = None
        if kind == TRACED:
            (trace_len,) = _LEN.unpack_from(body, offset)
            offset += _LEN.size
            trace = body[offset:offset + trace_len]
            if len(trace) != trace_len:
                raise TransportError("truncated trace context")
            offset += trace_len
    except (IndexError, struct.error, UnicodeDecodeError) as exc:
        raise TransportError(f"malformed frame header: {exc}") from None
    if kind == HELLO:
        if offset != len(body):
            raise TransportError("hello frame carries trailing bytes")
        return sender, (host, port), None, None
    if kind not in (MESSAGE, TRACED):
        raise TransportError(f"unknown frame kind {kind}")
    if body[offset:offset + 1] == ENVELOPE:
        return sender, (host, port), _decode_envelope(body, offset + 1), \
            trace
    try:
        wire = json.loads(body[offset:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"malformed frame body: {exc}") from None
    if not isinstance(wire, dict):
        raise TransportError(
            f"frame body is {type(wire).__name__}, expected an object")
    return sender, (host, port), wire, trace


def _decode_envelope(body: bytes, offset: int) -> dict:
    """The wire dict of the ENVELOPE body starting at ``offset``."""
    try:
        (signer_len,) = _LEN.unpack_from(body, offset)
        offset += _LEN.size
        signer = body[offset:offset + signer_len].decode("utf-8")
        offset += signer_len
        (tag_len,) = _LEN.unpack_from(body, offset)
        offset += _LEN.size
        tag = body[offset:offset + tag_len].decode("utf-8")
        offset += tag_len
        signed = body[offset:].decode("ascii")
    except (struct.error, UnicodeDecodeError) as exc:
        raise TransportError(f"malformed envelope body: {exc}") from None
    return {"type": SignedPayload.MSG_TYPE, "body": signed,
            "signature": {"signer": signer, "tag": tag}}
