"""Message registry and the signed-payload envelope."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Type

from repro.crypto.digest import canonical_bytes, digest, encoded_hash
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signatures import Signature, is_valid, sign
from repro.errors import SerializationError
from repro.wire import as_message, wire_struct

#: msg_type string -> message class.
MESSAGE_REGISTRY: Dict[str, Type] = {}

#: Instance attribute holding a ``(registry_epoch, body, signature,
#: verdict)`` verification memo (see ``SignedPayload.verify``).
_VERIFY_MEMO = "_repro_verify_memo"
#: Instance attribute holding what an envelope's signed bytes parse to
#: (``SignedPayload.payload``), once bound.
_PAYLOAD = "payload"
#: Instance attribute holding a ``(payload_hash, body)`` memo: the
#: payload's content hash when it was bound (``None`` if unhashable),
#: and the bytes it was bound to.
_PAYLOAD_MEMO = "_repro_payload_memo"


def register_message(cls: Type) -> Type:
    """Class decorator: register ``cls`` for :func:`decode`.

    The class must define ``MSG_TYPE``.  Its ``to_wire``/``from_wire``
    are derived from its dataclass fields (:func:`repro.wire.wire_struct`)
    unless the class body defines them.
    """
    msg_type = getattr(cls, "MSG_TYPE", None)
    if not msg_type:
        raise SerializationError(
            f"{cls.__name__} lacks a MSG_TYPE attribute")
    if msg_type in MESSAGE_REGISTRY:
        raise SerializationError(f"duplicate MSG_TYPE {msg_type!r}")
    MESSAGE_REGISTRY[msg_type] = wire_struct(cls)
    return cls


def decode(wire: Any) -> Any:
    """Reconstruct a message object from its wire dict.

    Wire dicts may embed *message objects* in nested positions (see
    :func:`as_message`), so an already-constructed registered message
    passes through unchanged.  A signed envelope's payload is parsed
    from the envelope's signed bytes, through this function again.
    """
    if not isinstance(wire, dict):
        cls = MESSAGE_REGISTRY.get(getattr(wire, "MSG_TYPE", None))
        if cls is not None and isinstance(wire, cls):
            return wire
    try:
        msg_type = wire["type"]
    except (TypeError, KeyError):
        raise SerializationError(f"wire value has no type field: {wire!r}")
    cls = MESSAGE_REGISTRY.get(msg_type)
    if cls is None:
        raise SerializationError(f"unknown message type {msg_type!r}")
    return cls.from_wire(wire)


#: The C scanner behind ``json.loads``, called directly: one JSON value
#: that must span the whole text (no whitespace around it).
_scan_json = json.JSONDecoder().scan_once


def parse_signed(text: Any) -> Any:
    """The message that signed bytes ``text`` (as ASCII text) encode,
    by the one parser every node runs: the JSON scanner, then
    :func:`decode`."""
    if type(text) is not str or not text.isascii():
        raise SerializationError(
            "signed bytes must arrive as an ASCII string")
    try:
        wire, end = _scan_json(text, 0)
    except (StopIteration, ValueError):
        end = -1
    if end != len(text):
        raise SerializationError("signed bytes are not one JSON value")
    return decode(wire)


class _Parsed:
    """``SignedPayload.payload``: the message the signed bytes parse
    to.  A non-data descriptor, so once :meth:`SignedPayload.bind` has
    stored the payload on the envelope, reading it is a plain attribute
    lookup; an envelope built from bytes alone parses them on first
    read."""

    def __get__(self, envelope: Any, owner: Any = None) -> Any:
        if envelope is None:
            return self
        envelope._binding()
        return vars(envelope)[_PAYLOAD]


@dataclass(frozen=True)
class SignedPayload:
    """Envelope binding a message to its author's signature.

    ``body`` is the exact bytes the signer MAC'd and ``signature`` its
    tag over them; ``payload`` is the registered message those bytes
    parse to.  The envelope *is* its bytes and signature (equality and
    hash are theirs), the wire form ships the bytes once as a string
    beside the signature, and :meth:`verify` MACs them as received --
    nothing is re-encoded to be checked.  Envelopes are wire-serializable
    so certificates can embed them (a COMMIT carries 2f+1 signed
    SPECREPLYs).

    **Why checking received bytes is sound.**

    (i) Every correct node parses an envelope's bytes with the same
        deterministic parser (:func:`parse_signed`: the JSON scanner
        ``json.loads`` runs, then the registry's ``from_wire``), so one
        envelope means one payload everywhere, however its signer
        spelled it.
    (ii) Correct signers still sign canonical bytes: :meth:`create`
        signs ``canonical_bytes(payload)``.
    (iii) Wherever bytes are rebuilt rather than received, they are
        our own encoder's: the ``digest`` comparisons that detect
        equivocation and ``request_digest`` encode the parsed payload,
        and a fast certificate's sibling headers are rebuilt by
        ``repro.crypto.digest.respell_replica``, whose output is the
        encoder's for the sibling exactly when its input is the
        encoder's (its lemma), and which encodes where the lemma
        declines.  A byzantine spelling (``5.0`` for ``5``, reordered
        keys) therefore verifies as its own envelope but never
        *matches* a correct one: fast matching compares signed bytes,
        a statement respelled for a correct signer MACs only if it is
        canonical, and a correct replica's digest of the same payload
        is its own encoding.
    (iv) A payload mutated in process after signing or parsing fails
        :meth:`verify`: the payload is bound to the bytes with its
        content hash, checked on every call, and a payload with
        unhashable fields is bound by its canonical encoding instead
        (so it verifies only when canonically spelled, and pays the
        re-encode this envelope otherwise avoids).

    Construct one with :meth:`create` (sign a payload), ``from_wire``
    (bytes that arrived), or ``SignedPayload(body, signature)`` (bytes
    under a signature someone claims, e.g. a forgery in a test; the
    payload is parsed on first use).
    """

    MSG_TYPE = "signed"

    body: bytes
    signature: Signature
    payload = _Parsed()

    @classmethod
    def create(cls, payload: Any, keypair: KeyPair) -> "SignedPayload":
        body = canonical_bytes(payload)
        return cls(body=body, signature=sign(body, keypair)).bind(payload)

    def bind(self, payload: Any) -> "SignedPayload":
        """Record ``payload`` as what :attr:`body` parses to; returns
        the envelope.  The caller vouches for that: it encoded the
        payload into the bytes, parsed the bytes into the payload, or
        derived one from the other as ``respell_replica`` does.  A
        payload :meth:`create` just encoded is bound by the content
        hash its memo of :attr:`body` records, not hashed again."""
        payload_hash = encoded_hash(payload, self.body)
        if payload_hash is None:
            try:
                payload_hash = hash(payload)
            except TypeError:
                pass
        object.__setattr__(self, _PAYLOAD, payload)
        object.__setattr__(self, _PAYLOAD_MEMO, (payload_hash, self.body))
        return self

    def _binding(self) -> tuple:
        """The ``(payload_hash, body)`` memo, parsing the body when
        nothing (or another body) was bound."""
        memo = getattr(self, _PAYLOAD_MEMO, None)
        if memo is None or memo[1] is not self.body:
            self.bind(parse_signed(self.body.decode("ascii")))
            memo = getattr(self, _PAYLOAD_MEMO)
        return memo

    def verify(self, registry: KeyRegistry) -> bool:
        """True iff the signature matches the signed bytes and signer,
        and the payload is still what those bytes say.

        The MAC verdict is memoized on the envelope: certificates embed
        the same signed replies at every replica, so each envelope is
        MAC-checked once per process instead of once per validation
        site.  The memo records the bytes and signature objects it was
        computed over and the registry's ``verify_epoch`` sentinel (a
        registered key mints a new one), so a verdict never outlives
        the bytes, signature or key material it was computed against.
        The payload binding (point iv of the class docstring) is
        checked on every call.
        """
        payload_hash = self._binding()[0]
        payload = self.payload
        try:
            intact = hash(payload) == payload_hash
        except TypeError:
            intact = canonical_bytes(payload) == self.body
        if not intact:
            return False
        body, signature = self.body, self.signature
        epoch = registry.verify_epoch
        memo = getattr(self, _VERIFY_MEMO, None)
        if memo is not None and memo[0] is epoch and memo[1] is body \
                and memo[2] is signature:
            return memo[3]
        verdict = is_valid(body, signature, registry)
        object.__setattr__(self, _VERIFY_MEMO,
                           (epoch, body, signature, verdict))
        return verdict

    @property
    def signer(self) -> str:
        return self.signature.signer

    @property
    def cpu_cost_units(self) -> int:
        """Envelopes inherit their payload's processing cost (the
        simulator's CPU model sees the envelope, not the payload)."""
        return getattr(self.payload, "cpu_cost_units", 1)

    def payload_digest(self) -> str:
        return digest(self.payload)

    def to_wire(self) -> dict:
        return {
            "type": self.MSG_TYPE,
            "body": self.body.decode("ascii"),
            "signature": self.signature.to_wire(),
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "SignedPayload":
        if "payload" in wire:
            # Bytes from before envelopes shipped their signed bytes:
            # the payload rode as an object and was re-encoded to be
            # checked.  Name the key instead of a KeyError.
            raise SerializationError(
                "signed envelope carries the retired 'payload' key "
                "(written before envelopes shipped the bytes their "
                "signer MAC'd as 'body')")
        text = wire["body"]
        payload = parse_signed(text)
        return cls(body=text.encode("ascii"),
                   signature=as_message(wire["signature"], Signature)
                   ).bind(payload)


register_message(SignedPayload)
