"""Message registry and the signed-payload envelope."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Type

from repro.crypto.digest import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signatures import Signature, is_valid, sign
from repro.errors import SerializationError
from repro.wire import as_message, wire_struct

#: msg_type string -> message class.
MESSAGE_REGISTRY: Dict[str, Type] = {}

#: Instance attribute holding a ``(registry_epoch, content_hash,
#: verdict)`` verification memo (see ``SignedPayload.verify``).
_VERIFY_MEMO = "_repro_verify_memo"


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
    passes through unchanged.
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


@dataclass(frozen=True)
class SignedPayload:
    """Envelope binding a message to its author's signature.

    ``payload`` is any registered message object; ``signature`` covers the
    payload's wire form.  Envelopes are themselves wire-serializable so
    they can be embedded in certificates (e.g. a COMMITFAST carries 3f+1
    signed SPECREPLYs).
    """

    MSG_TYPE = "signed"

    payload: Any
    signature: Signature

    @classmethod
    def create(cls, payload: Any, keypair: KeyPair) -> "SignedPayload":
        # Sign the payload *object*: canonicalization resolves to_wire()
        # itself, producing the same bytes as signing payload.to_wire()
        # while letting the digest layer memoize on the frozen object.
        return cls(payload=payload, signature=sign(payload, keypair))

    def verify(self, registry: KeyRegistry) -> bool:
        """True iff the signature matches the payload and signer.

        Verdicts are memoized on the envelope instance: certificates
        embed the same signed replies at every replica, so each
        envelope is checked once per process instead of once per
        validation site.  The memo records the content hash it was
        computed under, so in-process mutation of a signed payload
        changes the hash and forces re-verification -- which then
        fails, exactly as an unmemoized check would.  It also records
        the registry's ``verify_epoch`` sentinel: registering a key
        mints a new sentinel, so verdicts never outlive the key
        material they were computed against.  Envelopes with unhashable
        payload fields skip the memo.
        """
        try:
            content_hash = hash(self)
        except TypeError:
            return is_valid(self.payload, self.signature, registry)
        epoch = registry.verify_epoch
        memo = getattr(self, _VERIFY_MEMO, None)
        if memo is not None and memo[0] is epoch \
                and memo[1] == content_hash:
            return memo[2]
        verdict = is_valid(self.payload, self.signature, registry)
        try:
            object.__setattr__(self, _VERIFY_MEMO,
                               (epoch, content_hash, verdict))
        except (AttributeError, TypeError):  # pragma: no cover
            pass
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
        # The payload rides as an object: its canonical bytes were
        # already computed (and memoized) when it was signed, so the
        # encoder splices them instead of re-serializing.
        return {
            "type": self.MSG_TYPE,
            "payload": self.payload,
            "signature": self.signature.to_wire(),
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "SignedPayload":
        return cls(payload=decode(wire["payload"]),
                   signature=as_message(wire["signature"], Signature))


register_message(SignedPayload)
