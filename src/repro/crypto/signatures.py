"""Signature creation and verification over signed bytes.

A signature covers *bytes*, never a value: the signer MACs what it
encodes and the verifier MACs what it received, so nothing is
re-encoded to be checked (see ``repro.messages.base.SignedPayload``).
To sign a value, sign ``canonical_bytes(value)`` -- re-exported here
for exactly that.
"""

from __future__ import annotations

import hmac as _hmac
from dataclasses import dataclass

from repro.crypto.digest import canonical_bytes
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.errors import InvalidSignatureError

__all__ = ["Signature", "canonical_bytes", "is_valid", "sign", "verify"]


@dataclass(frozen=True)
class Signature:
    """A detached signature: who signed, and the tag.

    ``tag`` is the hex HMAC-SHA256 of the signed bytes.  Two signatures
    compare equal iff signer and tag match.
    """

    signer: str
    tag: str

    def to_wire(self) -> dict:
        return {"signer": self.signer, "tag": self.tag}

    @classmethod
    def from_wire(cls, wire: dict) -> "Signature":
        return cls(signer=wire["signer"], tag=wire["tag"])


def sign(data: bytes, keypair: KeyPair) -> Signature:
    """Sign ``data`` as ``keypair``'s node."""
    return Signature(signer=keypair.node_id, tag=keypair.mac(data))


def verify(data: bytes, signature: Signature, registry: KeyRegistry) -> None:
    """Raise :class:`InvalidSignatureError` unless ``signature`` is
    ``signature.signer``'s tag over ``data``, compared in constant
    time."""
    expected = registry.mac_for(signature.signer, data)
    if not _hmac.compare_digest(expected, signature.tag):
        raise InvalidSignatureError(
            f"bad signature from {signature.signer!r}")


def is_valid(data: bytes, signature: Signature, registry: KeyRegistry) -> bool:
    """Boolean form of :func:`verify`."""
    try:
        verify(data, signature, registry)
    except InvalidSignatureError:
        return False
    return True
