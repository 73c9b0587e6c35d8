"""Key material and the in-process key registry.

A :class:`KeyPair` is a node's signing secret.  The :class:`KeyRegistry`
plays the role of a PKI: it maps node ids to *verification* capability
and knows which ids are replicas.  Honest code holds only its own
:class:`KeyPair` plus a registry reference; byzantine node objects
receive the same and therefore cannot sign as anyone else.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.errors import UnknownSignerError


@dataclass(frozen=True)
class KeyPair:
    """A node's signing identity.

    ``secret`` is the HMAC key.  Construction is deterministic when
    ``seed`` material is supplied, which keeps whole-cluster setups
    reproducible.
    """

    node_id: str
    secret: bytes

    @classmethod
    def generate(cls, node_id: str, seed: bytes | None = None) -> "KeyPair":
        """Create a key pair, deterministically if ``seed`` is given."""
        if seed is None:
            secret = os.urandom(32)
        else:
            secret = hashlib.sha256(node_id.encode("utf-8") + seed).digest()
        return cls(node_id=node_id, secret=secret)

    def mac(self, payload: bytes) -> str:
        """HMAC-SHA256 tag over ``payload``, hex-encoded."""
        return hmac.new(self.secret, payload, hashlib.sha256).hexdigest()


class KeyRegistry:
    """Registry of every node's verification key.

    In a real deployment each node would hold peers' *public* keys; with
    HMAC standing in for ECDSA, the registry holds the shared secrets and
    exposes only verification to callers.
    """

    def __init__(self, replicas: Iterable[str] = ()) -> None:
        self._keys: Dict[str, KeyPair] = {}
        #: Node ids that sign as replicas, in the order roles rotate
        #: through them; any other key is a client's.
        self.replicas = tuple(replicas)
        #: Verification epoch: a fresh sentinel per key (re-)registration
        #: (see ``SignedPayload.verify``).  Cached verdicts are tagged
        #: with the epoch they were computed under; registering a key
        #: mints a new sentinel, invalidating every outstanding verdict
        #: at once -- a verdict is only valid for the key material it
        #: was computed against.
        self.verify_epoch: object = object()

    def register(self, keypair: KeyPair) -> None:
        self._keys[keypair.node_id] = keypair
        self.verify_epoch = object()

    def create(self, node_id: str, seed: bytes | None = None) -> KeyPair:
        """Generate, register and return a key pair for ``node_id``."""
        keypair = KeyPair.generate(node_id, seed=seed)
        self.register(keypair)
        return keypair

    def known(self, node_id: str) -> bool:
        return node_id in self._keys

    def secret_for(self, node_id: str) -> bytes:
        """The registered secret for ``node_id``.

        With HMAC standing in for ECDSA the registry necessarily holds
        raw secrets; MAC verification on behalf of a receiver (PBFT
        authenticator vectors) needs the *sender's* secret to re-derive
        the pairwise session key.  This accessor is that sanctioned
        path -- callers must not reach into ``_keys`` directly.
        """
        try:
            return self._keys[node_id].secret
        except KeyError:
            raise UnknownSignerError(
                f"no key registered for node {node_id!r}") from None

    def mac_for(self, node_id: str, payload: bytes) -> str:
        """Compute the tag ``node_id`` would produce -- used by ``verify``."""
        try:
            keypair = self._keys[node_id]
        except KeyError:
            raise UnknownSignerError(
                f"no key registered for node {node_id!r}") from None
        return keypair.mac(payload)
