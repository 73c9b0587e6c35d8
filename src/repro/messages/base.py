"""Message registry, the authorship rule and the signed-payload envelope.

Every registered class declares, next to its fields, the field naming
its author (``AUTHOR = "replica"``, ``"client_id"``, ...); an envelope
is authentic (:meth:`SignedPayload.authentic`) only if that node signed
it, with a replica's key unless the field is ``"client_id"``.  ``AUTHOR
= None`` declares no author.  A message only a view's primary or a
space's owner may sign names the number that role rotates with
(``ROLE = "view"``, ...): only the replica at that number
(:func:`repro.config.replica_at`) signs it authentically.
"""

from __future__ import annotations

import json
import typing
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Optional, Type

from repro.config import replica_at
from repro.crypto.digest import canonical_bytes, digest, encoded_hash
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signatures import Signature, is_valid, sign
from repro.errors import SerializationError
from repro.wire import as_message, ints_exact, wire_struct

#: msg_type string -> message class.
MESSAGE_REGISTRY: Dict[str, Type] = {}

#: Instance attribute holding a ``(registry_epoch, body, signature,
#: verified, ints_exact)`` verification memo (see
#: ``SignedPayload._checked``).
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

    The class must define ``MSG_TYPE`` and, in its own body, ``AUTHOR``
    (a field or property, or ``None``) and may name an int one ``ROLE``.
    Its ``to_wire``/``from_wire`` are derived from its dataclass fields
    (:func:`repro.wire.wire_struct`) unless the class body defines them.
    """
    msg_type = getattr(cls, "MSG_TYPE", None)
    if not msg_type:
        raise SerializationError(
            f"{cls.__name__} lacks a MSG_TYPE attribute")
    if msg_type in MESSAGE_REGISTRY:
        raise SerializationError(f"duplicate MSG_TYPE {msg_type!r}")
    author = vars(cls).get("AUTHOR", "")
    if author is not None and author not in cls.__dataclass_fields__ \
            and not isinstance(getattr(cls, author, None), property):
        raise SerializationError(f"{cls.__name__} declares no AUTHOR")
    role = vars(cls).get("ROLE")
    if role is not None and typing.get_type_hints(cls).get(role) is not int \
            and not isinstance(getattr(cls, role, None), property):
        raise SerializationError(
            f"{cls.__name__}'s ROLE names no int field or property")
    cls.ROLE = role
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

#: Signed text -> ``(weak reference to the payload it parsed to, the
#: payload's content hash at parse time)``: the process's parse cache
#: (:func:`parse_signed`).  An entry leaves when its payload dies.
_PARSED: Dict[str, tuple] = {}


def _forget(ref: weakref.KeyedRef) -> None:
    """Weak-reference callback: drop the entry of a payload that died,
    unless a later parse of the same text replaced it."""
    entry = _PARSED.get(ref.key)
    if entry is not None and entry[0] is ref:
        del _PARSED[ref.key]


def _cached_parse(text: str) -> Any:
    """The payload an earlier :func:`parse_signed` of exactly ``text``
    returned, if it is alive and its content hash is still the one it
    was parsed with; ``None`` otherwise."""
    entry = _PARSED.get(text)
    if entry is None:
        return None
    payload = entry[0]()
    try:
        if payload is not None and hash(payload) == entry[1]:
            return payload
    except TypeError:  # mutated into unhashable content
        pass
    return None


def parse_signed(text: Any) -> Any:
    """The message that signed bytes ``text`` (as ASCII text) encode,
    by the one parser every node runs: the JSON scanner, then
    :func:`decode`.

    Each text is parsed once per process while its payload lives: a
    successful parse is cached under the exact text, holding the
    payload weakly with its content hash, and a later call with equal
    text returns that payload while its hash is unchanged
    (:func:`_cached_parse`).  This cannot be observed, because the
    parser is deterministic (point i of :class:`SignedPayload`); a
    payload mutated in process is never handed out again (point iv).
    Texts that fail to parse, and payloads that are unhashable or
    cannot be weakly referenced, are never cached."""
    if type(text) is str:
        payload = _cached_parse(text)
        if payload is not None:
            return payload
    if type(text) is not str or not text.isascii():
        raise SerializationError(
            "signed bytes must arrive as an ASCII string")
    try:
        wire, end = _scan_json(text, 0)
    except (StopIteration, ValueError):
        end = -1
    if end != len(text):
        raise SerializationError("signed bytes are not one JSON value")
    payload = decode(wire)
    try:
        content = hash(payload)
        _PARSED[text] = (weakref.KeyedRef(payload, _forget, text), content)
    except TypeError:  # unhashable, or no weak references
        pass
    return payload


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
        spelled it.  For the same reason a process may hand out an
        earlier parse of identical bytes instead of parsing them again
        (:func:`parse_signed`'s cache), and nodes sharing a process
        then share the payload.
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
        re-encode this envelope otherwise avoids).  The parse cache
        keeps this true when envelopes share a payload: it records the
        content hash at parse time and hands the payload out again only
        while the hash still matches, so a mutated payload fails every
        envelope bound to it and the next parse of the bytes is fresh.

    Construct one with :meth:`create` (sign a payload), ``from_wire``
    (bytes that arrived), or ``SignedPayload(body, signature)`` (bytes
    under a signature someone claims, e.g. a forgery in a test; the
    payload is parsed on first use).
    """

    MSG_TYPE = "signed"
    AUTHOR = None  # its payload's is checked

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
        and the payload is still what those bytes say."""
        memo = self._checked(registry)
        return memo is not None and memo[3]

    def _checked(self, registry: KeyRegistry) -> Optional[tuple]:
        """The envelope's ``(registry_epoch, body, signature, verified,
        ints_exact)`` memo, or ``None`` once the payload is no longer
        what the bytes say.  ``verified`` is the MAC verdict;
        ``ints_exact`` says whether every field typed ``int`` in the
        payload -- its own and those of the structs it carries, such as
        a ``Command``'s timestamp -- holds exactly an int
        (:func:`~repro.wire.ints_exact`).

        Both are memoized on the envelope: certificates embed the same
        signed replies at every replica, so each envelope is MAC-checked
        and type-checked once per process instead of once per
        validation site.  The memo records the bytes and signature
        objects it was computed over and the registry's
        ``verify_epoch`` sentinel (a registered key mints a new one),
        so a verdict never outlives the bytes, signature or key
        material it was computed against.  The payload binding (point
        iv of the class docstring) is checked on every call, so the
        memoized type check holds for the payload in hand.
        """
        payload_hash = self._binding()[0]
        payload = self.payload
        try:
            intact = hash(payload) == payload_hash
        except TypeError:
            intact = canonical_bytes(payload) == self.body
        if not intact:
            return None
        body, signature = self.body, self.signature
        epoch = registry.verify_epoch
        memo = getattr(self, _VERIFY_MEMO, None)
        if memo is not None and memo[0] is epoch and memo[1] is body \
                and memo[2] is signature:
            return memo
        memo = (epoch, body, signature, is_valid(body, signature, registry),
                ints_exact(payload))
        object.__setattr__(self, _VERIFY_MEMO, memo)
        return memo

    def authentic(self, registry: KeyRegistry) -> bool:
        """:meth:`verify`, the signer is the payload's ``AUTHOR`` and a
        replica unless that is its ``client_id``, it holds the
        payload's ``ROLE``, and every field typed ``int`` in it, nested
        ones included, holds exactly an int (:meth:`_checked`), so no
        handler meets a string or a bool where it compares numbers: the
        one check for every envelope a node receives and every
        certificate or proof member."""
        payload = self.payload
        author = payload.AUTHOR
        signer = self.signature.signer
        if author is not None and (getattr(payload, author) != signer or (
                author != "client_id" and signer not in registry.replicas)):
            return False
        role = payload.ROLE
        if role is not None:
            number, ids = getattr(payload, role), registry.replicas
            if type(number) is not int or not ids or \
                    replica_at(ids, number) != signer:
                return False
        memo = self._checked(registry)
        return memo is not None and memo[3] and memo[4]

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


def authentic_payload(envelope: Any, cls: Any,
                      registry: KeyRegistry) -> Any:
    """The payload of ``envelope`` -- a member of a certificate or
    proof -- if it is an authentic envelope of a ``cls`` payload;
    ``None`` otherwise."""
    if isinstance(envelope, SignedPayload) and \
            isinstance(envelope.payload, cls) and \
            envelope.authentic(registry):
        return envelope.payload
    return None
