"""The hot-path caches: digest memoization, envelope verification
memo, pairwise session-key cache, and their safety properties.

The central property under test: caching must be *behaviorally
invisible*.  Cached and uncached paths must agree on every value, and
a byzantine node that mutates a frozen message after signing it
(``object.__setattr__``) must still fail verification -- the caches
key on content, never on object identity.
"""

import dataclasses
import json
import sys

import pytest

from repro.crypto.authenticator import (
    make_authenticator,
    verify_authenticator,
    verify_authenticator_batch,
)
from repro.crypto.digest import (
    _BYTES_MEMO,
    _encode,
    canonical_bytes,
    clear_caches,
    _respell_replica,
    digest,
    respell_replica,
)
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.errors import InvalidSignatureError, UnknownSignerError
from repro.messages.base import SignedPayload
from repro.messages.ezbft import CommitFast, Request, SpecReply
from repro.statemachine.base import Command
from repro.types import InstanceID


def _request(value: str = "v") -> Request:
    return Request(command=Command(client_id="c0", timestamp=1,
                                   op="put", key="k", value=value))


def _registry(*node_ids: str):
    registry = KeyRegistry()
    pairs = {}
    for node_id in node_ids:
        pair = KeyPair.generate(node_id)
        registry.register(pair)
        pairs[node_id] = pair
    return registry, pairs


# ----------------------------------------------------------------------
# canonical_bytes / digest memoization: cached == uncached
# ----------------------------------------------------------------------
#: Nested values covering every canonicalized shape: dicts, sets,
#: tuples, bytes, None, bools, floats.
_NESTED_VALUES = [
    {"a": 1, "b": [2, 3]},
    {"s": {3, 1, 2}, "t": (1, (2, 3))},
    {"blob": b"\x00\xff", "nested": {"k": [b"x", b"y"]}},
    {"mixed": [None, True, 1.5, "s", {"deep": {9, 7}}]},
    {"empty": {}, "list": [], "set": set(), "bytes": b""},
]


@pytest.mark.parametrize("value", _NESTED_VALUES)
def test_plain_values_match_direct_encoding(value):
    # Plain containers never hit the cache; still must equal _encode.
    assert canonical_bytes(value) == _encode(value)


@pytest.mark.parametrize("value", _NESTED_VALUES)
def test_wired_objects_cached_encoding_matches_uncached(value):
    class Wired:
        def __init__(self, inner):
            self.inner = inner

        def __hash__(self):
            return hash(_encode(self.inner))

        def __eq__(self, other):
            return isinstance(other, Wired) and \
                other.inner == self.inner

        def to_wire(self):
            return {"inner": self.inner}

    obj = Wired(value)
    clear_caches()
    first = canonical_bytes(obj)       # cache miss: full encode
    second = canonical_bytes(obj)      # cache hit
    clear_caches()
    uncached = canonical_bytes(obj)    # fresh encode again
    assert first == second == uncached == _encode(obj)
    assert digest(obj) == digest(obj.to_wire())


def test_message_object_digest_equals_wire_digest():
    req = _request()
    clear_caches()
    assert digest(req) == digest(req.to_wire())
    assert canonical_bytes(req) == canonical_bytes(req.to_wire())


def test_unhashable_wired_object_falls_back_uncached():
    class Unhashable:
        __hash__ = None

        def to_wire(self):
            return {"v": 1}

    assert canonical_bytes(Unhashable()) == _encode({"v": 1})


def test_a_signed_payload_keeps_one_copy_of_its_bytes():
    """A memo is ``(content_hash, bytes)``: no ``str`` twin of the
    encoding is retained, and the envelope's body is the memo's own
    bytes object, not a second copy."""
    _, pairs = _registry("n0")
    req = _request()
    env = SignedPayload.create(req, pairs["n0"])
    memo = vars(req)[_BYTES_MEMO]
    assert len(memo) == 2 and memo[0] == hash(req)
    assert env.body is memo[1] is canonical_bytes(req)
    nested = vars(req.command)[_BYTES_MEMO]
    assert len(nested) == 2 and type(nested[1]) is bytes
    for message in (req, req.command):
        assert not any(type(value) is str
                       for entry in vars(message).values()
                       if type(entry) is tuple for value in entry)


def test_signing_hashes_the_payload_no_more_than_encoding_it():
    """``SignedPayload.create`` binds the payload by the content hash
    its fresh memo records instead of hashing it once more."""
    calls = []

    class Counted:
        def __hash__(self):
            calls.append(1)
            return 1

        def to_wire(self):
            return {"v": 1}

    canonical_bytes(Counted())
    encoding = len(calls)
    calls.clear()
    _, pairs = _registry("n0")
    SignedPayload.create(Counted(), pairs["n0"])
    assert len(calls) == encoding


# ----------------------------------------------------------------------
# Byzantine mutate-after-sign: content keying defeats stale cache hits
# ----------------------------------------------------------------------
def test_mutated_request_digest_changes_despite_cache():
    req = _request("original")
    clear_caches()
    before = digest(req)
    object.__setattr__(req, "command",
                       Command(client_id="c0", timestamp=1,
                               op="put", key="k", value="tampered"))
    assert digest(req) != before
    assert digest(req) == digest(req.to_wire())


def test_mutate_after_sign_fails_envelope_verification():
    registry, pairs = _registry("n0")
    req = _request("honest")
    envelope = SignedPayload.create(req, pairs["n0"])
    assert envelope.verify(registry)
    # The byzantine move: flip the payload under the signature after
    # the verdict was cached.
    object.__setattr__(
        envelope.payload, "command",
        Command(client_id="c0", timestamp=1,
                op="put", key="k", value="evil"))
    assert not envelope.verify(registry)


def test_envelope_cache_cleared_on_key_rotation():
    registry, pairs = _registry("n0")
    envelope = SignedPayload.create(_request(), pairs["n0"])
    assert envelope.verify(registry)
    # Rotate n0's key: the old signature must stop verifying even
    # though a True verdict was cached against the old key.
    registry.register(KeyPair.generate("n0", seed=b"rotated"))
    assert not envelope.verify(registry)


# ----------------------------------------------------------------------
# Sibling headers of a fast certificate: no encode, 3f+1 MAC checks
# ----------------------------------------------------------------------
_SIGNERS = ("r0", "r1", "r2", "r3")


def _headers(pairs):
    instance = InstanceID("r0", 3)
    return tuple(
        SignedPayload.create(SpecReply(
            replica=rid, owner_number=0, instance=instance,
            deps=(InstanceID("r1", 0), InstanceID("r2", 5)), seq=4,
            request_digest="def", client_id="c0", timestamp=7,
            result="OK"), pairs[rid])
        for rid in _SIGNERS)


def _fast_commit(pairs) -> CommitFast:
    return CommitFast.from_headers("c0", InstanceID("r0", 3),
                                   _headers(pairs))


def _over_the_wire(message):
    return json.loads(canonical_bytes(message))


def test_fast_certificate_round_trip_encodes_no_header(monkeypatch):
    registry, pairs = _registry(*_SIGNERS)
    headers = _headers(pairs)
    commit = CommitFast.from_headers("c0", InstanceID("r0", 3), headers)
    wire = _over_the_wire(commit)
    encoded = []

    def counting(value):
        encoded.append(type(value))
        return _encode(value)

    # (``repro.crypto.digest`` the attribute is the function.)
    monkeypatch.setattr(sys.modules["repro.crypto.digest"], "_encode",
                        counting)
    again = CommitFast.from_wire(wire)
    assert again.statement.verify(registry) and again.cosigned(registry)
    assert encoded == []
    assert again == commit
    # The headers derived on demand are the ones signed, byte for byte.
    for signed, original in zip(again.certificate, headers):
        assert signed == original
        assert canonical_bytes(signed.payload) == _encode(original.payload)


def test_mutated_sibling_header_fails_verification():
    """Derived bytes live on the envelope, never as the payload's
    canonical memo, and the payload is bound to them by content: a
    sibling altered after decoding fails its MAC check."""
    registry, pairs = _registry(*_SIGNERS)
    again = CommitFast.from_wire(_over_the_wire(_fast_commit(pairs)))
    certificate = again.certificate
    sibling = certificate[2]
    assert getattr(sibling.payload, _BYTES_MEMO, None) is None
    assert sibling.body == _encode(sibling.payload)
    assert sibling.verify(registry)
    object.__setattr__(sibling.payload, "seq", 99)
    assert not sibling.verify(registry)
    assert all(signed.verify(registry)
               for signed in certificate if signed is not sibling)


def test_sibling_signed_by_another_replica_does_not_verify():
    """The derived bytes name the sibling's own replica: r1's tag under
    a header respelled to r2 is a bad MAC, not a shortcut around one."""
    registry, pairs = _registry(*_SIGNERS)
    wire = _over_the_wire(_fast_commit(pairs))
    wire["signatures"][1][0] = "r2"  # r1's tag, claimed for r2
    commit = CommitFast.from_wire(wire)
    forged = commit.certificate[1]
    assert forged.payload.replica == "r2"
    assert not forged.verify(registry)
    assert not commit.cosigned(registry)


def test_respelling_declines_when_an_earlier_value_holds_an_object():
    """The lemma's premise, checked at run time: with a nested object
    ahead of the top-level ``replica`` key the first textual match may
    be that object's key, so no bytes are derived."""
    @dataclasses.dataclass(frozen=True)
    class Nested:
        replica: str

        def to_wire(self):
            return {"a": {"n": 1, "replica": "inner"},
                    "replica": self.replica}

    data = _encode(Nested("r0"))
    assert _respell_replica(data, "r0", "r1") is None
    # ...and the encoder decides instead, for its own output only.
    assert respell_replica(data, Nested("r0"), "r1") == \
        _encode(Nested("r1"))
    assert respell_replica(data.replace(b":1", b":1.0"), Nested("r0"),
                           "r1") is None


# ----------------------------------------------------------------------
# KeyRegistry.secret_for (the sanctioned replacement for ._keys)
# ----------------------------------------------------------------------
def test_secret_for_known_node_returns_secret():
    registry, pairs = _registry("n0")
    assert registry.secret_for("n0") == pairs["n0"].secret


def test_secret_for_unknown_node_raises():
    registry, _ = _registry("n0")
    with pytest.raises(UnknownSignerError):
        registry.secret_for("ghost")


# ----------------------------------------------------------------------
# Authenticators: batch verification == loop verification
# ----------------------------------------------------------------------
def test_batch_verify_matches_sequential():
    registry, pairs = _registry("n0", "n1", "n2")
    receiver = "n2"
    items = []
    for sender in ("n0", "n1"):
        value = {"from": sender, "seq": 1}
        auth = make_authenticator(value, pairs[sender], (receiver,))
        verify_authenticator(value, auth, receiver, registry)  # no raise
        items.append((value, auth))
    verify_authenticator_batch(items, receiver, registry)  # no raise


def test_batch_verify_raises_on_one_bad_mac():
    registry, pairs = _registry("n0", "n1", "n2")
    good = {"ok": True}
    good_auth = make_authenticator(good, pairs["n0"], ("n2",))
    bad = {"ok": True}
    bad_auth = make_authenticator(bad, pairs["n1"], ("n2",))
    with pytest.raises(InvalidSignatureError):
        verify_authenticator_batch(
            [(good, good_auth), ({"ok": False}, bad_auth)],
            "n2", registry)


def test_batch_verify_unknown_sender_raises():
    registry, pairs = _registry("n0", "n1")
    value = {"x": 1}
    auth = make_authenticator(value, pairs["n0"], ("n1",))
    object.__setattr__(auth, "sender", "ghost")
    with pytest.raises(UnknownSignerError):
        verify_authenticator_batch([(value, auth)], "n1", registry)
