"""Unit tests for digests, signatures and authenticators."""

import pytest

from repro.crypto.authenticator import (
    make_authenticator,
    verify_authenticator,
)
from repro.crypto.digest import canonical_bytes, digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signatures import Signature, is_valid, sign, verify
from repro.errors import (
    InvalidSignatureError,
    SerializationError,
    UnknownSignerError,
)


# ----------------------------------------------------------------------
# Canonical digests
# ----------------------------------------------------------------------
def test_digest_independent_of_dict_order():
    assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})


def test_digest_independent_of_set_order():
    assert digest({"s": {3, 1, 2}}) == digest({"s": {2, 3, 1}})


def test_digest_distinguishes_values():
    assert digest({"a": 1}) != digest({"a": 2})


def test_tuple_and_list_equivalent():
    assert digest((1, 2, 3)) == digest([1, 2, 3])


def test_bytes_canonicalized():
    assert digest(b"\x01\x02") == digest(b"\x01\x02")
    assert digest(b"\x01") != digest(b"\x02")


def test_nested_structures():
    value = {"x": [1, {"y": (2, 3)}], "z": None}
    assert isinstance(canonical_bytes(value), bytes)


def test_non_string_dict_keys_rejected():
    with pytest.raises(SerializationError):
        canonical_bytes({1: "a"})


def test_unserializable_type_rejected():
    with pytest.raises(SerializationError):
        canonical_bytes(object())


def test_object_with_to_wire_is_accepted():
    class Wired:
        def to_wire(self):
            return {"v": 42}

    assert digest(Wired()) == digest({"v": 42})


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_deterministic_keypair_from_seed():
    a = KeyPair.generate("n1", seed=b"s")
    b = KeyPair.generate("n1", seed=b"s")
    assert a.secret == b.secret


def test_different_nodes_different_keys():
    a = KeyPair.generate("n1", seed=b"s")
    b = KeyPair.generate("n2", seed=b"s")
    assert a.secret != b.secret


def test_random_keypair_without_seed():
    a = KeyPair.generate("n1")
    b = KeyPair.generate("n1")
    assert a.secret != b.secret


# ----------------------------------------------------------------------
# Signatures
# ----------------------------------------------------------------------
@pytest.fixture()
def registry():
    reg = KeyRegistry()
    reg.create("alice", seed=b"t")
    reg.create("bob", seed=b"t")
    return reg


def test_sign_verify_roundtrip(registry):
    keypair = KeyPair.generate("alice", seed=b"t")
    sig = sign(b'{"msg":"hello"}', keypair)
    verify(b'{"msg":"hello"}', sig, registry)  # no raise


def test_tampered_value_fails(registry):
    keypair = KeyPair.generate("alice", seed=b"t")
    sig = sign(b'{"msg":"hello"}', keypair)
    with pytest.raises(InvalidSignatureError):
        verify(b'{"msg":"HELLO"}', sig, registry)


def test_wrong_signer_claim_fails(registry):
    keypair = KeyPair.generate("alice", seed=b"t")
    sig = sign(b'{"msg":"hello"}', keypair)
    forged = Signature(signer="bob", tag=sig.tag)
    with pytest.raises(InvalidSignatureError):
        verify(b'{"msg":"hello"}', forged, registry)


def test_unknown_signer_raises(registry):
    sig = Signature(signer="mallory", tag="00" * 32)
    with pytest.raises(UnknownSignerError):
        verify(b'{"msg":"x"}', sig, registry)


def test_is_valid_boolean_form(registry):
    keypair = KeyPair.generate("alice", seed=b"t")
    sig = sign(b"data", keypair)
    assert is_valid(b"data", sig, registry)
    assert not is_valid(b"other", sig, registry)


def test_signature_wire_roundtrip(registry):
    keypair = KeyPair.generate("alice", seed=b"t")
    sig = sign(b"data", keypair)
    again = Signature.from_wire(sig.to_wire())
    assert again == sig


# ----------------------------------------------------------------------
# Authenticators
# ----------------------------------------------------------------------
def test_authenticator_verifies_per_receiver(registry):
    keypair = KeyPair.generate("alice", seed=b"t")
    auth = make_authenticator("payload", keypair, ["bob", "carol"])
    verify_authenticator("payload", auth, "bob", registry)  # no raise


def test_authenticator_missing_receiver(registry):
    keypair = KeyPair.generate("alice", seed=b"t")
    auth = make_authenticator("payload", keypair, ["bob"])
    with pytest.raises(InvalidSignatureError):
        verify_authenticator("payload", auth, "carol", registry)


def test_authenticator_tamper_detected(registry):
    keypair = KeyPair.generate("alice", seed=b"t")
    auth = make_authenticator("payload", keypair, ["bob"])
    with pytest.raises(InvalidSignatureError):
        verify_authenticator("other", auth, "bob", registry)


def test_authenticator_wire_roundtrip(registry):
    from repro.crypto.authenticator import Authenticator

    keypair = KeyPair.generate("alice", seed=b"t")
    auth = make_authenticator("payload", keypair, ["bob"])
    again = Authenticator.from_wire(auth.to_wire())
    assert again == auth
