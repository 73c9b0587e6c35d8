"""Canonical serialization and SHA-256 digests.

Protocol messages must hash identically at every correct node, so the
encoding must be canonical: dictionaries are serialized with sorted keys,
and only JSON-representable primitives plus tuples/sets are accepted
(sets are sorted by their encoded form, tuples become lists).

Encoding is the hottest path in a saturated run (every signature, MAC,
and dependency key goes through it), so two mechanisms keep it cheap:

- **Instance memos.**  :func:`canonical_bytes` and :func:`digest`
  memoize their results for frozen message objects *on the instance*
  (stored via ``object.__setattr__``) rather than in a global table: a
  bounded table thrashes once a heavy run creates more distinct
  messages than it holds, while an instance memo has no eviction cliff
  and is garbage-collected with the message.
- **Splicing.**  The encoder writes string fragments in one pass and,
  on reaching a nested message object whose memo is valid, splices the
  cached encoding verbatim instead of re-serializing it -- a
  certificate carrying 3f+1 signed replies encodes as a concatenation
  of its (already signed, already encoded) envelopes.

Each memo records the content hash it was computed under -- a byzantine
in-process mutation via ``object.__setattr__`` changes the content
hash, the recorded hash no longer matches, and the bytes are recomputed
from the mutated fields, so a message altered after signing still fails
verification.  Objects whose fields are unhashable (e.g. dict-valued
snapshots) or that declare ``__slots__`` fall back to the uncached
encoder.

One memo is *derived* rather than encoded: :func:`sibling_with_replica`
builds "this statement, signed by another replica" and gives it its
bytes by respelling one string in an encoding already paid for (a fast
commit certificate is 3f+1 such siblings).  It is recorded under the
sibling's own content hash like any other memo, so the paragraph above
holds for it unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from json.encoder import encode_basestring_ascii as _escape
from math import isinf, isnan
from typing import Any, List, Optional

from repro.errors import SerializationError

#: Instance attribute holding a ``(content_hash, bytes, str)`` memo.
#: Prefixed to stay out of the way of message fields; dataclass
#: ``__eq__``/``__repr__``/``to_wire`` never see it.
_BYTES_MEMO = "_repro_canonical_memo"
#: Instance attribute holding a ``(content_hash, hexdigest)`` memo.
_DIGEST_MEMO = "_repro_digest_memo"


def clear_caches() -> None:
    """Test isolation hook.

    Memos live on message instances (and record the content hash they
    were computed under), so there is no global state to drop here; the
    hook is kept so tests exercising cached-vs-uncached agreement have
    a stable name to call between passes.
    """


def _float_repr(value: float) -> str:
    if isnan(value):
        return "NaN"
    if isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _write(value: Any, out: List[str]) -> None:
    """Append the canonical encoding of ``value`` to ``out``.

    Fragments are ASCII (strings are escaped like ``json.dumps`` with
    ``ensure_ascii=True``), so cached encodings splice in verbatim.
    """
    if value is None:
        out.append("null")
        return
    kind = type(value)
    if kind is str:
        out.append(_escape(value))
        return
    if kind is bool:
        out.append("true" if value else "false")
        return
    if kind is int:
        out.append(repr(value))
        return
    if kind is float:
        out.append(_float_repr(value))
        return
    if isinstance(value, bytes):
        out.append('{"__bytes__":')
        out.append(_escape(value.hex()))
        out.append("}")
        return
    if isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
        return
    if isinstance(value, (set, frozenset)):
        parts = []
        for item in value:
            sub: List[str] = []
            _write(item, sub)
            parts.append("".join(sub))
        parts.sort()
        out.append('{"__set__":[')
        out.append(",".join(parts))
        out.append("]}")
        return
    if isinstance(value, dict):
        try:
            keys = sorted(value)
        except TypeError:
            raise SerializationError("dict keys must be str") from None
        out.append("{")
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise SerializationError(
                    f"dict keys must be str, got {type(key).__name__}")
            if i:
                out.append(",")
            out.append(_escape(key))
            out.append(":")
            _write(value[key], out)
        out.append("}")
        return
    # Scalar subclasses (e.g. IntEnum) that json.dumps would accept.
    if isinstance(value, bool):
        out.append("true" if value else "false")
        return
    if isinstance(value, int):
        out.append(repr(int(value)))
        return
    if isinstance(value, float):
        out.append(_float_repr(float(value)))
        return
    if isinstance(value, str):
        out.append(_escape(str(value)))
        return
    # Dataclass-like objects used in messages expose to_wire().
    to_wire = getattr(value, "to_wire", None)
    if callable(to_wire):
        try:
            content_hash = hash(value)
        except TypeError:
            content_hash = None
        if content_hash is not None:
            memo = getattr(value, _BYTES_MEMO, None)
            if memo is not None and memo[0] == content_hash:
                out.append(memo[2])  # splice the cached encoding
                return
        start = len(out)
        _write(to_wire(), out)
        if content_hash is not None:
            segment = "".join(out[start:])
            del out[start:]
            out.append(segment)
            try:
                object.__setattr__(
                    value, _BYTES_MEMO,
                    (content_hash, segment.encode("ascii"), segment))
            except (AttributeError, TypeError):
                pass  # __slots__ or exotic objects: stay uncached
        return
    raise SerializationError(
        f"cannot canonicalize value of type {type(value).__name__}")


def _encode(value: Any) -> bytes:
    """One-pass uncached entry to the canonical encoder."""
    out: List[str] = []
    _write(value, out)
    return "".join(out).encode("ascii")


def canonical_bytes(value: Any) -> bytes:
    """Deterministic byte encoding of ``value``.

    Equal values (after canonicalization) always produce equal bytes,
    regardless of dict insertion order or set iteration order.  Results
    for hashable message objects (anything exposing ``to_wire()``) are
    memoized on the instance; see the module docstring for why mutation
    cannot resurrect a stale entry.
    """
    if callable(getattr(value, "to_wire", None)):
        try:
            content_hash = hash(value)
        except TypeError:
            return _encode(value)
        memo = getattr(value, _BYTES_MEMO, None)
        if memo is not None and memo[0] == content_hash:
            return memo[1]
        encoded = _encode(value)  # _write populates the memo itself
        return encoded
    return _encode(value)


#: Types whose values, when ``==`` and of one type, encode alike.
#: ``float`` is not among them: ``0.0 == -0.0``.
_ONE_SPELLING = (str, int, bool, type(None))


def same_encoding(a: Any, b: Any) -> bool:
    """Whether ``a`` and ``b`` are one value *as signed*: their
    canonical encodings are equal.  ``==`` is looser -- ``5 == 5.0`` and
    ``1 == True``, each spelled differently on the wire -- so two
    signers' statements that agree only under ``==`` cannot share one
    set of signed bytes."""
    kind = type(a)
    if kind is type(b) and kind in _ONE_SPELLING:
        return a == b
    return _encode(a) == _encode(b)


#: How a top-level ``replica`` key that is not the first key starts.
_REPLICA_KEY = ',"replica":'


def _respell_replica(text: str, old: str, new: str) -> Optional[str]:
    """``text`` -- the canonical encoding of a message whose wire form
    holds the string ``old`` under the top-level key ``replica`` --
    with that value respelled as ``new``; ``None`` when ``text`` is not
    visibly of the shape the lemma needs.

    **Lemma.**  Let ``i`` be the first index of ``,"replica":`` in
    ``text``.  If no ``{`` occurs in ``text[1:i]``, then ``i`` is where
    the top-level ``replica`` key starts.  Proof: the encoder escapes
    ``"`` inside every string literal as ``\\"``, so a raw ``"replica"``
    followed by ``:`` is a whole string token in key position, i.e. a
    key of some object; no object but the outermost opens before ``i``,
    so it is a key of the outermost one, and an object's keys are
    unique.  The literal after it is ``_escape(old)``; putting
    ``_escape(new)`` in its place is, token for token, what the encoder
    writes for the same message with ``replica = new``, because no
    other field differs and key order does not depend on values.

    Both premises are checked rather than assumed.  (A ``{`` inside an
    earlier string value fails the check needlessly; that costs the
    shortcut, never correctness.)
    """
    at = text.find(_REPLICA_KEY)
    start = at + len(_REPLICA_KEY)
    spelled = _escape(old)
    if at < 0 or text.find("{", 1, at) >= 0 \
            or not text.startswith(spelled, start):
        return None
    return text[:start] + _escape(new) + text[start + len(spelled):]


def sibling_with_replica(message: Any, replica: str) -> Any:
    """``message`` -- a SPECREPLY header -- as another replica would
    have said it: a copy whose ``replica`` field is ``replica``, its
    canonical bytes derived from ``message``'s own encoding by
    :func:`_respell_replica` instead of a second pass of the encoder.

    The copy is made here, so the derived bytes can only ever be
    attached to a message that differs from ``message`` in that one
    field, and they are recorded under the copy's own content hash like
    any memo: mutate the copy afterwards and it re-encodes.  When the
    shortcut does not apply (unhashable fields, non-string ids, an
    encoding the lemma does not cover) the copy is returned bare and
    the plain encoder serves it on first use.
    """
    sibling = replace(message, replica=replica)
    old = message.replica
    if type(old) is not str or type(replica) is not str:
        return sibling
    try:
        content_hash = hash(message)
        sibling_hash = hash(sibling)
    except TypeError:
        return sibling
    memo = getattr(message, _BYTES_MEMO, None)
    if memo is None or memo[0] != content_hash:
        canonical_bytes(message)  # the one full encode siblings share
        memo = getattr(message, _BYTES_MEMO)
    derived = _respell_replica(memo[2], old, replica)
    if derived is not None:
        object.__setattr__(
            sibling, _BYTES_MEMO,
            (sibling_hash, derived.encode("ascii"), derived))
    return sibling


def digest(value: Any) -> str:
    """Hex SHA-256 digest of the canonical encoding of ``value``."""
    if callable(getattr(value, "to_wire", None)):
        try:
            content_hash = hash(value)
        except TypeError:
            return hashlib.sha256(canonical_bytes(value)).hexdigest()
        memo = getattr(value, _DIGEST_MEMO, None)
        if memo is not None and memo[0] == content_hash:
            return memo[1]
        hexdigest = hashlib.sha256(canonical_bytes(value)).hexdigest()
        try:
            object.__setattr__(value, _DIGEST_MEMO,
                               (content_hash, hexdigest))
        except (AttributeError, TypeError):
            pass
        return hexdigest
    return hashlib.sha256(canonical_bytes(value)).hexdigest()
