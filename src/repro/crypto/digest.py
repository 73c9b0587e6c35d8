"""Canonical serialization and SHA-256 digests.

Protocol messages must hash identically at every correct node, so the
encoding must be canonical: dictionaries are serialized with sorted keys,
and only JSON-representable primitives plus tuples/sets are accepted
(sets are sorted by their encoded form, tuples become lists).

Encoding is the hottest path in a saturated run (every signature, MAC,
and dependency key goes through it), so three mechanisms keep it cheap:

- **Compiled writers.**  For every class whose ``to_wire`` it derives,
  :func:`repro.wire.wire_struct` also compiles a writer that appends the
  encoding of that ``to_wire()`` dict without building it: key
  fragments in sorted order are constants fixed when the class is
  defined, and ``str``/``int``/``InstanceID``/dependency-set fields are
  written directly behind exact-type guards.  A value of any other
  type goes to the generic :func:`_write` of what ``to_wire`` would
  hold, so the bytes are the generic encoder's for every value.
  :data:`WRITERS` is looked up by *exact* type: a subclass takes the
  generic path through its own ``to_wire``.
- **Instance memos.**  :func:`canonical_bytes` and :func:`digest`
  memoize their results for frozen message objects *on the instance*
  (stored via ``object.__setattr__``) rather than in a global table: a
  bounded table thrashes once a heavy run creates more distinct
  messages than it holds, while an instance memo has no eviction cliff
  and is garbage-collected with the message.  The bytes memo is
  ``(content_hash, bytes)``: one copy of the encoding, which
  :func:`canonical_bytes` hands out as is, so a signed envelope's body
  is that same object.
- **Splicing.**  The encoder writes string fragments in one pass and,
  on reaching a nested message object whose memo is valid, splices the
  cached encoding (``bytes.decode("ascii")``, a copy that lives only
  as long as the pass) instead of re-serializing it.

Each memo records the content hash it was computed under -- a byzantine
in-process mutation via ``object.__setattr__`` changes the content
hash, the recorded hash no longer matches, and the bytes are recomputed
from the mutated fields.  Objects whose fields are unhashable (e.g.
dict-valued snapshots) or that declare ``__slots__`` fall back to the
uncached encoder.

A memo is only ever this encoder's own output: bytes that arrived are
never recorded as a message's canonical encoding.  Signed envelopes
(``repro.messages.base.SignedPayload``) keep the bytes their signer
MAC'd *beside* the parsed payload instead, and encode as an escaped
copy of them -- a certificate of 3f+1 signed replies never re-encodes
a reply.  :func:`respell_replica` derives "the same SPECREPLY, signed
by another replica" from such bytes by respelling one string; it is
how a fast certificate ships one header for 3f+1 signers.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from json.encoder import encode_basestring_ascii as _escape
from math import isinf, isnan
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SerializationError

#: Instance attribute holding a ``(content_hash, bytes)`` memo.
#: Prefixed to stay out of the way of message fields; dataclass
#: ``__eq__``/``__repr__``/``to_wire`` never see it.
_BYTES_MEMO = "_repro_canonical_memo"
#: Instance attribute holding a ``(content_hash, hexdigest)`` memo.
_DIGEST_MEMO = "_repro_digest_memo"

#: Exact class -> its compiled canonical writer ``writer(value, out)``,
#: which appends what ``_write(value.to_wire(), out)`` would without
#: building the wire dict.  :func:`repro.wire.wire_struct` files one
#: for every class whose ``to_wire`` it derives.  Looked up by exact
#: type, so a subclass (which may override ``to_wire``) is written
#: through its own ``to_wire``.
WRITERS: Dict[type, Callable[[Any, List[str]], None]] = {}


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
    writer = WRITERS.get(kind)
    if writer is not None:
        _write_message(value, writer, out)
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
    if callable(getattr(value, "to_wire", None)):
        _write_message(value, _write_to_wire, out)
        return
    raise SerializationError(
        f"cannot canonicalize value of type {type(value).__name__}")


def _write_to_wire(value: Any, out: List[str]) -> None:
    """The generic writer of an object exposing ``to_wire()``."""
    _write(value.to_wire(), out)


def _write_message(value: Any, writer: Callable[[Any, List[str]], None],
                   out: List[str]) -> None:
    """Append ``value``'s encoding, which ``writer`` writes: spliced
    from its memo when the memo's content hash is current, else written
    and memoized (when ``value`` is hashable and takes attributes)."""
    try:
        content_hash = hash(value)
    except TypeError:
        writer(value, out)
        return
    memo = getattr(value, _BYTES_MEMO, None)
    if memo is not None and memo[0] == content_hash:
        out.append(memo[1].decode("ascii"))  # splice the cached encoding
        return
    start = len(out)
    writer(value, out)
    segment = "".join(out[start:])
    out[start:] = (segment,)
    try:
        object.__setattr__(value, _BYTES_MEMO,
                           (content_hash, segment.encode("ascii")))
    except (AttributeError, TypeError):
        pass  # __slots__ or exotic objects: stay uncached


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
        # Hand out the memo's own bytes: a signed envelope keeps what
        # it is given, and must not hold a second copy of them.
        memo = getattr(value, _BYTES_MEMO, None)
        if memo is not None and memo[0] == content_hash:
            return memo[1]
        return encoded
    return _encode(value)


def encoded_hash(value: Any, data: bytes) -> Optional[int]:
    """The content hash ``value`` had when the encoder wrote ``data``
    for it -- read from its memo, whose bytes must be ``data`` itself
    -- else ``None``.  It spares a signer hashing the payload it has
    just encoded a second time."""
    memo = getattr(value, _BYTES_MEMO, None)
    if memo is not None and memo[1] is data:
        return memo[0]
    return None


#: How a top-level ``replica`` key that is not the first key starts.
_REPLICA_KEY = b',"replica":'


def _respell_replica(data: bytes, old: str, new: str) -> Optional[bytes]:
    """``data`` -- the canonical encoding of a message whose wire form
    holds the string ``old`` under the top-level key ``replica`` --
    with that value respelled as ``new``; ``None`` when ``data`` is not
    visibly of the shape the lemma needs.

    **Lemma.**  Let ``i`` be the first index of ``,"replica":`` in
    ``data``.  If no ``{`` occurs in ``data[1:i]``, then ``i`` is where
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
    at = data.find(_REPLICA_KEY)
    start = at + len(_REPLICA_KEY)
    spelled = _escape(old).encode("ascii")
    if at < 0 or data.find(b"{", 1, at) >= 0 \
            or not data.startswith(spelled, start):
        return None
    return data[:start] + _escape(new).encode("ascii") \
        + data[start + len(spelled):]


def respell_replica(data: bytes, message: Any,
                    replica: Any) -> Optional[bytes]:
    """``data`` -- signed bytes that parse to ``message``, a message
    with a top-level ``replica`` field -- as ``replica`` would have
    signed the same statement; ``None`` when no such bytes can be
    derived.

    :func:`_respell_replica` derives them by respelling one string and
    keeping the rest of ``data`` verbatim, whatever its spelling.
    Where that lemma declines (an id that is not a string, a ``{``
    ahead of the key), our own encoder decides, and only for bytes that
    are its own output: the sibling of a canonical statement is the
    encoder's output for the copy with ``replica`` replaced, and a
    non-canonical statement the lemma cannot see into has none.  This
    fallback is the only path that encodes.

    For bytes that are not the encoder's output the lemma's conclusion
    is weaker: a statement holding a second top-level ``replica`` key
    respells the first while a parser keeps the last.  That costs
    nothing, because a correct signer's bytes are canonical: a sibling
    respelled from any other statement never carries a correct
    signer's MAC.
    """
    old = message.replica
    if type(old) is str and type(replica) is str:
        derived = _respell_replica(data, old, replica)
        if derived is not None:
            return derived
    if canonical_bytes(message) != data:
        return None
    return canonical_bytes(replace(message, replica=replica))


def leaf_digest(leaf: dict) -> bytes:
    """Raw SHA-256 of one state leaf's canonical encoding: the 32 bytes
    a state root covers for that leaf."""
    return hashlib.sha256(_encode(leaf)).digest()


def state_root(leaf_digests: bytes) -> str:
    """Hex SHA-256 of the concatenated leaf digests, in leaf order:
    the state root a checkpoint digest covers in place of the state."""
    return hashlib.sha256(leaf_digests).hexdigest()


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
