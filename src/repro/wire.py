"""The wire codec: a message's wire form is its dataclass field list.

The paper (Section IV) writes every message as a tuple --
``<SPECORDER, O, I, D, S, h, d>`` -- and each message class *is* that
tuple as a frozen dataclass.  :func:`wire_struct` (which
:func:`repro.messages.base.register_message` applies) derives
``to_wire()`` and ``from_wire()`` from ``dataclasses.fields`` and the
type hints, so the field list is stated once.  This docstring is the
wire specification.

A derived ``to_wire()`` returns a dict with one key per field, named
after it, plus ``"type": MSG_TYPE`` when the class has one.  Each value
follows from the field's type:

- ``InstanceID`` <-> its ``[owner, slot]`` pair; ``Tuple[InstanceID,
  ...]`` <-> ``deps_to_wire``/``deps_from_wire`` (a list of pairs,
  sorted both ways);
- a class with ``from_wire`` (another wire struct, a ``Signature``) is
  embedded **as the object** and decoded through :func:`as_message`:
  the canonical encoder resolves it and splices its cached bytes;
- ``Tuple[X, ...]`` <-> a list of X; a fixed ``Tuple[X, Y]`` <-> a
  list read back positionally;
- ``Optional[X]`` <-> X or null, decoded on truthiness (X itself must
  need no encoding: a scalar or an embedded object);
- ``str``, ``int``, ``float``, ``bool``, ``dict`` and ``Any`` pass
  through unchanged, both ways.

A field with a dataclass default is read with ``wire.get(name,
default)``; a missing required key is a ``KeyError`` naming it, which
``core/recovery.py`` deliberately tells apart from
:class:`~repro.errors.SerializationError`.  A field type outside the
list (``List[...]``, ``Dict[str, <wire class>]``, a bare ``tuple``)
raises ``SerializationError`` naming class and field when the class is
*defined*: a nested value is never silently passed through un-decoded.

A derived ``to_wire()`` brings a third derived function: the class's
canonical writer, compiled from the same grammar and filed in
``repro.crypto.digest.WRITERS``.  It appends the canonical encoding of
the dict ``to_wire()`` would return without building it: the keys in
sorted order with ``MSG_TYPE`` folded into the constant fragments, the
``str``/``int``/``InstanceID``/dependency-set fields written behind
exact-type guards, and every other value (embedded objects, off-type
values) handed to the generic encoder as ``to_wire()`` would hold it.
The bytes are therefore the generic encoder's, whatever the fields
hold; memo, hash and splice logic stays in ``repro.crypto.digest``.

A method the class body defines itself wins, and a hand-written
``to_wire`` gets no compiled writer.  Hand-write the pair only when the
wire form is *not* the field list (``SignedPayload``'s signed bytes
carried as a string and parsed into its payload, ``CommitFast``'s one
header + 3f+1 signatures).

This module sits below both ``repro.messages`` and
``repro.statemachine`` (``Command`` is a wire struct) and imports only
``repro.types``, ``repro.errors`` and, for the writers,
``repro.crypto.digest``.
"""

from __future__ import annotations

import dataclasses
import linecache
import typing
from typing import Any, Dict, Tuple, Type

from repro.crypto.digest import WRITERS, _escape, _write
from repro.errors import SerializationError
from repro.types import InstanceID, deps_from_wire, deps_to_wire

#: The expression template of a value that needs no conversion.
_AS_IS = "{0}"
#: The write template of such a value: the generic canonical writer.
_WRITE_AS_IS = "write({0}, out)"


def as_message(wire: Any, cls: Type) -> Any:
    """``wire`` itself if already a ``cls`` instance, else
    ``cls.from_wire(wire)``.

    ``to_wire()`` embeds nested messages (commands, envelopes,
    certificates) as *objects* rather than eagerly serializing them:
    the canonical encoder resolves them itself and can splice their
    cached encodings, so a certificate re-encode costs a concatenation
    instead of a deep traversal.  Anything that crossed a real wire
    (``json.loads`` on the TCP path) arrives as plain dicts; nested
    ``from_wire`` positions funnel through here to accept both forms.
    """
    if isinstance(wire, cls):
        return wire
    return cls.from_wire(wire)


def _write_deps(deps: Any, out: list) -> None:
    """Canonical writer of a dependency-set field: what
    ``_write(deps_to_wire(deps), out)`` appends, without the lists."""
    if type(deps) is tuple:
        parts = []
        for dep in sorted(deps):
            if type(dep) is not InstanceID or type(dep[0]) is not str \
                    or type(dep[1]) is not int:
                break
            parts.append(f"[{_escape(dep[0])},{dep[1]!r}]")
        else:
            out.append(f"[{','.join(parts)}]")
            return
    _write(deps_to_wire(deps), out)


def _holds_ints(tp: Any) -> bool:
    """Whether a field typed ``tp`` can hold a wire struct with int
    fields at some depth: the struct itself, ``Optional`` of it, or a
    tuple of it."""
    if isinstance(tp, type):
        return bool(getattr(tp, "INT_FIELDS", ()) or
                    getattr(tp, "STRUCT_FIELDS", ()))
    if typing.get_origin(tp) in (typing.Union, tuple):
        return any(_holds_ints(arg) for arg in typing.get_args(tp))
    return False


def ints_exact(value: Any) -> bool:
    """True when every ``INT_FIELDS`` field of wire struct ``value``,
    and of every struct its ``STRUCT_FIELDS`` hold, is exactly an int:
    not a string, a float or a bool that a handler would compare with
    numbers.  A value that is no struct (``None`` in an ``Optional``)
    holds no field to check."""
    try:
        ints, structs = value.INT_FIELDS, value.STRUCT_FIELDS
    except AttributeError:
        return True
    for name in ints:
        if type(getattr(value, name)) is not int:
            return False
    for name in structs:
        held = getattr(value, name)
        if type(held) is tuple:
            if not all(map(ints_exact, held)):
                return False
        elif not ints_exact(held):
            return False
    return True


def _grammar(tp: Any, where: str, names: Dict[str, Any],
             depth: int = 0) -> Tuple[str, str, str]:
    """(encode, decode, write) templates for a value of type ``tp``;
    ``{0}`` stands for the expression reaching the value.  ``write`` is
    an expression statement appending the canonical encoding of what
    ``encode`` holds to ``out``: exact-type guarded fast paths for
    ``str``, ``int``, ``InstanceID`` and dependency sets, the generic
    ``write`` of the encoded value otherwise.  Classes the templates
    name are added to ``names``."""
    if tp is str:
        return (_AS_IS, _AS_IS,
                "append(escape({0})) if type({0}) is str "
                "else write({0}, out)")
    if tp is int:
        return (_AS_IS, _AS_IS,
                "append(repr({0})) if type({0}) is int "
                "else write({0}, out)")
    if tp in (float, bool, dict, Any):
        return _AS_IS, _AS_IS, _WRITE_AS_IS
    if tp is InstanceID:
        return ("{0}.to_wire()", "InstanceID.from_wire({0})",
                "append('[' + escape({0}[0]) + ',' + repr({0}[1]) + ']') "
                "if type({0}) is InstanceID and type({0}[0]) is str "
                "and type({0}[1]) is int else write({0}.to_wire(), out)")
    if isinstance(tp, type) and hasattr(tp, "from_wire"):
        names[tp.__name__] = tp
        return _AS_IS, f"as_message({{0}}, {tp.__name__})", _WRITE_AS_IS
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        inner = args[0] if args[1] is type(None) else args[1]
        enc, dec, put = _grammar(inner, where, names, depth)
        if enc == _AS_IS:  # else: no wire form, raised below
            # The inner write's generic branch writes None as null.
            return enc, dec if dec == _AS_IS \
                else f"({dec} if {{0}} else None)", put
    elif origin is tuple and args == (InstanceID, Ellipsis):
        return ("deps_to_wire({0})", "deps_from_wire({0})",
                "write_deps({0}, out)")
    elif origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        var = f"v{depth}"
        enc, dec, _ = _grammar(args[0], where, names, depth + 1)
        enc = ("list({0})" if enc == _AS_IS
               else f"[{enc.format(var)} for {var} in {{0}}]")
        return (enc, f"tuple({dec.format(var)} for {var} in {{0}})",
                f"write({enc}, out)")
    elif origin is tuple and args and Ellipsis not in args:
        parts = [_grammar(arg, where, names, depth) for arg in args]
        encs = [enc.format(f"{{0}}[{i}]")
                for i, (enc, _, _) in enumerate(parts)]
        decs = [dec.format(f"{{0}}[{i}]")
                for i, (_, dec, _) in enumerate(parts)]
        enc = f"[{', '.join(encs)}]"
        return enc, f"({', '.join(decs)},)", f"write({enc}, out)"
    raise SerializationError(
        f"{where}: type {tp!r} has no wire form (see repro.wire for "
        f"the grammar; hand-write to_wire/from_wire if the wire form "
        f"is not the field list)")


def _compile(text: str, filename: str, names: Dict[str, Any]) -> None:
    """Run generated source ``text`` in ``names``, filed in
    ``linecache`` under ``filename``, so tracebacks show it and
    ``inspect.getsource`` returns it."""
    exec(compile(text, filename, "exec"), names)
    # mtime None: linecache.checkcache leaves the entry alone.
    linecache.cache[filename] = (len(text), None,
                                 text.splitlines(True), filename)


def _writer_source(cls: Type, writes: Dict[str, str]) -> str:
    """Source of ``write_canonical(self, out)``: the canonical encoding
    of the dict a derived ``to_wire`` returns, keys in sorted order.
    ``writes`` maps each field to its write template; the key fragments
    and the ``"type"`` entry are constants, merged where adjacent."""
    steps = []  # (is_constant, text)
    # A field named ``type`` wins over ``MSG_TYPE``, as in the dict.
    keys = sorted({*writes, "type"} if hasattr(cls, "MSG_TYPE")
                  else writes)
    for i, key in enumerate(keys):
        steps.append((True, ("," if i else "{") + _escape(key) + ":"))
        if key not in writes:
            steps.append((True, _escape(cls.MSG_TYPE)))
        elif writes[key].count("{0}") == 1:
            steps.append((False, writes[key].format(f"self.{key}")))
        else:  # a guarded write reads the value more than once
            steps.append((False, f"x = self.{key}"))
            steps.append((False, writes[key].format("x")))
    steps.append((True, "}" if keys else "{}"))
    lines = ["def write_canonical(self, out):", "    append = out.append"]
    pending = ""
    for is_constant, text in steps:
        if is_constant:
            pending += text
            continue
        if pending:
            lines.append(f"    append({pending!r})")
            pending = ""
        lines.append(f"    {text}")
    lines.append(f"    append({pending!r})")
    return "\n".join(lines) + "\n"


def wire_struct(cls: Type) -> Type:
    """Class decorator: derive ``to_wire``/``from_wire`` for dataclass
    ``cls`` from its fields (the module docstring states the grammar),
    whichever of the two the class body does not define itself.  With
    a derived ``to_wire`` comes a third function, the class's canonical
    writer, filed in :data:`repro.crypto.digest.WRITERS`.  The names of
    the fields typed ``int`` are recorded as ``cls.INT_FIELDS``, and of
    the fields that can hold a struct with such fields (a ``Command``,
    a tuple of them) as ``cls.STRUCT_FIELDS``: the grammar passes ints
    through undecoded, so whoever trusts one to be a number checks it
    with :func:`ints_exact` (``SignedPayload.authentic`` does).

    Each function is compiled once, here, exactly as ``dataclasses``
    builds ``__init__``: per call it is the dict literal or keyword
    call a hand-written method would be, and the writer is the appends
    a hand-unrolled encoder would make.  The source is assembled from
    field and type *names* only -- identifiers of the class being
    defined -- never from wire data.  It is filed in ``linecache``
    under a synthetic filename, so tracebacks show it and
    ``inspect.getsource`` returns it (which is what the ``wire-parity``
    lint rule reads).
    """
    hints = typing.get_type_hints(cls)
    cls.INT_FIELDS = tuple(f.name for f in dataclasses.fields(cls)
                           if hints[f.name] is int)
    cls.STRUCT_FIELDS = tuple(f.name for f in dataclasses.fields(cls)
                              if _holds_ints(hints[f.name]))
    wanted = [name for name in ("to_wire", "from_wire")
              if name not in vars(cls)]
    if not wanted:
        return cls
    # The namespace the functions are compiled in; its ``__name__``
    # becomes their ``__module__``.
    names: Dict[str, Any] = {
        "__name__": cls.__module__, "as_message": as_message,
        "InstanceID": InstanceID, "deps_to_wire": deps_to_wire,
        "deps_from_wire": deps_from_wire, "escape": _escape,
        "write": _write, "write_deps": _write_deps}
    emit = ['"type": self.MSG_TYPE,'] if hasattr(cls, "MSG_TYPE") else []
    read = []
    writes = {}
    for f in dataclasses.fields(cls):
        enc, dec, writes[f.name] = _grammar(
            hints[f.name], f"{cls.__name__}.{f.name}", names)
        emit.append(f'"{f.name}": {enc.format("self." + f.name)},')
        if f.default is dataclasses.MISSING:
            value = f'wire["{f.name}"]'
        else:
            names[f"default_{f.name}"] = f.default
            value = f'wire.get("{f.name}", default_{f.name})'
        read.append(f"{f.name}={dec.format(value)},")
    sources = {
        "to_wire": "def to_wire(self):\n    return {\n        "
                   + "\n        ".join(emit) + "\n    }\n",
        "from_wire": "def from_wire(cls, wire):\n    return cls(\n        "
                     + "\n        ".join(read) + "\n    )\n",
    }
    where = f"{cls.__module__}.{cls.__qualname__}"
    _compile("\n".join(sources[name] for name in wanted),
             f"<wire codec of {where}>", names)
    for name in wanted:
        method = names[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name,
                classmethod(method) if name == "from_wire" else method)
    if "to_wire" in wanted:
        _compile(_writer_source(cls, writes),
                 f"<canonical writer of {where}>", names)
        WRITERS[cls] = names["write_canonical"]
    return cls
