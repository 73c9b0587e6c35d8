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

A method the class body defines itself wins.  Hand-write the pair only
when the wire form is *not* the field list (``SignedPayload``'s signed
bytes carried as a string and parsed into its payload, ``CommitFast``'s
one header + 3f+1 signatures).

This module sits below both ``repro.messages`` and
``repro.statemachine`` (``Command`` is a wire struct) and imports only
``repro.types`` and ``repro.errors``.
"""

from __future__ import annotations

import dataclasses
import linecache
import typing
from typing import Any, Dict, Tuple, Type

from repro.errors import SerializationError
from repro.types import InstanceID, deps_from_wire, deps_to_wire

#: The expression template of a value that needs no conversion.
_AS_IS = "{0}"


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


def _grammar(tp: Any, where: str, names: Dict[str, Any],
             depth: int = 0) -> Tuple[str, str]:
    """(encode, decode) expression templates for a value of type
    ``tp``; ``{0}`` stands for the expression reaching the value.
    Classes the templates name are added to ``names``."""
    if tp in (str, int, float, bool, dict, Any):
        return _AS_IS, _AS_IS
    if tp is InstanceID:
        return "{0}.to_wire()", "InstanceID.from_wire({0})"
    if isinstance(tp, type) and hasattr(tp, "from_wire"):
        names[tp.__name__] = tp
        return _AS_IS, f"as_message({{0}}, {tp.__name__})"
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        inner = args[0] if args[1] is type(None) else args[1]
        enc, dec = _grammar(inner, where, names, depth)
        if enc == _AS_IS:  # else: no wire form, raised below
            return enc, dec if dec == _AS_IS \
                else f"({dec} if {{0}} else None)"
    elif origin is tuple and args == (InstanceID, Ellipsis):
        return "deps_to_wire({0})", "deps_from_wire({0})"
    elif origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        var = f"v{depth}"
        enc, dec = _grammar(args[0], where, names, depth + 1)
        return ("list({0})" if enc == _AS_IS
                else f"[{enc.format(var)} for {var} in {{0}}]",
                f"tuple({dec.format(var)} for {var} in {{0}})")
    elif origin is tuple and args and Ellipsis not in args:
        parts = [_grammar(arg, where, names, depth) for arg in args]
        encs = [enc.format(f"{{0}}[{i}]")
                for i, (enc, _) in enumerate(parts)]
        decs = [dec.format(f"{{0}}[{i}]")
                for i, (_, dec) in enumerate(parts)]
        return f"[{', '.join(encs)}]", f"({', '.join(decs)},)"
    raise SerializationError(
        f"{where}: type {tp!r} has no wire form (see repro.wire for "
        f"the grammar; hand-write to_wire/from_wire if the wire form "
        f"is not the field list)")


def wire_struct(cls: Type) -> Type:
    """Class decorator: derive ``to_wire``/``from_wire`` for dataclass
    ``cls`` from its fields (the module docstring states the grammar),
    whichever of the two the class body does not define itself.

    Each method is compiled once, here, exactly as ``dataclasses``
    builds ``__init__``: per call it is the dict literal or keyword
    call a hand-written method would be.  The source is assembled from
    field and type *names* only -- identifiers of the class being
    defined -- never from wire data.  It is filed in ``linecache``
    under a synthetic filename, so tracebacks show it and
    ``inspect.getsource`` returns it (which is what the ``wire-parity``
    lint rule reads).
    """
    wanted = [name for name in ("to_wire", "from_wire")
              if name not in vars(cls)]
    if not wanted:
        return cls
    hints = typing.get_type_hints(cls)
    # The namespace the methods are compiled in; its ``__name__``
    # becomes their ``__module__``.
    names: Dict[str, Any] = {
        "__name__": cls.__module__, "as_message": as_message,
        "InstanceID": InstanceID, "deps_to_wire": deps_to_wire,
        "deps_from_wire": deps_from_wire}
    emit = ['"type": self.MSG_TYPE,'] if hasattr(cls, "MSG_TYPE") else []
    read = []
    for f in dataclasses.fields(cls):
        enc, dec = _grammar(hints[f.name], f"{cls.__name__}.{f.name}",
                            names)
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
    text = "\n".join(sources[name] for name in wanted)
    filename = f"<wire codec of {cls.__module__}.{cls.__qualname__}>"
    exec(compile(text, filename, "exec"), names)
    # mtime None: linecache.checkcache leaves the entry alone.
    linecache.cache[filename] = (len(text), None,
                                 text.splitlines(True), filename)
    for name in wanted:
        method = names[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name,
                classmethod(method) if name == "from_wire" else method)
    return cls
