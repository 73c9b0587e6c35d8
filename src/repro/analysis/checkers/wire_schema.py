"""Wire-schema parity checker: ``to_wire`` covers every field, and
registered types round-trip through the decode table.

Unlike the AST checkers this one works on the *imported* classes: a
field is whatever ``dataclasses.fields`` says it is (inheritance and
``field(default=...)`` included), and registration is whatever the
live ``MESSAGE_REGISTRY`` holds -- the same structures the TCP codec
uses at runtime.  Only the ``to_wire``/``from_wire`` *bodies* are
read via their source, because coverage there is a syntactic
question.  Most bodies are generated (:func:`repro.wire.wire_struct`
files the text it compiles where ``inspect.getsource`` finds it), so
for those classes the claims below check the generator; for the
hand-written ones they check the typist.  The checker does not know
which is which.

Three parity claims per wire dataclass:

- every class carrying a ``MSG_TYPE`` is registered in the decode
  table under that type (and as itself, not a shadowing duplicate);
- ``to_wire`` references every dataclass field (a field silently
  dropped from the wire form is a field that vanishes on the TCP
  path while sim runs keep working -- the nastiest parity bug class);
- ``from_wire`` reads every key ``to_wire`` emits (minus ``type``),
  so nothing survives encode just to be dropped on decode.

Nested wire structs without ``MSG_TYPE`` (``LogEntrySummary``,
``InstanceID``) are deliberately unregistered -- they never ride
top-level -- and get only the field-coverage checks.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import textwrap
from typing import Iterator, List, Set

from repro.analysis.checkers.base import (
    Checker,
    Finding,
    RuleSpec,
    register_checker,
)

#: Packages/modules whose dataclasses form the wire schema.  Packages
#: are walked recursively; plain modules are imported as-is.  Modules
#: of registered classes are always included, so a protocol package
#: that registers messages of its own is covered automatically.
WIRE_MODULE_ROOTS = (
    "repro.messages",
    "repro.types",
    "repro.statemachine.base",
    "repro.statemachine.checkpoint",
    "repro.crypto.signatures",
)


def _iter_wire_modules() -> Iterator[object]:
    from repro.messages.base import MESSAGE_REGISTRY

    seen: Set[str] = set()
    names: List[str] = list(WIRE_MODULE_ROOTS)
    names.extend(cls.__module__ for cls in MESSAGE_REGISTRY.values())
    for name in names:
        if name in seen:
            continue
        seen.add(name)
        module = importlib.import_module(name)
        yield module
        path = getattr(module, "__path__", None)
        if path:  # package: walk submodules
            for info in pkgutil.iter_modules(path):
                sub = f"{name}.{info.name}"
                if sub not in seen:
                    seen.add(sub)
                    yield importlib.import_module(sub)


def _self_attrs(fn) -> Set[str]:
    """Attribute names read off ``self`` in ``fn``'s body."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def _emitted_keys(fn) -> Set[str]:
    """String keys of dict literals in ``fn`` (the wire form)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    keys: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and \
                        isinstance(key.value, str):
                    keys.add(key.value)
    return keys


def _consumed_keys(fn) -> Set[str]:
    """Keys read from the ``wire`` argument in ``from_wire``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    keys: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "wire" and \
                isinstance(node.slice, ast.Constant) and \
                isinstance(node.slice.value, str):
            keys.add(node.slice.value)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "get" and \
                isinstance(node.func.value, ast.Name) and \
                node.func.value.id == "wire" and \
                node.args and isinstance(node.args[0], ast.Constant):
            keys.add(node.args[0].value)
    return keys


def _location(cls, repo_root: str) -> tuple:
    """(relpath, line) of ``cls`` for finding anchors."""
    import os

    try:
        path = inspect.getsourcefile(cls) or "<unknown>"
        line = inspect.getsourcelines(cls)[1]
    except (OSError, TypeError):
        return f"<{cls.__module__}>", 1
    try:
        path = os.path.relpath(path, repo_root)
    except ValueError:  # different drive on windows
        pass
    return path.replace(os.sep, "/"), line


def check_class(cls, repo_root: str = ".") -> List[Finding]:
    """Parity findings for one wire dataclass (test entry point)."""
    from repro.messages.base import MESSAGE_REGISTRY

    findings: List[Finding] = []
    path, line = _location(cls, repo_root)

    def finding(message: str) -> Finding:
        return Finding(rule="wire-parity", path=path, line=line,
                       col=0, message=message)

    to_wire = cls.__dict__.get("to_wire")
    from_wire = getattr(cls, "from_wire", None)
    if to_wire is None:
        return findings  # inherits its encoding; parity checked there
    if from_wire is None:
        findings.append(finding(
            f"{cls.__name__} defines to_wire but no from_wire"))
        return findings

    msg_type = getattr(cls, "MSG_TYPE", None)
    if msg_type is not None:
        registered = MESSAGE_REGISTRY.get(msg_type)
        if registered is None:
            findings.append(finding(
                f"{cls.__name__} has MSG_TYPE {msg_type!r} but is "
                f"not in the decode table (missing "
                f"@register_message?)"))
        elif registered is not cls:
            findings.append(finding(
                f"{cls.__name__}'s MSG_TYPE {msg_type!r} resolves to "
                f"{registered.__name__} in the decode table"))

    fields = [f.name for f in dataclasses.fields(cls)]
    referenced = _self_attrs(to_wire)
    missing = [f for f in fields if f not in referenced]
    if missing:
        findings.append(finding(
            f"{cls.__name__}.to_wire does not serialize field(s) "
            f"{', '.join(missing)}: the TCP path would silently "
            f"drop them"))

    emitted = _emitted_keys(to_wire) - {"type"}
    consumed = _consumed_keys(inspect.unwrap(
        from_wire.__func__ if hasattr(from_wire, "__func__")
        else from_wire))
    dropped = sorted(emitted - consumed)
    if dropped:
        findings.append(finding(
            f"{cls.__name__}.from_wire never reads wire key(s) "
            f"{', '.join(dropped)} that to_wire emits"))
    return findings


@register_checker
class WireSchemaChecker(Checker):
    name = "wire-schema"
    RULES = (
        RuleSpec("wire-parity",
                 "frozen message dataclass whose to_wire/from_wire "
                 "(derived by repro.wire or hand-written) or "
                 "decode-table entry disagrees with its fields",
                 "lazy wire embedding in PR 6"),
    )

    def check_project(self, root: str) -> Iterator[Finding]:
        seen: Set[type] = set()
        for module in _iter_wire_modules():
            for value in vars(module).values():
                if not (inspect.isclass(value)
                        and dataclasses.is_dataclass(value)
                        and value.__module__ == module.__name__):
                    continue
                if value in seen:
                    continue
                seen.add(value)
                yield from check_class(value, repo_root=root)
