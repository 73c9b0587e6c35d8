"""JSON/TOML (de)serialization for scenarios and sweeps.

A spec document is a mapping with exactly one top-level table:
``{"scenario": {...}}`` or ``{"sweep": {...}}``.  The scenario table
mirrors :class:`~repro.scenario.spec.Scenario` field-for-field (nested
``workload`` table, ``phases``/``faults`` arrays of tables, fault
``type`` naming the event class); the sweep table is
``{"base": "preset-name" | {scenario table}, "grid": {...},
"zip": {...}}`` mirroring :class:`~repro.sweep.spec.SweepSpec`.

Design constraints:

- **Round-trippable**: ``loads_spec(dumps_spec(x, fmt), fmt)`` equals
  ``x`` by dataclass equality for every serializable scenario -- in
  particular every registered preset -- in both formats.
- **Errors name the offending key**: an unknown or mistyped key raises
  :class:`~repro.errors.ConfigurationError` mentioning it, so a typo'd
  hand-written spec fails with a usable message, not a stack trace.
- **No third-party dependencies**: TOML is parsed with the stdlib
  ``tomllib`` (Python 3.11+; older interpreters get a clear error for
  TOML input, JSON always works) and emitted by the minimal writer
  below, which covers exactly the shapes these documents use.

Example (``python -m repro run --spec exp.toml``)::

    [scenario]
    name = "my-crash-run"
    protocol = "ezbft"
    seed = 7

    [scenario.workload]
    mode = "closed"
    requests_per_client = 12

    [[scenario.faults]]
    type = "CrashReplica"
    at_ms = 300.0
    replica = "r1"
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.scenario.faults import FAULT_TYPES, FaultEvent, Partition
from repro.scenario.spec import Phase, Scenario, WorkloadSpec

__all__ = [
    "FAULT_TYPES",
    "SPEC_FORMATS",
    "field_types",
    "fault_to_dict",
    "fault_from_dict",
    "scenario_to_dict",
    "scenario_from_dict",
    "sweep_to_dict",
    "sweep_from_dict",
    "spec_to_dict",
    "dumps_spec",
    "loads_spec",
    "load_spec",
    "save_spec",
]

SPEC_FORMATS = ("json", "toml")


def _type_name(value: Any) -> str:
    return type(value).__name__


def _expect(value: Any, types: Tuple[type, ...], key: str) -> Any:
    # bool is an int subclass; a bare isinstance check would quietly
    # accept `seed = true`.
    if (isinstance(value, bool) and bool not in types) or \
            not isinstance(value, types):
        raise ConfigurationError(
            f"spec key {key!r} must be "
            f"{'/'.join(t.__name__ for t in types)}, "
            f"got {_type_name(value)}")
    return value


def _str_tuple(value: Any, key: str) -> Tuple[str, ...]:
    _expect(value, (list, tuple), key)
    return tuple(_expect(item, (str,), f"{key}[{i}]")
                 for i, item in enumerate(value))


# ----------------------------------------------------------------------
# Spec dataclass <-> dict: one field walker
# ----------------------------------------------------------------------
#: Document types accepted for a scalar annotation.
_SCALAR_TYPES: Dict[Any, Tuple[type, ...]] = {
    int: (int,), float: (int, float), str: (str,), bool: (bool,)}


def _document_types(hint: Any) -> Optional[Tuple[type, ...]]:
    """What a document may hold for a field annotated ``hint``, or
    ``None`` for annotations only a live Python object satisfies."""
    if hint in _SCALAR_TYPES:
        return _SCALAR_TYPES[hint]
    args = typing.get_args(hint)
    if typing.get_origin(hint) is Union:
        present = [a for a in args if a is not type(None)]
        if len(present) == 1:  # Optional[X] reads as X
            return _document_types(present[0])
    elif args == (str, Ellipsis):  # Tuple[str, ...]
        return (list, tuple)
    return None


@functools.lru_cache(maxsize=None)
def field_types(cls: type) -> Mapping[str, Tuple[type, ...]]:
    """Field name -> accepted document types for every field of spec
    dataclass ``cls`` that a document can carry, read off the
    dataclass itself.  Fields holding live Python objects (a state
    machine factory, a CPU model) are absent.  The spec loader and
    sweep-axis validation share this, so they cannot disagree."""
    hints = typing.get_type_hints(cls)
    converters = _CONVERTERS.get(cls, {})
    types: Dict[str, Tuple[type, ...]] = {}
    for f in dataclasses.fields(cls):
        found = converters[f.name].types if f.name in converters \
            else _document_types(hints[f.name])
        if found is not None:
            types[f.name] = found
    return MappingProxyType(types)  # cached: callers share it


def _check_keys(data: Any, known: Any, key: str, owner: str = "") -> None:
    for name in data:
        if name not in known:
            raise ConfigurationError(
                f"unknown key {name!r} in {key} "
                f"({owner}accepts {tuple(sorted(known))})")


def _from_dict(cls: type, data: Any, key: str) -> Any:
    """Build spec dataclass ``cls`` from its dict form: unknown keys,
    mistyped values and missing required keys each raise naming the
    key."""
    _expect(data, (dict,), key)
    types = field_types(cls)
    converters = _CONVERTERS.get(cls, {})
    _check_keys(data, types, key, f"{cls.__name__} ")
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        qualified = f"{key}.{name}"
        _expect(value, types[name], qualified)
        if name in converters:
            value = converters[name].load(value, qualified)
        elif types[name] == (list, tuple):
            value = _str_tuple(value, qualified)
        kwargs[name] = value
    for f in dataclasses.fields(cls):
        if f.name not in kwargs and f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise ConfigurationError(
                f"spec table {key!r} is missing the required "
                f"{f.name!r} key")
    return cls(**kwargs)


def _to_dict(obj: Any) -> Dict[str, Any]:
    """The dict form of a spec dataclass instance.

    Raises :class:`ConfigurationError` if a field a document cannot
    carry (a state machine, interference, CPU model, network
    conditions) is off its default.
    """
    types = field_types(type(obj))
    converters = _CONVERTERS.get(type(obj), {})
    data: Dict[str, Any] = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.name not in types:
            if value is not f.default:
                raise ConfigurationError(
                    f"cannot serialize spec key {f.name!r}: live "
                    f"Python objects are not expressible in a spec "
                    f"document (only the default is)")
            continue
        # Absent means default: TOML has no null, and flags and
        # arrays of tables are only written when set.
        if value is None or (value == f.default and
                             (value is False or value == ())):
            continue
        if f.name in converters:
            value = converters[f.name].dump(value)
        elif isinstance(value, tuple):
            value = list(value)
        data[f.name] = value
    return data


def fault_to_dict(event: FaultEvent) -> Dict[str, Any]:
    """The dict form of one fault event (``type`` names its class);
    spec documents and the signed ``/control`` channel share it."""
    name = type(event).__name__
    if name not in FAULT_TYPES:
        raise ConfigurationError(
            f"cannot serialize custom fault event type {name!r}")
    return {"type": name, **_to_dict(event)}


def fault_from_dict(data: Any, key: str) -> FaultEvent:
    """Inverse of :func:`fault_to_dict`; ``key`` prefixes errors."""
    _expect(data, (dict,), key)
    data = dict(data)
    type_name = data.pop("type", None)
    if type_name is None:
        raise ConfigurationError(
            f"spec key {key!r} is missing the fault 'type' key")
    cls = FAULT_TYPES.get(type_name)
    if cls is None:
        raise ConfigurationError(
            f"spec key {key!r} names unknown fault type {type_name!r}; "
            f"choose from {tuple(FAULT_TYPES)}")
    return _from_dict(cls, data, key)


# ----------------------------------------------------------------------
# Converters for the non-scalar fields
# ----------------------------------------------------------------------
class _Converter(NamedTuple):
    """How one non-scalar field crosses the document boundary."""

    types: Tuple[type, ...]
    load: Callable[[Any, str], Any]  # (document value, key) -> field
    dump: Callable[[Any], Any]       # field -> document value


def _tables(load: Callable[[Any, str], Any],
            dump: Callable[[Any], Dict[str, Any]]) -> _Converter:
    """Converter for a tuple-of-dataclasses field (array of tables)."""
    return _Converter(
        (list, tuple),
        lambda items, key: tuple(load(item, f"{key}[{i}]")
                                 for i, item in enumerate(items)),
        lambda items: [dump(item) for item in items])


def _sides_from_doc(value: Any, key: str) -> Tuple[Tuple[str, ...], ...]:
    if len(value) != 2:
        raise ConfigurationError(
            f"spec key {key} must have exactly 2 entries, "
            f"got {len(value)}")
    return tuple(_str_tuple(side, f"{key}[{i}]")
                 for i, side in enumerate(value))


def _latency_name(latency: Any) -> str:
    if isinstance(latency, str):
        return latency
    from repro.scenario.spec import NAMED_MATRICES
    for name, matrix in NAMED_MATRICES.items():
        if matrix is latency:
            return name
    raise ConfigurationError(
        "cannot serialize scenario key 'latency': pass a named "
        "matrix (e.g. 'experiment1'), not a LatencyMatrix object")


def _netem_to_doc(netem: Any) -> Any:
    if isinstance(netem, str):
        return netem
    data: Dict[str, Any] = {"default": _to_dict(netem.default)}
    if netem.rules:
        data["rules"] = [
            {"src": rule.src, "dst": rule.dst, **_to_dict(rule.model)}
            for rule in netem.rules]
    return data


def _netem_from_doc(data: Any, key: str) -> Any:
    from repro.netem import LinkModel, LinkRule, NetemProfile
    if isinstance(data, str):
        return data
    _check_keys(data, ("default", "rules"), key)
    default = LinkModel()
    if "default" in data:
        default = _from_dict(LinkModel, data["default"],
                             f"{key}.default")
    rules = []
    if "rules" in data:
        _expect(data["rules"], (list, tuple), f"{key}.rules")
        for i, entry in enumerate(data["rules"]):
            rule_key = f"{key}.rules[{i}]"
            _expect(entry, (dict,), rule_key)
            entry = dict(entry)
            src = _expect(entry.pop("src", "*"), (str,),
                          f"{rule_key}.src")
            dst = _expect(entry.pop("dst", "*"), (str,),
                          f"{rule_key}.dst")
            rules.append(LinkRule(
                src=src, dst=dst,
                model=_from_dict(LinkModel, entry, rule_key)))
    return NetemProfile(default=default, rules=tuple(rules))


def _hosts_from_doc(data: Any, key: str) -> Dict[str, str]:
    return {
        _expect(rid, (str,), f"{key} key"):
            _expect(value, (str,), f"{key}.{rid}")
        for rid, value in data.items()
    }


_HOSTS = _Converter((dict,), _hosts_from_doc, dict)

_CONVERTERS: Dict[type, Dict[str, _Converter]] = {
    Scenario: {
        "latency": _Converter((str,), lambda name, key: name,
                              _latency_name),
        "workload": _Converter(
            (dict,), functools.partial(_from_dict, WorkloadSpec),
            _to_dict),
        "phases": _tables(functools.partial(_from_dict, Phase),
                          _to_dict),
        "faults": _tables(fault_from_dict, fault_to_dict),
        "netem": _Converter((dict, str), _netem_from_doc, _netem_to_doc),
        "hosts": _HOSTS,
        "obs": _HOSTS,
    },
    Partition: {
        "sides": _Converter((list, tuple), _sides_from_doc,
                            lambda sides: [list(s) for s in sides]),
    },
}


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """The serializable dict form of ``scenario``.

    Raises :class:`ConfigurationError` if the scenario holds live
    Python objects a document cannot carry: a non-default state
    machine, interference, CPU model, network conditions, or an
    anonymous (unnamed) latency matrix.
    """
    return _to_dict(scenario)


def scenario_from_dict(data: Any, key: str = "scenario") -> Scenario:
    """Build (and validate) a :class:`Scenario` from its dict form."""
    scenario = _from_dict(Scenario, data, key)
    scenario.validate()
    return scenario


# ----------------------------------------------------------------------
# Sweep <-> dict
# ----------------------------------------------------------------------
def sweep_to_dict(spec: Any) -> Dict[str, Any]:
    """The serializable dict form of a
    :class:`~repro.sweep.spec.SweepSpec` (string preset bases stay
    strings)."""
    base = spec.base
    data: Dict[str, Any] = {}
    if spec.name:
        data["name"] = spec.name
    data["base"] = base if isinstance(base, str) \
        else scenario_to_dict(base)
    for section, axes in (("grid", spec.grid), ("zip", spec.zipped)):
        if not axes:
            continue
        for key, values in axes.items():
            for value in values:
                if value is not None and \
                        not isinstance(value, (str, int, float, bool)):
                    raise ConfigurationError(
                        f"sweep axis {key!r} holds live Python "
                        f"objects ({_type_name(value)}); only scalar "
                        f"axes are expressible in a spec document")
        data[section] = {key: list(values)
                         for key, values in axes.items()}
    return data


def _axis_values(value: Any, key: str) -> Tuple[Any, ...]:
    _expect(value, (list, tuple), key)
    if not value:
        raise ConfigurationError(f"spec key {key!r} must be non-empty")
    out = []
    for i, item in enumerate(value):
        # None is a legal axis value (e.g. primary_region=None for the
        # leaderless arm of a zipped protocol block); JSON carries it
        # as null.  TOML cannot -- sweep_to_dict rejects it at dump
        # time with the axis named.
        if item is not None:
            _expect(item, (str, int, float, bool), f"{key}[{i}]")
        out.append(item)
    return tuple(out)


def sweep_from_dict(data: Any, key: str = "sweep"):
    """Build a :class:`~repro.sweep.spec.SweepSpec` from its dict form
    (validated structurally here, semantically at expansion)."""
    from repro.sweep.spec import SweepSpec

    _expect(data, (dict,), key)
    _check_keys(data, ("name", "base", "grid", "zip"), key)
    if "base" not in data:
        raise ConfigurationError(
            f"spec table {key!r} is missing the required 'base' key "
            f"(a preset name or a scenario table)")
    base = data["base"]
    if isinstance(base, dict):
        base = scenario_from_dict(base, f"{key}.base")
    else:
        _expect(base, (str,), f"{key}.base")
    axes: Dict[str, Dict[str, Tuple[Any, ...]]] = {}
    for section in ("grid", "zip"):
        table = _expect(data.get(section, {}), (dict,),
                        f"{key}.{section}")
        axes[section] = {
            axis: _axis_values(values, f"{key}.{section}.{axis}")
            for axis, values in table.items()}
    name = ""
    if "name" in data:
        name = _expect(data["name"], (str,), f"{key}.name")
    return SweepSpec(base=base, grid=axes["grid"], zipped=axes["zip"],
                     name=name)


# ----------------------------------------------------------------------
# Documents: dumps / loads / files
# ----------------------------------------------------------------------
def spec_to_dict(spec: Union[Scenario, Any]) -> Dict[str, Any]:
    """Wrap a Scenario or SweepSpec in its one-key document form."""
    from repro.sweep.spec import SweepSpec

    if isinstance(spec, Scenario):
        return {"scenario": scenario_to_dict(spec)}
    if isinstance(spec, SweepSpec):
        return {"sweep": sweep_to_dict(spec)}
    raise ConfigurationError(
        f"cannot serialize {_type_name(spec)}: expected Scenario or "
        f"SweepSpec")


def dumps_spec(spec: Union[Scenario, Any], fmt: str = "json") -> str:
    """Serialize a Scenario or SweepSpec document to ``fmt``."""
    document = spec_to_dict(spec)
    _reject_non_finite(document, "<document root>")
    if fmt == "json":
        return json.dumps(document, indent=2, allow_nan=False) + "\n"
    if fmt == "toml":
        _reject_none_axes(document)
        return _toml_dumps(document)
    raise ConfigurationError(
        f"unknown spec format {fmt!r}; choose from {SPEC_FORMATS}")


def _reject_non_finite(value: Any, key: str) -> None:
    """Strict discipline for spec documents, both directions: no
    NaN/inf anywhere (lenient parsers accept them, strict JSON cannot
    express them, and a NaN timeout defeats every validate()
    comparison), failing with the offending key named."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(
            f"spec key {key!r} is non-finite ({value!r}); scenario "
            f"specs must use finite numbers")
    if isinstance(value, dict):
        for sub_key, sub_value in value.items():
            _reject_non_finite(sub_value, f"{key}.{sub_key}"
                               if key != "<document root>"
                               else str(sub_key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{key}[{i}]")


def _reject_none_axes(document: Dict[str, Any]) -> None:
    """TOML has no null: fail at dump time naming the axis, not deep
    inside the writer."""
    sweep_table = document.get("sweep", {})
    for section in ("grid", "zip"):
        for axis, values in sweep_table.get(section, {}).items():
            if any(v is None for v in values):
                raise ConfigurationError(
                    f"sweep axis {axis!r} contains null, which TOML "
                    f"cannot express; write this sweep as JSON")


def _parse_document(data: Any) -> Union[Scenario, Any]:
    _expect(data, (dict,), "<document root>")
    keys = set(data)
    if keys == {"scenario"}:
        return scenario_from_dict(data["scenario"])
    if keys == {"sweep"}:
        return sweep_from_dict(data["sweep"])
    raise ConfigurationError(
        f"a spec document needs exactly one top-level table, "
        f"'scenario' or 'sweep'; got {tuple(sorted(keys)) or '()'}")


def loads_spec(text: str, fmt: str = "json") -> Union[Scenario, Any]:
    """Parse a spec document from ``text`` (``fmt``: json or toml)."""
    if fmt == "json":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"invalid JSON spec: {exc}") \
                from None
    elif fmt == "toml":
        try:
            import tomllib
        except ImportError:
            raise ConfigurationError(
                "TOML specs need Python 3.11+ (stdlib tomllib); "
                "use JSON on this interpreter") from None
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(f"invalid TOML spec: {exc}") \
                from None
    else:
        raise ConfigurationError(
            f"unknown spec format {fmt!r}; choose from {SPEC_FORMATS}")
    # json.loads accepts NaN/Infinity and tomllib accepts 'nan'/'inf';
    # a NaN timeout would load silently and defeat every comparison in
    # Scenario.validate, so reject here with the key named (mirroring
    # dumps_spec).
    _reject_non_finite(data, "<document root>")
    return _parse_document(data)


def _format_of(path: str) -> str:
    lowered = path.lower()
    if lowered.endswith(".json"):
        return "json"
    if lowered.endswith(".toml"):
        return "toml"
    raise ConfigurationError(
        f"cannot infer spec format of {path!r}: expected a .json or "
        f".toml extension")


def load_spec(path: str) -> Union[Scenario, Any]:
    """Load a Scenario or SweepSpec from a ``.json``/``.toml`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_spec(text, _format_of(path))


def save_spec(spec: Union[Scenario, Any], path: str) -> None:
    """Write a Scenario or SweepSpec to a ``.json``/``.toml`` file."""
    # Serialize before opening: a failed dump must not truncate an
    # existing spec file.
    text = dumps_spec(spec, _format_of(path))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ----------------------------------------------------------------------
# Minimal TOML writer
# ----------------------------------------------------------------------
def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # Keep floats floats across the round trip ("10" would load as
        # int; equality still holds but the document would shift type).
        return repr(value)
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # TOML basic strings == JSON strings
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
    raise ConfigurationError(
        f"cannot express {_type_name(value)} in TOML")


def _toml_table(name: str, table: Dict[str, Any],
                lines: List[str]) -> None:
    scalars = {k: v for k, v in table.items()
               if not isinstance(v, dict) and not
               (isinstance(v, (list, tuple)) and v and
                isinstance(v[0], dict))}
    subtables = {k: v for k, v in table.items() if isinstance(v, dict)}
    table_arrays = {k: v for k, v in table.items()
                    if isinstance(v, (list, tuple)) and v and
                    isinstance(v[0], dict)}
    if name:
        lines.append(f"[{name}]")
    for key, value in scalars.items():
        lines.append(f"{key} = {_toml_scalar(value)}")
    for key, value in subtables.items():
        lines.append("")
        _toml_table(f"{name}.{key}" if name else key, value, lines)
    for key, value in table_arrays.items():
        for item in value:
            lines.append("")
            lines.append(f"[[{name}.{key}]]" if name else f"[[{key}]]")
            for sub_key, sub_value in item.items():
                lines.append(f"{sub_key} = {_toml_scalar(sub_value)}")


def _toml_dumps(document: Dict[str, Any]) -> str:
    lines: List[str] = []
    for key, value in document.items():
        if not isinstance(value, dict):
            raise ConfigurationError(
                f"top-level spec key {key!r} must be a table")
        _toml_table(key, value, lines)
    return "\n".join(lines) + "\n"
