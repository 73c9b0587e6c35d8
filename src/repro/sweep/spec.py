"""SweepSpec: a base scenario plus a parameter grid.

The paper's figures are parameter sweeps -- client counts (Fig. 6),
contention levels (Fig. 4), batch sizes, seeds, protocols (every
comparison figure).  A :class:`SweepSpec` names one base scenario (a
:class:`~repro.scenario.spec.Scenario` or a preset name) and the axes
to vary:

- ``grid`` axes combine **cartesian**: ``{"clients": (1, 10),
  "seed": (1, 2)}`` expands to four cells.
- ``zipped`` axes vary **together** (all the same length), for series
  whose knobs travel in lockstep -- e.g. Figure 6 sweeps
  ``protocol=("zyzzyva", "ezbft")`` zipped with
  ``contention=(0.0, 0.5)`` and each protocol's own timeout.  The
  zipped block acts as one extra cartesian axis of row-tuples.

Axis names resolve to scenario fields (``seed``, ``protocol``,
``primary_region``, ``slow_path_timeout``, ...), workload fields
(``contention``, ``batch_size``, ...; bare names work, as does an
explicit ``workload.`` prefix), or the short aliases in
:data:`PARAM_ALIASES` (``clients``, ``requests``, ``rate``).  Unknown
names raise :class:`~repro.errors.ConfigurationError` naming the axis.

Expansion (:meth:`SweepSpec.cells`) is deterministic: grid axes vary
with the *last* axis fastest (``itertools.product`` order), the zipped
block last of all, and each cell's scenario is validated eagerly so a
bad grid fails before anything runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.scenario.loader import field_types
from repro.scenario.spec import Scenario, WorkloadSpec

#: Short axis names for the knobs the paper sweeps most.
PARAM_ALIASES: Dict[str, str] = {
    "clients": "workload.clients_per_region",
    "requests": "workload.requests_per_client",
    "rate": "workload.rate_per_client",
    "contention": "workload.contention",
    "batch_size": "workload.batch_size",
    "batch_timeout_ms": "workload.batch_timeout_ms",
    "value_size": "workload.value_size",
    "warmup": "workload.warmup_requests",
}

_WORKLOAD_FIELDS = set(field_types(WorkloadSpec))
#: Scenario fields an axis may set: the ones a spec document can
#: carry, minus the nested tables.
_SCENARIO_FIELDS = set(field_types(Scenario)) - {
    "workload", "phases", "faults"}


def resolve_param(name: str) -> str:
    """Resolve an axis name to ``field`` or ``workload.field``; raises
    naming the axis and the known choices."""
    target = PARAM_ALIASES.get(name, name)
    if target.startswith("workload."):
        field_name = target[len("workload."):]
        if field_name in _WORKLOAD_FIELDS:
            return f"workload.{field_name}"
        raise ConfigurationError(
            f"unknown sweep axis {name!r}: no WorkloadSpec field "
            f"{field_name!r} (have {tuple(sorted(_WORKLOAD_FIELDS))})")
    if target in _WORKLOAD_FIELDS:
        return f"workload.{target}"
    if target in _SCENARIO_FIELDS:
        return target
    choices = tuple(sorted(set(PARAM_ALIASES) | _SCENARIO_FIELDS
                           | _WORKLOAD_FIELDS))
    raise ConfigurationError(
        f"unknown sweep axis {name!r}; choose from {choices}")


@dataclass(frozen=True)
class SweepCell:
    """One point of the expanded grid: its axis values and the fully
    overridden, validated scenario."""

    index: int
    params: Tuple[Tuple[str, Any], ...]
    scenario: Scenario

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def label(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.params)


def _as_values(values: Any, axis: str) -> Tuple[Any, ...]:
    """An axis accepts a sequence or a single scalar (pinned axis)."""
    if isinstance(values, (str, bytes)) or not hasattr(values,
                                                       "__iter__"):
        return (values,)
    out = tuple(values)
    if not out:
        raise ConfigurationError(
            f"sweep axis {axis!r} must have at least one value")
    return out


@dataclass(eq=True)
class SweepSpec:
    """A base scenario (or preset name) plus cartesian ``grid`` axes
    and lockstep ``zipped`` axes.  See the module docstring."""

    base: Union[str, Scenario]
    grid: Mapping[str, Any] = field(default_factory=dict)
    zipped: Mapping[str, Any] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        # Normalize axis values to tuples at construction so equality
        # is representation-independent: a spec built with list
        # literals equals the same spec loaded back from JSON/TOML
        # (the loader produces tuples).
        self.grid = {axis: _as_values(values, axis)
                     for axis, values in self.grid.items()}
        self.zipped = {axis: _as_values(values, axis)
                       for axis, values in self.zipped.items()}

    # ------------------------------------------------------------------
    def base_scenario(self) -> Scenario:
        if isinstance(self.base, Scenario):
            return self.base
        from repro.scenario.presets import preset
        return preset(self.base)

    @property
    def sweep_name(self) -> str:
        if self.name:
            return self.name
        base = self.base if isinstance(self.base, str) \
            else self.base.name
        return f"{base}-sweep"

    # ------------------------------------------------------------------
    def axes(self) -> Dict[str, Tuple[Any, ...]]:
        """Axis name -> declared values, grid first then zipped, in
        declaration order.  Validates names, shapes, and overlaps."""
        grid = {axis: _as_values(values, axis)
                for axis, values in self.grid.items()}
        zipped = {axis: _as_values(values, axis)
                  for axis, values in self.zipped.items()}
        overlap = set(grid) & set(zipped)
        if overlap:
            raise ConfigurationError(
                f"sweep axes appear in both grid and zip: "
                f"{tuple(sorted(overlap))}")
        lengths = {axis: len(values) for axis, values in zipped.items()}
        if len(set(lengths.values())) > 1:
            raise ConfigurationError(
                f"zipped sweep axes must all have the same length, "
                f"got {lengths}")
        # Distinct axis names may alias the same field ('clients' vs
        # 'workload.clients_per_region'): one would silently overwrite
        # the other while both appeared in the exported params.
        targets: dict = {}
        for axis in itertools.chain(grid, zipped):
            target = resolve_param(axis)
            if target in targets:
                raise ConfigurationError(
                    f"sweep axes {targets[target]!r} and {axis!r} "
                    f"both set {target!r}; keep one")
            targets[target] = axis
        return {**grid, **zipped}

    def size(self) -> int:
        axes = self.axes()
        total = 1
        for axis, values in axes.items():
            if axis not in self.zipped:
                total *= len(values)
        if self.zipped:
            # The zipped block is one extra axis of row-tuples.
            first = next(iter(self.zipped))
            total *= len(axes[first])
        return total

    # ------------------------------------------------------------------
    def cells(self) -> Iterator[SweepCell]:
        """Expand the grid into validated, named scenario cells."""
        base = self.base_scenario()
        axes = self.axes()
        grid_axes = [axis for axis in axes if axis in self.grid]
        zip_axes = [axis for axis in axes if axis in self.zipped]
        grid_values = [axes[axis] for axis in grid_axes]
        if zip_axes:
            zip_rows = list(zip(*(axes[axis] for axis in zip_axes)))
        else:
            zip_rows = [()]

        index = 0
        for combo in itertools.product(*grid_values):
            for row in zip_rows:
                params = tuple(zip(grid_axes, combo)) + \
                    tuple(zip(zip_axes, row))
                scenario = apply_params(base, dict(params))
                label = ",".join(f"{k}={v}" for k, v in params)
                scenario = replace(
                    scenario,
                    name=f"{base.name}[{label}]" if label
                    else base.name)
                scenario.validate()
                yield SweepCell(index=index, params=params,
                                scenario=scenario)
                index += 1


def _check_axis_type(axis: str, target: str, value: Any) -> None:
    """Eager per-field type check against the spec loader's
    :func:`field_types`, so a bad grid fails with the axis named
    instead of a mid-run TypeError (e.g. ``clients=1.5`` into an int
    field)."""
    if value is None:
        return  # pins an optional field (e.g. primary_region=None)
    if target == "netem":
        # Python-built sweeps may grid over whole netem profiles;
        # spec-file sweeps (scalar axes only) use preset names, so
        # ``netem=lossy-wan,clean`` works from --grid too.  Resolve
        # names eagerly: a typo fails at expansion with the axis
        # named, not mid-run in cell 37.
        from repro.netem import NetemProfile, netem_preset
        if isinstance(value, NetemProfile):
            return
        if isinstance(value, str):
            netem_preset(value, key=f"sweep axis {axis!r}")
            return
        raise ConfigurationError(
            f"sweep axis {axis!r} value {value!r} must be a "
            f"NetemProfile, a preset name, or None")
    if target.startswith("workload."):
        expected = field_types(WorkloadSpec)[target[len("workload."):]]
    else:
        expected = field_types(Scenario)[target]
    bad_bool = isinstance(value, bool) and bool not in expected
    if bad_bool or not isinstance(value, expected):
        raise ConfigurationError(
            f"sweep axis {axis!r} value {value!r} must be "
            f"{'/'.join(t.__name__ for t in expected)}, "
            f"got {type(value).__name__}")


def apply_params(base: Scenario, params: Mapping[str, Any]) -> Scenario:
    """A copy of ``base`` with each axis value applied to its resolved
    scenario/workload field."""
    scenario_overrides: Dict[str, Any] = {}
    workload_overrides: Dict[str, Any] = {}
    for axis, value in params.items():
        target = resolve_param(axis)
        _check_axis_type(axis, target, value)
        if target.startswith("workload."):
            workload_overrides[target[len("workload."):]] = value
        else:
            scenario_overrides[target] = value
    workload = replace(base.workload, **workload_overrides) \
        if workload_overrides else base.workload
    return replace(base, workload=workload, **scenario_overrides)


def sweep(base: Union[str, Scenario],
          zip_: Optional[Mapping[str, Any]] = None,
          name: str = "",
          **grid: Any) -> SweepSpec:
    """Keyword-friendly constructor:
    ``sweep("smoke", clients=(2, 4), seed=range(3))``."""
    return SweepSpec(base=base, grid=dict(grid),
                     zipped=dict(zip_ or {}), name=name)
