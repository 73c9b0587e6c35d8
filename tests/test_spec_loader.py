"""JSON/TOML spec loader: preset round-trips, every fault type, and
key-naming validation errors."""

import dataclasses
import json
import re
import sys

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    BandwidthCap,
    ClientChurn,
    CrashReplica,
    Heal,
    Jitter,
    KillProcess,
    LatencyShift,
    PacketLoss,
    Partition,
    Phase,
    RecoverReplica,
    Reorder,
    RestartProcess,
    Scenario,
    SwapByzantine,
    WorkloadSpec,
    available_presets,
    dumps_spec,
    load_spec,
    loads_spec,
    preset,
    save_spec,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.scenario.loader import FAULT_TYPES, sweep_from_dict
from repro.sweep import SweepSpec

HAS_TOMLLIB = sys.version_info >= (3, 11)
FORMATS = ("json", "toml") if HAS_TOMLLIB else ("json",)


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", available_presets())
@pytest.mark.parametrize("fmt", FORMATS)
def test_every_preset_round_trips(name, fmt):
    scenario = preset(name)
    text = dumps_spec(scenario, fmt)
    assert loads_spec(text, fmt) == scenario


#: One instance of every fault type (ensures the registry covers the
#: whole faults module and each field round-trips).
ALL_FAULTS = (
    CrashReplica(at_ms=10.0, replica="r1"),
    RecoverReplica(at_ms=20.0, replica="r1"),
    Partition(at_ms=30.0, sides=(("r3",), ("r0", "r1", "r2"))),
    Heal(at_ms=40.0),
    SwapByzantine(at_ms=50.0, replica="r2", behavior="equivocate"),
    LatencyShift(at_ms=60.0, factor=1.5),
    ClientChurn(at_ms=70.0, add=2, stop=1, region="tokyo"),
    PacketLoss(at_ms=80.0, probability=0.05, src="r0", dst="*"),
    Jitter(at_ms=85.0, jitter_ms=3.0),
    BandwidthCap(at_ms=90.0, rate_kbps=256.0, burst_bytes=8192,
                 src="*", dst="r1"),
    Reorder(at_ms=95.0, probability=0.1, extra_ms=2.5),
    KillProcess(at_ms=97.0, replica="r3"),
    RestartProcess(at_ms=99.0, replica="r3"),
)


def test_fault_registry_covers_every_fault_type():
    from repro.scenario import faults as fault_mod
    declared = {name for name in fault_mod.__all__
                if name.endswith(("Replica", "Partition", "Heal",
                                  "Byzantine", "Shift", "Churn",
                                  "Loss", "Jitter", "Cap",
                                  "Reorder", "Process"))}
    assert set(FAULT_TYPES) == declared
    assert {type(e).__name__ for e in ALL_FAULTS} == set(FAULT_TYPES)


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_fault_type_round_trips(fmt):
    scenario = Scenario(
        name="fault-zoo",
        workload=WorkloadSpec(mode="open", rate_per_client=10.0),
        duration_ms=100.0,
        faults=ALL_FAULTS,
    )
    text = dumps_spec(scenario, fmt)
    loaded = loads_spec(text, fmt)
    assert loaded == scenario
    assert loaded.faults == ALL_FAULTS


@pytest.mark.parametrize("fmt", FORMATS)
def test_sweep_spec_round_trips(fmt):
    spec = SweepSpec(
        base="smoke",
        grid={"clients": (2, 4), "seed": (1, 2, 3)},
        zipped={"protocol": ("ezbft", "pbft"),
                "contention": (0.5, 0.0)},
        name="demo")
    assert loads_spec(dumps_spec(spec, fmt), fmt) == spec


@pytest.mark.parametrize("fmt", FORMATS)
def test_sweep_with_inline_scenario_base_round_trips(fmt):
    spec = SweepSpec(base=preset("figure4"), grid={"seed": (1, 2)})
    assert loads_spec(dumps_spec(spec, fmt), fmt) == spec


def test_sweep_with_none_axis_round_trips_in_json():
    # The canonical fig6 shape: a zipped protocol block whose
    # leaderless arm pins primary_region to None.
    spec = SweepSpec(
        base="smoke",
        grid={"clients": (1, 10)},
        zipped={"protocol": ("zyzzyva", "ezbft"),
                "primary_region": ("virginia", None)})
    assert loads_spec(dumps_spec(spec, "json"), "json") == spec


def test_sweep_built_with_list_axes_round_trips_equal():
    # The loader yields tuple axis values; a spec built with the
    # natural list literals must still compare equal after the trip.
    spec = SweepSpec(base="smoke", grid={"clients": [1, 2]},
                     zipped={"protocol": ["ezbft", "pbft"]})
    assert loads_spec(dumps_spec(spec, "json"), "json") == spec


def test_non_finite_float_rejected_naming_key():
    import dataclasses
    scenario = dataclasses.replace(preset("smoke"),
                                   retry_timeout=float("inf"))
    for fmt in FORMATS:
        with pytest.raises(ConfigurationError,
                           match="retry_timeout"):
            dumps_spec(scenario, fmt)


def test_non_finite_float_rejected_on_load_too():
    # json.loads parses NaN by default; a NaN timeout would defeat
    # every comparison in Scenario.validate and run silently.
    text = '{"scenario": {"name": "x", "slow_path_timeout": NaN}}'
    with pytest.raises(ConfigurationError,
                       match="slow_path_timeout"):
        loads_spec(text, "json")
    if HAS_TOMLLIB:
        with pytest.raises(ConfigurationError,
                           match="slow_path_timeout"):
            loads_spec('[scenario]\nname = "x"\n'
                       'slow_path_timeout = nan\n', "toml")


def test_failed_save_spec_preserves_existing_file(tmp_path):
    path = tmp_path / "keep.json"
    save_spec(preset("smoke"), str(path))
    original = path.read_text()
    bad = SweepSpec(base="smoke",
                    zipped={"primary_region": ("local", None)})
    with pytest.raises(ConfigurationError):
        save_spec(bad, str(tmp_path / "keep.toml"))  # toml rejects None
    # now fail against the existing JSON file via a non-finite field
    import dataclasses
    broken = dataclasses.replace(preset("smoke"),
                                 retry_timeout=float("nan"))
    with pytest.raises(ConfigurationError):
        save_spec(broken, str(path))
    assert path.read_text() == original  # not truncated


def test_sweep_with_none_axis_rejected_in_toml_naming_axis():
    spec = SweepSpec(base="smoke",
                     zipped={"primary_region": ("virginia", None)})
    with pytest.raises(ConfigurationError,
                       match="'primary_region'.*JSON"):
        dumps_spec(spec, "toml")


def test_load_save_spec_files(tmp_path):
    scenario = preset("crash-recovery")
    for suffix in (".json",) + ((".toml",) if HAS_TOMLLIB else ()):
        path = tmp_path / f"spec{suffix}"
        save_spec(scenario, str(path))
        assert load_spec(str(path)) == scenario


def test_load_spec_unknown_extension(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text("{}")
    with pytest.raises(ConfigurationError, match=r"\.json or"):
        load_spec(str(path))


# ----------------------------------------------------------------------
# Validation errors name the offending key
# ----------------------------------------------------------------------
def test_unknown_scenario_key_named():
    with pytest.raises(ConfigurationError, match="'protocl'"):
        scenario_from_dict({"name": "x", "protocl": "ezbft"})


def test_mistyped_scenario_value_named():
    with pytest.raises(ConfigurationError, match="scenario.seed"):
        scenario_from_dict({"name": "x", "seed": "seven"})
    with pytest.raises(ConfigurationError, match="scenario.seed"):
        scenario_from_dict({"name": "x", "seed": True})


def _spec_tables():
    """``(id, cls, document builder, key prefix)`` for every table a
    scenario document nests: ``build(table)`` wraps one table of that
    class in an otherwise valid document."""
    from repro.netem import LinkModel

    def scenario(**tables):
        return {"scenario": {"name": "x", **tables}}

    tables = [
        ("Scenario", Scenario, lambda t: scenario(**t), "scenario"),
        ("WorkloadSpec", WorkloadSpec,
         lambda t: scenario(workload=t), "scenario.workload"),
        ("Phase", Phase,
         lambda t: scenario(phases=[{"name": "p", "duration_ms": 5.0,
                                     **t}]),
         "scenario.phases[0]"),
        ("LinkModel", LinkModel,
         lambda t: scenario(netem={"default": t}),
         "scenario.netem.default"),
    ]
    for name, cls in FAULT_TYPES.items():
        tables.append((
            name, cls,
            lambda t, name=name: scenario(
                faults=[{"type": name, "at_ms": 1.0, **t}]),
            "scenario.faults[0]"))
    return tables


#: Scenario fields that hold live Python objects; a document naming
#: one is told the key is unknown.
LIVE_FIELDS = {"statemachine", "interference", "cpu", "conditions"}

SPEC_FIELDS = [
    pytest.param(cls, f, build, prefix, id=f"{table}.{f.name}")
    for table, cls, build, prefix in _spec_tables()
    for f in dataclasses.fields(cls)
]


def _loads_document(document, fmt):
    from repro.scenario.loader import _toml_dumps
    text = json.dumps(document) if fmt == "json" \
        else _toml_dumps(document)
    return loads_spec(text, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("cls,field,build,prefix", SPEC_FIELDS)
def test_mistyped_value_names_its_key_for_every_field(
        cls, field, build, prefix, fmt):
    # A bool is the one scalar no non-bool field accepts (and both
    # formats can carry); the schemas come off the dataclasses, so
    # the fields are enumerated the same way here.
    bad = "yes" if field.type == "bool" else True
    document = build({field.name: bad})
    if field.name in LIVE_FIELDS:
        expected = f"unknown key '{field.name}'"
    else:
        expected = re.escape(f"'{prefix}.{field.name}' must be")
    with pytest.raises(ConfigurationError, match=expected):
        _loads_document(document, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "build,prefix",
    [pytest.param(build, prefix, id=table)
     for table, _, build, prefix in _spec_tables()])
def test_unknown_key_is_named_in_every_table(build, prefix, fmt):
    with pytest.raises(
            ConfigurationError,
            match=re.escape(f"unknown key 'bogus' in {prefix} ")):
        _loads_document(build({"bogus": 1}), fmt)


@pytest.mark.parametrize("axis,field,bad", [
    ("seed", "scenario.seed", "seven"),
    ("seed", "scenario.seed", True),
    ("retry_timeout", "scenario.retry_timeout", "slow"),
    ("durable", "scenario.durable", 1),
    ("clients", "scenario.workload.clients_per_region", 1.5),
    ("contention", "scenario.workload.contention", "high"),
])
def test_spec_files_and_sweep_axes_reject_the_same_values(
        axis, field, bad):
    # Both surfaces validate against field_types(), so a value one
    # rejects the other rejects too, each naming its own key.
    _, *path = field.split(".")
    table = {path[-1]: bad}
    if len(path) == 2:
        table = {"workload": table}
    with pytest.raises(ConfigurationError, match=re.escape(field)):
        scenario_from_dict({"name": "x", **table})
    with pytest.raises(ConfigurationError,
                       match=f"sweep axis '{axis}'"):
        list(SweepSpec(base="smoke", grid={axis: (bad,)}).cells())


def test_unknown_workload_key_named():
    with pytest.raises(ConfigurationError,
                       match="'contension'"):
        scenario_from_dict(
            {"name": "x", "workload": {"contension": 0.5}})


def test_missing_name_key_named():
    with pytest.raises(ConfigurationError, match="'name'"):
        scenario_from_dict({"protocol": "ezbft"})


def test_unknown_fault_type_named():
    with pytest.raises(ConfigurationError, match="'MeteorStrike'"):
        scenario_from_dict({
            "name": "x",
            "faults": [{"type": "MeteorStrike", "at_ms": 1.0}]})


def test_unknown_fault_field_named():
    with pytest.raises(ConfigurationError, match="'replika'"):
        scenario_from_dict({
            "name": "x",
            "faults": [{"type": "CrashReplica", "at_ms": 1.0,
                        "replika": "r1"}]})


def test_bad_phase_key_named():
    with pytest.raises(ConfigurationError, match="'length_ms'"):
        scenario_from_dict({
            "name": "x",
            "phases": [{"name": "p", "length_ms": 5.0}]})


def test_semantic_validation_still_runs():
    # structural checks pass; Scenario.validate() catches the rest
    with pytest.raises(ConfigurationError, match="contention"):
        scenario_from_dict(
            {"name": "x", "workload": {"contention": 3.0}})


def test_document_needs_exactly_one_table():
    with pytest.raises(ConfigurationError, match="exactly one"):
        loads_spec(json.dumps({"scenario": {"name": "a"},
                               "sweep": {"base": "smoke"}}))
    with pytest.raises(ConfigurationError, match="exactly one"):
        loads_spec("{}")


def test_invalid_json_and_unknown_format():
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        loads_spec("{nope", "json")
    with pytest.raises(ConfigurationError, match="'yaml'"):
        loads_spec("{}", "yaml")


def test_sweep_dict_validation():
    with pytest.raises(ConfigurationError, match="'base'"):
        sweep_from_dict({"grid": {}})
    with pytest.raises(ConfigurationError, match="'gird'"):
        sweep_from_dict({"base": "smoke", "gird": {}})
    with pytest.raises(ConfigurationError, match="sweep.grid.clients"):
        sweep_from_dict({"base": "smoke", "grid": {"clients": []}})


def test_unserializable_scenario_rejected():
    class FakeMachine:
        pass

    with pytest.raises(ConfigurationError, match="statemachine"):
        scenario_to_dict(Scenario(name="x", statemachine=FakeMachine))

    from repro.sim.latency import LatencyMatrix
    anon = LatencyMatrix(name="anon", regions=("a", "b", "c", "d"),
                         pairs={})
    with pytest.raises(ConfigurationError, match="latency"):
        scenario_to_dict(Scenario(
            name="x", replica_regions=("a", "b", "c", "d"),
            latency=anon))


def test_loaded_scenario_is_validated():
    # load_spec output is ready to run: a structurally valid but
    # semantically broken spec fails at load time, naming the problem.
    with pytest.raises(ConfigurationError, match="4 replicas"):
        scenario_from_dict({"name": "x",
                            "replica_regions": ["virginia"]})
