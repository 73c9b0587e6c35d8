"""Unified scenario/experiment API: one declarative entrypoint for
protocols x workloads x fault schedules, over both backends.

- :class:`Scenario` / :class:`WorkloadSpec` / :class:`Phase` describe an
  experiment (:mod:`repro.scenario.spec`).
- Fault events (:class:`CrashReplica`, :class:`Partition`,
  :class:`SwapByzantine`, ...) schedule disruptions on the scenario
  clock (:mod:`repro.scenario.faults`).
- :class:`ScenarioRunner` compiles a scenario onto the deterministic
  simulator or the asyncio TCP transport and returns an
  :class:`ExperimentReport` (:mod:`repro.scenario.runner` /
  :mod:`repro.scenario.report`).
- :func:`preset` serves the ready-made paper scenarios
  (:mod:`repro.scenario.presets`); ``python -m repro`` is the CLI.
- :func:`load_spec` / :func:`dumps_spec` read and write JSON/TOML
  scenario+sweep documents (:mod:`repro.scenario.loader`), so
  experiments run from files without writing Python.
"""

from repro.scenario.faults import (
    BandwidthCap,
    ClientChurn,
    CrashReplica,
    FaultEvent,
    Heal,
    Jitter,
    KillProcess,
    LatencyShift,
    PacketLoss,
    Partition,
    RecoverReplica,
    Reorder,
    RestartProcess,
    SwapByzantine,
)
from repro.scenario.processes import (
    ServeProcess,
    ServeProcessManager,
)
from repro.scenario.loader import (
    FAULT_TYPES,
    dumps_spec,
    load_spec,
    loads_spec,
    save_spec,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.scenario.presets import (
    available_presets,
    preset,
    register_preset,
)
from repro.scenario.report import (
    REPORT_CSV_COLUMNS,
    ExperimentReport,
    PhaseReport,
    rows_to_csv,
)
from repro.scenario.deployment import build_tcp_cluster
from repro.scenario.runner import ScenarioRunner, run_scenario
from repro.scenario.spec import (
    BACKENDS,
    NAMED_MATRICES,
    Phase,
    Scenario,
    WorkloadSpec,
)

__all__ = [
    "Scenario",
    "WorkloadSpec",
    "Phase",
    "BACKENDS",
    "NAMED_MATRICES",
    "FaultEvent",
    "CrashReplica",
    "RecoverReplica",
    "KillProcess",
    "RestartProcess",
    "ServeProcess",
    "ServeProcessManager",
    "Partition",
    "Heal",
    "SwapByzantine",
    "LatencyShift",
    "ClientChurn",
    "PacketLoss",
    "Jitter",
    "BandwidthCap",
    "Reorder",
    "ScenarioRunner",
    "run_scenario",
    "build_tcp_cluster",
    "ExperimentReport",
    "PhaseReport",
    "REPORT_CSV_COLUMNS",
    "rows_to_csv",
    "preset",
    "register_preset",
    "available_presets",
    "FAULT_TYPES",
    "load_spec",
    "loads_spec",
    "dumps_spec",
    "save_spec",
    "scenario_to_dict",
    "scenario_from_dict",
]
