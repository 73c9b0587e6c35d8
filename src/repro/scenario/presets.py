"""Ready-made scenarios for the paper's Section-V experiment grid.

Each preset is a zero-argument factory returning a fresh
:class:`~repro.scenario.spec.Scenario`, so callers can freely override
fields (``preset("smoke").with_overrides(protocol="pbft")``).  The CLI
(``python -m repro list-presets``) lists this registry; the README maps
presets to the paper figures they reproduce.

The ``*-smoke`` variants are scaled down to run in seconds (CI, the
quickstart); the unscaled methodology lives in ``benchmarks/``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.errors import ConfigurationError
from repro.netem import LinkModel, NetemProfile
from repro.scenario.faults import (
    ClientChurn,
    CrashReplica,
    Heal,
    LatencyShift,
    Partition,
    RecoverReplica,
    SwapByzantine,
)
from repro.scenario.spec import Phase, Scenario, WorkloadSpec

_PRESETS: Dict[str, Callable[[], Scenario]] = {}

#: Experiment 1 deployment (Table I, Figures 4, 6, 7).
EXP1_REGIONS = ("virginia", "tokyo", "mumbai", "sydney")
#: Experiment 2 deployment (Figure 5).
EXP2_REGIONS = ("ohio", "ireland", "frankfurt", "mumbai")


def register_preset(name: str,
                    factory: Callable[[], Scenario]) -> None:
    """Add a preset; duplicate names raise."""
    if name in _PRESETS:
        raise ConfigurationError(f"preset {name!r} already registered")
    _PRESETS[name] = factory


def preset(name: str) -> Scenario:
    """A fresh Scenario for ``name``; raises with the available names."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose from "
            f"{available_presets()}") from None
    return factory()


def available_presets() -> Tuple[str, ...]:
    """Registered preset names, in registration order."""
    return tuple(_PRESETS)


# ----------------------------------------------------------------------
# Smoke: the fastest end-to-end scenario, one per protocol.  Every
# registered builtin protocol is covered, on both backends.
# ----------------------------------------------------------------------
def _smoke(protocol: str) -> Callable[[], Scenario]:
    def factory() -> Scenario:
        return Scenario(
            name=f"smoke-{protocol}",
            protocol=protocol,
            replica_regions=("local",) * 4,
            latency="local",
            workload=WorkloadSpec(mode="closed", clients_per_region=2,
                                  requests_per_client=6),
            seed=1,
            slow_path_timeout=200.0,
            retry_timeout=2000.0,
            suspicion_timeout=1000.0,
            view_change_timeout=2000.0,
            backends=("sim", "tcp"),
            description=f"Fast sanity run of {protocol}: 4 LAN "
                        f"replicas, 2 closed-loop clients x 6 requests.",
        )
    return factory


for _protocol in ("ezbft", "pbft", "zyzzyva", "fab"):
    register_preset(f"smoke-{_protocol}", _smoke(_protocol))
register_preset("smoke", _smoke("ezbft"))


# ----------------------------------------------------------------------
# Paper experiment presets.
# ----------------------------------------------------------------------
def _figure4() -> Scenario:
    return Scenario(
        name="figure4",
        protocol="ezbft",
        replica_regions=EXP1_REGIONS,
        latency="experiment1",
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=10,
                              warmup_requests=1, contention=0.02),
        seed=4,
        description="Figure 4: per-region client latency on the "
                    "Experiment-1 WAN, 2% contention, warmup excluded. "
                    "Use `compare` to sweep all four protocols.",
    )


def _figure5a() -> Scenario:
    return Scenario(
        name="figure5a",
        protocol="ezbft",
        replica_regions=EXP2_REGIONS,
        latency="experiment2",
        primary_region="ireland",
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=10,
                              warmup_requests=1),
        seed=5,
        description="Figure 5a: Experiment-2 regions (overlapping "
                    "transatlantic paths), primary in Ireland for the "
                    "single-leader baselines.",
    )


def _figure6_smoke() -> Scenario:
    return Scenario(
        name="figure6-smoke",
        protocol="ezbft",
        replica_regions=EXP1_REGIONS,
        latency="experiment1",
        workload=WorkloadSpec(mode="closed", clients_per_region=5,
                              requests_per_client=10,
                              warmup_requests=1, contention=0.5),
        seed=6,
        backends=("sim", "tcp"),
        description="Figure 6 (scaled down): client scalability -- 5 "
                    "closed-loop clients per region, 50% contention. "
                    "Runs on both backends.",
    )


def _figure7_smoke() -> Scenario:
    return Scenario(
        name="figure7-smoke",
        protocol="ezbft",
        replica_regions=EXP1_REGIONS,
        latency="experiment1",
        workload=WorkloadSpec(mode="open",
                              client_regions=("virginia",),
                              clients_per_region=8,
                              rate_per_client=50.0),
        phases=(Phase("ramp", 500.0), Phase("steady", 1500.0)),
        seed=7,
        slow_path_timeout=8_000.0,
        retry_timeout=120_000.0,
        suspicion_timeout=120_000.0,
        view_change_timeout=120_000.0,
        description="Figure 7 (scaled down): open-loop throughput from "
                    "Virginia with ramp/steady phases; recovery timers "
                    "pushed out so saturation is not mistaken for "
                    "faults.",
    )


def _crash_recovery() -> Scenario:
    return Scenario(
        name="crash-recovery",
        protocol="ezbft",
        replica_regions=EXP1_REGIONS,
        latency="experiment1",
        workload=WorkloadSpec(mode="closed",
                              client_regions=("tokyo",),
                              clients_per_region=1,
                              requests_per_client=6),
        faults=(CrashReplica(at_ms=10.0, replica="r1"),
                RecoverReplica(at_ms=4000.0, replica="r1")),
        seed=11,
        slow_path_timeout=300.0,
        retry_timeout=900.0,
        suspicion_timeout=400.0,
        description="Fault schedule: crash the Tokyo replica under its "
                    "own client's load -> RESENDREQ / suspicion "
                    "timeout -> owner change -> recover.  "
                    "Deterministic under the seed.",
    )


def _equivocation() -> Scenario:
    return Scenario(
        name="equivocation",
        protocol="ezbft",
        replica_regions=EXP1_REGIONS,
        latency="experiment1",
        workload=WorkloadSpec(mode="closed",
                              client_regions=("virginia",),
                              clients_per_region=1,
                              requests_per_client=4),
        # r0: the client's nearest replica on the simulator, and its
        # round-robin target on TCP.
        faults=(SwapByzantine(at_ms=0.0, replica="r0",
                              behavior="equivocate"),),
        seed=12,
        slow_path_timeout=300.0,
        retry_timeout=900.0,
        suspicion_timeout=400.0,
        description="Fault schedule: the client's nearest replica "
                    "equivocates; proof-of-misbehavior freezes its "
                    "space and the command commits through the next "
                    "owner (paper step 4.4).",
    )


def _partition_heal() -> Scenario:
    return Scenario(
        name="partition-heal",
        protocol="ezbft",
        replica_regions=EXP1_REGIONS,
        latency="experiment1",
        workload=WorkloadSpec(mode="open",
                              client_regions=("virginia",),
                              clients_per_region=2,
                              rate_per_client=20.0),
        phases=(Phase("healthy", 1000.0), Phase("partitioned", 1500.0),
                Phase("healed", 1500.0)),
        faults=(Partition(at_ms=1000.0,
                          sides=(("r3",), ("r0", "r1", "r2"))),
                Heal(at_ms=2500.0)),
        seed=13,
        slow_path_timeout=600.0,
        retry_timeout=60_000.0,
        suspicion_timeout=60_000.0,
        view_change_timeout=60_000.0,
        description="Sydney partitioned away mid-run: the fast path "
                    "(needs all 3f+1) collapses to the slow path in "
                    "the 'partitioned' phase; commits continue on the "
                    "2f+1 slow path, and the straggler's log gap keeps "
                    "the fast path down until it catches up.",
    )


def _churn_latency_shift() -> Scenario:
    return Scenario(
        name="churn-latency-shift",
        protocol="ezbft",
        replica_regions=EXP1_REGIONS,
        latency="experiment1",
        workload=WorkloadSpec(mode="open",
                              client_regions=("virginia", "tokyo"),
                              clients_per_region=2,
                              rate_per_client=15.0),
        phases=(Phase("baseline", 1200.0), Phase("stressed", 1800.0)),
        faults=(ClientChurn(at_ms=1200.0, add=4, region="mumbai"),
                LatencyShift(at_ms=1200.0, factor=1.5),),
        seed=14,
        slow_path_timeout=2_000.0,
        retry_timeout=60_000.0,
        suspicion_timeout=60_000.0,
        view_change_timeout=60_000.0,
        description="Open-loop run that gains 4 Mumbai clients and a "
                    "1.5x WAN slowdown mid-run; per-phase latency "
                    "shows the shift.",
    )


def _lossy_wan() -> Scenario:
    return Scenario(
        name="lossy-wan",
        protocol="ezbft",
        replica_regions=("local",) * 4,
        latency="local",
        netem=NetemProfile(default=LinkModel(
            delay_ms=12.0, jitter_ms=4.0, loss=0.01)),
        workload=WorkloadSpec(mode="closed", clients_per_region=2,
                              requests_per_client=6,
                              think_time_ms=40.0),
        faults=(LatencyShift(at_ms=400.0, factor=2.0),),
        seed=21,
        slow_path_timeout=250.0,
        retry_timeout=1200.0,
        suspicion_timeout=60_000.0,
        view_change_timeout=60_000.0,
        backends=("sim", "tcp"),
        description="Lossy WAN: every link carries 12±4ms emulated "
                    "delay and 1% loss, and the WAN slows 2x mid-run "
                    "(LatencyShift).  Identical spec on both backends; "
                    "deterministic under the seed on sim.",
    )


register_preset("figure4", _figure4)
register_preset("lossy-wan", _lossy_wan)
register_preset("figure5a", _figure5a)
register_preset("figure6-smoke", _figure6_smoke)
register_preset("figure7-smoke", _figure7_smoke)
register_preset("crash-recovery", _crash_recovery)
register_preset("equivocation", _equivocation)
register_preset("partition-heal", _partition_heal)
register_preset("churn-latency-shift", _churn_latency_shift)
