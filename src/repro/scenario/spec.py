"""Declarative experiment specs: one dataclass describes a whole run.

A :class:`Scenario` names everything the paper's Section-V evaluation
varies -- protocol, geo topology, workload shape, client placement,
phases, a fault schedule, and a seed -- and compiles onto either the
deterministic WAN simulator or the asyncio TCP backend through
:class:`~repro.scenario.runner.ScenarioRunner`.  A new experiment is a
~10-line spec, not a bespoke script::

    from repro.scenario import Scenario, WorkloadSpec, CrashReplica, \
        RecoverReplica, ScenarioRunner

    scenario = Scenario(
        name="crash-owner-change",
        protocol="ezbft",
        replica_regions=("virginia", "tokyo", "mumbai", "sydney"),
        latency="experiment1",
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=12),
        faults=(CrashReplica(at_ms=300.0, replica="r1"),
                RecoverReplica(at_ms=2500.0, replica="r1")),
        seed=7,
    )
    report = ScenarioRunner().run(scenario)
    print(report.to_json())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.netem import NetemProfile
from repro.netem.model import ANY, _is_client_id
from repro.scenario.faults import (
    ClientChurn,
    FaultEvent,
    Partition,
    SwapByzantine,
    _NetemEvent,
)
from repro.sim.latency import (
    EXPERIMENT1,
    EXPERIMENT2,
    LOCAL,
    LatencyMatrix,
)
from repro.sim.network import CpuModel, NetworkConditions
from repro.statemachine.base import StateMachine
from repro.statemachine.kvstore import KVStore

#: Latency matrices addressable by name in specs / presets / the CLI.
NAMED_MATRICES = {
    "local": LOCAL,
    "experiment1": EXPERIMENT1,
    "experiment2": EXPERIMENT2,
}

#: Scenario backends.
BACKENDS = ("sim", "tcp")


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of the client load.

    ``mode`` selects the paper's two methodologies: ``"closed"`` clients
    wait for each reply before the next request (latency experiments);
    ``"open"`` clients fire at ``rate_per_client`` requests/sec for the
    scenario duration (throughput experiments).

    ``client_regions`` places clients (default: one group per replica
    region); ``clients_per_region`` scales each group.
    ``warmup_requests`` excludes each client's first N samples
    recorder-side (see
    :class:`~repro.cluster.metrics.LatencyRecorder`).
    """

    mode: str = "closed"
    client_regions: Optional[Tuple[str, ...]] = None
    clients_per_region: int = 1
    requests_per_client: int = 8
    think_time_ms: float = 0.0
    rate_per_client: float = 60.0
    max_outstanding: int = 10_000
    contention: float = 0.0
    value_size: int = 16
    warmup_requests: int = 0
    batch_size: int = 1
    batch_timeout_ms: float = 10.0

    def validate(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ConfigurationError(
                f"workload mode must be 'closed' or 'open', "
                f"got {self.mode!r}")
        if self.clients_per_region < 1:
            raise ConfigurationError("clients_per_region must be >= 1")
        if self.mode == "closed" and self.requests_per_client < 1:
            raise ConfigurationError("requests_per_client must be >= 1")
        if self.mode == "open" and self.rate_per_client <= 0:
            raise ConfigurationError("rate_per_client must be positive")
        if self.warmup_requests < 0:
            raise ConfigurationError("warmup_requests must be >= 0")
        if not 0.0 <= self.contention <= 1.0:
            raise ConfigurationError("contention must be in [0, 1]")


@dataclass(frozen=True)
class Phase:
    """One named slice of the run timeline, for per-phase reporting."""

    name: str
    duration_ms: float

    def validate(self) -> None:
        if not self.name:
            raise ConfigurationError("phase name must be non-empty")
        if self.duration_ms <= 0:
            raise ConfigurationError(
                f"phase {self.name!r} duration must be positive")


@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible experiment description.

    ``latency`` is a :class:`LatencyMatrix` or one of the names in
    :data:`NAMED_MATRICES`; it (and region placement generally) only
    affects the sim backend -- the TCP backend runs on localhost sockets
    but keeps the same region labels for grouping.

    ``phases`` slices the timeline for per-phase reporting; when empty
    the whole run is one implicit ``"main"`` phase.  ``duration_ms``
    bounds open-loop load generation (defaulting to the phase sum);
    closed-loop scenarios run until every client finishes.

    ``faults`` is the fault schedule: typed events applied at their
    ``at_ms`` on the scenario clock (simulated ms on the sim backend,
    wall-clock ms on TCP).

    ``seed`` is the *single* source of randomness: it derives the
    network jitter/drop RNG and every client's workload stream, so two
    runs of the same scenario are identical end-to-end.
    """

    name: str
    protocol: str = "ezbft"
    replica_regions: Tuple[str, ...] = ("virginia", "tokyo",
                                        "mumbai", "sydney")
    latency: Union[str, LatencyMatrix] = "experiment1"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    phases: Tuple[Phase, ...] = ()
    duration_ms: Optional[float] = None
    faults: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    #: Link-level network emulation (loss / jitter / reorder /
    #: duplication / bandwidth caps) applied identically on both
    #: backends through the :class:`repro.netem.LinkShaper` seam.
    #: Either a full :class:`NetemProfile` or the name of a preset in
    #: :data:`repro.netem.NETEM_PRESETS` (``"lossy-wan"``, ...), so
    #: sweep axes can say ``netem=lossy-wan,clean``.
    netem: Union[str, NetemProfile, None] = None
    #: TCP backend only: replica id -> ``"host:port"`` for replicas
    #: hosted in *another* process (``python -m repro serve``); the
    #: runner starts the rest locally and dials these.
    hosts: Optional[Mapping[str, str]] = None
    #: TCP backend only: replica id -> ``"host:port"`` observability
    #: endpoint (``/metrics`` + ``/healthz`` + signed ``/control``) the
    #: serving process binds for that replica.  The scenario process
    #: uses these to deliver remote-targeted faults and to scrape
    #: remote replica stats into the report.
    obs: Optional[Mapping[str, str]] = None
    statemachine: Callable[[], StateMachine] = KVStore
    interference: Any = None
    primary_region: Optional[str] = None
    primary_index: int = 0
    cpu: Optional[CpuModel] = None
    conditions: Optional[NetworkConditions] = None
    slow_path_timeout: float = 400.0
    retry_timeout: float = 1200.0
    suspicion_timeout: float = 600.0
    view_change_timeout: float = 1500.0
    checkpoint_interval: int = 128
    #: TCP backend only: back every locally hosted replica with an
    #: on-disk WAL + snapshot store (``repro.storage``) so a process
    #: killed with SIGKILL can restart from its data directory.  A
    #: first-class sweep axis (``durable=true``); the sim backend is
    #: in-memory by construction and rejects it.
    durable: bool = False
    #: Which backends this scenario is meant to run on by default (the
    #: CLI's ``--backend`` overrides).
    backends: Tuple[str, ...] = ("sim",)
    description: str = ""

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if len(self.replica_regions) < 4:
            raise ConfigurationError(
                "BFT scenarios need at least 4 replicas")
        self.workload.validate()
        matrix = self.latency_matrix()
        for region in self.replica_regions:
            if region not in matrix.regions:
                raise ConfigurationError(
                    f"replica region {region!r} not in latency matrix "
                    f"{matrix.name!r}")
        for region in self.client_regions():
            if region not in matrix.regions:
                raise ConfigurationError(
                    f"client region {region!r} not in latency matrix "
                    f"{matrix.name!r}")
        seen = set()
        for phase in self.phases:
            phase.validate()
            if phase.name in seen:
                raise ConfigurationError(
                    f"duplicate phase name {phase.name!r}")
            seen.add(phase.name)
        if self.duration_ms is not None and self.duration_ms <= 0:
            raise ConfigurationError("duration_ms must be positive")
        if self.workload.mode == "open" and \
                self.nominal_duration_ms() is None:
            raise ConfigurationError(
                "open-loop scenarios need a horizon: set duration_ms "
                "or declare phases")
        replica_ids = self.replica_ids()
        horizon = self.nominal_duration_ms()
        for i, event in enumerate(self.faults):
            event.validate(replica_ids)
            self._validate_fault_endpoints(i, event, replica_ids,
                                           matrix)
            if isinstance(event, SwapByzantine):
                from repro.byzantine import require_expressible
                require_expressible(event.behavior, self.protocol)
            if horizon is not None and event.at_ms > horizon:
                raise ConfigurationError(
                    f"fault event {event!r} scheduled after the "
                    f"scenario horizon ({horizon}ms)")
        profile = self.netem_profile()
        if profile is not None:
            profile.validate(
                known_tokens=set(matrix.regions) | set(replica_ids),
                key="netem")
        self._validate_endpoints("hosts", replica_ids)
        self._validate_endpoints("obs", replica_ids)
        hosts = self.hosts or {}
        if len(hosts) >= len(replica_ids):
            raise ConfigurationError(
                "hosts cannot place every replica remotely: at least "
                "one replica must run in the scenario process")
        for rid in self.obs or {}:
            if rid not in hosts:
                raise ConfigurationError(
                    f"obs[{rid!r}] has no matching hosts entry: obs "
                    f"endpoints belong to replicas another process "
                    f"serves (have hosts for "
                    f"{tuple(sorted(hosts))})")
        for backend in self.backends:
            if backend not in BACKENDS:
                raise ConfigurationError(
                    f"unknown backend {backend!r}; choose from "
                    f"{BACKENDS}")
        if self.durable and "tcp" not in self.backends:
            raise ConfigurationError(
                "durable=true needs the tcp backend (the simulator "
                "is in-memory by construction); add 'tcp' to backends")

    def _validate_fault_endpoints(self, index: int, event: FaultEvent,
                                  replica_ids: Tuple[str, ...],
                                  matrix: LatencyMatrix) -> None:
        """Catch schedule typos at validation time with the key named,
        instead of a mid-run failure: Partition sides must name real
        replicas (or client ids ``cN``), ClientChurn regions must be
        in the latency matrix."""
        if isinstance(event, Partition):
            for s, side in enumerate(event.sides):
                for member in side:
                    if member in replica_ids or _is_client_id(member):
                        continue
                    raise ConfigurationError(
                        f"faults[{index}].sides[{s}] names unknown "
                        f"node {member!r} (replicas: {replica_ids}, "
                        f"or client ids c0..cN)")
        elif isinstance(event, ClientChurn):
            if event.region is not None and \
                    event.region not in matrix.regions:
                raise ConfigurationError(
                    f"faults[{index}].region {event.region!r} is not "
                    f"in latency matrix {matrix.name!r} "
                    f"(regions: {matrix.regions})")
        elif isinstance(event, _NetemEvent):
            # A typoed link token would make the chaos event a silent
            # no-op (the patch matches no pair) while the fault log
            # still claims it fired.
            known = set(matrix.regions) | set(replica_ids)
            for side in ("src", "dst"):
                token = getattr(event, side)
                if token == ANY or token in known or \
                        _is_client_id(token):
                    continue
                raise ConfigurationError(
                    f"faults[{index}].{side} names unknown endpoint "
                    f"{token!r} (known: {tuple(sorted(known))}, "
                    f"client ids c0..cN, or '*')")

    def _validate_endpoints(self, table: str,
                            replica_ids: Tuple[str, ...]) -> None:
        """``hosts`` / ``obs``: a non-empty replica id -> host:port
        map, or omitted."""
        mapping = getattr(self, table)
        if mapping is None:
            return
        if not mapping:
            raise ConfigurationError(
                f"{table} must map at least one replica (or be "
                f"omitted)")
        from repro.transport.asyncio_tcp import parse_hostport
        from repro.errors import TransportError
        for rid, value in mapping.items():
            if rid not in replica_ids:
                raise ConfigurationError(
                    f"{table} names unknown replica {rid!r} "
                    f"(have {replica_ids})")
            try:
                parse_hostport(value)
            except TransportError as exc:
                raise ConfigurationError(
                    f"{table}[{rid!r}]: {exc}") from None

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def latency_matrix(self) -> LatencyMatrix:
        if isinstance(self.latency, LatencyMatrix):
            return self.latency
        try:
            return NAMED_MATRICES[self.latency]
        except KeyError:
            raise ConfigurationError(
                f"unknown latency matrix {self.latency!r}; choose from "
                f"{tuple(NAMED_MATRICES)} or pass a LatencyMatrix"
            ) from None

    def netem_profile(self) -> Optional[NetemProfile]:
        """The effective netem profile: ``None`` passes through, a
        preset name resolves through :data:`repro.netem.NETEM_PRESETS`
        (key-named error on unknown names)."""
        from repro.netem import resolve_netem
        return resolve_netem(self.netem, key="netem")

    def replica_ids(self) -> Tuple[str, ...]:
        return tuple(f"r{i}" for i in range(len(self.replica_regions)))

    def client_regions(self) -> Tuple[str, ...]:
        if self.workload.client_regions is not None:
            return self.workload.client_regions
        # One client group per distinct replica region, in order.
        seen = []
        for region in self.replica_regions:
            if region not in seen:
                seen.append(region)
        return tuple(seen)

    def phase_plan(self) -> Tuple[Phase, ...]:
        """The explicit phases, or the implicit single ``main`` phase."""
        if self.phases:
            return self.phases
        duration = self.nominal_duration_ms()
        return (Phase("main", duration if duration is not None
                      else float("inf")),)

    def nominal_duration_ms(self) -> Optional[float]:
        """The declared timeline length: ``duration_ms``, else the phase
        sum, else ``None`` (closed-loop runs bound by request count)."""
        if self.duration_ms is not None:
            return self.duration_ms
        if self.phases:
            return sum(p.duration_ms for p in self.phases)
        return None

    def with_overrides(self, **changes: Any) -> "Scenario":
        """A copy with fields replaced (CLI ``--protocol``/``--seed``)."""
        return replace(self, **changes)
