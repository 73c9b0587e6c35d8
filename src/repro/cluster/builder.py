"""Cluster builder: wire protocol replicas and clients onto the simulated
WAN with one call.

>>> cluster = build_cluster("ezbft",
...                         replica_regions=["virginia", "tokyo",
...                                          "mumbai", "sydney"],
...                         latency=EXPERIMENT1)
>>> client = cluster.add_client("c0", region="tokyo")
>>> client.submit(client.next_command("put", "k", "v"))
>>> cluster.run_until_idle()

Construction is entirely registry-driven: the builder looks the protocol
up in :mod:`repro.protocols.registry` and lets its
:class:`~repro.protocols.registry.ProtocolSpec` supply the
protocol-specific constructor kwargs.  There is no per-protocol branching
here -- new protocols plug in by registering a spec, and new replicated
applications plug in via ``statemachine_factory``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Set, Tuple

from repro.cluster.metrics import LatencyRecorder, replica_footprint
from repro.cluster.node import NodeContext
from repro.config import ProtocolConfig
from repro.crypto.keys import KeyRegistry
from repro.errors import ConfigurationError
from repro.protocols.registry import (
    ProtocolSpec,
    WiringContext,
    available_protocols,
    get_protocol,
)
from repro.sim.events import Simulator
from repro.sim.latency import LatencyMatrix, LOCAL
from repro.sim.network import CpuModel, NetworkConditions, SimNetwork
from repro.statemachine.base import StateMachine
from repro.statemachine.interference import (
    InterferenceRelation,
    KVInterference,
)
from repro.statemachine.kvstore import KVStore

#: Builtin protocol names (the live list is
#: :func:`repro.protocols.registry.available_protocols`).
PROTOCOLS = available_protocols()


@dataclass
class Cluster:
    """A fully wired simulated deployment.

    ``cuts``, ``set_handler``, ``context_for``, ``node_ids``,
    ``attach_shaper``, ``scale_latency``, ``now_ms`` and
    ``statemachine_factory`` are the surface it shares with
    :class:`~repro.transport.asyncio_tcp.AsyncioCluster`, which is all
    :class:`~repro.scenario.faults.FaultInjector` touches.
    """

    protocol: str
    spec: ProtocolSpec
    sim: Simulator
    network: SimNetwork
    registry: KeyRegistry
    config: ProtocolConfig
    latency: LatencyMatrix
    replicas: Dict[str, Any]
    replica_regions: Dict[str, str]
    primary_index: int
    recorder: LatencyRecorder = field(default_factory=LatencyRecorder)
    clients: Dict[str, Any] = field(default_factory=dict)
    client_regions: Dict[str, str] = field(default_factory=dict)
    statemachine_factory: Callable[[], StateMachine] = KVStore
    seed: int = 0
    _seed_counter: int = 0

    def __post_init__(self) -> None:
        #: What :meth:`scale_latency` scales, so shifts do not compound.
        self.base_latency = self.latency

    # ------------------------------------------------------------------
    def context_for(self, node_id: str) -> NodeContext:
        return NodeContext(
            node_id,
            send_fn=self.network.send,
            schedule_fn=self.sim.schedule,
            now_fn=lambda: self.sim.now,
        )

    @property
    def cuts(self) -> Set[Tuple[str, str]]:
        """The directed ``(src, dst)`` pairs whose sends are dropped."""
        return self.network.conditions.partitions

    def set_handler(self, node_id: str,
                    handler: Callable[[str, Any], None]) -> None:
        self.network.set_handler(node_id, handler)

    def node_ids(self) -> Tuple[str, ...]:
        return self.network.node_ids()

    def now_ms(self) -> float:
        return self.sim.now

    def attach_shaper(self) -> Any:
        """The live link shaper, materialized (seeded from the
        cluster's seed) if the deployment declared no netem profile."""
        network = self.network
        if network.shaper is None:
            from repro.netem import LinkShaper
            network.shaper = LinkShaper(seed=self.seed,
                                        region_of=network.region_of)
        return network.shaper

    def scale_latency(self, factor: float) -> None:
        """Scale the WAN matrix by ``factor`` relative to the base (1.0
        restores it), and any netem link delays with it."""
        from repro.sim.latency import scaled_matrix
        matrix = self.base_latency if factor == 1.0 \
            else scaled_matrix(self.base_latency, factor)
        self.network.latency = self.latency = matrix
        if self.network.shaper is not None:
            self.network.shaper.set_delay_scale(factor)

    def nearest_replica(self, region: str) -> str:
        """Replica with the lowest one-way latency from ``region``."""
        return min(
            self.config.replica_ids,
            key=lambda rid: self.latency.one_way(
                region, self.replica_regions[rid]),
        )

    def add_client(self, client_id: str, region: str,
                   target_replica: Optional[str] = None,
                   on_delivery: Optional[Callable] = None,
                   record: bool = True,
                   record_group: Optional[str] = None) -> Any:
        """Create, register and return a protocol client in ``region``.

        The protocol's spec decides the wiring: leaderless clients
        target their nearest replica (the paper's step 1) while
        primary-based clients track the initial primary.
        ``record=True`` wires deliveries into the cluster's
        :class:`LatencyRecorder`, grouped by region (or
        ``record_group``).
        """
        if client_id in self.clients:
            raise ConfigurationError(f"duplicate client id {client_id!r}")
        group = record_group if record_group is not None else region

        def _recording_delivery(command, result, latency, path):
            if record:
                self.recorder.record(group, latency, path, self.sim.now)
            if on_delivery is not None:
                on_delivery(command, result, latency, path)

        keypair = self.registry.create(client_id, seed=b"client-seed")
        ctx = self.context_for(client_id)
        wiring = WiringContext(
            config=self.config,
            primary_index=self.primary_index,
            target_replica=(target_replica
                            or self.nearest_replica(region)),
            region=region,
        )
        client = self.spec.client_cls(
            client_id, self.config, ctx, keypair, self.registry,
            on_delivery=_recording_delivery,
            **self.spec.client_kwargs(wiring))
        self.network.register(client_id, region, client.on_message)
        self.clients[client_id] = client
        self.client_regions[client_id] = region
        return client

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        self.sim.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        return self.sim.run_until_idle(max_events=max_events)

    # ------------------------------------------------------------------
    @property
    def primary_id(self) -> str:
        return self.config.replica_ids[self.primary_index]

    def replica_stats(self) -> Dict[str, Dict[str, int]]:
        return {rid: dict(r.stats) for rid, r in self.replicas.items()}

    def statemachines(self) -> Dict[str, StateMachine]:
        """Each replica's application state machine."""
        return {rid: r.statemachine for rid, r in self.replicas.items()}

    def kvstores(self) -> Dict[str, Any]:
        """Backwards-compatible alias for :meth:`statemachines` (the
        default application is a :class:`~repro.statemachine.KVStore`)."""
        return self.statemachines()

    def log_footprint(self) -> Dict[str, Dict[str, int]]:
        """Per-replica resident log/execution structure sizes (see
        :func:`repro.cluster.metrics.replica_footprint`)."""
        return {rid: replica_footprint(r)
                for rid, r in self.replicas.items()}


def build_cluster(protocol: str,
                  replica_regions: Sequence[str],
                  latency: LatencyMatrix = LOCAL,
                  *,
                  cpu: Optional[CpuModel] = None,
                  conditions: Optional[NetworkConditions] = None,
                  seed: int = 0,
                  primary_region: Optional[str] = None,
                  primary_index: int = 0,
                  interference: Optional[InterferenceRelation] = None,
                  netem: Optional[Any] = None,
                  statemachine_factory: Callable[[], StateMachine]
                  = KVStore,
                  slow_path_timeout: float = 400.0,
                  retry_timeout: float = 1200.0,
                  suspicion_timeout: float = 600.0,
                  view_change_timeout: float = 1500.0,
                  checkpoint_interval: int = 128,
                  batch_size: int = 1,
                  batch_timeout_ms: float = 10.0) -> Cluster:
    """Build a simulated deployment of ``protocol``.

    ``replica_regions`` places one replica per entry (ids r0..rN-1).
    ``primary_region``/``primary_index`` choose the initial primary for
    the single-leader baselines (ignored by leaderless protocols).
    ``statemachine_factory`` is called once per replica to create the
    replicated application (default: a fresh
    :class:`~repro.statemachine.KVStore`); any
    :class:`~repro.statemachine.StateMachine` plugs in here.
    ``netem`` (a :class:`repro.netem.NetemProfile`) attaches link-level
    emulation -- loss, jitter, reordering, duplication, bandwidth caps
    -- on top of the latency matrix, deterministic under ``seed``.
    ``batch_size``/``batch_timeout_ms`` configure the amortizing
    batcher at the protocol's ordering point (see
    :mod:`repro.core.batching`); ``batch_size=1`` disables batching.
    """
    spec = get_protocol(protocol)
    replica_ids = tuple(f"r{i}" for i in range(len(replica_regions)))
    regions_by_id = dict(zip(replica_ids, replica_regions))
    if primary_region is not None:
        candidates = [i for i, region in enumerate(replica_regions)
                      if region == primary_region]
        if not candidates:
            raise ConfigurationError(
                f"no replica in primary region {primary_region!r}")
        primary_index = candidates[0]
    if not 0 <= primary_index < len(replica_ids):
        raise ConfigurationError(
            f"primary_index {primary_index} out of range")

    config = ProtocolConfig(
        replica_ids=replica_ids,
        slow_path_timeout=slow_path_timeout,
        retry_timeout=retry_timeout,
        suspicion_timeout=suspicion_timeout,
        view_change_timeout=view_change_timeout,
        checkpoint_interval=checkpoint_interval,
        batch_size=batch_size,
        batch_timeout_ms=batch_timeout_ms,
    )
    sim = Simulator()
    network = SimNetwork(sim, latency, cpu=cpu, conditions=conditions,
                         seed=seed)
    if netem is not None:
        # The link-level emulation seam (see repro.netem): seeded from
        # the same scenario seed, with its own decorrelated stream.
        from repro.netem import LinkShaper
        network.shaper = LinkShaper(netem, seed=seed,
                                    region_of=network.region_of)
    registry = KeyRegistry()
    relation = interference if interference is not None \
        else KVInterference()

    cluster = Cluster(protocol=protocol, spec=spec, sim=sim,
                      network=network, registry=registry, config=config,
                      latency=latency, replicas={},
                      replica_regions=regions_by_id,
                      primary_index=primary_index,
                      statemachine_factory=statemachine_factory,
                      seed=seed)

    wiring = WiringContext(config=config, primary_index=primary_index,
                           interference=relation)
    for rid in replica_ids:
        keypair = registry.create(rid, seed=b"replica-seed")
        ctx = cluster.context_for(rid)
        replica = spec.replica_cls(rid, config, ctx, keypair, registry,
                                   statemachine=statemachine_factory(),
                                   **spec.replica_kwargs(wiring))
        network.register(rid, regions_by_id[rid], replica.on_message)
        cluster.replicas[rid] = replica
    return cluster
