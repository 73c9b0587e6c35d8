"""Cluster builder: wire protocol replicas and clients onto the simulated
WAN with one call.

>>> cluster = build_cluster("ezbft",
...                         replica_regions=["virginia", "tokyo",
...                                          "mumbai", "sydney"],
...                         latency=EXPERIMENT1)
>>> client = cluster.add_client("c0", region="tokyo")
>>> client.submit(client.next_command("put", "k", "v"))
>>> cluster.run_until_idle()

What is here is the simulator's transport: the WAN network, the
latency matrix, the CPU model and the clock.  Config, keys, replicas
and clients are built by :class:`~repro.cluster.base.ProtocolCluster`,
the base this :class:`Cluster` shares with the TCP backend's
:class:`~repro.transport.asyncio_tcp.AsyncioCluster`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Set, Tuple

from repro.cluster.base import ProtocolCluster
from repro.cluster.metrics import LatencyRecorder
from repro.cluster.node import NodeContext
from repro.protocols.registry import available_protocols
from repro.sim.events import Simulator
from repro.sim.latency import LatencyMatrix, LOCAL
from repro.sim.network import CpuModel, NetworkConditions, SimNetwork

#: Builtin protocol names (the live list is
#: :func:`repro.protocols.registry.available_protocols`).
PROTOCOLS = available_protocols()


class Cluster(ProtocolCluster):
    """A fully wired simulated deployment (built by
    :func:`build_cluster`).

    ``cuts``, ``set_handler``, ``context_for``, ``node_ids``,
    ``attach_shaper``, ``scale_latency``, ``now_ms`` and
    ``statemachine_factory`` are the surface it shares with
    :class:`~repro.transport.asyncio_tcp.AsyncioCluster`, which is all
    :class:`~repro.scenario.faults.FaultInjector` touches.
    """

    def __init__(self, protocol: str, replica_regions: Sequence[str],
                 latency: LatencyMatrix = LOCAL, *,
                 cpu: Optional[CpuModel] = None,
                 conditions: Optional[NetworkConditions] = None,
                 seed: int = 0,
                 netem: Optional[Any] = None,
                 **options: Any) -> None:
        super().__init__(protocol, replica_regions, **options)
        self.sim = Simulator()
        self.network = SimNetwork(self.sim, latency, cpu=cpu,
                                  conditions=conditions, seed=seed)
        if netem is not None:
            # The link-level emulation seam (see repro.netem): seeded
            # from the same scenario seed, with its own decorrelated
            # stream.
            from repro.netem import LinkShaper
            self.network.shaper = LinkShaper(
                netem, seed=seed, region_of=self.network.region_of)
        #: :meth:`scale_latency` scales ``base_latency``, so shifts do
        #: not compound.
        self.latency = self.base_latency = latency
        self.seed = seed
        self.recorder = LatencyRecorder()
        self.client_regions: Dict[str, str] = {}
        for rid, region in self.replica_regions.items():
            replica = self.build_replica(rid, self.context_for(rid))
            self.network.register(rid, region, replica.on_message)

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

        A leaderless client targets ``target_replica``, by default its
        nearest replica (the paper's step 1); a primary-based client
        tracks the initial primary.  ``record=True`` wires deliveries
        into the cluster's :class:`LatencyRecorder`, grouped by region
        (or ``record_group``).
        """
        group = record_group if record_group is not None else region

        def _recording_delivery(command, result, latency, path):
            if record:
                self.recorder.record(group, latency, path, self.sim.now)
            if on_delivery is not None:
                on_delivery(command, result, latency, path)

        client = self.build_client(
            client_id, self.context_for(client_id),
            target_replica or self.nearest_replica(region),
            on_delivery=_recording_delivery)
        self.network.register(client_id, region, client.on_message)
        self.client_regions[client_id] = region
        return client

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        self.sim.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        return self.sim.run_until_idle(max_events=max_events)


def build_cluster(protocol: str, replica_regions: Sequence[str],
                  latency: LatencyMatrix = LOCAL, **options: Any
                  ) -> Cluster:
    """Build a simulated deployment of ``protocol``.

    ``replica_regions`` places one replica per entry (ids r0..rN-1).
    The simulator's own options are ``cpu`` (a :class:`CpuModel`),
    ``conditions`` (static :class:`NetworkConditions`), ``seed``, and
    ``netem`` (a :class:`repro.netem.NetemProfile`: link-level loss,
    jitter, reordering, duplication and bandwidth caps on top of the
    latency matrix, deterministic under ``seed``).  Every other option
    is a protocol option of
    :class:`~repro.cluster.base.ProtocolCluster` -- ``primary_region``
    / ``primary_index``, ``interference``, ``statemachine_factory`` --
    or a :class:`~repro.config.ProtocolConfig` field (timeouts,
    ``checkpoint_interval``, ``batch_size``/``batch_timeout_ms``), and
    means the same on the TCP backend.
    """
    return Cluster(protocol, replica_regions, latency, **options)
