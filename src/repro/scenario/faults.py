"""Typed fault-schedule events and their per-backend injectors.

A scenario's fault schedule is a timeline of frozen dataclass events;
each names a point on the scenario clock (``at_ms``) and a disruption:

- :class:`CrashReplica` / :class:`RecoverReplica` -- fail-stop a replica
  (drop everything it receives and, on the simulator, everything it
  sends) and bring it back.
- :class:`Partition` / :class:`Heal` -- cut the network between two node
  sets; heal restores full connectivity (crashed replicas stay crashed).
- :class:`SwapByzantine` -- replace a replica with a named byzantine
  behaviour from :data:`repro.byzantine.BEHAVIORS` (ezBFT-shaped
  protocols only).
- :class:`LatencyShift` -- scale the WAN latency by a factor (relative
  to the scenario's base, so shifts do not compound).  On the
  simulator it scales the latency matrix; on TCP it scales the live
  netem profile's link delays through the shaper.
- :class:`ClientChurn` -- add load mid-run (new clients with the
  scenario's workload) and/or stop the most recently added clients.
- :class:`PacketLoss` / :class:`Jitter` / :class:`BandwidthCap` /
  :class:`Reorder` -- chaos events that retarget the live
  :class:`~repro.netem.LinkShaper` on matching ``(src, dst)`` link
  tokens (node ids, regions, or ``"*"``), on either backend.  A
  scenario with no declared netem profile gets a shaper materialized
  lazily when the first such event fires.

The injectors apply events to a live deployment and keep a structured
``log`` of what fired when, which the final
:class:`~repro.scenario.report.ExperimentReport` carries so tests can
assert the schedule executed at the right times.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "FaultEvent",
    "CrashReplica",
    "RecoverReplica",
    "KillProcess",
    "RestartProcess",
    "Partition",
    "Heal",
    "SwapByzantine",
    "LatencyShift",
    "ClientChurn",
    "PacketLoss",
    "Jitter",
    "BandwidthCap",
    "Reorder",
    "FAULT_TYPES",
    "SimFaultInjector",
    "TcpFaultInjector",
]


@dataclass(frozen=True)
class FaultEvent:
    """Base: one disruption at ``at_ms`` on the scenario clock."""

    at_ms: float

    def validate(self, replica_ids: Tuple[str, ...]) -> None:
        if self.at_ms < 0:
            raise ConfigurationError(
                f"{type(self).__name__}.at_ms must be >= 0, "
                f"got {self.at_ms}")

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class _ReplicaEvent(FaultEvent):
    """Base for events that target one ``replica``."""

    replica: str = ""

    def validate(self, replica_ids: Tuple[str, ...]) -> None:
        super().validate(replica_ids)
        if self.replica not in replica_ids:
            raise ConfigurationError(
                f"{type(self).__name__} names unknown replica "
                f"{self.replica!r} (have {replica_ids})")


@dataclass(frozen=True)
class CrashReplica(_ReplicaEvent):
    """Fail-stop ``replica``: it processes and emits nothing."""

    def describe(self) -> str:
        return f"crash {self.replica}"


@dataclass(frozen=True)
class RecoverReplica(_ReplicaEvent):
    """Undo a :class:`CrashReplica` for ``replica``."""

    def describe(self) -> str:
        return f"recover {self.replica}"


@dataclass(frozen=True)
class KillProcess(_ReplicaEvent):
    """SIGKILL the serve process hosting ``replica`` mid-run.

    Unlike :class:`CrashReplica` (an in-memory fiction: the handler is
    swapped out but the process lives on), this is the real fail-stop:
    no drain, no flush -- the replica keeps exactly what its
    ``--data-dir`` retains.  TCP backend only, and only for replicas
    hosted by a runner-managed serve process
    (:class:`~repro.scenario.processes.ServeProcessManager`).
    """

    def describe(self) -> str:
        return f"kill -9 {self.replica}"


@dataclass(frozen=True)
class RestartProcess(_ReplicaEvent):
    """Respawn the killed serve process for ``replica`` from its data
    dir (recovery = snapshot + WAL replay + state transfer for the
    rest) and re-announce this process's dynamic addresses to it."""

    def describe(self) -> str:
        return f"restart {self.replica}"


@dataclass(frozen=True)
class Partition(FaultEvent):
    """Cut every link between ``sides[0]`` and ``sides[1]`` (node ids;
    clients may be named too).  Links within a side stay up."""

    sides: Tuple[Tuple[str, ...], Tuple[str, ...]] = ((), ())

    def validate(self, replica_ids: Tuple[str, ...]) -> None:
        super().validate(replica_ids)
        left, right = self.sides
        if not left or not right:
            raise ConfigurationError(
                "Partition sides must both be non-empty")
        if set(left) & set(right):
            raise ConfigurationError(
                f"Partition sides overlap: {set(left) & set(right)}")

    def describe(self) -> str:
        return f"partition {self.sides[0]} | {self.sides[1]}"


@dataclass(frozen=True)
class Heal(FaultEvent):
    """Remove every partition (crashed replicas remain crashed)."""

    def describe(self) -> str:
        return "heal"


@dataclass(frozen=True)
class SwapByzantine(_ReplicaEvent):
    """Replace ``replica`` with the named byzantine ``behavior``."""

    behavior: str = "silent"

    def validate(self, replica_ids: Tuple[str, ...]) -> None:
        super().validate(replica_ids)
        from repro.byzantine import behavior_by_name
        behavior_by_name(self.behavior)  # raises on unknown names

    def describe(self) -> str:
        return f"swap {self.replica} -> {self.behavior}"


@dataclass(frozen=True)
class LatencyShift(FaultEvent):
    """Scale the WAN matrix by ``factor`` (1.0 restores the base)."""

    factor: float = 1.0

    def validate(self, replica_ids: Tuple[str, ...]) -> None:
        super().validate(replica_ids)
        if self.factor <= 0:
            raise ConfigurationError(
                f"LatencyShift.factor must be positive, "
                f"got {self.factor}")

    def describe(self) -> str:
        return f"latency x{self.factor:g}"


@dataclass(frozen=True)
class ClientChurn(FaultEvent):
    """Add ``add`` fresh clients in ``region`` and/or stop the ``stop``
    most recently started clients."""

    add: int = 0
    stop: int = 0
    region: Optional[str] = None

    def validate(self, replica_ids: Tuple[str, ...]) -> None:
        super().validate(replica_ids)
        if self.add < 0 or self.stop < 0:
            raise ConfigurationError(
                "ClientChurn.add/stop must be >= 0")
        if self.add == 0 and self.stop == 0:
            raise ConfigurationError(
                "ClientChurn must add or stop at least one client")

    def describe(self) -> str:
        parts = []
        if self.add:
            where = f" in {self.region}" if self.region else ""
            parts.append(f"+{self.add} clients{where}")
        if self.stop:
            parts.append(f"-{self.stop} clients")
        return ", ".join(parts)


@dataclass(frozen=True)
class _NetemEvent(FaultEvent):
    """Base for chaos events that patch the live link shaper on every
    directed pair matching ``(src, dst)`` tokens (node id, region, or
    ``"*"``)."""

    src: str = "*"
    dst: str = "*"

    def _probability(self, name: str, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(
                f"{type(self).__name__}.{name} must be in [0, 1], "
                f"got {value}")

    def patch_fields(self) -> Dict[str, Any]:
        """The LinkModel field overrides this event applies."""
        raise NotImplementedError

    def describe(self) -> str:
        link = f"{self.src}->{self.dst}"
        fields = ", ".join(f"{k}={v:g}"
                           for k, v in self.patch_fields().items())
        return f"{type(self).__name__.lower()} [{link}] {fields}"


@dataclass(frozen=True)
class PacketLoss(_NetemEvent):
    """Set the per-frame drop probability on matching links."""

    probability: float = 0.0

    def validate(self, replica_ids: Tuple[str, ...]) -> None:
        super().validate(replica_ids)
        self._probability("probability", self.probability)

    def patch_fields(self) -> Dict[str, Any]:
        return {"loss": self.probability}


@dataclass(frozen=True)
class Jitter(_NetemEvent):
    """Set uniform delay jitter (±``jitter_ms``) on matching links."""

    jitter_ms: float = 0.0

    def validate(self, replica_ids: Tuple[str, ...]) -> None:
        super().validate(replica_ids)
        if self.jitter_ms < 0:
            raise ConfigurationError(
                f"Jitter.jitter_ms must be >= 0, got {self.jitter_ms}")

    def patch_fields(self) -> Dict[str, Any]:
        return {"jitter_ms": self.jitter_ms}


@dataclass(frozen=True)
class BandwidthCap(_NetemEvent):
    """Cap matching links at ``rate_kbps`` (token bucket with
    ``burst_bytes`` of credit); 0 removes the cap."""

    rate_kbps: float = 0.0
    burst_bytes: int = 16_384

    def validate(self, replica_ids: Tuple[str, ...]) -> None:
        super().validate(replica_ids)
        if self.rate_kbps < 0:
            raise ConfigurationError(
                f"BandwidthCap.rate_kbps must be >= 0, "
                f"got {self.rate_kbps}")
        if self.burst_bytes <= 0:
            raise ConfigurationError(
                f"BandwidthCap.burst_bytes must be positive, "
                f"got {self.burst_bytes}")

    def patch_fields(self) -> Dict[str, Any]:
        return {"rate_kbps": self.rate_kbps,
                "burst_bytes": self.burst_bytes}


@dataclass(frozen=True)
class Reorder(_NetemEvent):
    """Hold back a fraction of frames by ``extra_ms`` on matching
    links so later frames overtake them."""

    probability: float = 0.0
    extra_ms: float = 1.0

    def validate(self, replica_ids: Tuple[str, ...]) -> None:
        super().validate(replica_ids)
        self._probability("probability", self.probability)
        if self.extra_ms < 0:
            raise ConfigurationError(
                f"Reorder.extra_ms must be >= 0, got {self.extra_ms}")

    def patch_fields(self) -> Dict[str, Any]:
        return {"reorder": self.probability,
                "reorder_extra_ms": self.extra_ms}


#: The fault vocabulary: every event class a spec document can name
#: by ``type``, all of which both injectors apply.
FAULT_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (CrashReplica, RecoverReplica, KillProcess,
                RestartProcess, Partition, Heal, SwapByzantine,
                LatencyShift, ClientChurn, PacketLoss, Jitter,
                BandwidthCap, Reorder)
}


_SpawnClients = Optional[Callable[[int, Optional[str]], None]]
_StopClients = Optional[Callable[[int], None]]


class _InjectorBase:
    """What both injectors share: the structured log, crash state, and
    the events that act through backend-neutral seams (the link shaper
    and the runner's client pool).

    ``spawn_clients(count, region)`` / ``stop_clients(count)`` are
    supplied by the runner so :class:`ClientChurn` can attach drivers
    with the scenario's workload.
    """

    def __init__(self, cluster: Any, spawn_clients: _SpawnClients,
                 stop_clients: _StopClients, netem_seed: int) -> None:
        self.cluster = cluster
        self._spawn_clients = spawn_clients
        self._stop_clients = stop_clients
        self._netem_seed = netem_seed
        self.log: List[Dict[str, Any]] = []
        self._crashed: Dict[str, Callable[[str, Any], None]] = {}
        #: Partition pairs added *by crash isolation* per replica, so
        #: recovery removes exactly these and never heals an explicit
        #: Partition event that happens to involve the same replica.
        self._crash_cuts: Dict[str, set] = {}

    def _record(self, event: FaultEvent, now_ms: float) -> None:
        self.log.append({
            "at_ms": event.at_ms,
            "applied_ms": now_ms,
            "event": type(event).__name__,
            "detail": event.describe(),
        })

    def is_crashed(self, replica_id: str) -> bool:
        """Whether ``replica_id`` is currently crash-stopped (health
        endpoints report this without reaching into injector state)."""
        return replica_id in self._crashed

    def _ensure_shaper(self) -> Any:
        """The deployment's live shaper, materialized on first use for
        scenarios that declared no netem profile."""
        raise NotImplementedError

    def _apply_shared(self, event: FaultEvent) -> None:
        if isinstance(event, _NetemEvent):
            self._ensure_shaper().patch(event.src, event.dst,
                                        **event.patch_fields())
        elif isinstance(event, ClientChurn):
            if event.add and self._spawn_clients is not None:
                self._spawn_clients(event.add, event.region)
            if event.stop and self._stop_clients is not None:
                self._stop_clients(event.stop)
        else:
            raise ConfigurationError(
                f"unsupported fault event {type(event).__name__}")


class SimFaultInjector(_InjectorBase):
    """Applies fault events to a simulated :class:`Cluster`."""

    def __init__(self, cluster: Any,
                 spawn_clients: _SpawnClients = None,
                 stop_clients: _StopClients = None,
                 statemachine_factory: Optional[Callable[[], Any]] = None,
                 netem_seed: int = 0) -> None:
        super().__init__(cluster, spawn_clients, stop_clients,
                         netem_seed)
        self._statemachine_factory = statemachine_factory
        self._base_matrix = cluster.latency

    def _ensure_shaper(self) -> Any:
        network = self.cluster.network
        if network.shaper is None:
            from repro.netem import LinkShaper
            network.shaper = LinkShaper(seed=self._netem_seed,
                                        region_of=network.region_of)
        return network.shaper

    def _isolate(self, rid: str) -> None:
        """Cut ``rid`` off, remembering which pairs *this* cut added so
        recovery removes only those."""
        network = self.cluster.network
        cuts = self._crash_cuts.setdefault(rid, set())
        for other in network.node_ids():
            if other == rid:
                continue
            for pair in ((rid, other), (other, rid)):
                if pair not in network.conditions.partitions:
                    network.conditions.partitions.add(pair)
                    cuts.add(pair)

    def apply(self, event: FaultEvent) -> None:
        now = self.cluster.sim.now
        network = self.cluster.network
        if isinstance(event, CrashReplica):
            rid = event.replica
            if rid not in self._crashed:
                self._crashed[rid] = network.handler_of(rid)
                network.set_handler(rid, lambda sender, message: None)
                self._isolate(rid)
        elif isinstance(event, RecoverReplica):
            rid = event.replica
            handler = self._crashed.pop(rid, None)
            if handler is not None:
                network.set_handler(rid, handler)
                for pair in self._crash_cuts.pop(rid, set()):
                    network.conditions.partitions.discard(pair)
        elif isinstance(event, Partition):
            left, right = event.sides
            for a in left:
                for b in right:
                    network.conditions.partitions.add((a, b))
                    network.conditions.partitions.add((b, a))
        elif isinstance(event, Heal):
            network.conditions.partitions.clear()
            self._crash_cuts.clear()
            for rid in self._crashed:  # crashed stay cut off
                self._isolate(rid)
        elif isinstance(event, SwapByzantine):
            from repro.byzantine import behavior_by_name, \
                install_byzantine
            factory = self._statemachine_factory
            install_byzantine(
                self.cluster, event.replica,
                behavior_by_name(event.behavior),
                statemachine=factory() if factory is not None else None)
        elif isinstance(event, LatencyShift):
            from repro.sim.latency import scaled_matrix
            matrix = self._base_matrix if event.factor == 1.0 \
                else scaled_matrix(self._base_matrix, event.factor)
            network.latency = matrix
            self.cluster.latency = matrix
            if network.shaper is not None:
                # Keep netem link delays in step with the matrix, like
                # the TCP backend does (a WAN slowdown slows the
                # emulated links too).
                network.shaper.set_delay_scale(event.factor)
        else:
            self._apply_shared(event)
        self._record(event, now)


class TcpFaultInjector(_InjectorBase):
    """Applies fault events to a live :class:`AsyncioCluster`.

    Partitions are enforced receiver-side: every node's handler is
    wrapped once with a filter that drops frames whose (sender,
    receiver) pair is currently cut.  Netem events and LatencyShift
    retarget the cluster's live :class:`~repro.netem.LinkShaper`
    (materialized lazily when the scenario declared no profile).
    """

    def __init__(self, cluster: Any,
                 spawn_clients: _SpawnClients = None,
                 stop_clients: _StopClients = None,
                 netem_seed: int = 0,
                 control_endpoints: Optional[
                     Dict[str, Tuple[str, int]]] = None,
                 process_manager: Optional[Any] = None) -> None:
        super().__init__(cluster, spawn_clients, stop_clients,
                         netem_seed)
        #: Runner-side serve process manager; KillProcess /
        #: RestartProcess route here instead of over /control.
        self._process_manager = process_manager
        self._partitions: set = set()
        self._wrapped = False
        #: replica id -> (host, port) of the serving process's signed
        #: ``/control`` endpoint; events targeting these replicas are
        #: forwarded over HTTP instead of applied locally, and
        #: cluster-wide events are broadcast so every process converges.
        self.control_endpoints: Dict[str, Tuple[str, int]] = \
            dict(control_endpoints or {})
        self._control_client: Any = None
        self._control_tasks: set = set()
        #: Errors from forwarded control deliveries, surfaced by the
        #: runner after :meth:`drain_control` instead of being lost in
        #: a fire-and-forget task.
        self.control_errors: List[str] = []

    @staticmethod
    def check_supported(events: Tuple[FaultEvent, ...],
                        remote_replicas: Tuple[str, ...] = (),
                        controllable: Tuple[str, ...] = (),
                        managed: Tuple[str, ...] = ()) -> None:
        """Reject events the TCP backend cannot apply: unknown event
        classes, replica-targeted events naming a replica hosted in
        another process with no ``obs`` control endpoint declared (no
        channel can reach its handler), and process-level kill/restart
        events for replicas no runner-side process manager owns."""
        supported = tuple(FAULT_TYPES.values())
        for event in events:
            if not isinstance(event, supported):
                raise ConfigurationError(
                    f"fault event {type(event).__name__} is not "
                    f"supported on the tcp backend (supported: "
                    f"{tuple(FAULT_TYPES)})")
            if isinstance(event, (KillProcess, RestartProcess)):
                if event.replica not in managed:
                    raise ConfigurationError(
                        f"fault event {type(event).__name__} targets "
                        f"replica {event.replica!r}, which no "
                        f"runner-managed serve process hosts; spawn it "
                        f"via ServeProcessManager and pass the manager "
                        f"to the runner")
                continue
            targeted = [getattr(event, "replica", None)]
            if isinstance(event, Partition):
                # Partition filters wrap each process's own nodes; the
                # remote side enforces its half when the event is
                # broadcast over /control, so every remote replica in
                # a side needs an endpoint.
                targeted = [m for side in event.sides for m in side]
            for replica in targeted:
                if replica and replica in remote_replicas and \
                        replica not in controllable:
                    raise ConfigurationError(
                        f"fault event {type(event).__name__} targets "
                        f"replica {replica!r}, which the host map "
                        f"places in another process; declare an "
                        f"obs[{replica!r}] control endpoint so the "
                        f"runner can deliver it over /control")

    def _ensure_shaper(self) -> Any:
        shaper = self.cluster.shaper
        if shaper is None:
            from repro.netem import LinkShaper
            shaper = LinkShaper(seed=self._netem_seed,
                                region_of=self.cluster.regions.get)
            self.cluster.attach_shaper(shaper)
        return shaper

    def install_filters(self) -> None:
        """Wrap every node handler with the partition filter.  Called by
        the runner after all nodes exist, before load starts."""
        if self._wrapped:
            return
        for node_id, node in self.cluster.nodes.items():
            node.handler = self._filtering(node_id, node.handler)
        self._wrapped = True

    def _filtering(self, node_id: str, handler):
        def filtered(sender: str, message: Any) -> None:
            if (sender, node_id) in self._partitions:
                return
            if handler is not None:
                handler(sender, message)
        return filtered

    def _now_ms(self) -> float:
        return asyncio.get_running_loop().time() * 1000.0

    def apply(self, event: FaultEvent) -> None:
        """Route one event: replica-targeted events whose target lives
        in another process go out over that process's signed /control
        endpoint; cluster-wide events (partitions, heal, netem,
        latency) apply locally *and* broadcast to every control
        endpoint so all processes converge on the same network state.
        The event is recorded at dispatch either way -- the runner's
        closed-loop wait counts log entries, and a forwarded event has
        left this process the moment its task is scheduled."""
        target = getattr(event, "replica", None)
        if isinstance(event, (KillProcess, RestartProcess)):
            self._apply_process(event)
        elif target and target in self.control_endpoints:
            # The target replica is not in cluster.nodes here; the
            # serving process applies it through its own injector.
            self._forward(event, (target,))
        else:
            self._apply_local(event)
            if self.control_endpoints and isinstance(
                    event, (Partition, Heal, LatencyShift, _NetemEvent)):
                self._forward(event, tuple(self.control_endpoints))
        self._record(event, self._now_ms())

    def _apply_process(self, event: FaultEvent) -> None:
        """Kill -9 / restart the serve process hosting the target."""
        if self._process_manager is None:
            raise ConfigurationError(
                f"fault event {type(event).__name__} needs a serve "
                f"process manager (ScenarioRunner(process_manager=...))")
        if isinstance(event, KillProcess):
            self._process_manager.kill(event.replica)
            return
        # Respawn + readiness + re-announce are async; ride the same
        # task set as /control forwards so drain_control barriers them
        # and failures surface in control_errors.
        loop = asyncio.get_running_loop()
        task = loop.create_task(self._restart_process(event.replica))
        self._control_tasks.add(task)
        task.add_done_callback(self._control_done)

    async def _restart_process(self, replica: str) -> None:
        await self._process_manager.restart(replica)
        # The respawned process lost every dynamically-learned address;
        # re-announce this process's listeners so it can dial back,
        # and give the hello frames a moment to land (same grace the
        # runner allows at startup).
        self.cluster.announce_remote()
        await asyncio.sleep(0.2)

    def _forward(self, event: FaultEvent,
                 replicas: Tuple[str, ...]) -> None:
        if self._control_client is None:
            from repro.obs.control import ControlClient
            self._control_client = ControlClient()
        loop = asyncio.get_running_loop()
        # One process can serve several replicas behind one endpoint;
        # send to each distinct address once (the built-in events are
        # idempotent, but a single delivery keeps logs clean).
        seen = set()
        for rid in replicas:
            host, port = self.control_endpoints[rid]
            if (host, port) in seen:
                continue
            seen.add((host, port))
            task = loop.create_task(
                self._control_client.send(host, port, event))
            self._control_tasks.add(task)
            task.add_done_callback(
                lambda t, target=f"{host}:{port}",
                name=type(event).__name__:
                self._control_done(t, target=target, what=name))

    def _control_done(self, task: Any, target: str = "",
                      what: str = "control") -> None:
        self._control_tasks.discard(task)
        suffix = f" to {target}" if target else ""
        if task.cancelled():
            self.control_errors.append(
                f"{what} delivery{suffix} cancelled")
            return
        exc = task.exception()
        if exc is not None:
            # ControlClient.send already names the endpoint in its
            # errors; str(exc) therefore stays attributable on its own
            # (restart tasks pass no target and say so in the message).
            self.control_errors.append(str(exc))

    async def drain_control(self, timeout: float = 5.0) -> None:
        """Wait for in-flight /control deliveries (teardown barrier:
        errors land in :attr:`control_errors`, not in the void)."""
        pending = {t for t in self._control_tasks if not t.done()}
        if pending:
            await asyncio.wait(pending, timeout=timeout)

    def _apply_local(self, event: FaultEvent) -> None:
        cluster = self.cluster
        if isinstance(event, CrashReplica):
            rid = event.replica
            node = cluster.nodes[rid]
            if rid not in self._crashed:
                self._crashed[rid] = node.handler
                node.handler = lambda sender, message: None
        elif isinstance(event, RecoverReplica):
            rid = event.replica
            handler = self._crashed.pop(rid, None)
            if handler is not None:
                cluster.nodes[rid].handler = handler
        elif isinstance(event, Partition):
            left, right = event.sides
            for a in left:
                for b in right:
                    self._partitions.add((a, b))
                    self._partitions.add((b, a))
        elif isinstance(event, Heal):
            self._partitions.clear()
        elif isinstance(event, SwapByzantine):
            from repro.byzantine import behavior_by_name
            behavior = behavior_by_name(event.behavior)
            rid = event.replica
            node = cluster.nodes[rid]
            old = cluster.replicas[rid]
            replica = behavior(
                rid, cluster.config, node.context(), old.keypair,
                cluster.registry, cluster.statemachine_factory(),
                old.interference)
            cluster.replicas[rid] = replica
            # Re-wrap so partitions keep applying to the new replica.
            node.handler = self._filtering(rid, replica.on_message) \
                if self._wrapped else replica.on_message
        elif isinstance(event, LatencyShift):
            # No latency matrix on TCP: the shift retargets the live
            # netem profile's link delays instead (factor 1.0 restores
            # the base, exactly like the simulator's matrix reset).
            self._ensure_shaper().set_delay_scale(event.factor)
        else:
            self._apply_shared(event)
