"""Typed fault-schedule events and the one injector that applies them.

A scenario's fault schedule is a timeline of frozen dataclass events;
each names a point on the scenario clock (``at_ms``) and a disruption:

- :class:`CrashReplica` / :class:`RecoverReplica` -- fail-stop a replica
  (drop everything it receives and everything it sends) and bring it
  back.  A recovered replica then rejoins (``rejoin()``): ezBFT asks
  a peer what it missed before it leads again; the baselines do
  nothing.
- :class:`KillProcess` / :class:`RestartProcess` -- SIGKILL and respawn
  the serve process hosting a replica (TCP backend only).
- :class:`Partition` / :class:`Heal` -- cut the network between two node
  sets; heal restores full connectivity (crashed replicas stay crashed).
- :class:`SwapByzantine` -- make a live replica byzantine: a named
  behaviour from :data:`repro.byzantine.BEHAVIORS` rewrites what it
  sends.  ``silent`` and ``corrupt_result`` run on every protocol,
  ``dep_suppress`` and ``equivocate`` on ezBFT only (a scenario naming
  them with a baseline fails validation).
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

:class:`FaultInjector` applies events to a live deployment on either
backend.  It keeps which replicas are down and which links a partition
cut, derives handlers and cut links from that after every event, and
keeps a structured ``log`` of what fired when, which the final
:class:`~repro.scenario.report.ExperimentReport` carries so tests can
assert the schedule executed at the right times.  Both backends drop a
cut link's frames at the sender.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

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
    "FaultInjector",
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
    """Undo a :class:`CrashReplica` for ``replica``; the replica then
    rejoins (``rejoin()``)."""

    def describe(self) -> str:
        return f"recover {self.replica}"


@dataclass(frozen=True)
class KillProcess(_ReplicaEvent):
    """SIGKILL the serve process hosting ``replica`` mid-run.

    Unlike :class:`CrashReplica` (an in-memory fiction: the replica's
    links are cut but the process lives on), this is the real fail-stop:
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
    """Make ``replica`` send as the named byzantine ``behavior``."""

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
#: by ``type``, all of which :class:`FaultInjector` applies.
FAULT_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (CrashReplica, RecoverReplica, KillProcess,
                RestartProcess, Partition, Heal, SwapByzantine,
                LatencyShift, ClientChurn, PacketLoss, Jitter,
                BandwidthCap, Reorder)
}


_SpawnClients = Optional[Callable[[int], None]]
_StopClients = Optional[Callable[[int], None]]

#: Cluster-wide events: applied here *and* broadcast to every declared
#: ``/control`` endpoint, so every process converges on the same cuts.
_BROADCAST = (Partition, Heal, LatencyShift, _NetemEvent)


def _drop(sender: str, message: Any) -> None:
    """A down replica's handler: receive nothing."""


class FaultInjector:
    """Applies fault events to a live deployment, simulated or TCP.

    Its only fault state is intent: :attr:`down`, the crashed replicas,
    and :attr:`partitioned`, the directed pairs Partition events cut.
    After every event it derives the deployment from that intent and
    the current ``cluster.replicas``: a down replica's handler drops,
    an up one's is ``cluster.replicas[rid].on_message``, and
    ``cluster.cuts`` is :attr:`partitioned` plus every pair touching a
    down node.  Nothing is saved and restored, so events compose in any
    order: a recovery never heals a partition, a swap never revives a
    crashed replica, and a recovered one runs whatever the last swap
    installed.

    The cluster is used only through the surface
    :class:`~repro.cluster.builder.Cluster` and
    :class:`~repro.transport.asyncio_tcp.AsyncioCluster` share.
    ``spawn_clients(count)`` / ``stop_clients(count)`` are
    supplied by the runner so :class:`ClientChurn` can attach drivers
    with the scenario's workload.

    ``control_endpoints`` and ``process_manager`` route events for
    replicas this process does not host (a TCP deployment with a host
    map): an event targeting a replica in ``control_endpoints`` goes to
    its serving process's signed ``/control`` endpoint, a cluster-wide
    event is applied here and broadcast to all of them, and
    :class:`KillProcess` / :class:`RestartProcess` go to the process
    manager.  Without them every event applies locally.
    """

    def __init__(self, cluster: Any,
                 spawn_clients: _SpawnClients = None,
                 stop_clients: _StopClients = None,
                 control_endpoints: Optional[
                     Dict[str, Tuple[str, int]]] = None,
                 process_manager: Optional[Any] = None) -> None:
        self.cluster = cluster
        self._spawn_clients = spawn_clients
        self._stop_clients = stop_clients
        self.down: Set[str] = set()
        #: Starts as the cuts the deployment was built with (a
        #: scenario's static partitions), which Heal removes too.
        self.partitioned: Set[Tuple[str, str]] = set(cluster.cuts)
        self.control_endpoints: Dict[str, Tuple[str, int]] = \
            dict(control_endpoints or {})
        self._process_manager = process_manager
        self._control_client: Any = None
        self._control_tasks: set = set()
        #: Errors from forwarded control deliveries and process
        #: restarts, surfaced by the runner after :meth:`drain_control`
        #: instead of being lost in a fire-and-forget task.
        self.control_errors: List[str] = []
        self.log: List[Dict[str, Any]] = []

    @staticmethod
    def check_supported(events: Tuple[FaultEvent, ...], backend: str,
                        remote_replicas: Tuple[str, ...] = (),
                        controllable: Tuple[str, ...] = (),
                        managed: Tuple[str, ...] = ()) -> None:
        """Reject, before a deployment is built, events ``backend``
        cannot apply: unknown event classes; process kill/restart on
        the simulator, or for replicas no runner-side process manager
        owns; and replica-targeted events naming a replica hosted in
        another process with no ``obs`` control endpoint declared (no
        channel can reach its handler)."""
        supported = tuple(FAULT_TYPES.values())
        for event in events:
            name = type(event).__name__
            if not isinstance(event, supported):
                raise ConfigurationError(
                    f"fault event {name} is not supported on the "
                    f"{backend} backend (supported: {tuple(FAULT_TYPES)})")
            if isinstance(event, (KillProcess, RestartProcess)):
                if backend == "sim":
                    raise ConfigurationError(
                        f"fault event {name} is not supported on the "
                        f"sim backend (the simulator has no serve "
                        f"processes to signal); run it with "
                        f"backend='tcp'")
                if event.replica not in managed:
                    raise ConfigurationError(
                        f"fault event {name} targets replica "
                        f"{event.replica!r}, which no runner-managed "
                        f"serve process hosts; spawn it via "
                        f"ServeProcessManager and pass the manager to "
                        f"the runner")
                continue
            targeted = [getattr(event, "replica", None)]
            if isinstance(event, Partition):
                # Each process cuts its own senders; the remote side
                # applies its half when the event is broadcast over
                # /control, so every remote replica in a side needs an
                # endpoint.
                targeted = [m for side in event.sides for m in side]
            for replica in targeted:
                if replica in remote_replicas and \
                        replica not in controllable:
                    raise ConfigurationError(
                        f"fault event {name} targets replica "
                        f"{replica!r}, which the host map places in "
                        f"another process; declare an obs[{replica!r}] "
                        f"control endpoint so the runner can deliver "
                        f"it over /control")

    def is_crashed(self, replica_id: str) -> bool:
        """Whether ``replica_id`` is currently crash-stopped (health
        endpoints report this without reaching into injector state)."""
        return replica_id in self.down

    def apply(self, event: FaultEvent) -> None:
        """Apply or route one event, then record it.  A forwarded event
        is recorded at dispatch: the runner's closed-loop wait counts
        log entries, and the event has left this process the moment its
        task is scheduled."""
        target = getattr(event, "replica", None)
        if isinstance(event, (KillProcess, RestartProcess)):
            self._apply_process(event)
        elif target in self.control_endpoints:
            self._forward(event, (target,))
        else:
            self._apply_local(event)
            if self.control_endpoints and isinstance(event, _BROADCAST):
                self._forward(event, tuple(self.control_endpoints))
        self.log.append({
            "at_ms": event.at_ms,
            "applied_ms": self.cluster.now_ms(),
            "event": type(event).__name__,
            "replica": target,
            "detail": event.describe(),
        })

    def _apply_local(self, event: FaultEvent) -> None:
        cluster = self.cluster
        rejoining = None
        if isinstance(event, CrashReplica):
            self.down.add(event.replica)
        elif isinstance(event, RecoverReplica):
            if event.replica in self.down:
                self.down.discard(event.replica)
                rejoining = cluster.replicas[event.replica]
        elif isinstance(event, Partition):
            left, right = event.sides
            self.partitioned.update(
                pair for a in left for b in right
                for pair in ((a, b), (b, a)))
        elif isinstance(event, Heal):
            self.partitioned.clear()
        elif isinstance(event, SwapByzantine):
            from repro.byzantine import install_byzantine
            install_byzantine(cluster, event.replica, event.behavior)
        elif isinstance(event, LatencyShift):
            cluster.scale_latency(event.factor)
        elif isinstance(event, _NetemEvent):
            cluster.attach_shaper().patch(event.src, event.dst,
                                          **event.patch_fields())
        elif isinstance(event, ClientChurn):
            if event.add and self._spawn_clients is not None:
                self._spawn_clients(event.add)
            if event.stop and self._stop_clients is not None:
                self._stop_clients(event.stop)
        else:
            raise ConfigurationError(
                f"unsupported fault event {type(event).__name__}")
        self._derive()
        if rejoining is not None:
            # Once its links are back: ask what it missed while down.
            rejoining.rejoin()

    def _derive(self) -> None:
        """Make the deployment match the intent (class docstring)."""
        cluster = self.cluster
        for rid, replica in cluster.replicas.items():
            cluster.set_handler(
                rid, _drop if rid in self.down else replica.on_message)
        cuts = cluster.cuts
        cuts.clear()
        cuts.update(self.partitioned)
        nodes = cluster.node_ids()
        for rid in self.down:
            cuts.update(pair for other in nodes if other != rid
                        for pair in ((rid, other), (other, rid)))

    # ------------------------------------------------------------------
    # Routing for replicas hosted by other processes (TCP host maps)
    # ------------------------------------------------------------------
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
        for host, port in dict.fromkeys(
                self.control_endpoints[rid] for rid in replicas):
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


#: ``benchmarks/ledger/workloads.py`` imports the injector under this
#: name, and the ledger is edited only by benchmark-only changes.
SimFaultInjector = FaultInjector
