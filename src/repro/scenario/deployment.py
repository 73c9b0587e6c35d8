"""The two deployments a scenario runs on.

:meth:`repro.scenario.runner.ScenarioRunner.execute` is written once
against the surface both classes here share, so what differs between
the backends is exactly what is in this module:

- :class:`SimDeployment` builds a :func:`repro.cluster.build_cluster`
  deployment on the deterministic WAN simulator.  Fault events and
  phase boundaries are simulator events, so the whole run (including
  the fault schedule) is reproducible from ``scenario.seed``.
- :class:`TcpDeployment` builds an
  :class:`repro.transport.AsyncioCluster` on real localhost sockets
  (OS-assigned ports).  The scenario clock is wall-clock milliseconds;
  latency matrices, CPU models and static network conditions do not
  apply, but workloads, phases, and the fault schedule do.

Both clusters build their nodes through
:class:`repro.cluster.base.ProtocolCluster` from the same
:func:`cluster_options`, so every registered protocol -- builtin or
plugin -- runs under every scenario with the same primary placement,
interference relation and timeouts, and :func:`attach_seams` reads a
protocol's optional seams off its registry entry rather than probing
replica objects.
"""

from __future__ import annotations

import asyncio
import logging
import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.cluster.base import KEY_SEED
from repro.cluster.builder import Cluster, build_cluster
from repro.cluster.metrics import LatencyRecorder
from repro.errors import ConfigurationError, ScenarioTimeoutError
from repro.scenario.faults import ClientChurn, FaultInjector
from repro.scenario.spec import Scenario
from repro.trace.live import wall_clock_ms

logger = logging.getLogger("repro.scenario.deployment")

#: ``add_client(client_id, region) -> client``, as the client pool
#: calls it (synchronously, also from mid-run ClientChurn events).
AddClient = Callable[[str, str], Any]


def cluster_options(scenario: Scenario) -> Dict[str, Any]:
    """A scenario's protocol options: both backends' clusters take
    every one of them."""
    return dict(
        netem=scenario.netem_profile(),
        statemachine_factory=scenario.statemachine,
        interference=scenario.interference,
        primary_region=scenario.primary_region,
        primary_index=scenario.primary_index,
        slow_path_timeout=scenario.slow_path_timeout,
        retry_timeout=scenario.retry_timeout,
        suspicion_timeout=scenario.suspicion_timeout,
        view_change_timeout=scenario.view_change_timeout,
        checkpoint_interval=scenario.checkpoint_interval,
        batch_size=scenario.workload.batch_size,
        batch_timeout_ms=scenario.workload.batch_timeout_ms)


def build_tcp_cluster(scenario: Scenario,
                      start_replicas: Optional[Tuple[str, ...]] = None
                      ) -> "Any":
    """An :class:`~repro.transport.asyncio_tcp.AsyncioCluster` wired
    from a scenario: protocol, :func:`cluster_options`, host map, and
    region labels.  Shared by the runner and ``python -m repro serve``
    so every process of a multi-machine deployment derives the same
    configuration from the same spec file."""
    from repro.transport.asyncio_tcp import AsyncioCluster

    regions = {f"r{i}": region
               for i, region in enumerate(scenario.replica_regions)}
    cluster = AsyncioCluster(
        protocol=scenario.protocol,
        num_replicas=len(scenario.replica_regions),
        host_map=dict(scenario.hosts) if scenario.hosts else None,
        start_replicas=start_replicas,
        regions=regions,
        netem_seed=scenario.seed,
        **cluster_options(scenario))
    if scenario.hosts:
        # Multi-process deployment: every process must be able to
        # verify every client's signatures, including clients created
        # in *another* process.  The schedule fixes the client count,
        # and key derivation is deterministic per (id, seed), so
        # pre-registering here yields the same registry everywhere.
        for i in range(len(client_placements(scenario))):
            cluster.registry.create(f"c{i}", seed=KEY_SEED)
    return cluster


def client_placements(scenario: Scenario) -> List[str]:
    """Region of every client a run will ever create, in creation
    order: the initial placement, then every client a ClientChurn
    event adds, in the order the events fire (at_ms, then declaration
    order).  The one rule for where the k-th client goes: the client
    pool spawns in this order, and the TCP deployment pre-creates
    these clients in it."""
    placements = [region for region in scenario.client_regions()
                  for _ in range(scenario.workload.clients_per_region)]
    churn = sorted((e for e in scenario.faults
                    if isinstance(e, ClientChurn) and e.add),
                   key=lambda e: e.at_ms)
    for event in churn:
        regions = [event.region] if event.region is not None \
            else list(scenario.client_regions())
        for i in range(event.add):
            placements.append(regions[i % len(regions)])
    return placements


def data_root(scenario: Scenario, data_dir: Optional[str]) -> str:
    """Where a durable deployment keeps its per-replica stores
    (``<root>/<replica_id>``)."""
    return data_dir or os.path.join(".repro-data", scenario.name)


def attach_seams(cluster: Any, transports: Iterable[Any], *,
                 tracer: Optional[Any], storage_root: Optional[str],
                 storages: Dict[str, Any]) -> None:
    """Attach the optional seams to a started cluster's locally
    hosted replicas: one deployment-wide ``tracer`` on every transport
    and replica, and an on-disk store under ``storage_root`` per
    replica, recovered from before any load arrives.  Either may be
    ``None`` (seam left as built).

    The protocol's registry entry says which seams its replicas have:
    one without ``supports_tracing`` still runs traced, contributing
    no server-side spans; one without ``supports_durability`` runs in
    memory.  Opened stores land in ``storages`` as they are opened, so
    the caller's teardown closes them even if a later one fails.
    """
    spec = cluster.spec
    if tracer is not None:
        # One tracer spans the in-process deployment (both backends
        # dispatch handlers single-threaded); its context rides
        # TRACED frames between nodes.
        for transport in transports:
            transport.tracer = tracer
        if spec.supports_tracing:
            for replica in cluster.replicas.values():
                replica.attach_tracer(tracer)
    if storage_root is not None and spec.supports_durability:
        from repro.storage import ReplicaStorage
        for rid, replica in cluster.replicas.items():
            storage = storages[rid] = ReplicaStorage(storage_root, rid)
            replica.attach_storage(storage)
            summary = replica.recover_from_storage()
            logger.info(
                "recovered %s from %s", rid, storage.root,
                extra={"snapshot_watermark": summary.snapshot_watermark,
                       "records_replayed": summary.records_replayed})


class SimDeployment:
    """A scenario on the deterministic simulator.

    None of its coroutine methods ever suspends, which is what lets
    :meth:`drive` run the shared body without an event loop: the
    deterministic path stays callable from any context, including
    from inside a running loop.
    """

    #: No periodic scraping: there are no remote processes.
    scrape_samples = None

    def __init__(self, scenario: Scenario, runner: Any) -> None:
        self.scenario = scenario
        self.max_events = runner.max_events
        self.cluster: Optional[Cluster] = None

    @staticmethod
    def drive(body: Any) -> Any:
        try:
            body.send(None)
        except StopIteration as done:
            return done.value
        body.close()
        raise RuntimeError("the sim deployment suspended the run body")

    async def start(self) -> None:
        scenario = self.scenario
        FaultInjector.check_supported(scenario.faults, "sim")
        self.cluster = build_cluster(
            scenario.protocol,
            list(scenario.replica_regions),
            scenario.latency_matrix(),
            cpu=scenario.cpu,
            conditions=scenario.conditions,
            seed=scenario.seed,
            **cluster_options(scenario))
        self.recorder = self.cluster.recorder

    def now_ms(self) -> float:
        """The scenario clock: simulated milliseconds."""
        return self.cluster.sim.now

    #: Traces are clocked from the simulator, so seeded traces are
    #: byte-identical.
    trace_clock = now_ms

    def transports(self) -> List[Any]:
        return [self.cluster.network]

    def storage_root(self) -> Optional[str]:
        if self.scenario.durable:
            # Scenario.validate only checks that 'tcp' is *among* the
            # declared backends; running such a scenario here would
            # silently drop the durability it asks for.
            raise ConfigurationError(
                f"scenario {self.scenario.name!r} sets durable=true, "
                f"which the sim backend cannot honour (the simulator "
                f"is in-memory by construction); run it with "
                f"backend='tcp'")
        return None

    async def clients(self, tracer: Optional[Any]) -> AddClient:
        return self.cluster.add_client

    async def injector(self, pool: Any) -> FaultInjector:
        return FaultInjector(self.cluster, spawn_clients=pool.spawn,
                             stop_clients=pool.stop)

    def schedule(self, at_ms: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Phase boundaries and fault events are simulator events:
        they fire at exact virtual times, deterministically ordered."""
        self.cluster.sim.schedule_at(at_ms, callback, *args)

    async def wait(self, pool: Any, injector: Any) -> None:
        self.cluster.run_until_idle(max_events=self.max_events)

    async def collect(self, injector: Any) -> Dict[str, Any]:
        cluster = self.cluster
        network = cluster.network
        return {
            "duration_ms": cluster.sim.now,
            "replica_stats": cluster.replica_stats(),
            "footprint": cluster.log_footprint(),
            "client_stats": [c.stats for c in cluster.clients.values()],
            "network": {
                "messages_sent": network.messages_sent,
                "messages_delivered": network.messages_delivered,
                "bytes_sent": network.bytes_sent,
                "events_processed": cluster.sim.events_processed,
                **(network.shaper.stats
                   if network.shaper is not None else {}),
            },
            "fault_log": injector.log,
        }

    async def stop(self) -> None:
        pass


class TcpDeployment:
    """A scenario on real localhost sockets.

    ``runner.tcp_timeout_s`` bounds a closed-loop run (sockets are not
    a deterministic simulator; a wedged run must not hang the CLI).
    :meth:`stop` tears everything down -- scheduled events cancelled,
    sockets closed -- so no loop task outlives a failed run.
    """

    drive = staticmethod(asyncio.run)
    #: Epoch-based, so spans from every process of a multi-process
    #: deployment land on one comparable timeline.
    trace_clock = staticmethod(wall_clock_ms)

    def __init__(self, scenario: Scenario, runner: Any) -> None:
        self.scenario = scenario
        self.timeout_s = runner.tcp_timeout_s
        self.scrape_config = runner.scrape_config
        self.process_manager = runner.process_manager
        self.data_dir = runner.data_dir
        self.cluster: Optional[Any] = None
        #: The periodic ``/metrics.json`` time series, when the runner
        #: has a scrape config and the scenario declares ``obs``.
        self.scrape_samples: Optional[List[Dict[str, Any]]] = None
        self._sampler: Optional[Any] = None
        #: call_later handles for scheduled faults/phase boundaries, so
        #: a timed-out run cancels what has not fired yet.
        self._handles: List[Any] = []

    async def start(self) -> None:
        from repro.transport.asyncio_tcp import parse_hostport

        scenario = self.scenario
        # Replicas the host map places in other processes; those with a
        # declared obs endpoint are reachable for fault delivery over
        # the serving process's /control.
        remote = tuple(scenario.hosts or ())
        obs_map = scenario.obs or {}
        self._control = {rid: parse_hostport(obs_map[rid])
                         for rid in remote if rid in obs_map}
        managed: Tuple[str, ...] = ()
        if self.process_manager is not None:
            managed = tuple(self.process_manager.replicas)
        FaultInjector.check_supported(
            scenario.faults, "tcp", remote_replicas=remote,
            controllable=tuple(self._control), managed=managed)
        cluster = self.cluster = build_tcp_cluster(scenario)
        self._loop = asyncio.get_running_loop()
        self._origin_ms = self._loop.time() * 1000.0
        self.recorder = LatencyRecorder()
        if self.scrape_config is not None and self._control:
            self.scrape_samples = []
            self._sampler = self._loop.create_task(self._scrape_loop())
        await cluster.start()

    async def _scrape_loop(self) -> None:
        """Periodic ``/metrics.json`` sampler: one sample dict per
        tick until cancelled.  A dead endpoint shows up as ``None`` in
        that tick's ``replicas`` map -- the time series records the
        outage instead of papering over it."""
        from repro.obs.scrape import scrape_replica_stats

        config = self.scrape_config
        while True:
            await asyncio.sleep(config.interval_s)
            stats = await scrape_replica_stats(self._control,
                                               timeout=config.timeout_s)
            self.scrape_samples.append({
                "t_ms": round(self.now_ms(), 3),
                "replicas": stats,
            })

    def now_ms(self) -> float:
        """The scenario clock: wall-clock milliseconds since start."""
        return self._loop.time() * 1000.0 - self._origin_ms

    def transports(self) -> Iterable[Any]:
        return self.cluster.nodes.values()

    def storage_root(self) -> Optional[str]:
        if not self.scenario.durable:
            return None
        return data_root(self.scenario, self.data_dir)

    async def clients(self, tracer: Optional[Any]) -> AddClient:
        """Pre-create protocol clients (socket setup is async, and the
        pool -- like a fault callback -- is synchronous).  Nearest
        replica has no meaning on localhost; leaderless clients
        round-robin their target replica across the membership so they
        spread command-leadership like the geo deployment does.
        ClientChurn clients are pre-created too (idle until their
        event fires): the schedule fixes their count up front."""
        cluster = self.cluster
        pending: List[Any] = []
        for index, region in enumerate(client_placements(self.scenario)):
            client = await cluster.add_client(
                f"c{index}", region=region,
                target_replica=cluster.config.replica_at(index))
            if tracer is not None:
                # The client's transport node was created after
                # the replica attach pass -- without the tracer
                # its sends would never carry TRACED frames.
                cluster.nodes[f"c{index}"].tracer = tracer
            pending.append(client)

        def add_client(client_id: str, region: str) -> Any:
            client = pending.pop(0)  # created in placement order

            def record(command, result, latency, path):
                self.recorder.record(region, latency, path,
                                     self.now_ms())

            client.on_delivery = record
            return client

        return add_client

    async def injector(self, pool: Any) -> FaultInjector:
        cluster = self.cluster
        injector = FaultInjector(
            cluster,
            spawn_clients=pool.spawn,
            stop_clients=pool.stop,
            control_endpoints=self._control,
            process_manager=self.process_manager)
        if cluster.remote_replica_ids:
            # Multi-process deployment: teach every remote replica
            # the local listen addresses before any load, then give
            # the hellos a moment to land.
            cluster.announce_remote()
            await asyncio.sleep(0.2)
        return injector

    def schedule(self, at_ms: float, callback: Callable[..., None],
                 *args: Any) -> None:
        self._handles.append(
            self._loop.call_later(at_ms / 1000.0, callback, *args))

    async def wait(self, pool: Any, injector: Any) -> None:
        scenario = self.scenario
        if scenario.workload.mode == "open":
            last_fault = max((e.at_ms for e in scenario.faults),
                             default=0.0)
            horizon = max(scenario.nominal_duration_ms(), last_fault)
            await asyncio.sleep(horizon / 1000.0 + 0.3)
        else:
            # Done means: every scheduled fault fired (churn may
            # add drivers late) and every driver finished.
            deadline = self._loop.time() + self.timeout_s
            while not (len(injector.log) == len(scenario.faults)
                       and pool.all_done):
                if self._loop.time() >= deadline:
                    raise ScenarioTimeoutError(
                        f"tcp scenario {scenario.name!r} did not "
                        f"finish within {self.timeout_s}s")
                await asyncio.sleep(0.01)
            # Let in-flight post-commit traffic land before
            # tearing down.
            await asyncio.sleep(0.1)
        if self._control:
            # Forwarded /control deliveries must land before the
            # report is assembled (their errors surface here, not
            # in a stranded task).
            await injector.drain_control()

    async def collect(self, injector: Any) -> Dict[str, Any]:
        cluster = self.cluster
        duration_ms = self.now_ms()
        replica_stats = cluster.replica_stats()
        scrape_errors: List[str] = []
        if self._control:
            # Pull remote replicas' stats off their /metrics.json
            # endpoints so the report covers the whole deployment,
            # not just the locally hosted slice.
            from repro.obs.scrape import scrape_replica_stats
            remote_stats = await scrape_replica_stats(
                self._control, errors=scrape_errors)
            for rid, stats in remote_stats.items():
                if stats is not None:
                    replica_stats[rid] = stats
        nodes = cluster.nodes.values()
        network: Dict[str, Any] = {
            "frames_sent": sum(n.frames_sent for n in nodes),
            "frames_received": sum(n.frames_received for n in nodes),
            **(cluster.shaper.stats
               if cluster.shaper is not None else {}),
        }
        if self._control:
            network["control_errors"] = len(injector.control_errors)
            if scrape_errors:
                # Endpoint-named failure strings, not a bare
                # counter: "which node went dark" reads straight
                # off the report.
                network["scrape_errors"] = scrape_errors
        return {
            "duration_ms": duration_ms,
            "replica_stats": replica_stats,
            "footprint": cluster.log_footprint(),
            "client_stats": [c.stats for c in cluster.clients.values()],
            "network": network,
            "fault_log": [{**entry, "applied_ms":
                           entry["applied_ms"] - self._origin_ms}
                          for entry in injector.log],
        }

    async def stop(self) -> None:
        """A timeout (or any failure) must not strand a half-run
        deployment: cancel what has not fired, close every socket,
        and let cancelled send tasks and EOF'd connection readers
        unwind inside this loop."""
        if self._sampler is not None:
            self._sampler.cancel()
            try:
                await self._sampler
            except asyncio.CancelledError:
                pass
        for handle in self._handles:
            handle.cancel()
        if self.cluster is not None:
            await self.cluster.stop()
        await asyncio.sleep(0)


#: Backend name -> deployment class.
DEPLOYMENTS = {"sim": SimDeployment, "tcp": TcpDeployment}
