"""ServeSession: a served replica subset with live observability.

``python -m repro serve`` used to be a bare cluster that parked on an
event forever; this wraps the same :func:`build_tcp_cluster` subset
with the full obs surface:

- one process-wide :class:`MetricsRegistry`, with
  :class:`LiveInstruments` attached to every hosted replica, its
  transport node, and the shared netem shaper;
- a collector that, at scrape time, copies each hosted replica's and
  node's own counters into the count families
  (:meth:`LiveInstruments.collect`) and refreshes the pull gauges
  (``repro_replica_stat``, ``repro_checkpoint_lag``,
  ``repro_uptime_ms``);
- per-replica :class:`ObsServer` endpoints (from the scenario's
  ``[obs]`` table) serving ``/metrics``, ``/healthz`` and the signed
  ``/control`` channel backed by a serve-side
  :class:`~repro.scenario.faults.FaultInjector`;
- graceful drain on SIGTERM/SIGINT: stop accepting scrapes/control,
  flush in-flight sends, write a final metrics+health snapshot to
  disk, close every socket.

The session is plain asyncio with no CLI coupling, so tests drive it
in-process (obs ports may be overridden to OS-assigned ones).
"""

from __future__ import annotations

import asyncio
import logging
import signal
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.storage import atomic_write_json
from repro.obs.control import (
    DEFAULT_CONTROL_SEED,
    ControlChannel,
    control_keypair,
)
from repro.obs.health import HealthMonitor
from repro.obs.http import ObsServer
from repro.obs.instruments import LiveInstruments
from repro.obs.metrics import SNAPSHOT_SCHEMA_VERSION, MetricsRegistry

logger = logging.getLogger("repro.obs.serve")

#: How long drain waits for dials and write buffers before closing.
DRAIN_FLUSH_TIMEOUT_S = 2.0


class ServeSession:
    """One process's hosted replicas plus their obs endpoints.

    ``replicas`` must all be pinned in the scenario's ``hosts`` table.
    Obs endpoints come from the scenario's ``obs`` table;
    ``obs_addresses`` overrides them (tests bind port 0).  A replica
    with no obs entry is hosted without an endpoint.
    """

    def __init__(self, scenario: Any, replicas: Tuple[str, ...],
                 snapshot_path: Optional[str] = None,
                 obs_addresses: Optional[
                     Dict[str, Tuple[str, int]]] = None,
                 control_seed: bytes = DEFAULT_CONTROL_SEED,
                 data_dir: Optional[str] = None,
                 trace: bool = False,
                 trace_sample_rate: float = 1.0,
                 trace_ring: Optional[int] = None) -> None:
        from repro.transport.asyncio_tcp import parse_hostport

        scenario.validate()
        self.scenario = scenario
        self.replicas = tuple(replicas)
        if not self.replicas:
            raise ConfigurationError(
                "serve needs at least one replica id")
        hosts = dict(scenario.hosts or {})
        for rid in self.replicas:
            if rid not in hosts:
                raise ConfigurationError(
                    f"replica {rid!r} has no hosts entry in scenario "
                    f"{scenario.name!r}; serve only hosts replicas "
                    f"the spec pins to an address "
                    f"(have {tuple(sorted(hosts))})")
        self.snapshot_path = snapshot_path
        #: Root directory for per-replica WAL + snapshot stores.  When
        #: set, every hosted replica persists its protocol evidence and
        #: recovers from disk on start -- the restartable half of the
        #: kill -9 story.
        self.data_dir = data_dir
        self._control_seed = control_seed
        if obs_addresses is not None:
            self._obs_addresses = dict(obs_addresses)
        else:
            self._obs_addresses = {
                rid: parse_hostport(value)
                for rid, value in (scenario.obs or {}).items()
                if rid in self.replicas}

        #: Live tracing: spans land in a bounded ring (default
        #: :data:`repro.trace.tracer.DEFAULT_RING_SPANS`) served on
        #: each endpoint's ``GET /trace``, so memory stays flat over
        #: weeks of traffic.  Off by default -- the hot path keeps its
        #: no-op seams.
        self.trace = trace
        self.trace_sample_rate = trace_sample_rate
        self.trace_ring = trace_ring
        self.tracer: Optional[Any] = None
        self._trace_collector: Optional[Any] = None

        self.registry = MetricsRegistry()
        self.cluster: Optional[Any] = None
        self.injector: Optional[Any] = None
        self.channel: Optional[ControlChannel] = None
        self.monitors: Dict[str, HealthMonitor] = {}
        self.servers: Dict[str, ObsServer] = {}
        self._live: Dict[str, LiveInstruments] = {}
        self._storages: Dict[str, Any] = {}
        self._start_ms = 0.0
        self._now_ms = lambda: 0.0

    # ------------------------------------------------------------------
    @property
    def endpoints(self) -> Dict[str, Tuple[str, int]]:
        """Started obs endpoints per hosted replica (real ports)."""
        return {rid: server.address
                for rid, server in self.servers.items()}

    # ------------------------------------------------------------------
    async def start(self) -> None:
        from repro.scenario.deployment import (
            attach_seams,
            build_tcp_cluster,
            data_root,
        )
        from repro.scenario.faults import FaultInjector

        loop = asyncio.get_running_loop()
        self._now_ms = lambda: loop.time() * 1000.0
        self._start_ms = self._now_ms()

        self.cluster = build_tcp_cluster(
            self.scenario, start_replicas=self.replicas)
        await self.cluster.start()
        if self.trace:
            from repro.trace import ActiveTracer, TraceCollector
            from repro.trace.live import wall_clock_ms
            from repro.trace.tracer import DEFAULT_RING_SPANS
            self._trace_collector = TraceCollector(
                max_spans=self.trace_ring or DEFAULT_RING_SPANS)
            # Epoch-based clock: a multi-process deployment's spans
            # land on one comparable timeline, and incoming TRACED
            # frames from a tracing scenario client slot right in.
            self.tracer = ActiveTracer(
                wall_clock_ms, collector=self._trace_collector,
                sample_rate=self.trace_sample_rate)
        # The on-disk stores are attached and recovered *before* the
        # banner announces readiness -- peers must never reach a
        # replica that has not caught up with its own disk yet.
        # Anything past the WAL's truncation point arrives later
        # through the normal state-transfer path.
        durable = self.data_dir or self.scenario.durable
        attach_seams(
            self.cluster, self.cluster.nodes.values(),
            tracer=self.tracer,
            storage_root=data_root(self.scenario, self.data_dir)
            if durable else None,
            storages=self._storages)
        self.injector = FaultInjector(self.cluster)

        for rid in self.replicas:
            live = LiveInstruments(
                self.registry, replica=rid,
                protocol=self.scenario.protocol, now_ms=self._now_ms)
            self._live[rid] = live
            self.cluster.replicas[rid].instruments = live
            self.cluster.nodes[rid].instruments = live
        if self.cluster.shaper is not None and self._live:
            # One shared shaper: link series carry src->dst labels, so
            # any hosted replica's instrument set can record them.
            self.cluster.shaper.instruments = \
                next(iter(self._live.values()))

        self._uptime = self.registry.gauge(
            "repro_uptime_ms", "Time since this serve session started",
            unit="ms")
        self._stat_gauge = self.registry.gauge(
            "repro_replica_stat",
            "Raw replica protocol stat counters, refreshed per scrape",
            labels=("replica", "stat"))
        self._lag_gauge = self.registry.gauge(
            "repro_checkpoint_lag",
            "Executions past the latest stable checkpoint watermark",
            labels=("replica",))
        self.registry.register_collector(self._collect)

        self.channel = ControlChannel(
            self._apply_fault, self.cluster.replica_ids,
            keypair=control_keypair(self._control_seed),
            on_applied=self._on_control)
        for rid in self.replicas:
            self.monitors[rid] = HealthMonitor(
                rid, self.scenario.protocol,
                self.cluster.replicas[rid], self.cluster.nodes[rid],
                self.cluster.config, self._now_ms,
                is_crashed=lambda r=rid: self.injector.is_crashed(r))
        for rid, (host, port) in sorted(self._obs_addresses.items()):
            server = ObsServer(
                self.registry, healthz=self.monitors[rid].healthz,
                control=self.channel.handle,
                trace=self.trace_export if self.trace else None,
                host=host, port=port)
            await server.start()
            self.servers[rid] = server
        logger.info("serving %s", ", ".join(self.replicas),
                    extra={"obs_endpoints": {
                        rid: f"{h}:{p}" for rid, (h, p)
                        in self.endpoints.items()}})

    # ------------------------------------------------------------------
    def _apply_fault(self, event: Any) -> None:
        self.injector.apply(event)
        # SwapByzantine rebuilds the replica object; re-attach its
        # instrument set and health monitor so the byzantine stand-in
        # keeps reporting.
        for rid, live in self._live.items():
            replica = self.cluster.replicas[rid]
            if replica.instruments is not live:
                replica.instruments = live
                self.monitors[rid].replica = replica

    def _on_control(self, event_name: str) -> None:
        for live in self._live.values():
            live.control_event(event_name)
            break

    def _collect(self) -> None:
        self._uptime.set(self._now_ms() - self._start_ms)
        for rid in self.replicas:
            # Looked up per scrape: a SwapByzantine stand-in is read
            # without a re-attach.
            replica = self.cluster.replicas[rid]
            self._live[rid].collect(replica, self.cluster.nodes[rid])
            stats = replica.stats
            for stat in sorted(stats):
                self._stat_gauge.labels(rid, stat).set(stats[stat])
            self._lag_gauge.labels(rid).set(
                self.monitors[rid].checkpoint_lag())

    # ------------------------------------------------------------------
    def trace_export(self) -> Dict[str, Any]:
        """The ring's current span export (``GET /trace`` body)."""
        from repro.trace import export_spans

        collector = self._trace_collector
        if collector is None:
            return export_spans(())
        return export_spans(collector.spans(),
                            dropped=collector.dropped)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The drain-time snapshot: metrics plus final health."""
        return {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "scenario": self.scenario.name,
            "protocol": self.scenario.protocol,
            "replicas": list(self.replicas),
            "metrics": self.registry.snapshot(),
            "health": {rid: monitor.healthz()
                       for rid, monitor in sorted(
                           self.monitors.items())},
        }

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, flush, snapshot, close."""
        for server in self.servers.values():
            await server.stop()
        if self.cluster is not None:
            for node in self.cluster.nodes.values():
                await node.flush_sends(timeout=DRAIN_FLUSH_TIMEOUT_S)
        if self.snapshot_path:
            # tmp + os.replace: a crash mid-write must never leave a
            # truncated snapshot where the previous good one stood.
            atomic_write_json(self.snapshot_path, self.snapshot(),
                              indent=2, sort_keys=True)
            logger.info("wrote final snapshot",
                        extra={"path": self.snapshot_path})
        if self.cluster is not None:
            await self.cluster.stop()
        for storage in self._storages.values():
            storage.close()
        self._storages.clear()
        await asyncio.sleep(0)

    # ------------------------------------------------------------------
    async def run(self, on_started: Optional[Any] = None) -> None:
        """Start, serve until SIGTERM/SIGINT (or cancellation), drain.
        ``on_started()`` fires once the cluster and obs endpoints are
        up (the CLI prints its banner there)."""
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed = []
        # Handlers go in before the banner: the moment ``on_started``
        # announces the endpoints, a SIGTERM must drain, not kill.
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):
                pass  # e.g. non-main thread or unsupported platform
        try:
            await self.start()
            if on_started is not None:
                on_started()
            await stop.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.drain()
