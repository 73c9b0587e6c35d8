"""ScenarioRunner: compile a declarative :class:`Scenario` onto a
backend and execute it.

There is one run path, :meth:`ScenarioRunner.execute`.  It is written
against the deployment surface in :mod:`repro.scenario.deployment`,
whose two implementations -- the deterministic WAN simulator
(``"sim"``) and real localhost sockets (``"tcp"``) -- hold everything
that differs between the backends, so the backends cannot drift in
how they schedule phases and faults, build the client pool, attach the
optional seams, or assemble the report.

The runner returns an :class:`~repro.scenario.report.ExperimentReport`;
:meth:`ScenarioRunner.run_with_cluster` additionally exposes the live
simulated cluster for benchmarks that introspect replica internals.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.check import check, observe
from repro.cluster.builder import Cluster
from repro.cluster.metrics import LatencyRecorder
from repro.errors import ConfigurationError
from repro.scenario.deployment import (
    DEPLOYMENTS,
    attach_seams,
    client_placements,
)
from repro.scenario.report import ExperimentReport, PhaseReport
from repro.scenario.spec import Scenario
from repro.trace import (
    ActiveTracer,
    TraceCollector,
    export_spans,
    summarize_traces,
)
from repro.workload.drivers import (
    BatchingOpenLoopDriver,
    ClosedLoopDriver,
    OpenLoopDriver,
)
from repro.workload.generator import KVWorkload

#: Safety cap on simulated events per run.
MAX_EVENTS = 40_000_000


def _workload_seed(scenario_seed: int, client_index: int) -> int:
    """Per-client workload seed derived from the scenario seed."""
    return scenario_seed * 1000 + client_index + 1


class _ClientPool:
    """Creates clients + drivers for a workload spec; shared by the
    initial placement and mid-run :class:`ClientChurn` events."""

    def __init__(self, scenario: Scenario, add_client, elapsed_ms,
                 tracer=None):
        self.scenario = scenario
        self.workload = scenario.workload
        self._add_client = add_client
        #: Every client the pool ever creates -- churn-spawned ones
        #: too -- joins the deployment's tracer.
        self._tracer = tracer
        #: Scenario-clock reader; open-loop drivers spawned mid-run by
        #: ClientChurn only get the *remaining* horizon, so churned
        #: load never overruns the declared phases.
        self._elapsed_ms = elapsed_ms
        self.drivers: List[Any] = []
        self._stopped: set = set()
        #: Where the k-th client goes (the one placement rule).
        self._placements = client_placements(scenario)

    def spawn(self, count: int) -> None:
        """Start the next ``count`` clients in placement order."""
        for _ in range(count):
            self._spawn_one()

    def spawn_initial(self) -> None:
        self.spawn(len(self.scenario.client_regions()) *
                   self.workload.clients_per_region)

    def stop(self, count: int) -> None:
        """Stop the ``count`` most recently started still-active
        drivers (repeated churn events wind down successive clients)."""
        for driver in reversed(self.drivers):
            if count <= 0:
                break
            if id(driver) in self._stopped:
                continue
            self._stopped.add(id(driver))
            driver.stop()
            count -= 1

    def _spawn_one(self) -> None:
        index = len(self.drivers)
        client_id = f"c{index}"
        client = self._add_client(client_id, self._placements[index])
        if self._tracer is not None:
            client.tracer = self._tracer
        workload = KVWorkload(
            client_id,
            contention=self.workload.contention,
            value_size=self.workload.value_size,
            seed=_workload_seed(self.scenario.seed, index))
        driver = self._make_driver(client, workload)
        self.drivers.append(driver)
        driver.start()

    def _make_driver(self, client, workload: KVWorkload):
        spec = self.workload
        if spec.mode == "closed":
            return ClosedLoopDriver(
                client, workload,
                num_requests=spec.requests_per_client,
                think_time_ms=spec.think_time_ms)
        duration = max(0.0, self.scenario.nominal_duration_ms() -
                       self._elapsed_ms())
        if spec.batch_size > 1:
            return BatchingOpenLoopDriver(
                client, workload,
                rate_per_sec=spec.rate_per_client,
                duration_ms=duration,
                batch_size=spec.batch_size,
                batch_timeout_ms=spec.batch_timeout_ms,
                max_outstanding=spec.max_outstanding)
        return OpenLoopDriver(
            client, workload,
            rate_per_sec=spec.rate_per_client,
            duration_ms=duration,
            max_outstanding=spec.max_outstanding)

    @property
    def all_done(self) -> bool:
        return all(getattr(d, "done", True) for d in self.drivers)


class ScenarioRunner:
    """Executes scenarios; one runner can execute many.

    ``tcp_timeout_s`` bounds a TCP closed-loop run (sockets are not a
    deterministic simulator; a wedged run must not hang the CLI).  A
    run that exceeds it raises
    :class:`~repro.errors.ScenarioTimeoutError` *after* tearing the
    deployment down -- drivers stopped, scheduled events cancelled,
    sockets closed -- so no loop tasks outlive the failure.
    """

    def __init__(self, backend: str = "sim",
                 max_events: int = MAX_EVENTS,
                 tcp_timeout_s: float = 60.0,
                 scrape_config: Any = None,
                 process_manager: Any = None,
                 data_dir: Optional[str] = None,
                 trace: bool = False,
                 trace_sample_rate: float = 1.0) -> None:
        if backend not in DEPLOYMENTS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; choose 'sim' or 'tcp'")
        self.backend = backend
        self.max_events = max_events
        self.tcp_timeout_s = tcp_timeout_s
        #: Optional :class:`repro.obs.ScrapeConfig`: sample remote
        #: replicas' ``/metrics.json`` endpoints (the scenario's
        #: ``obs`` table) *periodically* during a TCP run.  The time
        #: series lands in :attr:`last_scrape_samples`; the sweep
        #: runner folds it into its report per cell.  (The end-of-run
        #: scrape that merges remote stats into the report needs no
        #: configuration.)
        self.scrape_config = scrape_config
        self.last_scrape_samples: Optional[List[Dict[str, Any]]] = None
        #: Optional :class:`~repro.scenario.processes.ServeProcessManager`
        #: hosting remote replicas as child ``repro serve`` processes;
        #: required to route :class:`KillProcess` / ``RestartProcess``
        #: faults on the TCP backend.
        self.process_manager = process_manager
        #: Root data directory for ``durable=true`` scenarios (per-
        #: replica stores live under ``<data_dir>/<replica_id>``);
        #: defaults to ``.repro-data/<scenario.name>``.
        self.data_dir = data_dir
        #: Causal request tracing (see :mod:`repro.trace`).  When on,
        #: one :class:`~repro.trace.ActiveTracer` spans the whole
        #: deployment -- sim runs clock it from the simulator so
        #: seeded traces are byte-identical; TCP runs clock it from
        #: :func:`repro.trace.live.wall_clock_ms`.  The report grows a
        #: ``trace`` critical-path summary and the full export lands
        #: in :attr:`last_trace`.
        self.trace = trace
        self.trace_sample_rate = trace_sample_rate
        #: Schema-stable span export of the most recent traced run
        #: (``python -m repro run --trace`` writes it to disk), plus
        #: the raw spans for the Chrome trace-event form.
        self.last_trace: Optional[Dict[str, Any]] = None
        self.last_trace_spans: List[Any] = []

    # ------------------------------------------------------------------
    def run(self, scenario: Scenario) -> ExperimentReport:
        """Execute ``scenario`` and return its report."""
        report, _ = DEPLOYMENTS[self.backend].drive(
            self.execute(scenario))
        return report

    def run_with_cluster(self, scenario: Scenario
                         ) -> Tuple[ExperimentReport, Cluster]:
        """Sim-backend run that also returns the live cluster, for
        callers (benchmarks, tests) that inspect replica internals."""
        if self.backend != "sim":
            raise ConfigurationError(
                "run_with_cluster is only meaningful on the sim "
                "backend")
        return DEPLOYMENTS[self.backend].drive(self.execute(scenario))

    async def execute(self, scenario: Scenario
                      ) -> Tuple[ExperimentReport, Any]:
        """The run body, once for both backends; returns the report
        and the deployment's cluster (torn down already on TCP).

        :meth:`run` drives it the way the backend needs: under
        ``asyncio.run`` on TCP, and with a bare ``send(None)`` on the
        simulator, whose deployment never suspends.  Await it directly
        to run a TCP scenario inside a loop you already own.
        """
        scenario.validate()
        # repro: allow[wall-clock] -- wall_seconds is reporting-
        # only, excluded from the determinism gates by design.
        wall_start = time.perf_counter()
        deployment = DEPLOYMENTS[self.backend](scenario, self)
        pool: Optional[_ClientPool] = None
        storages: Dict[str, Any] = {}
        try:
            # Inside the try: a bind failure partway through startup
            # must still stop the nodes that did come up.
            await deployment.start()
            tracer, collector = self._make_tracer(deployment.trace_clock)
            attach_seams(deployment.cluster, deployment.transports(),
                         tracer=tracer,
                         storage_root=deployment.storage_root(),
                         storages=storages)
            recorder = deployment.recorder
            recorder.discard_first = (scenario.workload.warmup_requests *
                                      scenario.workload.clients_per_region)
            pool = _ClientPool(scenario,
                               await deployment.clients(tracer),
                               elapsed_ms=deployment.now_ms,
                               tracer=tracer)
            injector = await deployment.injector(pool)

            start = 0.0
            for i, phase in enumerate(scenario.phase_plan()):
                if i == 0:
                    recorder.begin_phase(phase.name, 0.0)
                else:
                    deployment.schedule(start, recorder.begin_phase,
                                        phase.name, start)
                start += phase.duration_ms
            for event in scenario.faults:
                deployment.schedule(event.at_ms, injector.apply, event)

            pool.spawn_initial()
            await deployment.wait(pool, injector)
            stats = await deployment.collect(injector)
            # Judged before teardown, which can still deliver traffic
            # the state roots would not reflect.
            violations = check(observe(deployment.cluster, injector.log))
        finally:
            # Whatever happened, stop issuing load and release what
            # the deployment holds before the error (or the report)
            # leaves this coroutine.
            if pool is not None:
                for driver in pool.drivers:
                    driver.stop()
            await deployment.stop()
            for storage in storages.values():
                storage.close()
            self.last_scrape_samples = deployment.scrape_samples

        report = self._build_report(
            scenario, backend=self.backend, recorder=recorder,
            # repro: allow[wall-clock] -- reporting-only stopwatch.
            wall_seconds=time.perf_counter() - wall_start,
            trace=self._finish_trace(collector), violations=violations,
            **stats)
        return report, deployment.cluster

    # ------------------------------------------------------------------
    # Tracing plumbing
    # ------------------------------------------------------------------
    def _make_tracer(self, clock):
        """One deployment-wide tracer + collector, or ``(None, None)``
        when tracing is off (every attach is then skipped and the
        protocol keeps its no-op ``NULL_TRACER`` seams)."""
        if not self.trace:
            return None, None
        collector = TraceCollector()
        tracer = ActiveTracer(clock, collector=collector,
                              sample_rate=self.trace_sample_rate)
        return tracer, collector

    def _finish_trace(self, collector) -> Optional[Dict[str, Any]]:
        """Fold the collected spans into exports: the full span list
        on :attr:`last_trace` / :attr:`last_trace_spans`, the
        critical-path summary as the return value (for the report)."""
        if collector is None:
            return None
        spans = collector.spans()
        self.last_trace_spans = spans
        self.last_trace = export_spans(spans,
                                       dropped=collector.dropped)
        return summarize_traces(spans)

    # ------------------------------------------------------------------
    # Report assembly (backend-agnostic)
    # ------------------------------------------------------------------
    def _build_report(self, scenario: Scenario, *, backend: str,
                      recorder: LatencyRecorder, duration_ms: float,
                      replica_stats: Dict[str, Dict[str, int]],
                      footprint: Dict[str, Dict[str, int]],
                      client_stats: List[Dict[str, int]],
                      network: Dict[str, int],
                      fault_log: List[Dict[str, Any]],
                      violations: List[Dict[str, str]],
                      wall_seconds: float,
                      trace: Optional[Dict[str, Any]] = None
                      ) -> ExperimentReport:
        phases: List[PhaseReport] = []
        start = 0.0
        for phase in scenario.phase_plan():
            nominal_end = start + phase.duration_ms
            bounded = nominal_end != float("inf")
            end = nominal_end if bounded else duration_ms
            delivered = recorder.delivered(phase=phase.name)
            window = end - start
            if bounded and window > 0:
                throughput = delivered * 1000.0 / window
            else:
                # Implicit request-bounded phase: rate over the
                # observed delivery window, not the (longer) time the
                # simulator took to drain trailing timers.
                throughput = recorder.throughput_per_sec(
                    phase=phase.name)
            phases.append(PhaseReport(
                name=phase.name,
                start_ms=start,
                end_ms=end,
                delivered=delivered,
                throughput_per_sec=throughput,
                latency=recorder.overall(phase=phase.name),
                fast_path_ratio=recorder.fast_path_fraction(
                    phase=phase.name),
                per_region={group: recorder.summary(group,
                                                    phase=phase.name)
                            for group in recorder.groups()},
            ))
            start = end

        def stat_sum(key: str) -> int:
            return sum(stats.get(key, 0)
                       for stats in replica_stats.values())

        aggregate: Dict[str, int] = {}
        for stats in client_stats:
            for key, value in stats.items():
                aggregate[key] = aggregate.get(key, 0) + value

        return ExperimentReport(
            scenario=scenario.name,
            protocol=scenario.protocol,
            backend=backend,
            seed=scenario.seed,
            replica_regions=list(scenario.replica_regions),
            duration_ms=duration_ms,
            phases=phases,
            delivered=recorder.total_delivered,
            throughput_per_sec=recorder.throughput_per_sec(),
            latency=recorder.overall(),
            fast_path_ratio=recorder.fast_path_fraction(),
            warmup_discarded=recorder.warmup_discarded,
            owner_changes=stat_sum("owner_changes_started"),
            view_changes=stat_sum("view_changes"),
            checkpoints_stable=stat_sum("checkpoints_stable"),
            log_footprint_total=sum(sizes.get("total", 0)
                                    for sizes in footprint.values()),
            client_stats=aggregate,
            network=network,
            violations=violations,
            fault_log=fault_log,
            wall_seconds=wall_seconds,
            trace=trace,
        )


def run_scenario(scenario: Scenario,
                 backend: str = "sim") -> ExperimentReport:
    """One-call convenience: ``run_scenario(preset("smoke"))``."""
    return ScenarioRunner(backend=backend).run(scenario)
