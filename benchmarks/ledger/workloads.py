"""The six ledger workloads, each run against the library from outside.

Everything a workload needs -- 4 replicas, 4 protocol clients, the load
generator -- runs in one process on one event-loop thread; load is
scaled by per-client window or pacing rate, never by adding clients or
threads (4 clients is the protocol minimum for every replica to lead).

A workload run yields an :class:`Outcome`: timed *windows* (commits,
wall and CPU seconds, as measured and at reference speed), the latency
samples behind its percentile figures, workload-specific numbers, the
counts that must repeat exactly, and every correctness violation it saw.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import gc
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.digest import digest

import calibrate
import spans
from catalog import percentile
from loadgen import (
    HOT_KEY,
    ClosedBatchLoop,
    ClosedLoop,
    CommandSource,
    OpenLoop,
    Tally,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
#: Scratch space for ``tcp_durable`` data dirs (inside the checkout,
#: git-ignored, removed after each run).
WORK_DIR = os.path.join(ROOT, ".ledger-work")

CLIENTS = 4
WARMUP_COMMITS = 200
#: A request not committed this long after load stops has failed.
DRAIN_S = 5.0
#: Open-loop rate of ``tcp_steady``'s paced phase, all clients
#: together, in requests per *reference* second: the schedule is
#: stretched by the machine speed the closed loop just measured, so the
#: load is the same share of the machine whatever state the host is in
#: (about half of one core: a paced commit costs ~4 CPU-ms, a
#: saturated one ~2.9, since fewer frames share a loop iteration).  At
#: a fixed wall-clock rate a host running at 0.6 of nominal is 0.8
#: busy, and the median latency doubles and spreads by half of itself.
PACED_RATE_PER_S = 125.0
#: Kernel timings, the closed loop's last, that set the paced rate.
PACED_KERNELS = 5
#: Share of ``tcp_steady``'s time spent in the paced phase.
PACED_SHARE = 0.6
#: A paced phase whose generator ran later than this (p99) is invalid.
#: Generator and system share one event-loop thread by design, and
#: epoll rounds timer waits up to the next millisecond, so p99 lateness
#: of 3-8 ms is normal at half load; this only catches a stalled host.
LATE_P99_LIMIT_MS = 50.0

#: Short enough that a few-second repetition snapshots, rotates and
#: re-logs several times (the library default is 128).
DURABLE_CHECKPOINT_INTERVAL = 256
#: ``tcp_durable`` stops this many commits past a checkpoint boundary,
#: so every recovery replays one snapshot plus the same-sized suffix.
DURABLE_SUFFIX = 100
#: Timed recoveries per repetition.
RECOVERIES = 3

#: ``repro.bench``'s ``sim-ezbft-b1`` deterministic fields as committed
#: in ``benchmarks/baselines/BENCH_5ff976e.json`` (recorded under seed
#: 42, the only seed the cell was ever run with).
PINNED_SEED = 42
PINS = {"delivered": 6400, "p50_ms": 4436.28, "p99_ms": 8597.94,
        "events": 161200}
#: Without link jitter neither sim workload depends on its seed beyond
#: value bytes: ten seeds would be one input.  Seeds other than
#: :data:`PINNED_SEED` therefore add this much seeded one-way jitter.
SEED_JITTER = 0.01

#: Timed work is cut into slices with the reference kernel run between
#: them, because the host's speed moves by a fifth within two seconds:
#: a TCP closed loop every this many wall seconds, ``sim_saturated``
#: every this many simulator events (about 60 ms of work),
#: ``sim_wan_crash`` every this many simulated milliseconds (about
#: 40 ms).
SLICE_S = 0.1
SLICE_EVENTS = 2000
WAN_SLICE_MS = 500.0

WAN_REGIONS = ("virginia", "tokyo", "mumbai", "sydney")
WAN_CLIENTS_PER_REGION = 4
WAN_RATE_PER_CLIENT = 10.0
WAN_DURATION_MS = 10_000.0
WAN_CRASH_MS = 3_000.0
WAN_RECOVER_MS = 7_000.0
WAN_HOT_SHARE = 0.02
WAN_VICTIM = "r1"


@dataclass
class Window:
    """One timed stretch of work, made of one or more slices, each
    timed between two visits to the reference kernel."""

    commits: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: The same two at reference speed: every slice's time multiplied
    #: by how fast the kernel ran right before and right after *it*
    #: (see :mod:`calibrate`), then summed.
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0
    #: TCP closed loop: latency of each request committed in it.
    latencies_ms: Sequence[float] = ()

    def add(self, wall_s: float, cpu_s: float,
            kernel_s: Sequence[float]) -> None:
        """One more slice; ``kernel_s`` are the kernel timings taken on
        either side of it."""
        speed = calibrate.speed(statistics.median(kernel_s))
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        self.ref_wall_s += wall_s * speed
        self.ref_cpu_s += cpu_s * speed

    @property
    def speed(self) -> float:
        """Machine speed over the window, each slice by its weight."""
        return self.ref_wall_s / self.wall_s


class SliceTimer:
    """Times work on this thread as slices of a :class:`Window`.  The
    clock starts when the timer is made; each :meth:`cut` ends a slice,
    runs the reference kernel once, outside what either neighbour
    times, and starts the next."""

    def __init__(self, outcome: "Outcome") -> None:
        self.outcome = outcome
        self.window = Window()
        #: Seconds in slices cut so far (kernel time is in none).
        self.timed_s = 0.0
        self._before = self._kernel()
        self._start()

    def _kernel(self) -> List[float]:
        timings = [calibrate.kernel()]
        self.outcome.bursts += timings
        return timings

    def _start(self) -> None:
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    @property
    def slice_s(self) -> float:
        """How long the current slice has run."""
        return time.perf_counter() - self._wall

    def cut(self) -> None:
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        after = self._kernel()
        self.window.add(wall, cpu, self._before + after)
        self.timed_s += wall
        self._before = after
        self._start()

    def close_window(self, commits: int) -> Window:
        """Hand the window cut so far to the outcome; the next slice
        opens a new one."""
        done, self.window = self.window, Window()
        done.commits = commits
        self.outcome.windows.append(done)
        return done


@dataclass
class Outcome:
    """What one run of one workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    windows: List[Window] = field(default_factory=list)
    #: Samples behind ``bench.commit_p99_ms``, and ``tcp_steady``'s
    #: paced ``commit_p50_ms``.
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    #: Seconds the reference kernel took, each time it was run between
    #: timed slices (see :mod:`calibrate`).
    bursts: List[float] = field(default_factory=list)
    #: Workload-specific end-to-end numbers.
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Counts and simulated-clock values that must repeat exactly.
    exact: Dict[str, Any] = field(default_factory=dict)
    #: ``time.time()`` when the first timed request was issued.
    first_timed_at: float = 0.0
    #: Set when the run must not be used (rerun once, then fail).
    invalid: Optional[str] = None
    #: Traced pass only: totals over the traced interval.
    commits_total: int = 0
    #: Seconds the process was busy, the base of every layer's share:
    #: CPU seconds on TCP, where the event loop idles between frames;
    #: wall seconds on the sims, where a pass is one synchronous call
    #: and wall is the clock the spans are timed with.
    busy_s: float = 0.0
    busy_wall_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def speed(self) -> float:
        """Machine speed relative to nominal over the whole run, from
        the median of its kernel timings: for set-up, which is not
        timed in slices."""
        return calibrate.speed(statistics.median(self.bursts))

    def count(self, tally: Tally) -> None:
        self.attempted += tally.attempted
        self.failed += tally.failed
        self.commits_total += tally.committed


# ----------------------------------------------------------------------
# TCP workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TcpShape:
    """How a TCP workload loads the same 4-replica deployment."""

    hot_share: float = 0.0
    #: Single requests each client keeps outstanding.
    window: int = 2
    #: > 1: each client keeps one ``batch``-command submission
    #: outstanding and replicas batch at the same size.
    batch: int = 1
    #: Commits per timed window: a whole number of checkpoint
    #: intervals, because the cost of a commit climbs between one
    #: checkpoint's garbage collection and the next.
    window_commits: int = 128
    #: Spend :data:`PACED_SHARE` of the time in an open loop at
    #: :data:`PACED_RATE_PER_S`; latency figures come from it.
    paced: bool = False
    #: Attach ``ReplicaStorage`` everywhere; time recovery afterwards.
    durable: bool = False


TCP_SHAPES: Dict[str, TcpShape] = {
    "tcp_steady": TcpShape(paced=True),
    "tcp_contended": TcpShape(hot_share=1.0, window=1),
    "tcp_batched": TcpShape(batch=8),
    "tcp_durable": TcpShape(durable=True,
                            window_commits=DURABLE_CHECKPOINT_INTERVAL),
}


def _bench_wrap(recorder: Optional[spans.Recorder]
                ) -> Optional[Callable[[str, Callable], Callable]]:
    """In the traced pass the load generator's own callbacks are spans
    of the ``bench`` layer; otherwise they run bare."""
    if recorder is None:
        return None
    return functools.partial(recorder.wrap, "bench")


class TcpRig:
    """ezBFT n=4 on loopback TCP with 4 clients, client ``i`` targeting
    replica ``i`` so every replica leads."""

    def __init__(self, shape: TcpShape, seed: int,
                 recorder: Optional[spans.Recorder] = None,
                 seam: Optional[str] = None,
                 durable: Optional[bool] = None) -> None:
        self.shape = shape
        self.seam = seam
        self.durable = shape.durable if durable is None else durable
        self.wrap = _bench_wrap(recorder)
        self.cluster: Any = None
        self.clients: List[Any] = []
        self.sources = [CommandSource(seed, i, shape.hot_share)
                        for i in range(CLIENTS)]
        self.storages: List[Any] = []
        self.data_dir: Optional[str] = None

    async def start(self) -> None:
        from repro.transport.asyncio_tcp import AsyncioCluster

        overrides: Dict[str, Any] = {}
        if self.shape.batch > 1:
            overrides["batch_size"] = self.shape.batch
        if self.durable:
            overrides["checkpoint_interval"] = \
                DURABLE_CHECKPOINT_INTERVAL
        self.cluster = AsyncioCluster(protocol="ezbft", num_replicas=4,
                                      **overrides)
        await self.cluster.start()
        if self.durable:
            from repro.storage import ReplicaStorage
            self.data_dir = os.path.join(WORK_DIR, f"data-{os.getpid()}")
            shutil.rmtree(self.data_dir, ignore_errors=True)
            for rid, replica in self.cluster.replicas.items():
                storage = ReplicaStorage(self.data_dir, rid)
                self.storages.append(storage)
                replica.attach_storage(storage)
        for i in range(CLIENTS):
            self.clients.append(await self.cluster.add_client(
                f"c{i}", target_replica=f"r{i}"))
        if self.seam == "obs":
            self._attach_instruments()
        elif self.seam == "trace":
            self._attach_tracer()

    def _attach_instruments(self) -> None:
        from repro.obs import LiveInstruments, MetricsRegistry
        registry = MetricsRegistry()
        loop = asyncio.get_running_loop()
        for rid, replica in self.cluster.replicas.items():
            live = LiveInstruments(
                registry, replica=rid, protocol="ezbft",
                now_ms=lambda: loop.time() * 1000.0)
            replica.instruments = live
            self.cluster.nodes[rid].instruments = live

    def _attach_tracer(self) -> None:
        from repro.trace import ActiveTracer, TraceCollector
        from repro.trace.live import wall_clock_ms
        tracer = ActiveTracer(wall_clock_ms,
                              collector=TraceCollector(),
                              sample_rate=1.0)
        for node in self.cluster.nodes.values():
            node.tracer = tracer
        for replica in self.cluster.replicas.values():
            replica.attach_tracer(tracer)
        for client in self.clients:
            client.tracer = tracer

    async def stop(self) -> None:
        await self.cluster.stop()
        for storage in self.storages:
            storage.close()
        await asyncio.sleep(0)

    # ------------------------------------------------------------------
    def _closed_drivers(self, tally: Tally) -> List[Any]:
        shape = self.shape
        if shape.batch > 1:
            return [ClosedBatchLoop(c, s, tally, batch=shape.batch,
                                    wrap=self.wrap)
                    for c, s in zip(self.clients, self.sources)]
        return [ClosedLoop(c, s, tally, window=shape.window,
                           wrap=self.wrap)
                for c, s in zip(self.clients, self.sources)]

    async def _drain(self, drivers: List[Any]) -> None:
        deadline = time.perf_counter() + DRAIN_S
        while any(d.in_flight for d in drivers) and \
                time.perf_counter() < deadline:
            await asyncio.sleep(0.005)

    async def warm_up(self) -> None:
        """A discarded closed loop of at least :data:`WARMUP_COMMITS`:
        dials every connection, fills the pair-key and codec caches."""
        tally = Tally()
        drivers = self._closed_drivers(tally)
        for driver in drivers:
            driver.start()
        while tally.committed < WARMUP_COMMITS:
            await asyncio.sleep(0.005)
        for driver in drivers:
            driver.stop()
        await self._drain(drivers)

    async def closed_phase(self, seconds: float, outcome: Outcome,
                           stop_at: Optional[Callable[[int], int]] = None
                           ) -> Tally:
        """Closed loop for ``seconds`` of timed slices, in windows of
        ``shape.window_commits`` commits.  ``stop_at(submitted)``,
        given how many requests the clients have submitted since they
        were created, may name a total to keep issuing up to after the
        timed part (unwindowed)."""
        tally = Tally()
        drivers = self._closed_drivers(tally)
        deadline = time.perf_counter() + seconds
        for driver in drivers:
            driver.start()

        timer = SliceTimer(outcome)
        base = first = 0

        def close_window() -> Tuple[int, int]:
            window = timer.close_window(tally.committed - base)
            window.latencies_ms = tally.latencies_ms[first:]
            return tally.committed, len(tally.latencies_ms)

        while timer.timed_s + timer.slice_s < seconds:
            await asyncio.sleep(0.002)
            full = tally.committed - base >= self.shape.window_commits
            if full or timer.slice_s >= SLICE_S:
                timer.cut()
                if full:
                    base, first = close_window()
        if not outcome.windows:  # too short for one whole window
            timer.cut()
            close_window()
        if stop_at is not None:
            submitted = sum(c.stats["submitted"] for c in self.clients)
            share, extra = divmod(stop_at(submitted) - submitted,
                                  len(drivers))
            for i, driver in enumerate(drivers):
                driver.limit = driver.issued + share + (i < extra)
            while any(d.issued < d.limit for d in drivers):
                await asyncio.sleep(0.005)
        for driver in drivers:
            driver.stop()
        await self._drain(drivers)
        outcome.count(tally)
        return tally

    async def paced_phase(self, seconds: float, outcome: Outcome
                          ) -> Tally:
        """Open loop at :data:`PACED_RATE_PER_S` per reference second
        for ``seconds``, right after the closed loop."""
        rate_per_s = PACED_RATE_PER_S * calibrate.speed(
            statistics.median(outcome.bursts[-PACED_KERNELS:]))
        tally = Tally()
        per_client = rate_per_s / CLIENTS
        total = max(1, int(per_client * seconds))
        stagger = 1000.0 / rate_per_s
        drivers = [OpenLoop(c, s, tally, rate_per_s=per_client,
                            total=total, offset_ms=i * stagger,
                            wrap=self.wrap)
                   for i, (c, s) in enumerate(zip(self.clients,
                                                  self.sources))]
        for driver in drivers:
            driver.start()
        deadline = time.perf_counter() + seconds + DRAIN_S
        while time.perf_counter() < deadline and not (
                all(d.done for d in drivers)
                and not any(d.in_flight for d in drivers)):
            await asyncio.sleep(0.01)
        for driver in drivers:
            driver.stop()
        outcome.count(tally)
        outcome.late_ms.extend(tally.late_ms)
        return tally

    # ------------------------------------------------------------------
    async def settle(self) -> None:
        """Wait (bounded) until every replica executed everything the
        clients saw committed."""
        committed = sum(c.stats["delivered_fast"] +
                        c.stats["delivered_slow"] for c in self.clients)
        deadline = time.perf_counter() + DRAIN_S
        while time.perf_counter() < deadline and any(
                r.executor.executed_count < committed
                for r in self.cluster.replicas.values()):
            await asyncio.sleep(0.01)


def check_replicas(replicas: Dict[str, Any],
                   sources: List[CommandSource],
                   outcome: Outcome) -> None:
    """The correctness gate: all correct replicas' state-machine
    digests equal, and every acknowledged put present."""
    states = {rid: r.statemachine.final_items()
              for rid, r in replicas.items()}
    digests = {rid: digest(state) for rid, state in states.items()}
    if len(set(digests.values())) != 1:
        outcome.violations.append(
            f"replica state digests differ: {digests}")
    hot_values = set().union(*(s.hot_values for s in sources))
    for rid, state in states.items():
        missing = sum(1 for source in sources
                      for key, value in source.acked.items()
                      if state.get(key) != value)
        if missing:
            outcome.violations.append(
                f"{rid}: {missing} acknowledged puts missing")
        if hot_values and state.get(HOT_KEY) not in hot_values:
            outcome.violations.append(
                f"{rid}: hot key holds a value nobody wrote")


async def measure_tcp(workload: str, seed: int, seconds: float,
                      recorder: Optional[spans.Recorder] = None,
                      seam: Optional[str] = None,
                      durable: Optional[bool] = None,
                      sat_only: bool = False) -> Outcome:
    """One TCP workload end to end: build, warm up, timed phases,
    drain, correctness gate, tear down.  ``sat_only`` runs just the
    closed loop (the reference side of a ratio)."""
    shape = TCP_SHAPES[workload]
    rig = TcpRig(shape, seed, recorder=recorder, seam=seam,
                 durable=durable)
    outcome = Outcome()
    await rig.start()
    try:
        await rig.warm_up()
        gc.collect()
        if recorder is not None:
            recorder.reset()
        counted = _tcp_counts(rig)
        outcome.first_timed_at = time.time()
        busy = (time.perf_counter(), time.process_time())
        paced = shape.paced and not sat_only
        sat_s = seconds * (1.0 - PACED_SHARE) if paced else seconds
        stop_at = None
        if rig.durable and not sat_only:
            stop_at = _durable_stop
        tally = await rig.closed_phase(sat_s, outcome, stop_at)
        if paced:
            tally = await rig.paced_phase(seconds - sat_s, outcome)
            late = percentile(tally.late_ms, 99.0)
            if late > LATE_P99_LIMIT_MS:
                outcome.invalid = (
                    f"paced generator ran late: p99 {late:.3f} ms > "
                    f"{LATE_P99_LIMIT_MS} ms")
        outcome.latencies_ms = tally.latencies_ms
        await rig.settle()
        # The reference kernel ran in between (it is all CPU): its
        # time is not the program's.
        kernel_s = sum(outcome.bursts)
        outcome.busy_wall_s = time.perf_counter() - busy[0] - kernel_s
        outcome.busy_s = time.process_time() - busy[1] - kernel_s
        check_replicas(rig.cluster.replicas, rig.sources, outcome)
        outcome.counters = {name: value - counted[name] for name, value
                            in _tcp_counts(rig).items()}
    finally:
        await rig.stop()
    if rig.data_dir is not None:
        try:
            if not sat_only:
                await _time_recoveries(rig, outcome, recorder)
        finally:
            shutil.rmtree(rig.data_dir, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(WORK_DIR)  # unless another run is using it
    return outcome


def _durable_stop(submitted: int) -> int:
    """The next total, at or past ``submitted``, that lies
    :data:`DURABLE_SUFFIX` commits beyond a checkpoint boundary."""
    interval = DURABLE_CHECKPOINT_INTERVAL
    target = (submitted // interval) * interval + DURABLE_SUFFIX
    return target if target >= submitted else target + interval


def _tcp_counts(rig: TcpRig) -> Dict[str, float]:
    """The deployment's additive counters, as they stand now."""
    nodes = rig.cluster.nodes.values()
    replicas = rig.cluster.replicas.values()
    clients = rig.clients
    return {
        "frames_sent": sum(n.frames_sent for n in nodes),
        "frames_dropped": sum(n.frames_dropped for n in nodes),
        "owner_changes": sum(r.stats["owner_changes_started"]
                             for r in replicas),
        "batched_items": sum(r.batcher.items_added for r in replicas),
        "batches": sum(r.batcher.batches_flushed for r in replicas),
        "fast": sum(c.stats["delivered_fast"] for c in clients),
        "slow": sum(c.stats["delivered_slow"] for c in clients),
        "retries": sum(c.stats["retries"] for c in clients),
        "events": 0,
    }


async def _time_recoveries(rig: TcpRig, outcome: Outcome,
                           recorder: Optional[spans.Recorder]) -> None:
    """Time ``attach_storage`` + ``recover_from_storage()`` of ``r0``
    on a fresh cluster, :data:`RECOVERIES` times over (copies of) the
    same data dir, and check the recovered state holds every
    acknowledged put."""
    from repro.storage import ReplicaStorage
    from repro.transport.asyncio_tcp import AsyncioCluster

    times: List[float] = []
    # Recoveries run seconds after the timed windows: they get kernel
    # timings of their own, one on either side of each.
    reference = [calibrate.kernel()]
    replayed = 0
    replay_s = 0.0
    for attempt in range(RECOVERIES):
        copy = os.path.join(WORK_DIR,
                            f"recover-{os.getpid()}-{attempt}")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(rig.data_dir, copy)
        cluster = AsyncioCluster(
            protocol="ezbft", num_replicas=4,
            checkpoint_interval=DURABLE_CHECKPOINT_INTERVAL)
        await cluster.start()
        storage = ReplicaStorage(copy, "r0")
        try:
            replica = cluster.replicas["r0"]
            before = recorder.total_s(
                "storage", "ReplicaStorage.replay_records") \
                if recorder is not None else 0.0
            started = time.perf_counter()
            replica.attach_storage(storage)
            summary = replica.recover_from_storage()
            times.append(time.perf_counter() - started)
            reference.append(calibrate.kernel())
            replayed += summary.records_replayed
            if recorder is not None:
                replay_s += recorder.total_s(
                    "storage", "ReplicaStorage.replay_records") - before
            if attempt == 0:
                state = replica.statemachine.final_items()
                missing = sum(1 for source in rig.sources
                              for key, value in source.acked.items()
                              if state.get(key) != value)
                if missing:
                    outcome.violations.append(
                        f"recovered r0 lacks {missing} acknowledged "
                        f"puts")
        finally:
            storage.close()
            await cluster.stop()
            shutil.rmtree(copy, ignore_errors=True)
    outcome.extra["recover_s"] = times
    outcome.extra["recover_speed"] = calibrate.speed(
        statistics.median(reference))
    outcome.counters["records_replayed"] = replayed
    outcome.counters["replay_s"] = replay_s


# ----------------------------------------------------------------------
# Sim workloads
# ----------------------------------------------------------------------
def _conditions(seed: int) -> Any:
    from repro.sim.network import NetworkConditions
    jitter = 0.0 if seed == PINNED_SEED else SEED_JITTER
    return NetworkConditions(jitter_fraction=jitter)


def measure_sim_saturated(seed: int,
                          recorder: Optional[spans.Recorder] = None
                          ) -> Outcome:
    """``repro.bench``'s pinned ``sim-ezbft-b1`` cell, run through the
    library's own scenario runner as ``repro bench`` does, but for one
    thing: the runner drains the simulator in a single
    ``run_until_idle()`` with no boundary inside it, so for the length
    of the pass that name is bound to :func:`drain` below, which does
    the same through the public ``Simulator.run(max_events=...)``, one
    timed slice at a time.  Building the cluster comes before the first
    slice and counts as set-up."""
    from repro.bench.runner import PINNED_GRID
    from repro.scenario.runner import ScenarioRunner
    from repro.sim.events import Simulator

    cell = next(c for c in PINNED_GRID if c.name == "sim-ezbft-b1")
    scenario = dataclasses.replace(cell.scenario(), seed=seed,
                                   conditions=_conditions(seed))
    outcome = Outcome()

    def drain(sim: Any, max_events: int = 0) -> int:
        gc.collect()
        if recorder is not None:
            recorder.reset()
        outcome.first_timed_at = time.time()
        timer = SliceTimer(outcome)
        while sim.pending_events:
            sim.run(max_events=SLICE_EVENTS)
            timer.cut()
        timer.close_window(0)  # commits: once the report is in
        return sim.events_processed

    run_until_idle = Simulator.run_until_idle
    Simulator.run_until_idle = drain
    try:
        report, cluster = ScenarioRunner(backend="sim") \
            .run_with_cluster(scenario)
    finally:
        Simulator.run_until_idle = run_until_idle
    window, = outcome.windows
    window.commits = report.delivered
    outcome.busy_wall_s = outcome.busy_s = window.wall_s
    outcome.attempted = report.client_stats.get("submitted", 0)
    outcome.failed = outcome.attempted - report.delivered
    outcome.commits_total = report.delivered
    events = report.network["events_processed"]
    outcome.exact = {
        "delivered": report.delivered,
        "p50_ms": round(report.latency.p50, 3),
        "p99_ms": round(report.latency.p99, 3),
        "events": events,
    }
    outcome.extra["commit_p50_ms"] = report.latency.p50
    outcome.extra["commit_p99_ms"] = report.latency.p99
    if seed == PINNED_SEED and outcome.exact != PINS:
        outcome.violations.append(
            f"sim-ezbft-b1 deterministic fields drifted from "
            f"BENCH_5ff976e.json: {outcome.exact} != {PINS}")
    states = [r.statemachine.final_items()
              for r in cluster.replicas.values()]
    if len({digest(state) for state in states}) != 1:
        outcome.violations.append("replica state digests differ")
    if any(len(state) != report.delivered for state in states):
        outcome.violations.append(
            "a replica does not hold one key per acknowledged put")
    outcome.counters = _sim_counts(cluster)
    return outcome


def _sim_counts(cluster: Any) -> Dict[str, float]:
    """The same counters :func:`_tcp_counts` reads, off a sim cluster
    (a fresh cluster per run, so they start at zero)."""
    replicas = cluster.replicas.values()
    clients = cluster.clients.values()
    return {
        "frames_sent": 0, "frames_dropped": 0,
        "owner_changes": sum(r.stats.get("owner_changes_started", 0)
                             for r in replicas),
        "batched_items": 0, "batches": 0,
        "fast": sum(c.stats.get("delivered_fast", 0) for c in clients),
        "slow": sum(c.stats.get("delivered_slow", 0) for c in clients),
        "retries": sum(c.stats.get("retries", 0) for c in clients),
        "events": cluster.sim.events_processed,
    }


@dataclass
class WanRun:
    """One protocol's pass over the crash schedule."""

    tallies: Dict[str, Tally]
    cluster: Any
    sources: List[CommandSource]

    def latencies(self, before_ms: Optional[float] = None
                  ) -> List[float]:
        return [latency
                for tally in self.tallies.values()
                for latency, due in zip(tally.latencies_ms,
                                        tally.due_times_ms)
                if before_ms is None or due < before_ms]


def run_wan_crash(protocol: str, seed: int,
                  recorder: Optional[spans.Recorder] = None,
                  cut: Callable[[], None] = lambda: None) -> WanRun:
    """Open-loop clients in every region of the Experiment-1 WAN while
    :data:`WAN_VICTIM` is crashed from 3 s to 7 s; requests keep
    arriving on schedule during the outage, so it is counted.
    ``cut()`` is called between slices of the pass: once the deployment
    is built, then after every :data:`WAN_SLICE_MS` of simulated
    time."""
    from repro.cluster.builder import build_cluster
    from repro.scenario.faults import (
        CrashReplica,
        RecoverReplica,
        SimFaultInjector,
    )
    from repro.sim.latency import EXPERIMENT1

    wrap = _bench_wrap(recorder)
    cluster = build_cluster(protocol, list(WAN_REGIONS), EXPERIMENT1,
                            seed=seed, conditions=_conditions(seed))
    injector = SimFaultInjector(cluster)
    for event in (CrashReplica(at_ms=WAN_CRASH_MS, replica=WAN_VICTIM),
                  RecoverReplica(at_ms=WAN_RECOVER_MS,
                                 replica=WAN_VICTIM)):
        cluster.sim.schedule_at(event.at_ms, injector.apply, event)
    offsets = random.Random(seed)
    interval_ms = 1000.0 / WAN_RATE_PER_CLIENT
    total = int(WAN_RATE_PER_CLIENT * WAN_DURATION_MS / 1000.0)
    tallies: Dict[str, Tally] = {}
    sources: List[CommandSource] = []
    index = 0
    for region in WAN_REGIONS:
        for _ in range(WAN_CLIENTS_PER_REGION):
            client_id = f"c{index}"
            client = cluster.add_client(client_id, region=region,
                                        record=False)
            source = CommandSource(seed, index, WAN_HOT_SHARE)
            tally = tallies[client_id] = Tally()
            sources.append(source)
            OpenLoop(client, source, tally,
                     rate_per_s=WAN_RATE_PER_CLIENT, total=total,
                     offset_ms=offsets.uniform(0.0, interval_ms),
                     wrap=wrap).start()
            index += 1
    cut()
    end_ms = WAN_DURATION_MS + DRAIN_S * 1000.0
    until = 0.0
    while until < end_ms:
        until = min(until + WAN_SLICE_MS, end_ms)
        cluster.run(until=until)
        cut()
    return WanRun(tallies, cluster, sources)


def measure_sim_wan_crash(seed: int, seconds: float,
                          recorder: Optional[spans.Recorder] = None
                          ) -> Outcome:
    """ezBFT over the crash schedule, repeated for ``seconds`` (each
    repetition is a timed window and must reproduce the first exactly),
    plus one untimed PBFT pass as the reference."""
    outcome = Outcome()
    reference = run_wan_crash("pbft", seed)
    lost = sum(t.failed for t in reference.tallies.values())
    if lost:
        outcome.violations.append(
            f"pbft reference: {lost} requests not committed")
    pbft_healthy_ms = percentile(
        reference.latencies(before_ms=WAN_CRASH_MS), 50.0)
    # One cluster alive at a time, however many passes fit the time:
    # peak memory must not depend on how fast the machine is today.
    del reference
    if recorder is not None:
        recorder.reset()
    outcome.first_timed_at = time.time()
    deadline = time.perf_counter() + seconds
    while not outcome.windows or time.perf_counter() < deadline:
        gc.collect()
        timer = SliceTimer(outcome)
        run = run_wan_crash("ezbft", seed, recorder, timer.cut)
        window = timer.close_window(
            sum(t.committed for t in run.tallies.values()))
        outcome.busy_wall_s += window.wall_s
        outcome.busy_s += window.wall_s
        outcome.commits_total += window.commits
        exact = _wan_exact(run, pbft_healthy_ms)
        if outcome.exact and exact != outcome.exact:
            outcome.violations.append(
                f"same seed, different simulated outcome: {exact} != "
                f"{outcome.exact}")
        outcome.exact = exact
        gate = _wan_gate(run)
        del run
    # Every pass reproduces the first: the last one's samples stand
    # for all, and its counters scale.
    outcome.attempted, outcome.failed = gate.attempted, gate.failed
    outcome.latencies_ms = gate.latencies_ms
    outcome.violations += gate.violations
    outcome.counters = {name: value * len(outcome.windows)
                        for name, value in gate.counters.items()}
    # ... except the one reported as a bare count, not per commit.
    outcome.counters["owner_changes"] = gate.counters["owner_changes"]
    outcome.extra.update({name: outcome.exact[name] for name in (
        "commit_p50_ms", "commit_p99_ms", "outage_ms",
        "wan_p50_vs_pbft")})
    return outcome


def _wan_gate(run: WanRun) -> Outcome:
    """One ezBFT pass through the correctness gate, with its samples
    and counters."""
    gate = Outcome(latencies_ms=run.latencies(),
                   counters=_sim_counts(run.cluster))
    for tally in run.tallies.values():
        gate.attempted += tally.attempted
        gate.failed += tally.failed
    # The victim missed four seconds of traffic and is allowed to lag
    # (it does: see README.md); the gate is about correct replicas.
    check_replicas({rid: replica for rid, replica
                    in run.cluster.replicas.items()
                    if rid != WAN_VICTIM}, run.sources, gate)
    if gate.failed:
        gate.violations.append(
            f"{gate.failed} requests not committed with the correct "
            f"reply within {DRAIN_S:g} s of the last one")
    return gate


def _wan_exact(run: WanRun, pbft_healthy: float) -> Dict[str, Any]:
    """Every count and simulated-clock figure of one ezBFT pass."""
    healthy = percentile(run.latencies(before_ms=WAN_CRASH_MS), 50.0)
    cluster = run.cluster
    served = []
    for client_id, tally in run.tallies.items():
        region = cluster.client_regions[client_id]
        if cluster.nearest_replica(region) != WAN_VICTIM:
            continue
        served.extend(done for done, due in zip(tally.commit_times_ms,
                                                tally.due_times_ms)
                      if due >= WAN_CRASH_MS)
    everything = run.latencies()
    return {
        "committed": len(everything),
        "events": cluster.sim.events_processed,
        "commit_p50_ms": healthy,
        "commit_p99_ms": percentile(everything, 99.0),
        "outage_ms": min(served) - WAN_CRASH_MS if served
        else float("inf"),
        "wan_p50_vs_pbft": healthy / pbft_healthy,
        "pbft_p50_ms": pbft_healthy,
    }
