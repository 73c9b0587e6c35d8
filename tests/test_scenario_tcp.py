"""Scenario execution on the asyncio TCP backend (real localhost
sockets, OS-assigned ports)."""

import asyncio

import pytest

from repro.errors import ConfigurationError, ScenarioTimeoutError
from repro.scenario import (
    CrashReplica,
    LatencyShift,
    RecoverReplica,
    Scenario,
    ScenarioRunner,
    WorkloadSpec,
    preset,
)
from repro.statemachine.interference import AlwaysInterfere


def test_smoke_scenario_runs_over_tcp():
    scenario = preset("smoke")
    assert "tcp" in scenario.backends
    report = ScenarioRunner(backend="tcp").run(scenario)
    assert report.backend == "tcp"
    # 1 distinct region x 2 clients x 6 requests, all delivered.
    assert report.delivered == 12
    assert report.fast_path_ratio == 1.0
    assert report.network["frames_received"] > 0
    data = report.to_dict()
    phase = data["phases"][0]
    assert phase["latency"]["p99_ms"] is not None
    assert phase["throughput_per_sec"] > 0


def test_tcp_run_with_warmup_and_report_json(tmp_path):
    scenario = Scenario(
        name="tcp-warmup",
        protocol="ezbft",
        replica_regions=("local",) * 4,
        latency="local",
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=5,
                              warmup_requests=2),
        seed=8,
        backends=("tcp",),
    )
    report = ScenarioRunner(backend="tcp").run(scenario)
    assert report.warmup_discarded == 2
    assert report.latency.count == 3
    out = tmp_path / "report.json"
    report.save(str(out))
    assert out.read_text().startswith("{")


def test_tcp_crash_and_recover_fault_schedule():
    # Crash a non-target replica mid-run: the fast path needs all
    # 3f+1 replicas, so post-crash commits fall to the slow path while
    # requests keep completing.
    scenario = Scenario(
        name="tcp-crash",
        protocol="ezbft",
        replica_regions=("local",) * 4,
        latency="local",
        # Think time paces the closed loop (~60ms/request) so the run
        # is guaranteed to span the crash window on real sockets.
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=8,
                              think_time_ms=60.0),
        faults=(CrashReplica(at_ms=100.0, replica="r3"),
                RecoverReplica(at_ms=700.0, replica="r3")),
        seed=9,
        slow_path_timeout=150.0,
        retry_timeout=5_000.0,
        suspicion_timeout=3_000.0,
        backends=("tcp",),
    )
    report = ScenarioRunner(backend="tcp", tcp_timeout_s=30.0) \
        .run(scenario)
    assert report.delivered == 8
    assert report.fast_path_ratio < 1.0
    assert [e["event"] for e in report.fault_log] == \
        ["CrashReplica", "RecoverReplica"]


def test_unsupported_fault_event_rejected_on_tcp():
    # Every *built-in* fault type is TCP-supported since the netem
    # seam; an unregistered custom event class still fails fast.
    from dataclasses import dataclass

    from repro.scenario import FaultEvent
    from repro.scenario.faults import FaultInjector

    @dataclass(frozen=True)
    class MeteorStrike(FaultEvent):
        pass

    with pytest.raises(ConfigurationError,
                       match="MeteorStrike is not supported on the tcp"):
        FaultInjector.check_supported((MeteorStrike(at_ms=1.0),), "tcp")


def test_remote_hosted_replica_fault_rejected_on_tcp():
    # Replica-targeted faults cannot reach a replica the host map
    # places in another process; the error names the replica.
    from repro.scenario import CrashReplica
    from repro.scenario.faults import FaultInjector

    with pytest.raises(ConfigurationError, match="r3"):
        FaultInjector.check_supported(
            (CrashReplica(at_ms=1.0, replica="r3"),), "tcp",
            remote_replicas=("r3",))


@pytest.mark.parametrize("protocol", ["pbft", "zyzzyva", "fab"])
def test_baseline_protocols_run_scenarios_over_tcp(protocol):
    report = ScenarioRunner(backend="tcp").run(
        preset(f"smoke-{protocol}"))
    assert report.protocol == protocol
    assert report.delivered == 12


@pytest.mark.parametrize("protocol,stored", [("ezbft", True),
                                             ("pbft", False)])
def test_durable_tcp_run_backs_replicas_the_registry_says_can(
        tmp_path, protocol, stored):
    """``durable=true`` attaches an on-disk store to every local
    replica of a protocol whose registry entry declares
    ``supports_durability``; the others run in memory, as before."""
    scenario = Scenario(
        name=f"tcp-durable-{protocol}",
        protocol=protocol,
        replica_regions=("local",) * 4,
        latency="local",
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=3),
        seed=12,
        durable=True,
        backends=("tcp",),
    )
    report = ScenarioRunner(backend="tcp", tcp_timeout_s=30.0,
                            data_dir=str(tmp_path)).run(scenario)
    assert report.delivered == 3
    stores = sorted(p.name for p in tmp_path.iterdir())
    assert stores == (["r0", "r1", "r2", "r3"] if stored else [])
    for rid in stores:
        assert any(f.name.startswith("wal-")
                   for f in (tmp_path / rid).iterdir())


def test_tcp_latency_shift_and_churn_no_longer_raise():
    """Fault-schedule parity (ROADMAP): LatencyShift retargets the live
    netem profile and ClientChurn spawns/stops drivers mid-run on TCP,
    and the run tears down without leaking loop tasks."""
    from repro.netem import LinkModel, NetemProfile
    from repro.scenario import ClientChurn

    scenario = Scenario(
        name="tcp-shift-churn",
        protocol="ezbft",
        replica_regions=("local",) * 4,
        latency="local",
        netem=NetemProfile(default=LinkModel(delay_ms=5.0)),
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=4,
                              think_time_ms=40.0),
        faults=(LatencyShift(at_ms=100.0, factor=2.0),
                ClientChurn(at_ms=150.0, add=2),
                ClientChurn(at_ms=400.0, stop=2)),
        seed=10,
        backends=("tcp",),
    )

    async def scenario_run():
        runner = ScenarioRunner(backend="tcp", tcp_timeout_s=30.0)
        report, _ = await runner.execute(scenario)
        await asyncio.sleep(0.2)
        leftovers = [t for t in asyncio.all_tasks()
                     if t is not asyncio.current_task()
                     and not t.done()]
        assert leftovers == []
        return report

    report = asyncio.run(scenario_run())
    assert [e["event"] for e in report.fault_log] == \
        ["LatencyShift", "ClientChurn", "ClientChurn"]
    # 4 initial requests + whatever the churned clients got through
    # before being stopped.
    assert report.delivered >= 4
    assert report.network["netem_frames_shaped"] > 0


def test_tcp_netem_chaos_faults_apply():
    """The four netem chaos events execute on TCP without raising and
    retarget the cluster's live shaper."""
    from repro.scenario import (
        BandwidthCap,
        Jitter,
        PacketLoss,
        Reorder,
    )

    scenario = Scenario(
        name="tcp-chaos",
        protocol="ezbft",
        replica_regions=("local",) * 4,
        latency="local",
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=4,
                              think_time_ms=30.0),
        faults=(PacketLoss(at_ms=10.0, probability=0.05),
                Jitter(at_ms=20.0, jitter_ms=2.0),
                BandwidthCap(at_ms=30.0, rate_kbps=10_000.0),
                Reorder(at_ms=40.0, probability=0.1, extra_ms=1.0)),
        seed=11,
        retry_timeout=800.0,
        backends=("tcp",),
    )
    report = ScenarioRunner(backend="tcp", tcp_timeout_s=30.0) \
        .run(scenario)
    assert report.delivered == 4
    assert [e["event"] for e in report.fault_log] == \
        ["PacketLoss", "Jitter", "BandwidthCap", "Reorder"]
    assert report.network["netem_frames_shaped"] > 0


def test_lossy_wan_preset_runs_on_tcp():
    """Acceptance: the lossy-WAN preset (loss + jitter + mid-run
    LatencyShift) executes on the TCP backend."""
    report = ScenarioRunner(backend="tcp", tcp_timeout_s=45.0) \
        .run(preset("lossy-wan"))
    assert report.delivered == 12
    assert [e["event"] for e in report.fault_log] == ["LatencyShift"]
    assert report.network["netem_frames_shaped"] > 0


def _wedged_scenario() -> Scenario:
    """A closed-loop run that cannot finish: 3 of 4 replicas crash at
    t=0, so no quorum ever forms.  Recovery timers are pushed far out
    so the wedge is quiet (no retry/suspicion churn) while the runner
    waits."""
    return Scenario(
        name="tcp-wedged",
        protocol="ezbft",
        replica_regions=("local",) * 4,
        latency="local",
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=2),
        faults=(CrashReplica(at_ms=0.0, replica="r1"),
                CrashReplica(at_ms=0.0, replica="r2"),
                CrashReplica(at_ms=0.0, replica="r3")),
        slow_path_timeout=400.0,
        retry_timeout=60_000.0,
        suspicion_timeout=60_000.0,
        view_change_timeout=60_000.0,
        backends=("tcp",),
    )


def test_tcp_timeout_raises_scenario_timeout_error():
    with pytest.raises(ScenarioTimeoutError, match="did not finish"):
        ScenarioRunner(backend="tcp",
                       tcp_timeout_s=1.0).run(_wedged_scenario())


def test_tcp_partial_startup_failure_stops_started_nodes():
    """A bind failure partway through cluster startup must still stop
    the nodes that did come up (teardown runs on *any* failure, not
    just timeouts)."""
    from repro.transport import asyncio_tcp

    started = []
    original_start = asyncio_tcp.AsyncioNode.start

    async def failing_start(self):
        if len(started) == 2:
            raise OSError("synthetic bind failure")
        await original_start(self)
        started.append(self)

    asyncio_tcp.AsyncioNode.start = failing_start
    try:
        async def scenario_run():
            runner = ScenarioRunner(backend="tcp")
            with pytest.raises(OSError, match="synthetic"):
                await runner.execute(preset("smoke"))
            assert len(started) == 2
            assert all(node._closed for node in started)

        asyncio.run(scenario_run())
    finally:
        asyncio_tcp.AsyncioNode.start = original_start


def test_tcp_timeout_tears_down_cluster_and_leaves_no_tasks():
    """A timed-out run must not strand the deployment: every node is
    stopped (sockets closed, send tasks cancelled) and no loop task
    survives the failure."""
    from repro.transport.asyncio_tcp import AsyncioCluster

    stopped = []
    original_stop = AsyncioCluster.stop

    async def spying_stop(self):
        stopped.append(self)
        await original_stop(self)

    AsyncioCluster.stop = spying_stop
    try:
        async def scenario_run():
            runner = ScenarioRunner(backend="tcp", tcp_timeout_s=1.0)
            with pytest.raises(ScenarioTimeoutError):
                await runner.execute(_wedged_scenario())
            # cleanup ran inside the failing coroutine itself
            assert len(stopped) == 1
            cluster = stopped[0]
            assert all(node._closed
                       for node in cluster.nodes.values())
            # let cancelled send tasks and EOF'd connection readers
            # unwind, then require a quiet loop
            await asyncio.sleep(0.2)
            leftovers = [t for t in asyncio.all_tasks()
                         if t is not asyncio.current_task()
                         and not t.done()]
            assert leftovers == []

        asyncio.run(scenario_run())
    finally:
        AsyncioCluster.stop = original_stop


def _run_keeping_cluster(scenario, backend):
    """The report and the (torn-down) cluster of one run."""
    runner = ScenarioRunner(backend=backend)
    if backend == "sim":
        return runner.run_with_cluster(scenario)
    return asyncio.run(runner.execute(scenario))


def test_both_backends_honour_primary_placement():
    scenario = Scenario(
        name="primary-in-tokyo",
        protocol="pbft",
        replica_regions=("virginia", "tokyo", "mumbai", "sydney"),
        latency="experiment1",
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=2),
        primary_region="tokyo",
        seed=30,
        backends=("sim", "tcp"),
    )
    for backend in ("sim", "tcp"):
        report, cluster = _run_keeping_cluster(scenario, backend)
        assert report.delivered == 8, backend
        assert {r.primary for r in cluster.replicas.values()} == {"r1"}
        assert {c.primary for c in cluster.clients.values()} == {"r1"}


def test_tcp_honours_scenario_interference():
    relation = AlwaysInterfere()
    scenario = Scenario(
        name="tcp-interference",
        protocol="ezbft",
        replica_regions=("local",) * 4,
        latency="local",
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=2),
        interference=relation,
        seed=31,
        backends=("tcp",),
    )
    report, cluster = _run_keeping_cluster(scenario, "tcp")
    assert report.delivered == 2
    assert all(r.interference is relation
               for r in cluster.replicas.values())
