"""Scenario API: spec validation, fault-schedule execution, phase
reporting, warmup exclusion, and end-to-end determinism."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    ClientChurn,
    CrashReplica,
    Heal,
    LatencyShift,
    Partition,
    Phase,
    RecoverReplica,
    Scenario,
    ScenarioRunner,
    SwapByzantine,
    WorkloadSpec,
    preset,
    run_scenario,
)


def lan_scenario(**overrides) -> Scenario:
    """A fast 4-replica LAN scenario for unit-level runs."""
    defaults = dict(
        name="t",
        protocol="ezbft",
        replica_regions=("local",) * 4,
        latency="local",
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=4),
        slow_path_timeout=50.0,
        retry_timeout=400.0,
        suspicion_timeout=200.0,
        view_change_timeout=400.0,
        seed=3,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_unknown_latency_name_rejected(self):
        with pytest.raises(ConfigurationError, match="latency matrix"):
            lan_scenario(latency="nope").validate()

    def test_region_not_in_matrix_rejected(self):
        with pytest.raises(ConfigurationError, match="not in latency"):
            lan_scenario(replica_regions=("mars",) * 4).validate()

    def test_bad_workload_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="closed"):
            lan_scenario(workload=WorkloadSpec(mode="best-effort")) \
                .validate()

    def test_fault_event_unknown_replica_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown replica"):
            lan_scenario(
                faults=(CrashReplica(at_ms=1.0, replica="r9"),)) \
                .validate()

    def test_fault_event_past_horizon_rejected(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            lan_scenario(
                workload=WorkloadSpec(mode="open", rate_per_client=10),
                duration_ms=100.0,
                faults=(CrashReplica(at_ms=500.0, replica="r0"),)) \
                .validate()

    def test_open_loop_needs_horizon(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            lan_scenario(workload=WorkloadSpec(mode="open")).validate()

    def test_duplicate_phase_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate phase"):
            lan_scenario(phases=(Phase("a", 10.0), Phase("a", 10.0))) \
                .validate()

    def test_unknown_byzantine_behavior_rejected(self):
        with pytest.raises(ConfigurationError, match="behavior"):
            lan_scenario(
                faults=(SwapByzantine(at_ms=0.0, replica="r0",
                                      behavior="lazy"),)).validate()

    def test_partition_sides_must_not_overlap(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            lan_scenario(
                faults=(Partition(at_ms=0.0,
                                  sides=(("r0",), ("r0", "r1"))),)) \
                .validate()

    def test_churn_must_do_something(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            lan_scenario(faults=(ClientChurn(at_ms=1.0),)).validate()

    def test_process_faults_rejected_before_a_sim_run(self, monkeypatch):
        # KillProcess passes Scenario.validate (the spec may also name
        # tcp) but the simulator has no process to kill: the sim
        # deployment refuses the schedule before building the cluster.
        from repro.scenario import KillProcess, RestartProcess, deployment

        def no_build(*args, **kwargs):
            raise AssertionError("the cluster was built")

        monkeypatch.setattr(deployment, "build_cluster", no_build)
        for event in (KillProcess(at_ms=100.0, replica="r1"),
                      RestartProcess(at_ms=100.0, replica="r1")):
            scenario = lan_scenario(faults=(event,))
            scenario.validate()
            runner = ScenarioRunner()
            with pytest.raises(ConfigurationError,
                               match=f"{type(event).__name__} is not "
                                     f"supported on the sim backend"):
                runner.run(scenario)


# ----------------------------------------------------------------------
# Execution: the basics
# ----------------------------------------------------------------------
class TestSimExecution:
    def test_closed_loop_delivers_every_request(self):
        # Client placement defaults to one group per *distinct* replica
        # region: the LAN deployment has one ("local"), so one client
        # issues requests_per_client requests.
        report = run_scenario(lan_scenario())
        assert report.delivered == 4
        assert report.fast_path_ratio == 1.0

    def test_report_shape(self):
        report = run_scenario(lan_scenario())
        data = report.to_dict()
        assert data["protocol"] == "ezbft"
        assert data["backend"] == "sim"
        phase = data["phases"][0]
        assert {"throughput_per_sec", "latency",
                "fast_path_ratio"} <= set(phase)
        assert {"p50_ms", "p90_ms", "p99_ms"} <= set(phase["latency"])
        # Strict JSON (NaN mapped to null).
        report.to_json()

    def test_every_protocol_runs_under_a_scenario(self):
        for protocol in ("ezbft", "pbft", "zyzzyva", "fab"):
            report = run_scenario(
                lan_scenario(protocol=protocol,
                             name=f"t-{protocol}"))
            assert report.delivered == 4, protocol
            assert report.latency.count == 4

    def test_durable_scenario_refuses_the_sim_backend(self):
        # validate() only requires 'tcp' to be *among* the backends,
        # so this scenario is valid -- but running it on the simulator
        # would silently drop the durability it asks for.
        scenario = lan_scenario(durable=True, backends=("sim", "tcp"))
        scenario.validate()
        with pytest.raises(ConfigurationError,
                           match="durable.*sim backend"):
            ScenarioRunner(backend="sim").run(scenario)

    def test_custom_statemachine_factory(self):
        from repro.statemachine.kvstore import KVStore

        class AuditedKV(KVStore):
            pass

        report, cluster = ScenarioRunner().run_with_cluster(
            lan_scenario(statemachine=AuditedKV))
        assert report.delivered == 4
        for machine in cluster.statemachines().values():
            assert isinstance(machine, AuditedKV)

    def test_warmup_requests_excluded_recorder_side(self):
        scenario = lan_scenario(
            workload=WorkloadSpec(mode="closed", clients_per_region=2,
                                  requests_per_client=5,
                                  warmup_requests=2))
        report = run_scenario(scenario)
        # 2 clients x 5 requests; each client's first 2 are warmup.
        assert report.warmup_discarded == 4
        assert report.latency.count == 6
        assert report.delivered == 6

    def test_open_loop_phases_reported_separately(self):
        scenario = lan_scenario(
            workload=WorkloadSpec(mode="open", clients_per_region=2,
                                  rate_per_client=100.0),
            phases=(Phase("ramp", 200.0), Phase("steady", 300.0)),
        )
        report = run_scenario(scenario)
        assert [p.name for p in report.phases] == ["ramp", "steady"]
        ramp, steady = report.phases
        assert ramp.start_ms == 0.0 and ramp.end_ms == 200.0
        assert steady.start_ms == 200.0 and steady.end_ms == 500.0
        assert ramp.delivered > 0 and steady.delivered > 0
        assert report.delivered >= ramp.delivered + steady.delivered


# ----------------------------------------------------------------------
# Fault schedule
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_events_fire_at_their_scheduled_sim_times(self):
        scenario = lan_scenario(
            workload=WorkloadSpec(mode="open", clients_per_region=1,
                                  rate_per_client=50.0),
            duration_ms=500.0,
            retry_timeout=60_000.0,
            suspicion_timeout=60_000.0,
            faults=(LatencyShift(at_ms=120.0, factor=2.0),
                    Partition(at_ms=250.0,
                              sides=(("r3",), ("r0", "r1", "r2"))),
                    Heal(at_ms=400.0)),
        )
        report = run_scenario(scenario)
        assert [(e["event"], e["at_ms"], e["applied_ms"])
                for e in report.fault_log] == [
            ("LatencyShift", 120.0, 120.0),
            ("Partition", 250.0, 250.0),
            ("Heal", 400.0, 400.0),
        ]

    def test_crash_owner_change_recover_is_deterministic(self):
        scenario = preset("crash-recovery")
        first = ScenarioRunner().run(scenario)
        second = ScenarioRunner().run(scenario)
        assert first.delivered == 6
        assert first.owner_changes >= 1      # suspicion -> owner change
        assert first.client_stats["retries"] >= 1
        assert first.fast_path_ratio < 1.0   # fast quorum unreachable
        a, b = first.to_dict(), second.to_dict()
        a.pop("wall_seconds")
        b.pop("wall_seconds")
        assert a == b

    def test_same_seed_same_report_with_jitter_and_contention(self):
        from repro.sim.network import NetworkConditions

        def scenario():
            return lan_scenario(
                workload=WorkloadSpec(mode="closed",
                                      clients_per_region=3,
                                      requests_per_client=6,
                                      contention=0.5),
                conditions=NetworkConditions(jitter_fraction=0.1),
                seed=99)

        a = run_scenario(scenario()).to_dict()
        b = run_scenario(scenario()).to_dict()
        a.pop("wall_seconds")
        b.pop("wall_seconds")
        assert a == b

    def test_different_seed_different_jittered_latencies(self):
        from repro.sim.network import NetworkConditions

        def report(seed):
            return run_scenario(lan_scenario(
                conditions=NetworkConditions(jitter_fraction=0.2),
                seed=seed))

        assert report(1).latency.mean != report(2).latency.mean

    def test_crash_blocks_and_recover_restores(self):
        # Crash r0 mid-run under open load from its own clients: the
        # fast path needs all four replicas, so deliveries during the
        # crash window are slow-path only; recovery happens after.
        scenario = lan_scenario(
            workload=WorkloadSpec(mode="open", clients_per_region=1,
                                  rate_per_client=40.0),
            phases=(Phase("healthy", 300.0), Phase("crashed", 400.0)),
            retry_timeout=60_000.0,
            suspicion_timeout=60_000.0,
            faults=(CrashReplica(at_ms=300.0, replica="r3"),),
        )
        report = run_scenario(scenario)
        healthy, crashed = report.phases
        assert healthy.fast_path_ratio == 1.0
        assert crashed.fast_path_ratio < 0.5
        assert crashed.delivered > 0  # slow path keeps committing

    def test_swap_byzantine_equivocation_triggers_pom(self):
        report = run_scenario(preset("equivocation"))
        assert report.delivered == 4
        assert report.client_stats["poms_sent"] >= 1
        assert report.owner_changes >= 1

    def test_client_churn_adds_load_mid_run(self):
        base = lan_scenario(
            workload=WorkloadSpec(mode="open", clients_per_region=1,
                                  rate_per_client=50.0),
            duration_ms=600.0,
            retry_timeout=60_000.0,
            suspicion_timeout=60_000.0)
        churned = base.with_overrides(
            faults=(ClientChurn(at_ms=300.0, add=3, region="local"),))
        quiet = run_scenario(base)
        loud = run_scenario(churned)
        assert loud.delivered > quiet.delivered
        assert loud.fault_log[0]["event"] == "ClientChurn"

    def test_recover_does_not_heal_explicit_partitions(self):
        # A replica that crashes and recovers while a Partition event
        # is in force must come back into a *still-partitioned*
        # network: recovery undoes only the crash isolation, whether
        # the partition came before the crash or during it.
        declared = Partition(at_ms=50.0, sides=(("r1",), ("r2", "r3")))
        for partition in (declared,
                          Partition(at_ms=150.0, sides=declared.sides)):
            scenario = lan_scenario(
                workload=WorkloadSpec(mode="open", clients_per_region=1,
                                      rate_per_client=20.0),
                duration_ms=500.0,
                retry_timeout=60_000.0,
                suspicion_timeout=60_000.0,
                faults=(partition,
                        CrashReplica(at_ms=100.0, replica="r1"),
                        RecoverReplica(at_ms=200.0, replica="r1")),
            )
            _, cluster = ScenarioRunner().run_with_cluster(scenario)
            partitions = cluster.network.conditions.partitions
            # Exactly the declared partition survives.
            assert partitions == {("r1", "r2"), ("r2", "r1"),
                                  ("r1", "r3"), ("r3", "r1")}, partition

    def test_repeated_churn_stop_winds_down_distinct_clients(self):
        # Two stop=1 events must stop two different clients, i.e.
        # strictly less load than a single stop=1.
        def run(faults):
            return run_scenario(lan_scenario(
                workload=WorkloadSpec(mode="open", clients_per_region=3,
                                      rate_per_client=40.0),
                duration_ms=800.0,
                retry_timeout=60_000.0,
                suspicion_timeout=60_000.0,
                faults=faults))

        one = run((ClientChurn(at_ms=200.0, stop=1),))
        two = run((ClientChurn(at_ms=200.0, stop=1),
                   ClientChurn(at_ms=210.0, stop=1)))
        assert two.delivered < one.delivered

    def test_churned_clients_respect_the_scenario_horizon(self):
        # Clients added mid-run only get the *remaining* horizon, so
        # the run does not trail deliveries past the declared phases.
        scenario = lan_scenario(
            workload=WorkloadSpec(mode="open", clients_per_region=1,
                                  rate_per_client=40.0),
            duration_ms=400.0,
            retry_timeout=60_000.0,
            suspicion_timeout=60_000.0,
            faults=(ClientChurn(at_ms=300.0, add=2, region="local"),))
        _, cluster = ScenarioRunner().run_with_cluster(scenario)
        # Generous slack for in-flight completions; without the horizon
        # clamp the churned drivers issue until ~700ms.
        assert cluster.recorder.last_delivery < 500.0

    def test_swap_byzantine_uses_scenario_statemachine_on_sim(self):
        from repro.statemachine.kvstore import KVStore

        class AuditedKV(KVStore):
            pass

        scenario = lan_scenario(
            statemachine=AuditedKV,
            faults=(SwapByzantine(at_ms=0.0, replica="r3",
                                  behavior="silent"),))
        _, cluster = ScenarioRunner().run_with_cluster(scenario)
        assert isinstance(cluster.replicas["r3"].statemachine,
                          AuditedKV)

    def test_latency_shift_scales_from_base_not_compounding(self):
        # Two successive 2.0 shifts must equal one (absolute factors).
        def with_shifts(faults):
            return run_scenario(lan_scenario(
                name="shift",
                workload=WorkloadSpec(mode="open",
                                      clients_per_region=1,
                                      rate_per_client=50.0),
                duration_ms=400.0,
                retry_timeout=60_000.0,
                suspicion_timeout=60_000.0,
                faults=faults))

        once = with_shifts((LatencyShift(at_ms=100.0, factor=2.0),))
        twice = with_shifts((LatencyShift(at_ms=50.0, factor=2.0),
                             LatencyShift(at_ms=100.0, factor=2.0)))
        # After t=100ms both runs have identical conditions.
        assert math.isclose(once.phases[0].latency.maximum,
                            twice.phases[0].latency.maximum)


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
class TestPresets:
    def test_every_preset_validates(self):
        from repro.scenario import available_presets
        for name in available_presets():
            preset(name).validate()

    def test_unknown_preset_raises_with_choices(self):
        with pytest.raises(ConfigurationError, match="smoke"):
            preset("nope")

    @pytest.mark.parametrize("protocol",
                             ["ezbft", "pbft", "zyzzyva", "fab"])
    def test_smoke_preset_per_protocol(self, protocol):
        report = run_scenario(preset(f"smoke-{protocol}"))
        assert report.protocol == protocol
        assert report.delivered == 12
