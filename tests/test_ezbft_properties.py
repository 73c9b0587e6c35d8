"""End-to-end checks of the paper's four protocol properties
(Section III): nontriviality, stability, consistency, liveness --
over randomized workloads and fault patterns."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.byzantine import (
    DepSuppressingReplica,
    SilentReplica,
    install_byzantine,
)
from repro.check import check, observe
from repro.core.instance import EntryStatus
from repro.workload.drivers import ClosedLoopDriver
from repro.workload.generator import KVWorkload

from helpers import (
    DeliveryLog,
    faults,
    geo_cluster,
    lan_cluster,
)


def run_workload(cluster, num_clients=4, requests_each=4,
                 contention=0.5, seed=0):
    log = DeliveryLog()
    drivers = []
    for i in range(num_clients):
        rid = f"r{i % len(cluster.config.replica_ids)}"
        region = cluster.replica_regions[rid]
        client = cluster.add_client(f"c{i}", region, target_replica=rid,
                                    on_delivery=log.hook(f"c{i}"))
        workload = KVWorkload(f"c{i}", contention=contention,
                              seed=seed * 100 + i)
        drivers.append(ClosedLoopDriver(client, workload,
                                        num_requests=requests_each))
    for driver in drivers:
        driver.start()
    cluster.run_until_idle()
    return log, drivers


def all_proposed_idents(cluster):
    idents = set()
    for client in cluster.clients.values():
        for t in range(1, client._next_timestamp):
            idents.add((client.client_id, t))
    return idents


@settings(deadline=None, max_examples=10,
          suppress_health_check=[HealthCheck.too_slow])
@given(contention=st.sampled_from([0.0, 0.3, 1.0]),
       seed=st.integers(min_value=0, max_value=50))
def test_nontriviality_and_consistency_random_workloads(contention,
                                                        seed):
    cluster = geo_cluster()
    log, drivers = run_workload(cluster, contention=contention,
                                seed=seed)
    assert all(d.done for d in drivers)
    # Nontriviality: every executed command was proposed by a client.
    proposed = all_proposed_idents(cluster)
    for replica in cluster.replicas.values():
        for command, _ in replica.statemachine.record.entries:
            assert command.ident in proposed
    # Consistency: per-instance agreement + execution order agreement.
    per_instance = {}
    for replica in cluster.replicas.values():
        for space in replica.spaces.values():
            for entry in space.entries():
                if entry.status.at_least(EntryStatus.COMMITTED):
                    prev = per_instance.setdefault(
                        entry.instance, entry.command.ident)
                    assert prev == entry.command.ident
    assert check(observe(cluster)) == []


@settings(deadline=None, max_examples=6,
          suppress_health_check=[HealthCheck.too_slow])
@given(faulty=st.sampled_from(["r0", "r1", "r2", "r3"]),
       behavior=st.sampled_from([SilentReplica, DepSuppressingReplica]))
def test_liveness_and_consistency_with_one_fault(faulty, behavior):
    cluster = lan_cluster()
    install_byzantine(cluster, faulty, behavior)
    log, drivers = run_workload(cluster, num_clients=3,
                                requests_each=3, contention=0.5, seed=1)
    # Liveness: every request eventually delivered despite the fault.
    assert all(d.done for d in drivers)
    assert len(log.records) == 9
    assert check(observe(cluster, faults("SwapByzantine", faulty))) == []


def test_stability_committed_entries_never_change():
    """Stability: once a replica commits L at instance I, L stays
    committed at I -- checked across an owner change."""
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local", target_replica="r1")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    snapshots = {}
    for rid in ("r0", "r2", "r3"):
        replica = cluster.replicas[rid]
        snapshots[rid] = {
            e.instance: e.command.ident
            for space in replica.spaces.values()
            for e in space.entries()
            if e.status.at_least(EntryStatus.COMMITTED)
        }
    # Force an owner change on r1's space.
    for rid in ("r0", "r2", "r3"):
        cluster.replicas[rid].owner_changes.suspect("r1")
    cluster.run_until_idle()
    for rid in ("r0", "r2", "r3"):
        replica = cluster.replicas[rid]
        after = {
            e.instance: e.command.ident
            for space in replica.spaces.values()
            for e in space.entries()
            if e.status.at_least(EntryStatus.COMMITTED)
        }
        for instance, ident in snapshots[rid].items():
            assert after.get(instance) == ident, (
                f"{rid} lost committed entry {instance}")


def test_executed_prefix_grows_monotonically():
    """Stability corollary: the execution history only grows."""
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local")
    prefixes = []
    for i in range(4):
        client.submit(client.next_command("put", "hot", i))
        cluster.run_until_idle()
        history = list(cluster.replicas["r2"].statemachine.record.entries)
        prefixes.append(history)
    for shorter, longer in zip(prefixes, prefixes[1:]):
        assert longer[:len(shorter)] == shorter
