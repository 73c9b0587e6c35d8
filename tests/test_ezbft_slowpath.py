"""ezBFT slow-path behaviour under contention (paper Section IV-C)."""

import pytest

from dataclasses import replace

from repro.byzantine import DepSuppressingReplica, install_byzantine
from repro.check import check, observe
from repro.core.instance import EntryStatus
from repro.messages.base import SignedPayload
from repro.messages.ezbft import Commit
from repro.statemachine.interference import AlwaysInterfere

from helpers import (
    DeliveryLog,
    geo_cluster,
    lan_cluster,
)


def two_conflicting_clients(cluster):
    log = DeliveryLog()
    c0 = cluster.add_client("c0", cluster.replica_regions["r0"],
                            target_replica="r0",
                            on_delivery=log.hook("c0"))
    c1 = cluster.add_client("c1", cluster.replica_regions["r3"],
                            target_replica="r3",
                            on_delivery=log.hook("c1"))
    c0.submit(c0.next_command("put", "hot", "from-c0"))
    c1.submit(c1.next_command("put", "hot", "from-c1"))
    return log, c0, c1


def test_conflicting_concurrent_commands_commit_consistently():
    cluster = geo_cluster()
    log, _, _ = two_conflicting_clients(cluster)
    cluster.run_until_idle()
    assert len(log.records) == 2
    assert check(observe(cluster)) == []
    state = cluster.replicas["r0"].statemachine.final_items()
    assert state["hot"] in ("from-c0", "from-c1")
    assert check(observe(cluster)) == []


def test_conflicting_commands_take_slow_path_in_geo():
    """With WAN latencies the two SPECORDERs genuinely interleave, so
    replicas disagree on dependency sets and the clients must combine."""
    cluster = geo_cluster()
    log, _, _ = two_conflicting_clients(cluster)
    cluster.run_until_idle()
    assert "slow" in log.paths


def test_slow_path_commit_metadata_is_final():
    cluster = geo_cluster()
    log, c0, c1 = two_conflicting_clients(cluster)
    cluster.run_until_idle()
    # Whichever command committed second must depend on the first.
    deps_by_replica = []
    for replica in cluster.replicas.values():
        entries = {e.instance: e
                   for space in replica.spaces.values()
                   for e in space.entries()}
        assert len(entries) == 2
        deps_union = set()
        for e in entries.values():
            deps_union.update(e.deps)
        deps_by_replica.append(deps_union)
    # At least one direction of the dependency must be recorded
    # everywhere the command committed.
    assert all(deps for deps in deps_by_replica)


def test_dependency_cycle_resolved_deterministically():
    """The paper's Figure-2 scenario: both commands end up in each
    other's dependency set; sequence numbers + replica ids break the
    cycle identically at every replica."""
    cluster = geo_cluster()
    log, _, _ = two_conflicting_clients(cluster)
    cluster.run_until_idle()
    assert check(observe(cluster)) == []
    state = cluster.replicas["r0"].statemachine.final_items()
    # The executed order must be the same everywhere, so the final value
    # is whichever command every replica executed last.
    last_idents = {r.statemachine.record.entries[-1][0].ident
                   for r in cluster.replicas.values()}
    assert len(last_idents) == 1


def test_interfering_sequence_numbers_strictly_increase():
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local")
    for i in range(4):
        client.submit(client.next_command("put", "hot", i))
        cluster.run_until_idle()
    leader = cluster.replicas[client.target_replica]
    seqs = [e.seq for e in leader.spaces[leader.node_id].entries()]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_always_interfere_relation_forces_total_order():
    cluster = lan_cluster(interference=AlwaysInterfere())
    log = DeliveryLog()
    clients = []
    for i in range(4):
        c = cluster.add_client(f"c{i}", "local", target_replica=f"r{i}",
                               on_delivery=log.hook(f"c{i}"))
        clients.append(c)
        c.submit(c.next_command("put", f"key{i}", i))
    cluster.run_until_idle()
    assert len(log.records) == 4
    assert check(observe(cluster)) == []
    # Four different keys and still one order: a second round, proposed
    # once the first is everywhere, depends on all of it across keys.
    for i, c in enumerate(clients):
        c.submit(c.next_command("put", f"other{i}", i))
    cluster.run_until_idle()
    for replica in cluster.replicas.values():
        second = [e for e in replica._log_index.values()
                  if e.command.timestamp == 2]
        assert len(second) == 4
        for entry in second:
            dep_keys = {replica._log_index[d].command.key
                        for d in entry.deps}
            assert {f"key{i}" for i in range(4)} <= dep_keys
    assert check(observe(cluster)) == []


def test_slow_path_produces_commit_replies():
    cluster = geo_cluster()
    log, c0, c1 = two_conflicting_clients(cluster)
    cluster.run_until_idle()
    slow_count = sum(1 for p in log.paths if p == "slow")
    committed_slow = sum(r.stats["committed_slow"]
                        for r in cluster.replicas.values())
    assert committed_slow >= slow_count  # each slow commit hit replicas


def test_many_interleaved_conflicts_converge():
    cluster = geo_cluster()
    log = DeliveryLog()
    drivers = []
    from repro.workload.drivers import ClosedLoopDriver
    from repro.workload.generator import KVWorkload

    for i in range(4):
        region = cluster.replica_regions[f"r{i}"]
        client = cluster.add_client(f"c{i}", region,
                                    on_delivery=log.hook(f"c{i}"))
        workload = KVWorkload(f"c{i}", contention=1.0, seed=i)
        driver = ClosedLoopDriver(client, workload, num_requests=5)
        drivers.append(driver)
    for driver in drivers:
        driver.start()
    cluster.run_until_idle()
    assert all(d.done for d in drivers)
    assert len(log.records) == 20
    assert check(observe(cluster)) == []


def test_mixed_contention_some_fast_some_slow():
    cluster = geo_cluster()
    log = DeliveryLog()
    from repro.workload.drivers import ClosedLoopDriver
    from repro.workload.generator import KVWorkload

    drivers = []
    for i in range(4):
        region = cluster.replica_regions[f"r{i}"]
        client = cluster.add_client(f"c{i}", region,
                                    on_delivery=log.hook(f"c{i}"))
        workload = KVWorkload(f"c{i}", contention=0.5, seed=100 + i)
        drivers.append(ClosedLoopDriver(client, workload,
                                        num_requests=6))
    for driver in drivers:
        driver.start()
    cluster.run_until_idle()
    assert len(log.records) == 24
    assert "fast" in log.paths
    assert check(observe(cluster)) == []


# ----------------------------------------------------------------------
# A COMMIT is bound to its certificate
# ----------------------------------------------------------------------
def held_back_commit(cluster):
    """Run one contended put to the point where its client signs the
    slow-path COMMIT (r2 lies about deps, so there is no fast quorum),
    keep that COMMIT from every replica, and return it with its
    client."""
    install_byzantine(cluster, "r2", DepSuppressingReplica)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "hot", 1))
    cluster.run_until_idle()
    held = []
    command = client.next_command("put", "hot", 2)
    for rid, replica in cluster.replicas.items():
        def holding(sender, message, deliver=replica.on_message):
            if isinstance(message, SignedPayload) and \
                    isinstance(message.payload, Commit):
                held.append(message)
                # No retry while the test holds the COMMIT.
                client._pending[command.ident].cancel_timers()
            else:
                deliver(sender, message)
        cluster.network.set_handler(rid, holding)
    client.submit(command)
    cluster.run_until_idle()
    assert held and held[0].payload.deps != ()
    return held[0], client, log


def test_commit_that_drops_a_dep_of_its_certificate_is_refused():
    """The client signs the COMMIT but does not get to choose its
    metadata: deps must be the union and seq the maximum of the
    certificate's SPECREPLY headers, which must be for this command."""
    cluster = lan_cluster()
    honest, client, _ = held_back_commit(cluster)
    commit = honest.payload
    wrong_command = replace(commit.command,
                            timestamp=commit.command.timestamp + 1)
    for tampered in (replace(commit, deps=commit.deps[:-1]),
                     replace(commit, seq=commit.seq + 1),
                     replace(commit, seq=commit.seq - 1),
                     replace(commit, command=wrong_command)):
        envelope = SignedPayload.create(tampered, client.keypair)
        for rid in ("r0", "r1", "r3"):
            replica = cluster.replicas[rid]
            before = replica.stats["invalid_messages"]
            replica.on_message(client.client_id, envelope)
            assert replica.stats["invalid_messages"] == before + 1
            entry = replica._log_index[commit.instance]
            assert entry.status == EntryStatus.SPEC_ORDERED
            assert replica.stats["committed_slow"] == 0


def test_honest_slow_path_commit_still_commits():
    cluster = lan_cluster()
    honest, client, log = held_back_commit(cluster)
    commit = honest.payload
    for replica in cluster.replicas.values():
        replica.on_message(client.client_id, honest)
    cluster.run_until_idle()
    assert log.results == ["OK", "OK"] and log.paths[-1] == "slow"
    headers = [signed.payload for signed in commit.certificate]
    assert any(h.deps == () for h in headers)     # r2's lie is in there
    for rid in ("r0", "r1", "r3"):
        replica = cluster.replicas[rid]
        assert replica.stats["invalid_messages"] == 0
        assert replica.stats["committed_slow"] == 1
        entry = replica._log_index[commit.instance]
        assert entry.status == EntryStatus.EXECUTED
        assert set(entry.deps) == {d for h in headers for d in h.deps}
        assert entry.seq == max(h.seq for h in headers)
    assert check(observe(cluster)) == []
