"""ezBFT behaviour under byzantine faults: retries, POMs, owner changes
(paper Sections IV-D and IV-E)."""

import pytest

from repro.byzantine import install_byzantine
from repro.check import check, observe
from repro.core.instance import EntryStatus

from helpers import (
    DeliveryLog,
    faults,
    geo_cluster,
    lan_cluster,
)

CORRECT = ("r0", "r2", "r3")


def test_silent_target_replica_recovers_via_retry():
    cluster = lan_cluster()
    install_byzantine(cluster, "r1", "silent")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r1",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.results == ["OK"]
    assert client.stats["retries"] >= 1
    assert check(observe(cluster, faults("SwapByzantine", "r1"))) == []
    state = cluster.replicas["r0"].statemachine.final_items()
    assert state == {"k": "v"}


def test_client_switches_target_after_recovery():
    cluster = lan_cluster()
    install_byzantine(cluster, "r1", "silent")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r1",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert client.target_replica != "r1"
    # The next request avoids the dead replica entirely: no retries.
    before = client.stats["retries"]
    client.submit(client.next_command("put", "k2", "v2"))
    cluster.run_until_idle()
    assert client.stats["retries"] == before


def test_silent_replica_space_gets_frozen():
    cluster = lan_cluster()
    install_byzantine(cluster, "r1", "silent")
    client = cluster.add_client("c0", "local", target_replica="r1")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    for rid in CORRECT:
        assert cluster.replicas[rid].spaces["r1"].frozen


def test_silent_nonleader_replica_forces_slow_path_only():
    """A silent *participant* (not the leader) costs the fast quorum but
    nothing else: commands still commit on the slow path."""
    cluster = lan_cluster()
    install_byzantine(cluster, "r3", "silent")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.paths == ["slow"]
    assert log.results == ["OK"]
    assert check(observe(cluster, faults("SwapByzantine", "r3"))) == []


def test_equivocating_leader_triggers_pom_and_owner_change():
    cluster = lan_cluster()
    install_byzantine(cluster, "r1", "equivocate")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r1",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert client.stats["poms_sent"] == 1
    assert log.results == ["OK"]
    for rid in CORRECT:
        assert cluster.replicas[rid].spaces["r1"].frozen
    assert check(observe(cluster, faults("SwapByzantine", "r1"))) == []


def test_pom_validation_rejects_bogus_proof():
    """A POM whose evidence does not conflict must be ignored."""
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local", target_replica="r0")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    replica = cluster.replicas["r2"]
    entry = next(iter(replica.spaces["r0"].entries()))
    from repro.messages.ezbft import ProofOfMisbehavior

    bogus = ProofOfMisbehavior(
        suspect="r0", owner_number=0,
        evidence=(entry.spec_order, entry.spec_order))  # identical!
    before = replica.stats["owner_changes_started"]
    replica.on_message("c0", bogus)
    cluster.run_until_idle()
    assert replica.stats["owner_changes_started"] == before
    assert not replica.spaces["r0"].frozen


def test_dep_suppressing_replica_cannot_break_consistency():
    """Figure-3 scenario: a replica lies about dependencies; the client's
    2f+1 combination still includes at least one correct replica that
    reported the dependency, so execution stays consistent."""
    cluster = geo_cluster()
    install_byzantine(cluster, "r1", "dep_suppress")
    log = DeliveryLog()
    c0 = cluster.add_client("c0", "virginia", target_replica="r0",
                            on_delivery=log.hook("c0"))
    c1 = cluster.add_client("c1", "sydney", target_replica="r3",
                            on_delivery=log.hook("c1"))
    c0.submit(c0.next_command("put", "hot", "a"))
    c1.submit(c1.next_command("put", "hot", "b"))
    cluster.run_until_idle()
    assert len(log.records) == 2
    assert check(observe(cluster, faults("SwapByzantine", "r1"))) == []


def test_corrupt_result_replica_cannot_break_fast_path_safety():
    """A replica lying about results never matches the other 3, so the
    client cannot assemble a fast certificate containing the lie."""
    cluster = lan_cluster()
    install_byzantine(cluster, "r2", "corrupt_result")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.results == ["OK"]  # never '##corrupt##'
    assert check(observe(cluster, faults("SwapByzantine", "r2"))) == []


def test_owner_change_preserves_committed_command():
    """A command committed in the suspect's space survives the owner
    change (stability): commit first, then depose the leader."""
    cluster = lan_cluster()
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r1",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.results == ["OK"]
    # Now every correct replica suspects r1 (simulating timeouts).
    for rid in ("r0", "r2", "r3"):
        cluster.replicas[rid].owner_changes.suspect("r1")
    cluster.run_until_idle()
    for rid in ("r0", "r2", "r3"):
        space = cluster.replicas[rid].spaces["r1"]
        assert space.frozen
        entries = list(space.entries())
        assert len(entries) == 1
        assert entries[0].command.ident == ("c0", 1)
        assert entries[0].status == EntryStatus.EXECUTED
    assert check(observe(cluster)) == []


def test_owner_change_new_owner_is_next_in_ring():
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local", target_replica="r1")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    for rid in ("r0", "r2", "r3"):
        cluster.replicas[rid].owner_changes.suspect("r1")
    cluster.run_until_idle()
    # O was 1, so O' = 2 and the new owner is r2.
    for rid in ("r0", "r2", "r3"):
        assert cluster.replicas[rid].spaces["r1"].owner_number == 2


def test_single_suspicion_insufficient_for_owner_change():
    """f+1 = 2 STARTOWNERCHANGE votes are required; one replica alone
    cannot freeze a space."""
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local", target_replica="r1")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    cluster.replicas["r0"].owner_changes.suspect("r1")
    cluster.run_until_idle()
    # r0 voted but nobody joined: r2/r3 see only 1 < f+1 votes.
    assert not cluster.replicas["r2"].spaces["r1"].frozen
    assert not cluster.replicas["r3"].spaces["r1"].frozen


def test_progress_with_f_silent_replicas_of_n7():
    """N=7 tolerates f=2 silent replicas via the slow path."""
    from repro.sim.latency import LOCAL
    from repro.cluster.builder import build_cluster
    from repro.sim.network import CpuModel

    cluster = build_cluster("ezbft", ["local"] * 7, LOCAL,
                            cpu=CpuModel.free(),
                            slow_path_timeout=50.0,
                            retry_timeout=200.0)
    install_byzantine(cluster, "r5", "silent")
    install_byzantine(cluster, "r6", "silent")
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.results == ["OK"]
    assert log.paths == ["slow"]
    assert check(observe(cluster, faults("SwapByzantine", "r5", "r6"))) == []
