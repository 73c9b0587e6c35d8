"""Batching-subsystem tests: the RequestBatcher engine, the batched
ezBFT owner path, and the batched PBFT primary path."""

import pytest

from helpers import (
    DeliveryLog,
    lan_cluster,
)

from repro.check import check, observe
from repro.core.batching import RequestBatcher
from repro.errors import ConfigurationError, SerializationError
from repro.messages.batching import (
    BatchPrePrepare,
    BatchRequest,
    BatchSpecOrder,
    batch_cost,
)
from repro.sim.network import CpuModel
from repro.statemachine.base import Command


# ----------------------------------------------------------------------
# RequestBatcher engine
# ----------------------------------------------------------------------
class FakeTimer:
    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeTimerHost:
    """Captures set_timer calls so tests fire timeouts manually."""

    def __init__(self):
        self.timers = []

    def set_timer(self, delay_ms, callback, *args):
        timer = FakeTimer()
        self.timers.append((delay_ms, callback, timer))
        return timer

    def fire_all(self):
        pending, self.timers = self.timers, []
        for _, callback, timer in pending:
            if not timer.cancelled:
                callback()


def test_batcher_flushes_on_size():
    flushes = []
    host = FakeTimerHost()
    batcher = RequestBatcher(3, 100.0, flushes.append,
                             set_timer_fn=host.set_timer)
    batcher.add("a")
    batcher.add("b")
    assert flushes == [] and batcher.pending == 2
    batcher.add("c")
    assert flushes == [["a", "b", "c"]]
    assert batcher.pending == 0
    assert batcher.size_flushes == 1 and batcher.timeout_flushes == 0
    # The armed timer was cancelled by the size flush.
    assert all(t.cancelled for _, _, t in host.timers)


def test_batcher_flushes_on_timeout():
    flushes = []
    host = FakeTimerHost()
    batcher = RequestBatcher(8, 5.0, flushes.append,
                             set_timer_fn=host.set_timer)
    batcher.add("a")
    batcher.add("b")
    assert flushes == []
    host.fire_all()
    assert flushes == [["a", "b"]]
    assert batcher.timeout_flushes == 1
    # A fired-empty timeout is a no-op.
    host.fire_all()
    assert batcher.batches_flushed == 1


def test_batcher_size_one_is_pass_through():
    flushes = []
    host = FakeTimerHost()
    batcher = RequestBatcher(1, 5.0, flushes.append,
                             set_timer_fn=host.set_timer)
    batcher.add("a")
    batcher.add("b")
    assert flushes == [["a"], ["b"]]  # immediate singleton flushes
    assert not batcher.enabled
    assert host.timers == []  # no timers ever armed


def test_batcher_preserves_order_across_flushes():
    flushes = []
    batcher = RequestBatcher(2, 5.0, flushes.append)
    for item in range(5):
        batcher.add(item)
    batcher.flush()
    assert flushes == [[0, 1], [2, 3], [4]]


def test_batcher_rejects_bad_knobs():
    with pytest.raises(ConfigurationError):
        RequestBatcher(0, 5.0, lambda items: None)
    with pytest.raises(ConfigurationError):
        RequestBatcher(2, 0.0, lambda items: None)


# ----------------------------------------------------------------------
# Batched message cost model
# ----------------------------------------------------------------------
def test_batch_messages_cost_sublinearly():
    commands = tuple(Command("c0", t, "put", f"k{t}", "v")
                     for t in range(1, 9))
    batch = BatchRequest(commands=commands)
    singleton_cost = 20 * len(commands)  # one Request is 20 units
    assert batch.cpu_cost_units < 0.2 * singleton_cost
    assert batch.cpu_cost_units == batch_cost(20, 8)
    # Round-trips through the wire form.
    assert BatchRequest.from_wire(batch.to_wire()) == batch
    with pytest.raises(SerializationError):
        BatchRequest(commands=())
    with pytest.raises(SerializationError):
        BatchSpecOrder(leader="r0", owner_number=0, orders=())
    with pytest.raises(SerializationError):
        BatchPrePrepare(view=0, pre_prepares=())


# ----------------------------------------------------------------------
# ezBFT owner path
# ----------------------------------------------------------------------
def test_ezbft_batch_commits_fast_and_consistent():
    cluster = lan_cluster("ezbft", cpu=CpuModel.free(), batch_size=4,
                          batch_timeout_ms=5.0)
    log = DeliveryLog()
    client = cluster.add_client("c0", region="local",
                                on_delivery=log.hook("c0"))
    client.submit_batch([client.next_command("put", f"k{i}", f"v{i}")
                         for i in range(4)])
    cluster.run_until_idle()
    assert log.paths == ["fast"] * 4
    assert client.stats["batches_submitted"] == 1
    owner = cluster.replicas["r0"]
    assert owner.stats["batches_led"] == 1
    assert owner.stats["led"] == 4
    assert check(observe(cluster)) == []


def test_ezbft_single_command_batch_degrades_to_unbatched():
    cluster = lan_cluster("ezbft", cpu=CpuModel.free(), batch_size=4,
                          batch_timeout_ms=5.0)
    log = DeliveryLog()
    client = cluster.add_client("c0", region="local",
                                on_delivery=log.hook("c0"))
    client.submit_batch([client.next_command("put", "k", "v")])
    cluster.run_until_idle()
    assert log.paths == ["fast"]
    # Degraded end to end: no batch message was produced anywhere.
    assert client.stats["batches_submitted"] == 0
    assert cluster.replicas["r0"].stats["batches_led"] == 0


def test_ezbft_partial_batch_flushes_on_timeout():
    cluster = lan_cluster("ezbft", cpu=CpuModel.free(), batch_size=64,
                          batch_timeout_ms=5.0)
    log = DeliveryLog()
    client = cluster.add_client("c0", region="local",
                                on_delivery=log.hook("c0"))
    client.submit_batch([client.next_command("put", "a", "1"),
                         client.next_command("put", "b", "2")])
    cluster.run_until_idle()
    assert sorted(log.paths) == ["fast", "fast"]
    assert cluster.replicas["r0"].batcher.timeout_flushes == 1
    assert check(observe(cluster)) == []


def test_ezbft_batch_size_one_cluster_never_batches():
    cluster = lan_cluster("ezbft", cpu=CpuModel.free())  # batch_size=1
    log = DeliveryLog()
    client = cluster.add_client("c0", region="local",
                                on_delivery=log.hook("c0"))
    for i in range(3):
        client.submit(client.next_command("put", f"k{i}", "v"))
    cluster.run_until_idle()
    assert len(log.records) == 3
    for replica in cluster.replicas.values():
        assert replica.stats["batches_led"] == 0
        assert not replica.batcher.enabled


def test_ezbft_out_of_order_client_batches_are_all_led():
    """A pipelining client's BATCHREQUESTs can overtake each other; the
    older timestamps in the late one are unseen, not stale, and are
    admitted by the same rule a singleton REQUEST is."""
    cluster = lan_cluster()
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    r0 = cluster.replicas["r0"]
    deliver = cluster.network.handler_of("r0")
    held = []

    def swap_first_two_batches(sender, message):
        if isinstance(getattr(message, "payload", None), BatchRequest) \
                and len(held) < 2:
            held.append(message)
            if len(held) == 2:
                deliver(sender, held[1])  # t=3,4 first ...
                deliver(sender, held[0])  # ... then t=1,2
            return
        deliver(sender, message)

    cluster.network.set_handler("r0", swap_first_two_batches)
    commands = [client.next_command("put", f"k{i}", i) for i in range(4)]
    client.submit_batch(commands[:2])
    client.submit_batch(commands[2:])
    cluster.run_until_idle()
    assert r0.stats["led"] == 4
    assert log.results == ["OK"] * 4
    assert client.stats["retries"] == 0
    assert [e.command.timestamp for e in r0.spaces["r0"].entries()] == \
        [3, 4, 1, 2]

    # An exact duplicate of either batch leads nothing: every command in
    # it is answered again from what the replica already holds.
    answered = []
    cluster.network.set_handler(
        "c0", lambda sender, message: answered.extend(
            (sender, envelope.payload.timestamp)
            for envelope in getattr(message, "replies", ())))
    for batch, stamps in ((held[1], [3, 4]), (held[0], [1, 2])):
        del answered[:]
        deliver("c0", batch)
        cluster.run_until_idle()
        assert [t for sender, t in answered if sender == "r0"] == stamps
    assert r0.stats["led"] == 4
    assert r0.spaces["r0"].next_slot == 4
    assert check(observe(cluster)) == []


def test_ezbft_interfering_batch_preserves_order_consistency():
    """Commands inside one batch interfere (same key): every replica
    must execute them in the same order and agree on the final value."""
    cluster = lan_cluster("ezbft", cpu=CpuModel.free(), batch_size=4,
                          batch_timeout_ms=5.0)
    log = DeliveryLog()
    client = cluster.add_client("c0", region="local",
                                on_delivery=log.hook("c0"))
    client.submit_batch([client.next_command("put", "hot", i)
                         for i in range(4)])
    cluster.run_until_idle()
    assert len(log.records) == 4
    assert check(observe(cluster)) == []
    states = {rid: sm.speculative_items().get("hot")
              for rid, sm in cluster.statemachines().items()}
    assert len(set(states.values())) == 1


def test_ezbft_two_clients_share_one_owner_batch():
    """Owner-side batching groups requests from different clients."""
    cluster = lan_cluster("ezbft", cpu=CpuModel.free(), batch_size=2,
                          batch_timeout_ms=5.0)
    log = DeliveryLog()
    # Both clients target r0 (nearest in a LAN is the first replica).
    c0 = cluster.add_client("c0", region="local", target_replica="r0",
                            on_delivery=log.hook("c0"))
    c1 = cluster.add_client("c1", region="local", target_replica="r0",
                            on_delivery=log.hook("c1"))
    c0.submit(c0.next_command("put", "x", "1"))
    c1.submit(c1.next_command("put", "y", "2"))
    cluster.run_until_idle()
    assert len(log.records) == 2
    assert cluster.replicas["r0"].stats["batches_led"] >= 1
    assert check(observe(cluster)) == []


def test_pom_accepts_batched_equivocation_evidence():
    """A byzantine owner who equivocates inside BATCHSPECORDERs must be
    punishable: replicas accept a POM whose evidence is two conflicting
    signed batches (same slot, different command)."""
    from repro.messages.base import SignedPayload
    from repro.messages.batching import BatchSpecOrder
    from repro.messages.ezbft import ProofOfMisbehavior, SpecOrder
    from repro.types import InstanceID

    cluster = lan_cluster("ezbft", cpu=CpuModel.free())
    suspect = cluster.replicas["r0"]
    judge = cluster.replicas["r1"]

    def order(value, slot=0):
        return SpecOrder(
            leader="r0", owner_number=0,
            instance=InstanceID("r0", slot),
            command=Command(client_id="c0", timestamp=1, op="put",
                            key="k", value=value),
            deps=(), seq=1, log_digest="",
            request_digest=f"d-{value}")

    def batch(*orders):
        return SignedPayload.create(
            BatchSpecOrder(leader="r0", owner_number=0, orders=orders),
            suspect.keypair)

    conflicting = ProofOfMisbehavior(
        suspect="r0", owner_number=0,
        evidence=(batch(order("a")), batch(order("b"))))
    assert judge.owner_changes._pom_valid(conflicting)

    # Two batches over disjoint slots with consistent content are NOT
    # misbehavior.
    consistent = ProofOfMisbehavior(
        suspect="r0", owner_number=0,
        evidence=(batch(order("a", slot=0)),
                  batch(order("b", slot=1))))
    assert not judge.owner_changes._pom_valid(consistent)

    # Mixed evidence: a singleton SPECORDER conflicting with a batch.
    mixed = ProofOfMisbehavior(
        suspect="r0", owner_number=0,
        evidence=(SignedPayload.create(order("a"), suspect.keypair),
                  batch(order("b"))))
    assert judge.owner_changes._pom_valid(mixed)

    # Evidence signed by someone other than the suspect is rejected.
    forged = ProofOfMisbehavior(
        suspect="r0", owner_number=0,
        evidence=(SignedPayload.create(order("a"), judge.keypair),
                  batch(order("b"))))
    assert not judge.owner_changes._pom_valid(forged)

    # A verified batched POM actually triggers suspicion.
    before = judge.stats["owner_changes_started"]
    judge.owner_changes.on_pom(conflicting)
    assert judge.stats["owner_changes_started"] == before + 1


# ----------------------------------------------------------------------
# PBFT primary path
# ----------------------------------------------------------------------
def test_pbft_batch_executes_and_replies():
    cluster = lan_cluster("pbft", cpu=CpuModel.free(), batch_size=4,
                          batch_timeout_ms=5.0)
    log = DeliveryLog()
    client = cluster.add_client("c0", region="local",
                                on_delivery=log.hook("c0"))
    client.submit_batch([client.next_command("put", f"k{i}", i)
                         for i in range(4)])
    cluster.run_until_idle()
    assert log.results == ["OK"] * 4
    primary = cluster.replicas[cluster.primary_id]
    assert primary.stats["batches_proposed"] == 1
    assert primary.stats["pre_prepares"] == 4
    assert check(observe(cluster)) == []


def test_pbft_single_command_batch_degrades():
    cluster = lan_cluster("pbft", cpu=CpuModel.free(), batch_size=4,
                          batch_timeout_ms=5.0)
    log = DeliveryLog()
    client = cluster.add_client("c0", region="local",
                                on_delivery=log.hook("c0"))
    client.submit_batch([client.next_command("put", "k", "v")])
    cluster.run_until_idle()
    assert log.results == ["OK"]
    assert client.stats["batches_submitted"] == 0
    primary = cluster.replicas[cluster.primary_id]
    assert primary.stats["batches_proposed"] == 0


def test_pbft_partial_batch_flushes_on_timeout():
    cluster = lan_cluster("pbft", cpu=CpuModel.free(), batch_size=64,
                          batch_timeout_ms=5.0)
    log = DeliveryLog()
    client = cluster.add_client("c0", region="local",
                                on_delivery=log.hook("c0"))
    client.submit_batch([client.next_command("put", "a", 1),
                         client.next_command("put", "b", 2)])
    cluster.run_until_idle()
    assert log.results == ["OK"] * 2
    primary = cluster.replicas[cluster.primary_id]
    assert primary.batcher.timeout_flushes == 1
    assert check(observe(cluster)) == []
