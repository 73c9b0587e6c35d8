"""A retry holds its leader only while f+1 replicas answer, and every
duplicate is answered from the command's canonical instance (paper
step 4.3).

A retry that heard fewer than f+1 replicas since the last send rotates
to the next replica at once (``test_rejoin.py`` pins that on a crash):
the target's own reply proves nothing, since a faulty leader can
answer the client and withhold its SPECORDER from its peers.  A retry
that heard f+1 keeps its target, for at most ``HELD_RETRIES`` rounds
in a row: one of them is correct, so a correct replica holds an
instance of the command, and a fresh leader would fork a second one.
Every replica answers a duplicate from the lowest ``(owner, slot)``
holding the command -- the same instance on every replica -- so the
replies converge; the one-slot reply cache answers only when that
instance is gone from the log or holds no SPECORDER.
"""

import pytest

from repro.core.client import EzBFTClient
from repro.messages.base import SignedPayload
from repro.messages.batching import BatchSpecOrder
from repro.messages.ezbft import Request, SpecOrder, SpecReplyBundle
from repro.types import InstanceID

from helpers import DeliveryLog, lan_cluster

#: Far more events than any of these runs needs to deliver.
MAX_EVENTS = 50_000


def _record_retries(client):
    """Record (replicas heard, target after the retry) per retry."""
    retries = []
    retry = client._retry

    def recording(pending, exclude=None):
        heard = set(pending.spec_replies)
        retry(pending, exclude)
        retries.append((heard, pending.target))

    client._retry = recording
    return retries


def _placements(cluster, command):
    """Every replica's instances of ``command``."""
    return {rid: sorted(iid for iid, entry in replica._log_index.items()
                        if entry.command.ident == command.ident)
            for rid, replica in cluster.replicas.items()}


def test_a_retry_that_heard_f_plus_1_replies_keeps_its_target():
    """The leader is alive but two replicas' replies to the client are
    lost, so the client holds SPECREPLYs from f+1 replicas but no
    quorum, round after round: every retry stays with the leader, and
    the command lands in exactly one instance."""
    cluster = lan_cluster()
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    retries = _record_retries(client)
    lost = {("r2", "c0"), ("r3", "c0")}
    cluster.cuts.update(lost)
    # Lifted between the last held retry and the one after it: a rule
    # that leaves the leader on its third retry fails here.
    held = EzBFTClient.HELD_RETRIES
    assert held >= 3
    cluster.sim.schedule((held - 0.5) * cluster.config.retry_timeout,
                         cluster.cuts.difference_update, lost)
    command = client.next_command("put", "k", "v")
    client.submit(command)
    cluster.run_until_idle(max_events=MAX_EVENTS)
    assert log.results == ["OK"]
    assert retries == [({"r0", "r1"}, "r0")] * held
    for placed in _placements(cluster, command).values():
        assert placed == [InstanceID("r0", placed[0].slot)]


def test_a_held_target_is_left_after_held_retries_rounds():
    """The same lost replies, for longer: after ``HELD_RETRIES`` held
    rounds the client rotates all the same, and the next replica
    answers from the instance it already holds."""
    cluster = lan_cluster()
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    retries = _record_retries(client)
    lost = {("r2", "c0"), ("r3", "c0")}
    cluster.cuts.update(lost)
    held = EzBFTClient.HELD_RETRIES
    cluster.sim.schedule((held + 0.5) * cluster.config.retry_timeout,
                         cluster.cuts.difference_update, lost)
    command = client.next_command("put", "k", "v")
    client.submit(command)
    cluster.run_until_idle(max_events=MAX_EVENTS)
    assert log.results == ["OK"]
    assert [target for _, target in retries] == ["r0"] * held + ["r1"]
    for placed in _placements(cluster, command).values():
        assert placed == [InstanceID("r0", placed[0].slot)]


def _withhold_spec_orders(replica, monkeypatch):
    """A faulty leader: it answers the client, and re-answers every
    duplicate, but never sends a SPECORDER to a peer."""
    broadcast = replica.ctx.broadcast

    def withholding(dsts, message):
        if isinstance(message, SignedPayload) and \
                isinstance(message.payload, (SpecOrder, BatchSpecOrder)):
            return
        broadcast(dsts, message)

    monkeypatch.setattr(replica.ctx, "broadcast", withholding)


@pytest.mark.parametrize("leader", ["withholds_spec_orders",
                                    "cut_from_peers"])
def test_a_leader_that_answers_only_the_client_is_left(leader,
                                                       monkeypatch):
    """Only the leader's own SPECREPLY reaches the client, on every
    round: it proves no correct replica holds the command, so the first
    retry rotates and the next replica leads the command to delivery."""
    cluster = lan_cluster()
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    retries = _record_retries(client)
    r0 = cluster.replicas["r0"]
    if leader == "withholds_spec_orders":
        _withhold_spec_orders(r0, monkeypatch)
    else:
        cluster.cuts.update(("r0", peer) for peer in ("r1", "r2", "r3"))
    command = client.next_command("put", "k", "v")
    client.submit(command)
    cluster.run_until_idle(max_events=MAX_EVENTS)
    assert log.results == ["OK"]
    assert retries[0] == ({"r0"}, "r1")
    assert client.target_replica != "r0"


def _answers_to(replica, client_id, monkeypatch):
    """Capture what ``replica`` sends ``client_id`` from now on."""
    answers = []
    send = replica.ctx.send

    def capturing(dst, message):
        if dst == client_id:
            answers.append(message)
        send(dst, message)

    monkeypatch.setattr(replica.ctx, "send", capturing)
    return answers


def test_a_duplicate_is_answered_from_the_canonical_instance(monkeypatch):
    """A replica holds one command in two instances, and its reply
    cache holds the later one: a duplicate still gets the earlier."""
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local", target_replica="r0")
    command = client.next_command("put", "k", "v")
    client.submit(command)
    cluster.run_until_idle()
    # A second leader proposes the same command (a retry that reached
    # it), so every replica logs a twin instance and replies for it.
    cluster.replicas["r1"]._lead([Request(command=command)])
    cluster.run_until_idle()
    r2 = cluster.replicas["r2"]
    placed = sorted(iid for iid, entry in r2._log_index.items()
                    if entry.command.ident == command.ident)
    assert [iid.owner for iid in placed] == ["r0", "r1"]
    cached = r2._client_reply_cache["c0"][1]
    assert {h.payload.instance for h in cached.replies} == {placed[1]}

    answers = _answers_to(r2, "c0", monkeypatch)
    r2._admit(Request(command=command))
    bundles = [m for m in answers if isinstance(m, SpecReplyBundle)]
    assert bundles
    assert {h.payload.instance for b in bundles for h in b.replies} == \
        {placed[0]}


def test_the_reply_cache_answers_a_duplicate_whose_instance_was_gcd(
        monkeypatch):
    cluster = lan_cluster(checkpoint_interval=8)
    client = cluster.add_client("c0", "local")
    for i in range(24):
        client.submit(client.next_command("put", f"k{i % 4}", i))
        cluster.run_until_idle()
    replica = cluster.replicas["r0"]
    cached = replica._client_reply_cache["c0"][1]
    order = cached.spec_order.payload
    assert order.instance not in replica._log_index  # GC'd
    answers = _answers_to(replica, "c0", monkeypatch)
    replica._admit(Request(command=order.command))
    assert answers == [cached]


def test_a_duplicate_after_a_new_owner_rewrote_its_slot_is_answered():
    """Every reply to the client is lost while an owner change over the
    leader finalizes the command's slot: the NEWOWNER rebuilds the
    entry without its SPECORDER, so no replica can re-answer from the
    instance.  The reply cache answers the retry instead, and the
    client delivers on the slow path."""
    cluster = lan_cluster()
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    lost = {(rid, "c0") for rid in cluster.replicas}
    cluster.cuts.update(lost)
    command = client.next_command("put", "k", "v")
    client.submit(command)
    cluster.sim.run(until=0.25 * cluster.config.retry_timeout)
    for rid in ("r1", "r2", "r3"):
        cluster.replicas[rid].owner_changes.suspect("r0")
    cluster.sim.run(until=0.75 * cluster.config.retry_timeout)
    for replica in cluster.replicas.values():
        [entry] = [entry for entry in replica._log_index.values()
                   if entry.command.ident == command.ident]
        assert replica.spaces["r0"].frozen
        assert entry.spec_order is None
    cluster.cuts.difference_update(lost)
    cluster.run_until_idle(max_events=MAX_EVENTS)
    assert log.results == ["OK"]
