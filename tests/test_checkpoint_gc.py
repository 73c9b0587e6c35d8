"""ezBFT checkpointing, log compaction, and state transfer.

The paper's owner-change payloads carry "instances executed or committed
since the last checkpoint"; these tests pin the machinery behind that:
periodic EZCHECKPOINT attestations, garbage collection below stable
checkpoints, shrunken recovery payloads, and snapshot-based catch-up for
replicas that fell behind a truncated log.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check, observe
from repro.core import checkpointing
from repro.core.checkpointing import checkpoint_proof
from repro.core.instance import EntryStatus, LogEntry
from repro.messages.base import SignedPayload
from repro.messages.ezbft import (
    EzCheckpoint,
    StateTransferReply,
    StateTransferRequest,
)
from repro.scenario.runner import ScenarioRunner
from repro.scenario.spec import Scenario, WorkloadSpec
from repro.statemachine.base import Command
from repro.statemachine.checkpoint import (
    Checkpoint,
    CheckpointStore,
    received_checkpoint,
)
from repro.statemachine.kvstore import KVStore
from repro.types import InstanceID

from helpers import (
    DeliveryLog,
    defective_leaves,
    lan_cluster,
    unchecked_state_digest,
)

INTERVAL = 8


def run_commands(cluster, client, n, key_fn=lambda i: f"k{i % 4}",
                 start=0):
    for i in range(start, start + n):
        client.submit(client.next_command("put", key_fn(i), i))
        cluster.run_until_idle()


# ----------------------------------------------------------------------
# Stability, agreement, and GC
# ----------------------------------------------------------------------
def test_checkpoints_stabilize_and_gc_log():
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", on_delivery=log.hook("c0"))
    run_commands(cluster, client, 5 * INTERVAL)
    assert log.results == ["OK"] * 5 * INTERVAL
    for replica in cluster.replicas.values():
        stable = replica.checkpoints.stable
        assert stable is not None
        assert stable.watermark >= 4 * INTERVAL
        assert replica.stats["checkpoints_stable"] >= 4
        assert replica.stats["log_entries_gcd"] >= 3 * INTERVAL
        # Everything below the stable frontier is gone from every
        # resident structure.
        frontier = stable.snapshot["frontier"]
        for owner, space in replica.spaces.items():
            assert space.low_slot == frontier[owner]
            assert all(e.instance.slot >= frontier[owner]
                       for e in space.entries())
        assert all(iid.slot >= frontier[iid.owner]
                   for iid in replica._log_index)
        assert len(replica.statemachine.record.entries) < 2 * INTERVAL
    assert check(observe(cluster)) == []


@pytest.mark.parametrize("protocol", ["ezbft", "pbft", "fab", "zyzzyva"])
def test_stable_checkpoint_digests_agree_at_every_watermark(protocol):
    cluster = lan_cluster(protocol, checkpoint_interval=INTERVAL)
    client = cluster.add_client("c0", "local")
    run_commands(cluster, client, 4 * INTERVAL)
    logs = {rid: r.checkpoint_log for rid, r in cluster.replicas.items()}
    by_watermark = {}
    for rid, entries in logs.items():
        assert entries, f"{rid} stabilized no checkpoints"
        for watermark, state_digest in entries:
            by_watermark.setdefault(watermark, set()).add(state_digest)
    for watermark, digests in by_watermark.items():
        assert len(digests) == 1, (
            f"digest disagreement at watermark {watermark}: {digests}")


def test_history_prefixes_align_after_truncation():
    """Executed records cut at stable checkpoints still agree on the
    order of what each retains."""
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    client = cluster.add_client("c0", "local")
    # Single hot key -> totally ordered (interfering) history.
    run_commands(cluster, client, 4 * INTERVAL, key_fn=lambda i: "hot")
    for replica in cluster.replicas.values():
        assert replica.executor.executed_count == 4 * INTERVAL
        assert replica.statemachine.record.watermark > 0
    assert check(observe(cluster)) == []


def test_gc_retains_reply_cache_and_exactly_once_state():
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", on_delivery=log.hook("c0"))
    run_commands(cluster, client, 3 * INTERVAL)
    replica = cluster.replicas["r0"]
    assert replica.stats["log_entries_gcd"] > 0
    # The per-client reply cache and timestamp floor survive GC, so a
    # duplicate of the latest request is answered from cache...
    assert "c0" in replica._client_reply_cache
    assert replica._client_ts["c0"] == 3 * INTERVAL
    # ...and every executed command is still deduplicated even though
    # the ident set was compacted to a per-client floor.
    for timestamp in range(1, 3 * INTERVAL + 1):
        assert replica.executor.has_executed(("c0", timestamp))
    assert not replica.executor.has_executed(("c0", 3 * INTERVAL + 1))


def test_checkpointing_disabled_with_zero_interval():
    cluster = lan_cluster(checkpoint_interval=0)
    client = cluster.add_client("c0", "local")
    run_commands(cluster, client, 3 * INTERVAL)
    for replica in cluster.replicas.values():
        assert replica.stats["checkpoints"] == 0
        assert replica.stats["log_entries_gcd"] == 0
        assert len(replica._log_index) == 3 * INTERVAL


def test_no_gc_without_attestation_quorum():
    """A replica that never hears peer attestations captures local
    checkpoints but must not stabilize or garbage-collect."""
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    deaf = cluster.replicas["r0"]
    original = deaf.on_message

    def drop_attestations(sender, message):
        payload = getattr(message, "payload", None)
        if isinstance(payload, EzCheckpoint):
            return
        original(sender, message)

    cluster.network.set_handler("r0", drop_attestations)
    client = cluster.add_client("c0", "local", target_replica="r1")
    run_commands(cluster, client, 3 * INTERVAL)
    assert deaf.stats["checkpoints"] >= 2  # it still captures locally
    assert deaf.checkpoints.stable is None  # only its own vote
    assert deaf.stats["log_entries_gcd"] == 0
    assert all(s.low_slot == 0 for s in deaf.spaces.values())
    # Its peers heard each other and garbage-collected normally.
    assert cluster.replicas["r1"].stats["log_entries_gcd"] > 0


#: The primary-based baselines (``BaseReplica``).
BASELINES = ("pbft", "fab", "zyzzyva")


@pytest.mark.parametrize("protocol", BASELINES)
def test_baseline_report_counts_its_stable_checkpoints(protocol,
                                                       monkeypatch):
    """A baseline's report counts every stable-checkpoint transition,
    as ezBFT's does: one per replica per interval, from the same counter
    the ``/metrics`` scrape reads."""
    transitions = {}
    attest = CheckpointStore.attest

    def counting_attest(store, *args, **kwargs):
        became_stable = attest(store, *args, **kwargs)
        if became_stable:
            transitions[id(store)] = transitions.get(id(store), 0) + 1
        return became_stable

    monkeypatch.setattr(CheckpointStore, "attest", counting_attest)
    scenario = Scenario(
        name=f"{protocol}-checkpoints", protocol=protocol,
        replica_regions=("local",) * 4, latency="local",
        workload=WorkloadSpec(mode="closed", client_regions=("local",),
                              clients_per_region=2,
                              requests_per_client=200),
        checkpoint_interval=32, seed=1)
    report, cluster = ScenarioRunner().run_with_cluster(scenario)
    assert report.delivered == 400
    for replica in cluster.replicas.values():
        assert replica.checkpoints.stable.watermark == 384
        assert transitions[id(replica.checkpoints)] == 12
        assert replica.stats["checkpoints_stable"] == 12
    assert report.checkpoints_stable == sum(transitions.values()) == 48


@pytest.mark.parametrize("protocol", BASELINES)
def test_baseline_checkpoint_garbage_collects_log(protocol):
    """Slots and executed-record entries below a stable checkpoint are
    dropped, so both stay O(interval): no larger after 400 commands
    than after 200.  The stable checkpoint is proven by the 2f+1 signed
    EZCHECKPOINTs a VIEW-CHANGE ships."""
    cluster = lan_cluster(protocol, checkpoint_interval=16)
    client = cluster.add_client("c0", "local")
    sizes = []
    for half in range(2):
        run_commands(cluster, client, 200, start=200 * half)
        sizes.append({rid: (len(r._slots),
                            len(r.statemachine.record.entries))
                      for rid, r in cluster.replicas.items()})
    for rid, replica in cluster.replicas.items():
        assert replica.stats["checkpoints"] == 25
        stable = replica.checkpoints.stable
        assert stable.watermark == 400
        proof = replica.checkpoints.stable_proof
        assert len(proof) >= cluster.config.slow_quorum_size
        assert checkpoint_proof(proof, replica.registry,
                                cluster.config.slow_quorum_size) == \
            (400, stable.state_digest)
        assert min(replica._slots) >= stable.watermark - 1
        first, second = sizes[0][rid], sizes[1][rid]
        assert second[0] <= first[0] <= 16 + 1
        assert second[1] <= first[1] <= 16


@pytest.mark.parametrize("protocol", BASELINES)
def test_slots_reopened_by_late_votes_are_collected(protocol):
    """With eight pipelined clients a PBFT backup gets votes for slots
    it already collected, and each opens its slot again; the next
    stable checkpoint drops those too, so no replica holds more than an
    interval's slots at the end."""
    scenario = Scenario(
        name=f"{protocol}-late-votes", protocol=protocol,
        replica_regions=("local",) * 4, latency="local",
        workload=WorkloadSpec(mode="closed", client_regions=("local",),
                              clients_per_region=8,
                              requests_per_client=50),
        checkpoint_interval=32, seed=1)
    report, cluster = ScenarioRunner().run_with_cluster(scenario)
    assert report.delivered == 400
    for replica in cluster.replicas.values():
        assert len(replica._slots) <= 32 + 1


# ----------------------------------------------------------------------
# Owner-change payloads above the stable checkpoint
# ----------------------------------------------------------------------
def test_owner_change_payload_starts_above_stable_checkpoint():
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r1",
                                on_delivery=log.hook("c0"))
    run_commands(cluster, client, 4 * INTERVAL)
    replica = cluster.replicas["r0"]
    base = replica.checkpoint_base_slot("r1")
    assert base >= 2 * INTERVAL
    summaries = replica.owner_changes._summarize_space("r1", base)
    # The recovery payload covers only the post-checkpoint suffix, not
    # the whole executed history.
    assert len(summaries) <= 2 * INTERVAL
    assert all(s.instance.slot >= base for s in summaries)


def test_owner_change_after_gc_preserves_consistency():
    """Depose an owner whose space has been GC'd: the finalized history
    must not resurrect (or no-op over) checkpoint-covered slots."""
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r1",
                                on_delivery=log.hook("c0"))
    run_commands(cluster, client, 3 * INTERVAL)
    assert log.results == ["OK"] * 3 * INTERVAL
    assert check(observe(cluster)) == []
    state_before = cluster.replicas["r0"].statemachine.final_items()
    for rid in ("r0", "r2", "r3"):
        cluster.replicas[rid].owner_changes.suspect("r1")
    cluster.run_until_idle()
    for rid in ("r0", "r2", "r3"):
        space = cluster.replicas[rid].spaces["r1"]
        assert space.frozen
        assert space.owner_number == 2
        # No noop backfill below the checkpoint base.
        assert all(not e.command.is_noop or e.instance.slot >=
                   cluster.replicas[rid].checkpoint_base_slot("r1")
                   for e in space.entries())
    assert check(observe(cluster)) == []
    assert cluster.replicas["r0"].statemachine.final_items() == \
        state_before


# ----------------------------------------------------------------------
# State transfer
# ----------------------------------------------------------------------
def test_partitioned_replica_rejoins_via_state_transfer(monkeypatch):
    """The tentpole recovery scenario: a replica is partitioned while
    the cluster GCs past it, then rejoins.  Without state transfer it
    would wait forever for truncated SPECORDERs; with it, it installs
    the latest stable snapshot and resumes live execution.  The shipped
    snapshot's root is recomputed from its leaves once, for the proof
    check and the install both."""
    recomputed = []

    def counting(watermark, snapshot):
        recomputed.append(watermark)
        return real(watermark, snapshot)

    real = checkpointing.received_checkpoint
    monkeypatch.setattr(checkpointing, "received_checkpoint", counting)
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    cluster.network.isolate("r3")
    run_commands(cluster, client, 4 * INTERVAL)
    lagging = cluster.replicas["r3"]
    assert lagging.executor.executed_count == 0
    assert cluster.replicas["r0"].checkpoints.stable.watermark >= \
        3 * INTERVAL
    cluster.network.heal("r3")
    run_commands(cluster, client, 2 * INTERVAL, start=4 * INTERVAL)
    assert lagging.stats["state_transfers_installed"] >= 1
    assert sum(r.stats["state_transfers_served"]
               for r in cluster.replicas.values()) >= 1
    assert len(recomputed) == sum(r.stats["state_transfers_installed"]
                                for r in cluster.replicas.values())
    assert lagging.executor.executed_count == 6 * INTERVAL
    assert check(observe(cluster)) == []
    # The rejoined replica now holds a stable checkpoint of its own and
    # participates in later ones.
    assert lagging.checkpoints.stable is not None


def test_state_transfer_reply_with_insufficient_proof_rejected():
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    client = cluster.add_client("c0", "local")
    run_commands(cluster, client, INTERVAL)
    replica = cluster.replicas["r0"]
    bogus = StateTransferReply(
        replica="r1", watermark=10 ** 6,
        snapshot={"state": [{"evil": 1}], "frontier": {},
                  "client_floors": {}, "client_sparse": {},
                  "executed_above": []},
        proof=())
    asked = requests_sent(replica)
    replica.checkpointing.catch_up()  # r1 is the first peer asked
    before = dict(replica.stats)
    replica.on_message("r1", bogus)
    assert replica.stats["invalid_messages"] == \
        before["invalid_messages"] + 1
    assert asked == ["r1", "r2"]  # refused: the next peer at once
    assert replica.stats["state_transfers_installed"] == 0
    assert replica.statemachine.get_final("evil") is None


def test_state_transfer_reply_with_forged_signatures_rejected():
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    client = cluster.add_client("c0", "local")
    run_commands(cluster, client, INTERVAL)
    replica = cluster.replicas["r0"]
    snapshot = {"state": [{"evil": 1}], "frontier": {},
                "client_floors": {}, "client_sparse": {},
                "executed_above": []}
    state_digest = received_checkpoint(10 ** 6, snapshot).state_digest
    # r1's key signs attestations *claiming* to be from every replica:
    # distinct-signer validation must reject the quorum.
    r1 = cluster.replicas["r1"]
    forged = tuple(
        SignedPayload.create(
            EzCheckpoint(replica=rid, watermark=10 ** 6,
                         state_digest=state_digest),
            r1.keypair)
        for rid in cluster.config.replica_ids)
    bogus = StateTransferReply(replica="r1", watermark=10 ** 6,
                               snapshot=snapshot, proof=forged)
    replica.checkpointing.catch_up()  # r1 is the first peer asked
    replica.on_message("r1", bogus)
    assert replica.stats["state_transfers_installed"] == 0
    assert replica.statemachine.get_final("evil") is None


def attested_transfer(cluster, watermark, snapshot):
    """A STATETRANSFERREPLY shipping ``snapshot`` with a genuine proof:
    every replica signs the digest its leaves hash to, placement
    unchecked -- so only the receiver's leaf checks stand between it
    and an install."""
    state_digest = unchecked_state_digest(watermark, snapshot)
    proof = tuple(
        SignedPayload.create(
            EzCheckpoint(replica=rid, watermark=watermark,
                         state_digest=state_digest),
            replica.keypair)
        for rid, replica in cluster.replicas.items())
    return StateTransferReply(replica="r0", watermark=watermark,
                              snapshot=snapshot, proof=proof)


@pytest.mark.parametrize("defect", [None, "misplaced key", "three leaves"])
def test_state_transfer_checks_leaf_placement(defect):
    """A shipped state whose key sits outside its leaf, or whose leaf
    count is not a power of two, installs nothing even under a valid
    proof; the same transfer without the defect installs."""
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    client = cluster.add_client("c0", "local", target_replica="r0")
    cluster.network.isolate("r3")
    run_commands(cluster, client, 3 * INTERVAL, key_fn=lambda i: f"k{i}")
    stable = cluster.replicas["r0"].checkpoints.stable
    leaves = list(stable.snapshot["state"])
    assert len(leaves) >= 2
    if defect is not None:
        leaves = defective_leaves(leaves, defect)
    reply = attested_transfer(cluster, stable.watermark,
                              {**stable.snapshot, "state": leaves})
    lagging = cluster.replicas["r3"]
    invalid = lagging.stats["invalid_messages"]
    # Unasked, even a valid answer is dropped uncounted.
    lagging.on_message("r0", reply)
    assert lagging.stats["state_transfers_installed"] == 0
    assert lagging.stats["invalid_messages"] == invalid
    lagging.checkpointing.catch_up()  # r0 is the first peer asked
    lagging.on_message("r0", reply)
    if defect is None:
        assert lagging.stats["state_transfers_installed"] == 1
        assert lagging.executor.executed_count == stable.watermark
        return
    assert lagging.stats["state_transfers_installed"] == 0
    assert lagging.stats["invalid_messages"] == invalid + 1
    assert lagging.executor.executed_count == 0
    assert lagging.statemachine.final_items() == {}


def test_capture_lands_on_interval_boundary_mid_wave():
    """A single commit wave can execute past an interval boundary; the
    capture must still happen exactly at the boundary watermark, or the
    attestation never matches other replicas' and GC wedges."""
    cluster = lan_cluster(checkpoint_interval=4)
    replica = cluster.replicas["r2"]
    entries = []
    prev = None
    for slot in range(6):  # one dependency chain, executed as one wave
        command = Command(client_id="cw", timestamp=slot + 1, op="put",
                          key="hot", value=slot)
        entry = LogEntry(
            instance=InstanceID("r0", slot), owner_number=0,
            command=command,
            deps=(prev,) if prev is not None else (),
            seq=slot + 1, status=EntryStatus.COMMITTED)
        replica.spaces["r0"].put(entry)
        replica._index_entry(entry)
        prev = entry.instance
        entries.append(entry)
    replica._advance_execution(entries)
    assert replica.executor.executed_count == 6
    assert replica.stats["checkpoints"] == 1
    assert replica.checkpoints.last_captured == 4  # not 6


def test_byzantine_watermark_flood_is_bounded():
    from repro.statemachine.checkpoint import CheckpointStore

    store = CheckpointStore(quorum=3, interval=10)
    for k in range(200):
        store.attest(10 * (k + 1), f"d{k}", "byz")
    live = [key for key in store._votes if key[0] == "byz"]
    assert len(live) <= CheckpointStore.MAX_VOTES_PER_REPLICA
    assert len(store._attestations) <= CheckpointStore.MAX_VOTES_PER_REPLICA
    # The surviving votes are the most recent ones.
    assert max(w for _, w in live) == 2000


def hold_attestations(cluster, rid):
    """Partition ``rid`` off, except that the EZCHECKPOINTs sent to it
    are held instead of lost; returns them as ``(sender, envelope)``,
    for delivery once the partition heals."""
    held = []

    def hold(sender, message):
        if isinstance(getattr(message, "payload", None), EzCheckpoint):
            held.append((sender, message))

    cluster.set_handler(rid, hold)
    return held


def requests_sent(replica):
    """The peers ``replica`` sends a STATETRANSFERREQ to, in order."""
    asked = []
    send = replica.ctx._send

    def recording(src, dst, message):
        if isinstance(message, StateTransferRequest):
            asked.append(dst)
        send(src, dst, message)

    replica.ctx._send = recording
    return asked


def test_a_log_only_answer_leaves_the_round_open(tmp_path):
    """r3 misses two stable checkpoints.  Meanwhile r0, the first peer
    in r3's ring order, restarted from disk, so its stable checkpoint
    has no proof and it answers with its log only.  That answer
    installs but leaves r3 short of the proven checkpoint that opened
    the round, so r3 asks r1, whose proven checkpoint installs once;
    no peer is asked twice, and r2 not at all."""
    from repro.storage import ReplicaStorage

    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    storage = ReplicaStorage(str(tmp_path), "r0")
    cluster.replicas["r0"].attach_storage(storage)
    client = cluster.add_client("c0", "local", target_replica="r1")
    held = hold_attestations(cluster, "r3")
    run_commands(cluster, client, 2 * INTERVAL + 2)
    storage.close()
    r0 = cluster.build_replica("r0", cluster.context_for("r0"))
    cluster.set_handler("r0", r0.on_message)
    r0.attach_storage(ReplicaStorage(str(tmp_path), "r0"))
    r0.recover_from_storage()
    cluster.run_until_idle()
    assert r0.checkpoints.stable.watermark == 2 * INTERVAL
    assert r0.checkpoints.stable_proof == ()

    r3 = cluster.replicas["r3"]
    asked = requests_sent(r3)
    cluster.set_handler("r3", r3.on_message)
    for sender, envelope in held:
        r3.on_message(sender, envelope)
    assert asked == ["r0"]
    assert r3.checkpointing._target == 2 * INTERVAL
    cluster.run_until_idle()
    assert asked == ["r0", "r1"]
    assert r3.stats["catch_ups_installed"] == 2
    assert r3.stats["state_transfers_installed"] == 1
    assert r3.stats["invalid_messages"] == 0
    assert r3.checkpointing._target is None  # the round closed
    assert r3.checkpoints.stable.watermark == 2 * INTERVAL
    assert len(r3.checkpoints.stable_proof) == 3  # r3 can serve it now
    assert r3.executor.executed_count == 2 * INTERVAL + 2
    assert check(observe(cluster)) == []


def test_more_proofs_while_a_round_is_open_ask_no_extra_peer():
    """The first proven checkpoint an interval ahead opens a round;
    proofs of it again, and of higher checkpoints, only raise that
    round's target."""
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    client = cluster.add_client("c0", "local", target_replica="r1")
    held = hold_attestations(cluster, "r3")
    run_commands(cluster, client, 3 * INTERVAL)
    r3 = cluster.replicas["r3"]
    asked = requests_sent(r3)
    cluster.set_handler("r3", r3.on_message)
    for sender, envelope in held:
        if envelope.payload.watermark == INTERVAL:
            r3.on_message(sender, envelope)
    assert asked == ["r0"]
    assert r3.checkpointing._target == INTERVAL
    for sender, envelope in held:  # INTERVAL again, and higher ones
        r3.on_message(sender, envelope)
    assert asked == ["r0"]
    assert r3.checkpointing._target == 3 * INTERVAL
    cluster.run_until_idle()
    assert asked == ["r0"]
    assert r3.stats["state_transfers_installed"] == 1
    assert r3.executor.executed_count == 3 * INTERVAL
    assert check(observe(cluster)) == []


def test_gap_fill_never_noops_checkpoint_covered_slots():
    """A slot GC'd at one owner-change reporter (covered by its stable
    checkpoint) but lacking a quorum of candidates must be omitted from
    the finalized history, not finalized as a no-op: a no-op there
    would overwrite the durably executed command at lagging replicas."""
    from repro.messages.ezbft import LogEntrySummary, OwnerChange

    cluster = lan_cluster()
    manager = cluster.replicas["r2"].owner_changes
    cmd = Command(client_id="ca", timestamp=1, op="put", key="k",
                  value="real")
    top = Command(client_id="cb", timestamp=1, op="put", key="k2",
                  value="top")

    def entry(slot, command, kind, status):
        return LogEntrySummary(
            instance=InstanceID("r1", slot), command=command, deps=(),
            seq=1, status=status, owner_number=1, proof_kind=kind)

    messages = [
        # Reporter X GC'd slots < 3 at its stable checkpoint.
        OwnerChange(sender="r0", suspect="r1", new_owner_number=2,
                    base_slot=3,
                    entries=(entry(4, top, "commit", "committed"),)),
        # Reporter Y still holds slot 1 spec-ordered only (it missed
        # the commit) -- a single candidate, below Condition 2's bar.
        OwnerChange(sender="r3", suspect="r1", new_owner_number=2,
                    base_slot=0,
                    entries=(entry(1, cmd, "spec-order", "spec-ordered"),
                             entry(4, top, "commit", "committed"))),
    ]
    safe = manager._select_safe_history(messages, base_slot=0)
    by_slot = {s.instance.slot: s for s in safe}
    # Slot 1 is checkpoint-covered at reporter X: omitted, never nooped.
    assert 1 not in by_slot
    # Slots >= the highest reported base still get the paper's no-op
    # gap fill (slot 3), and real candidates survive (slot 4).
    assert by_slot[3].command.is_noop
    assert by_slot[4].command == top


def test_install_resets_frontier_cursor():
    """After a state transfer, the cached contiguous-executed cursor
    must restart at the installed frontier -- entries above it were
    demoted for re-execution, and a stale cursor would let a capture
    (or GC clamp) claim them executed while they are not."""
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    cluster.network.isolate("r3")
    run_commands(cluster, client, 3 * INTERVAL)
    lagging = cluster.replicas["r3"]
    # Poison: stale progress.
    lagging._frontier_cursor["r0"] = 10 ** 6
    cluster.network.heal("r3")
    run_commands(cluster, client, INTERVAL, start=3 * INTERVAL)
    assert lagging.stats["state_transfers_installed"] >= 1
    frontier = lagging.checkpoints.stable.snapshot["frontier"]
    # The cursor was re-anchored and tracks the true frontier again.
    assert lagging._frontier_cursor["r0"] <= \
        lagging.spaces["r0"].expected_slot
    assert lagging._executed_frontier(lagging.spaces["r0"]) >= \
        frontier["r0"]
    assert check(observe(cluster)) == []


def test_replayed_commit_below_checkpoint_does_not_resurrect_slot():
    """A client's retransmitted slow-path COMMIT for a GC'd instance
    must not re-install the slot: that would inflate this replica's
    execution count and desync every later checkpoint watermark."""
    from repro.byzantine import install_byzantine
    from repro.messages.ezbft import Commit

    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    # Force slow-path commits (no fast quorum) so the client mints
    # signed COMMITs, and capture them off the wire for replay.
    install_byzantine(cluster, "r3", "silent")
    replica = cluster.replicas["r0"]
    original = replica.on_message
    commits = []

    def capturing(sender, message):
        payload = getattr(message, "payload", None)
        if isinstance(payload, Commit):
            commits.append((sender, message))
        original(sender, message)

    cluster.network.set_handler("r0", capturing)
    run_commands(cluster, client, 2 * INTERVAL)
    assert "slow" in log.paths
    assert replica.stats["log_entries_gcd"] > 0
    # Pick a captured commit whose slot has since been GC'd.
    low = replica.spaces["r0"].low_slot
    assert low > 0
    replayable = [(s, m) for s, m in commits
                  if m.payload.instance.slot < low]
    assert replayable
    count_before = replica.executor.executed_count
    for sender, envelope in replayable:
        capturing(sender, envelope)  # genuine signed commit, replayed
    cluster.run_until_idle()
    assert replica.executor.executed_count == count_before
    assert all(m.payload.instance not in replica._log_index
               for _, m in replayable)
    assert replica.spaces["r0"].low_slot >= low


def test_replayed_self_attestation_is_not_a_second_vote():
    """A byzantine peer replaying r0's own signed EZCHECKPOINT back at
    r0 must not count as a voter distinct from r0's own vote -- that
    would fake a 2f+1 quorum out of f+1 real replicas."""
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    deaf = cluster.replicas["r0"]
    original = deaf.on_message

    def intercept(sender, message):
        payload = getattr(message, "payload", None)
        if isinstance(payload, EzCheckpoint):
            return  # silence real peer attestations
        original(sender, message)

    cluster.network.set_handler("r0", intercept)
    # A broadcast never reaches its sender, so the envelopes to replay
    # are the ones r0's store kept with its own votes.
    client = cluster.add_client("c0", "local", target_replica="r1")
    run_commands(cluster, client, 2 * INTERVAL)
    assert deaf.stats["checkpoints"] >= 1
    ledger = deaf.checkpoints._attestations
    replayed = [voters["r0"] for voters in ledger.values()
                if "r0" in voters]
    assert replayed and all(env.signer == "r0" for env in replayed)
    before = deaf.checkpoints.attestation_count(
        replayed[0].payload.watermark, replayed[0].payload.state_digest)
    for env in replayed:
        original("byz", env)  # byzantine replay of r0's own attestation
        original("byz", env)
    after = deaf.checkpoints.attestation_count(
        replayed[0].payload.watermark, replayed[0].payload.state_digest)
    assert after == before  # no extra voters appeared
    assert deaf.checkpoints.stable is None


def test_state_transfer_request_with_spoofed_target_rejected():
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    client = cluster.add_client("c0", "local")
    run_commands(cluster, client, 2 * INTERVAL)
    from repro.messages.ezbft import StateTransferRequest
    serving = cluster.replicas["r1"]
    assert serving.checkpoints.stable is not None
    before = serving.stats["state_transfers_served"]
    # Sender does not match the claimed reply target.
    serving.on_message("r2", StateTransferRequest(replica="r3",
                                                  have_watermark=0))
    # Target is not a replica at all.
    serving.on_message("c0", StateTransferRequest(replica="c0",
                                                  have_watermark=0))
    assert serving.stats["state_transfers_served"] == before


def test_forged_log_suffix_entries_are_rejected():
    """The suffix is outside the digest-proven snapshot: a faulty peer
    shipping a genuine snapshot plus fabricated 'committed' entries
    must not get them installed."""
    cluster = lan_cluster(checkpoint_interval=INTERVAL)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    cluster.network.isolate("r3")
    run_commands(cluster, client, 3 * INTERVAL)
    serving = cluster.replicas["r0"]
    stable = serving.checkpoints.stable
    assert stable is not None
    evil = Command(client_id="cx", timestamp=1, op="put", key="pwned",
                   value="yes")
    from repro.messages.ezbft import LogEntrySummary
    forged = LogEntrySummary(
        instance=InstanceID("r0", stable.snapshot["frontier"]["r0"] + 1),
        command=evil, deps=(), seq=1, status="committed",
        owner_number=0, proof_kind="commit",
        # Validly signed -- but not a commit certificate for this entry.
        proof=tuple(serving.checkpoints.stable_proof[:3]))
    reply = StateTransferReply(
        replica="r0", watermark=stable.watermark,
        snapshot=stable.snapshot, proof=serving.checkpoints.stable_proof,
        entries=(forged,))
    lagging = cluster.replicas["r3"]
    lagging.checkpointing.catch_up()  # r0 is the first peer asked
    lagging.on_message("r0", reply)
    # The proven snapshot installs; the fabricated entry does not.
    assert lagging.stats["state_transfers_installed"] == 1
    assert lagging.executor.executed_count == stable.watermark
    assert forged.instance not in lagging._log_index
    assert lagging.statemachine.get_final("pwned") is None


# ----------------------------------------------------------------------
# Hypothesis: GC never drops an unexecuted committed instance
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(statuses=st.lists(
    st.sampled_from([EntryStatus.EXECUTED, EntryStatus.COMMITTED,
                     EntryStatus.SPEC_ORDERED]),
    min_size=1, max_size=24),
    claimed_cut=st.integers(min_value=0, max_value=30))
def test_gc_never_drops_unexecuted_committed_instance(statuses,
                                                      claimed_cut):
    cluster = lan_cluster()
    replica = cluster.replicas["r2"]
    space = replica.spaces["r0"]
    for slot, status in enumerate(statuses):
        command = Command(client_id="cq", timestamp=slot + 1, op="put",
                          key=f"k{slot}", value=slot)
        entry = LogEntry(instance=InstanceID("r0", slot),
                         owner_number=0, command=command, deps=(),
                         seq=slot + 1, status=status)
        space.put(entry)
        replica._index_entry(entry)
        if status == EntryStatus.EXECUTED:
            replica.executor.executed.add(entry.instance)
    committed_unexecuted = {
        InstanceID("r0", slot) for slot, status in enumerate(statuses)
        if status != EntryStatus.EXECUTED
    }
    # An (over-)aggressive frontier claim: GC must clamp to the local
    # contiguous-executed prefix regardless.
    checkpoint = Checkpoint.capture(0, {
        "state": KVStore().snapshot(), "frontier": {"r0": claimed_cut},
        "client_floors": {}, "client_sparse": {}, "executed_above": []})
    replica._gc_below(checkpoint)
    for iid in committed_unexecuted:
        assert iid in replica._log_index, (
            f"GC dropped unexecuted instance {iid}")
        assert space.get(iid.slot) is not None
