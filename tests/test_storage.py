"""Durability layer units: WAL framing over torn tails, atomic
snapshots, the segment/snapshot lifecycle, checkpoint-store restore,
and in-process crash recovery of a replica from its data directory."""

import json
import os

import pytest

from repro.errors import ProtocolError, SerializationError
from repro.statemachine.base import Command
from repro.statemachine.checkpoint import Checkpoint, CheckpointStore
from repro.statemachine.kvstore import KVStore
from repro.storage import (
    ReplicaStorage,
    WriteAheadLog,
    atomic_write_json,
    replay_wal,
    valid_prefix_len,
)
from repro.storage.wal import encode_record

from helpers import (
    DeliveryLog,
    defective_leaves,
    lan_cluster,
    unchecked_state_digest,
)


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------
def test_wal_round_trip(tmp_path):
    path = str(tmp_path / "wal-0.log")
    wal = WriteAheadLog(path)
    records = [{"kind": "entry", "sender": f"r{i}", "wire": {"n": i}}
               for i in range(5)]
    for record in records:
        wal.append(record)
    wal.close()
    assert list(replay_wal(path)) == records


def test_wal_missing_file_replays_empty(tmp_path):
    assert list(replay_wal(str(tmp_path / "nope.log"))) == []
    assert valid_prefix_len(str(tmp_path / "nope.log")) == 0


def test_wal_replay_stops_at_torn_final_record(tmp_path):
    path = str(tmp_path / "wal-0.log")
    wal = WriteAheadLog(path)
    wal.append({"n": 1})
    wal.append({"n": 2})
    wal.close()
    whole = os.path.getsize(path)
    # kill -9 mid-append: header + part of the body landed.
    with open(path, "ab") as fh:
        fh.write(encode_record({"n": 3, "pad": "x" * 64})[:-10])
    assert list(replay_wal(path)) == [{"n": 1}, {"n": 2}]
    assert valid_prefix_len(path) == whole


def test_wal_replay_stops_at_crc_mismatch(tmp_path):
    path = str(tmp_path / "wal-0.log")
    wal = WriteAheadLog(path)
    wal.append({"n": 1})
    wal.append({"n": 2})
    wal.close()
    data = bytearray(open(path, "rb").read())
    data[-3] ^= 0xFF  # flip a byte inside the second record's body
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    assert list(replay_wal(path)) == [{"n": 1}]


def test_wal_reopen_truncates_torn_tail_before_append(tmp_path):
    path = str(tmp_path / "wal-0.log")
    wal = WriteAheadLog(path)
    wal.append({"n": 1})
    wal.close()
    with open(path, "ab") as fh:
        fh.write(b"\x99" * 7)  # not even a whole header
    wal = WriteAheadLog(path)  # non-fresh reopen
    wal.append({"n": 2})
    wal.close()
    # The torn garbage is gone; the post-recovery append is reachable.
    assert list(replay_wal(path)) == [{"n": 1}, {"n": 2}]


def test_wal_rejects_oversized_record(tmp_path):
    from repro.storage.wal import MAX_RECORD_BYTES

    wal = WriteAheadLog(str(tmp_path / "wal-0.log"))
    with pytest.raises(ValueError):
        wal.append({"blob": "x" * (MAX_RECORD_BYTES + 1)})
    wal.close()


# ----------------------------------------------------------------------
# Atomic JSON writes
# ----------------------------------------------------------------------
def test_atomic_write_json_creates_parents_and_round_trips(tmp_path):
    path = str(tmp_path / "deep" / "nested" / "out.json")
    atomic_write_json(path, {"a": 1})
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == {"a": 1}


def test_atomic_write_json_failure_keeps_previous_file(tmp_path):
    path = str(tmp_path / "out.json")
    atomic_write_json(path, {"good": True})
    with pytest.raises(TypeError):
        atomic_write_json(path, {"bad": object()})
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == {"good": True}
    # No orphaned tmp files either.
    assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []


# ----------------------------------------------------------------------
# ReplicaStorage lifecycle
# ----------------------------------------------------------------------
def test_storage_appends_replay_across_reopen(tmp_path):
    storage = ReplicaStorage(str(tmp_path), "r0")
    storage.append_entry("r1", {"t": "order", "slot": 1})
    storage.append_attest("r2", {"t": "attest", "wm": 0})
    storage.close()

    reopened = ReplicaStorage(str(tmp_path), "r0")
    records = list(reopened.replay_records())
    reopened.close()
    assert [r["kind"] for r in records] == ["entry", "attest"]
    assert records[0]["sender"] == "r1"
    assert records[0]["wire"] == {"t": "order", "slot": 1}


def kv_snapshot(**items):
    """A checkpoint snapshot whose state holds ``items``."""
    kv = KVStore()
    for ts, (key, value) in enumerate(sorted(items.items()), start=1):
        kv.apply(Command(client_id="c", timestamp=ts, op="put", key=key,
                         value=value))
    return {"state": kv.snapshot()}


def save(storage, watermark, snap):
    storage.save_snapshot(watermark,
                          Checkpoint.capture(watermark, snap).state_digest,
                          snap)


def test_storage_snapshot_round_trip_and_corruption_fallback(tmp_path):
    from repro.storage import RecoverySummary

    storage = ReplicaStorage(str(tmp_path), "r0")
    for watermark in (10, 20):
        save(storage, watermark, kv_snapshot(k=f"v{watermark}"))
    assert storage.load_snapshot()["watermark"] == 20

    # Corrupt the newest: recovery must fall back to the older one and
    # report the invalid file, never delete it.
    newest = os.path.join(str(tmp_path), "r0", "snapshot-20.json")
    with open(newest, "w", encoding="utf-8") as fh:
        fh.write('{"version": 2, "watermark": 20, "truncated')
    summary = RecoverySummary()
    payload = storage.load_snapshot(summary)
    storage.close()
    assert payload["watermark"] == 10
    assert summary.snapshot_watermark == 10
    assert summary.invalid_snapshots == [20]
    assert os.path.exists(newest)


def test_storage_digest_mismatch_is_invalid(tmp_path):
    storage = ReplicaStorage(str(tmp_path), "r0")
    tampered = Checkpoint.capture(5, kv_snapshot(k="TAMPERED"))
    storage.save_snapshot(5, tampered.state_digest, kv_snapshot(k="v"))
    assert storage.load_snapshot() is None
    storage.close()


@pytest.mark.parametrize("defect", ["misplaced key", "three leaves"])
def test_storage_skips_and_names_a_snapshot_with_misplaced_leaves(
        tmp_path, defect):
    """A snapshot file whose digest matches its leaves but whose leaves
    break placement is skipped and named, like a corrupt one."""
    from repro.storage import RecoverySummary

    storage = ReplicaStorage(str(tmp_path), "r0")
    save(storage, 10, kv_snapshot(k="older"))
    leaves = defective_leaves(
        kv_snapshot(**{f"k{i}": i for i in range(20)})["state"], defect)
    storage.save_snapshot(
        20, unchecked_state_digest(20, {"state": leaves}),
        {"state": leaves})
    summary = RecoverySummary()
    payload = storage.load_snapshot(summary)
    storage.close()
    assert payload["watermark"] == 10
    assert summary.invalid_snapshots == [20]


def test_snapshot_of_another_version_stops_recovery(tmp_path):
    """A version-1 snapshot (one flat state dict, digested whole, as
    written before the state became leaves) is not skipped: recovery
    stops and names the file and both versions."""
    from repro.crypto.digest import digest

    snap = {"state": {"k": "v"}, "frontier": {"r0": 3},
            "client_floors": {}, "client_sparse": {},
            "client_results": {}, "executed_above": []}
    path = os.path.join(str(tmp_path), "r0", "snapshot-10.json")
    atomic_write_json(path, {"version": 1, "replica": "r0",
                             "watermark": 10, "state_digest": digest(snap),
                             "snapshot": snap}, sort_keys=True)
    storage = ReplicaStorage(str(tmp_path), "r0")
    with pytest.raises(SerializationError) as raised:
        storage.load_snapshot()
    message = str(raised.value)
    assert path in message
    assert "version 1" in message and "version 2" in message
    replica = lan_cluster().replicas["r0"]
    replica.attach_storage(storage)
    with pytest.raises(SerializationError, match="snapshot-10.json"):
        replica.recover_from_storage()
    storage.close()


def test_storage_rotate_and_prune_retention(tmp_path):
    from repro.crypto.digest import digest

    storage = ReplicaStorage(str(tmp_path), "r0")
    for watermark in (10, 20, 30):
        snap = {"wm": watermark}
        storage.append_entry("r1", {"before": watermark})
        storage.save_snapshot(watermark, digest(snap), snap)
        storage.rotate(watermark)
        storage.append_entry("r1", {"after": watermark})
        storage.prune()
    names = sorted(os.listdir(os.path.join(str(tmp_path), "r0")))
    storage.close()
    # retain=2: snapshots 20 and 30 stay, 10 is gone; segments below
    # the oldest retained snapshot (wal-0, wal-10) are gone too.
    assert names == ["snapshot-20.json", "snapshot-30.json",
                     "wal-20.log", "wal-30.log"]


# ----------------------------------------------------------------------
# Adopting a recovered checkpoint: CheckpointStore + install_stable
# (the base_slot-regression bugfix)
# ----------------------------------------------------------------------
def test_install_stable_resumes_interval_from_recovered_watermark():
    checkpoint = Checkpoint.capture(256, kv_snapshot())
    store = CheckpointStore(quorum=3, interval=128)
    store.install_stable(checkpoint)
    assert store.stable is checkpoint
    assert store.last_captured == 256
    # The bug: a fresh store (last_captured=0) would fire at 128
    # executions and re-capture from scratch.
    fresh = CheckpointStore(quorum=3, interval=128)
    assert fresh.due(300) is True
    assert store.due(300) is False
    assert store.due(384) is True


def test_install_stable_keeps_local_copy_for_requorum():
    checkpoint = Checkpoint.capture(128, kv_snapshot(a="b"))
    store = CheckpointStore(quorum=3)
    store.install_stable(checkpoint)
    # A later attestation round over the same watermark must find the
    # local capture (stability proofs need the snapshot itself).
    assert store._local[128] is checkpoint


# ----------------------------------------------------------------------
# In-process crash recovery: sim replica -> disk -> fresh replica
# ----------------------------------------------------------------------
def test_replica_recovers_state_from_wal_replay(tmp_path):
    cluster = lan_cluster()
    storage = ReplicaStorage(str(tmp_path), "r0")
    cluster.replicas["r0"].attach_storage(storage)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local",
                                on_delivery=log.hook("c0"))
    for i in range(6):
        client.submit(client.next_command("put", f"k{i}", f"v{i}"))
    cluster.run_until_idle()
    assert log.results == ["OK"] * 6
    expected_state = cluster.statemachines()["r0"].final_items()
    expected_executed = cluster.replicas["r0"].stats["executed"]
    storage.close()

    # A brand-new process: same identity, empty in-memory state.  The
    # client key must exist in the registry (deterministic derivation,
    # same as the original process) for replayed commands to verify.
    fresh = lan_cluster()
    fresh.add_client("c0", "local")
    replica = fresh.replicas["r0"]
    storage2 = ReplicaStorage(str(tmp_path), "r0")
    replica.attach_storage(storage2)
    summary = replica.recover_from_storage()
    storage2.close()

    assert summary.records_replayed > 0
    assert replica.stats["executed"] == expected_executed
    assert fresh.statemachines()["r0"].final_items() == expected_state


def test_replica_recovers_through_stable_checkpoint(tmp_path):
    # Small interval so the run crosses checkpoint boundaries and the
    # store rotates/prunes mid-run; recovery then loads a snapshot AND
    # replays the post-checkpoint suffix.
    cluster = lan_cluster(checkpoint_interval=4)
    storage = ReplicaStorage(str(tmp_path), "r0")
    cluster.replicas["r0"].attach_storage(storage)
    client = cluster.add_client("c0", "local")
    for i in range(11):
        client.submit(client.next_command("put", f"k{i}", f"v{i}"))
    cluster.run_until_idle()
    original = cluster.replicas["r0"]
    assert original.checkpoints.stable is not None
    expected_state = cluster.statemachines()["r0"].final_items()
    expected_watermark = original.checkpoints.stable.watermark
    storage.close()

    fresh = lan_cluster(checkpoint_interval=4)
    fresh.add_client("c0", "local")
    replica = fresh.replicas["r0"]
    storage2 = ReplicaStorage(str(tmp_path), "r0")
    replica.attach_storage(storage2)
    summary = replica.recover_from_storage()
    storage2.close()

    assert summary.snapshot_watermark is not None
    assert fresh.statemachines()["r0"].final_items() == expected_state
    assert replica.checkpoints.stable is not None
    assert replica.checkpoints.stable.watermark >= expected_watermark
    # The restored store resumes its interval from the recovered
    # watermark, not from zero (no immediate re-capture).
    assert not replica.checkpoints.due(expected_watermark + 1)


def test_recover_without_storage_raises():
    cluster = lan_cluster()
    with pytest.raises(ProtocolError):
        cluster.replicas["r0"].recover_from_storage()


# ----------------------------------------------------------------------
# One adoption path (state transfer == restart), one replay switch
# ----------------------------------------------------------------------
def test_transfer_and_restart_adopt_a_checkpoint_alike(tmp_path):
    """Two replicas reach the same stable checkpoint by the two routes
    -- one lagged and installs a STATETRANSFERREPLY, one restarts from
    the store the run wrote -- and end up in the same place."""
    from repro.crypto.digest import digest

    interval = 4
    cluster = lan_cluster(checkpoint_interval=interval)
    storage = ReplicaStorage(str(tmp_path), "r1")
    cluster.replicas["r1"].attach_storage(storage)
    client = cluster.add_client("c0", "local", target_replica="r0")
    cluster.network.isolate("r3")
    # Two entries past the last boundary: both routes also have a log
    # suffix above the checkpoint to put back.
    for i in range(2 * interval + 2):
        client.submit(client.next_command("put", f"k{i % 3}", i))
        cluster.run_until_idle()
    storage.close()
    donor = cluster.replicas["r0"]
    stable = donor.checkpoints.stable
    assert stable.watermark == 2 * interval

    lagging = cluster.replicas["r3"]
    assert lagging.executor.executed_count == 0
    cluster.network.heal("r3")
    lagging.checkpointing.catch_up()  # r0 is the first peer asked
    cluster.run_until_idle()
    assert lagging.stats["state_transfers_installed"] == 1

    fresh = lan_cluster(checkpoint_interval=interval)
    fresh.add_client("c0", "local")
    restarted = fresh.replicas["r1"]
    storage2 = ReplicaStorage(str(tmp_path), "r1")
    restarted.attach_storage(storage2)
    summary = restarted.recover_from_storage()
    storage2.close()
    assert summary.snapshot_watermark == stable.watermark

    def landing(replica):
        return {
            "state": digest(replica.statemachine.snapshot()),
            "slots": {owner: (space.low_slot, space.expected_slot)
                      for owner, space in replica.spaces.items()},
            "executed": replica.executor.executed_count,
            "stable": replica.checkpoints.stable.watermark,
            "last_captured": replica.checkpoints.last_captured,
            "checkpoint_log": replica.checkpoint_log[-1],
        }

    assert landing(lagging) == landing(restarted)
    assert landing(lagging)["executed"] == 2 * interval + 2
    assert landing(lagging)["state"] == \
        digest(donor.statemachine.snapshot())
    # Neither route may take an executed timestamp for a new one.
    floors = stable.snapshot["client_floors"]
    assert floors
    for replica in (lagging, restarted):
        assert all(replica._client_ts.get(client, -1) >= floor
                   for client, floor in floors.items())


def test_recovery_replay_is_silent_and_detached(tmp_path):
    """While the WAL replays, the store is detached and the context
    sends nothing; afterwards both are exactly what they were, and the
    one message sent is the rejoin's catch-up request."""
    from repro.messages.ezbft import StateTransferRequest

    cluster = lan_cluster()
    storage = ReplicaStorage(str(tmp_path), "r0")
    cluster.replicas["r0"].attach_storage(storage)
    client = cluster.add_client("c0", "local", target_replica="r0")
    for i in range(6):
        client.submit(client.next_command("put", f"k{i}", f"v{i}"))
    cluster.run_until_idle()
    storage.close()
    segment = os.path.join(str(tmp_path), "r0", "wal-0.log")
    size_before = os.path.getsize(segment)

    fresh = lan_cluster()
    fresh.add_client("c0", "local")
    replica = fresh.replicas["r0"]
    storage2 = ReplicaStorage(str(tmp_path), "r0")
    replica.attach_storage(storage2)
    live_ctx = replica.ctx
    during = []
    handle = replica.on_message

    def spy(sender, message):
        during.append((replica.storage, replica.ctx))
        handle(sender, message)

    replica.on_message = spy
    sent_live = []
    live_send = live_ctx._send
    live_ctx._send = lambda src, dst, message: (
        sent_live.append(type(message)), live_send(src, dst, message))
    sent_before = fresh.network.messages_sent
    summary = replica.recover_from_storage()
    storage2.close()

    # Every record went through the ordinary handlers (which do send:
    # r0 led all six) under the switch ...
    assert len(during) == summary.records_replayed > 0
    assert all(store is None and ctx is not live_ctx
               for store, ctx in during)
    assert replica.stats["spec_ordered"] == 6
    # ... nothing reached the network or the store but the one
    # catch-up request rejoining sends once the live context is back ...
    assert sent_live == [StateTransferRequest]
    assert fresh.network.messages_sent == sent_before + 1
    assert os.path.getsize(segment) == size_before
    # ... and the switch was flipped back.
    assert replica.storage is storage2
    assert replica.ctx is live_ctx
