"""The SPECREPLY header / SPECORDER attachment split.

The paper's reply is ``<<SPECREPLY, ...>_sigma, R_j, rep, SO>``: the
signed tuple closes before ``SO``.  These tests pin what follows from
that: certificates (COMMITFAST, COMMIT, log-entry proofs, relogged WAL
records) carry signed headers only, a batch is answered with one
bundle per client, and every path that consumes a certificate accepts
the header-only form.
"""

import dataclasses
import json

import pytest

from repro.analysis.checkers.wire_schema import check_class
from repro.byzantine import silence_node
from repro.core.instance import EntryStatus
from repro.core.owner_change import summarize_entry
from repro.crypto.digest import canonical_bytes
from repro.errors import SerializationError
from repro.messages.base import SignedPayload
from repro.messages.batching import BatchSpecOrder
from repro.messages.ezbft import (
    BatchCommitFast,
    Commit,
    CommitFast,
    OwnerChange,
    SpecOrder,
    SpecReply,
    SpecReplyBundle,
)
from repro.storage import ReplicaStorage, replay_wal

from helpers import DeliveryLog, assert_replicas_consistent, lan_cluster

SPEC_ORDER_TAGS = (SpecOrder.MSG_TYPE.encode(),
                   BatchSpecOrder.MSG_TYPE.encode())


def carries_spec_order(value) -> bool:
    encoded = canonical_bytes(value)
    return any(tag in encoded for tag in SPEC_ORDER_TAGS)


def capture(cluster, node_id, kind):
    """Interpose on ``node_id``'s handler; returns the list that fills
    with every delivered message (or signed payload) of type ``kind``."""
    seen = []
    original = cluster.network.handler_of(node_id)

    def handler(sender, message):
        inner = message.payload if isinstance(message, SignedPayload) \
            else message
        if isinstance(inner, kind):
            seen.append(inner)
        original(sender, message)

    cluster.network.set_handler(node_id, handler)
    return seen


def submit_puts(cluster, client, count, start=0):
    for i in range(start, start + count):
        client.submit(client.next_command("put", f"k{i}", "v" * 16))
        cluster.run_until_idle()


# ----------------------------------------------------------------------
# (a) Structure: certificates carry headers only
# ----------------------------------------------------------------------
def test_commit_fast_carries_headers_only_and_is_small():
    cluster = lan_cluster()
    commits = capture(cluster, "r1", CommitFast)
    folded = capture(cluster, "r1", BatchCommitFast)
    client = cluster.add_client("c0", "local", target_replica="r0")
    submit_puts(cluster, client, 1)
    (commit_fast,) = commits
    assert not folded  # one header per bundle: nothing to fold
    assert len(commit_fast.certificate) == 4
    assert all(isinstance(signed.payload, SpecReply)
               for signed in commit_fast.certificate)
    assert not carries_spec_order(commit_fast)
    # 3.5 KB when every header embedded the signed SPECORDER, 1.6 KB
    # as four whole headers; now one header as signed and four
    # signatures.
    assert len(canonical_bytes(commit_fast)) < 1024
    wire = json.loads(canonical_bytes(commit_fast))
    assert wire["statement"].encode("ascii") == \
        commit_fast.certificate[0].body
    assert json.loads(wire["statement"])["replica"] == "r0"
    assert [signer for signer, _ in wire["signatures"]] == \
        ["r0", "r1", "r2", "r3"]


def test_slow_path_commit_certificate_carries_headers_only():
    cluster = lan_cluster()
    silence_node(cluster, "r3")  # 3 of 4 answer: slow path
    commits = capture(cluster, "r1", Commit)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    submit_puts(cluster, client, 1)
    assert log.paths == ["slow"]
    (commit,) = commits
    assert len(commit.certificate) == 3
    assert not carries_spec_order(commit.certificate)
    entry = cluster.replicas["r1"].spaces["r0"].get(0)
    assert entry.status == EntryStatus.EXECUTED and entry.committed_slow


def test_log_entry_proofs_are_header_only_and_still_verify():
    """What owner changes and state transfers ship per committed entry,
    checked by the consumer a lagging replica runs on it."""
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local", target_replica="r0")
    submit_puts(cluster, client, 3)
    donor = cluster.replicas["r1"]
    summaries = [summarize_entry(entry)
                 for entry in donor.spaces["r0"].entries()]
    assert [s.proof_kind for s in summaries] == ["commit"] * 3
    assert not any(carries_spec_order(s.proof) for s in summaries)
    fresh = lan_cluster().replicas["r2"]
    for summary in summaries:
        wire = json.loads(canonical_bytes(summary))
        rebuilt = fresh.checkpointing._entry_from_commit_proof(
            type(summary).from_wire(wire))
        assert rebuilt is not None
        assert rebuilt.status == EntryStatus.COMMITTED
        assert rebuilt.command.ident == summary.command.ident


def test_relogged_wal_records_are_header_only_and_recover(tmp_path):
    cluster = lan_cluster(checkpoint_interval=4)
    storage = ReplicaStorage(str(tmp_path), "r0")
    cluster.replicas["r0"].attach_storage(storage)
    client = cluster.add_client("c0", "local")
    submit_puts(cluster, client, 11)
    expected_state = cluster.kvstores()["r0"].final_items()
    newest = storage._segment_path(storage._current_segment)
    storage.close()
    assert storage._current_segment > 0  # rotated: the head is a relog
    fast = [record["wire"] for record in replay_wal(newest)
            if record["wire"]["type"] == CommitFast.MSG_TYPE]
    assert fast
    for wire in fast:
        assert not carries_spec_order(wire)

    fresh = lan_cluster(checkpoint_interval=4)
    fresh.add_client("c0", "local")
    replica = fresh.replicas["r0"]
    storage2 = ReplicaStorage(str(tmp_path), "r0")
    replica.attach_storage(storage2)
    replica.recover_from_storage()
    storage2.close()
    assert replica.stats["invalid_messages"] == 0
    assert fresh.kvstores()["r0"].final_items() == expected_state


def test_mismatched_headers_have_no_wire_form():
    """In process such a certificate can be built (and the replica
    refuses it); there is no statement to ship, and the error says
    which field the headers disagree on."""
    cluster = lan_cluster()
    commits = capture(cluster, "r1", CommitFast)
    client = cluster.add_client("c0", "local", target_replica="r0")
    submit_puts(cluster, client, 1)
    (honest,) = commits
    cert = list(honest.certificate)
    lied = dataclasses.replace(cert[2].payload, seq=cert[2].payload.seq + 1)
    cert[2] = SignedPayload.create(lied, cluster.replicas["r2"].keypair)
    mixed = dataclasses.replace(honest, certificate=tuple(cert))
    assert not cluster.replicas["r1"]._validate_fast_certificate(mixed)
    with pytest.raises(SerializationError, match="'seq'"):
        mixed.to_wire()
    # A header signed by someone other than the replica it names.
    cert[2] = SignedPayload.create(honest.certificate[2].payload,
                                   cluster.replicas["r3"].keypair)
    with pytest.raises(SerializationError, match="'replica'"):
        dataclasses.replace(honest, certificate=tuple(cert)).to_wire()
    with pytest.raises(SerializationError):
        dataclasses.replace(honest, certificate=()).to_wire()


# ----------------------------------------------------------------------
# (b) Batched: one bundle per (client, batch), one commit frame back
# ----------------------------------------------------------------------
def test_batch_is_answered_with_one_bundle_per_replica():
    cluster = lan_cluster(batch_size=8, batch_timeout_ms=5.0)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    bundles = capture(cluster, "c0", SpecReplyBundle)
    client.submit_batch([client.next_command("put", f"k{i}", i)
                         for i in range(8)])
    cluster.run_until_idle()
    assert log.paths == ["fast"] * 8
    assert len(bundles) == 4  # one reply frame per replica
    for bundle in bundles:
        assert len(bundle.replies) == 8
        assert bundle.cpu_cost_units == 8
        batch = bundle.spec_order.payload
        assert isinstance(batch, BatchSpecOrder)
        assert len(batch.orders) == 8
        assert {h.payload.timestamp for h in bundle.replies} == \
            set(range(1, 9))
    assert len({h.signer for b in bundles for h in b.replies}) == 4
    assert_replicas_consistent(cluster)


def test_batch_is_committed_with_one_frame_per_replica():
    cluster = lan_cluster(batch_size=8, batch_timeout_ms=5.0)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    folded = {rid: capture(cluster, rid, BatchCommitFast)
              for rid in cluster.replicas}
    singles = {rid: capture(cluster, rid, CommitFast)
               for rid in cluster.replicas}
    client.submit_batch([client.next_command("put", f"k{i}", i)
                         for i in range(8)])
    cluster.run_until_idle()
    assert log.paths == ["fast"] * 8
    for rid, replica in cluster.replicas.items():
        (batch,) = folded[rid]
        assert not singles[rid]
        assert len(batch.commits) == 8 and batch.cpu_cost_units == 8
        assert {c.instance.slot for c in batch.commits} == set(range(8))
        assert replica.stats["committed_fast"] == 8
        assert replica.stats["invalid_messages"] == 0
    assert_replicas_consistent(cluster)
    # And the frame survives a real wire.
    (batch,) = folded["r1"]
    again = BatchCommitFast.from_wire(json.loads(canonical_bytes(batch)))
    assert again == batch


def test_forged_certificate_in_a_folded_frame_costs_only_itself():
    cluster = lan_cluster(batch_size=8, batch_timeout_ms=5.0)
    client = cluster.add_client("c0", "local", target_replica="r0")
    deliver = cluster.network.handler_of("r1")

    def garble(sender, message):
        if isinstance(message, BatchCommitFast):
            commits = list(message.commits)
            cert = list(commits[3].certificate)
            cert[0] = dataclasses.replace(
                cert[0], signature=dataclasses.replace(
                    cert[0].signature, tag="00" * 32))
            commits[3] = dataclasses.replace(commits[3],
                                             certificate=tuple(cert))
            message = BatchCommitFast(commits=tuple(commits))
        deliver(sender, message)

    cluster.network.set_handler("r1", garble)
    client.submit_batch([client.next_command("put", f"k{i}", i)
                         for i in range(8)])
    cluster.run_until_idle()
    stats = cluster.replicas["r1"].stats
    assert stats["committed_fast"] == 7
    assert stats["invalid_messages"] == 1
    entries = list(cluster.replicas["r1"].spaces["r0"].entries())
    assert [e.status.at_least(EntryStatus.COMMITTED) for e in entries] \
        == [slot != 3 for slot in range(8)]
    assert cluster.replicas["r2"].stats["committed_fast"] == 8


def test_batch_commit_fast_rejects_empty():
    with pytest.raises(SerializationError):
        BatchCommitFast(commits=())
    with pytest.raises(SerializationError):
        BatchCommitFast.from_wire({"type": BatchCommitFast.MSG_TYPE,
                                   "commits": []})


def test_two_clients_in_one_batch_get_one_bundle_each():
    cluster = lan_cluster(batch_size=2, batch_timeout_ms=5.0)
    log = DeliveryLog()
    clients = [cluster.add_client(cid, "local", target_replica="r0",
                                  on_delivery=log.hook(cid))
               for cid in ("c0", "c1")]
    bundles = {c.client_id: capture(cluster, c.client_id,
                                    SpecReplyBundle) for c in clients}
    for client in clients:
        client.submit(client.next_command("put", client.client_id, 1))
    cluster.run_until_idle()
    assert sorted(log.paths) == ["fast", "fast"]
    assert cluster.replicas["r0"].stats["batches_led"] == 1
    for cid, seen in bundles.items():
        assert len(seen) == 4
        for bundle in seen:
            (header,) = bundle.replies
            assert header.payload.client_id == cid
            assert len(bundle.spec_order.payload.orders) == 2


def test_buffered_out_of_order_batch_is_still_answered():
    """r1 receives the second batch first: its orders wait in the
    buffer, and once the first batch fills the gap r1 answers both,
    each bundle beside the batch that proposed it."""
    cluster = lan_cluster(batch_size=2, batch_timeout_ms=5.0)
    held = []
    deliver = cluster.network.handler_of("r1")

    def reorder(sender, message):
        if isinstance(message, SignedPayload) and \
                isinstance(message.payload, BatchSpecOrder):
            held.append((sender, message))
            if len(held) == 2:
                for item in reversed(held):
                    deliver(*item)
            return
        deliver(sender, message)

    cluster.network.set_handler("r1", reorder)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    bundles = capture(cluster, "c0", SpecReplyBundle)
    for base in (0, 2):
        client.submit_batch([
            client.next_command("put", f"k{base + i}", i)
            for i in range(2)])
    cluster.run_until_idle()
    assert len(held) == 2
    assert log.paths == ["fast"] * 4
    from_r1 = [b for b in bundles if b.replies[0].signer == "r1"]
    assert len(from_r1) == 2
    for bundle in from_r1:
        proposed = {o.instance for o in bundle.spec_order.payload.orders}
        assert {h.payload.instance for h in bundle.replies} == proposed


# ----------------------------------------------------------------------
# (c) Certificate consumers accept header-only proofs
# ----------------------------------------------------------------------
def test_owner_change_over_committed_and_spec_ordered_batch_entries():
    """r1's space holds a committed batch (header-only certificates)
    and a batch that was spec-ordered but never committed (evidence:
    the signed BATCHSPECORDER); deposing r1 must finalize all four."""
    cluster = lan_cluster(batch_size=2, batch_timeout_ms=5.0)
    client = cluster.add_client("c0", "local", target_replica="r1")
    client.submit_batch([client.next_command("put", f"k{i}", i)
                         for i in range(2)])
    cluster.run_until_idle()
    silence_node(cluster, "c0")  # the second batch never commits
    client.submit_batch([client.next_command("put", f"k{i}", i)
                         for i in range(2, 4)])
    cluster.run(until=cluster.sim.now + 20.0)
    payloads = capture(cluster, "r2", OwnerChange)
    for rid in ("r0", "r2", "r3"):
        cluster.replicas[rid].owner_changes.suspect("r1")
    cluster.run(until=cluster.sim.now + 100.0)

    kinds = {}
    for payload in payloads:
        for summary in payload.entries:
            kinds.setdefault(summary.proof_kind, []).append(summary)
    assert not any(carries_spec_order(s.proof) for s in kinds["commit"])
    assert all(isinstance(s.proof[0].payload, BatchSpecOrder)
               for s in kinds["spec-order"])
    for rid in ("r0", "r2", "r3"):
        space = cluster.replicas[rid].spaces["r1"]
        assert space.frozen
        entries = list(space.entries())
        assert [e.command.ident for e in entries] == \
            [("c0", t) for t in (1, 2, 3, 4)]
        assert all(e.status == EntryStatus.EXECUTED for e in entries)
    assert_replicas_consistent(cluster, exclude=("r1",))


# ----------------------------------------------------------------------
# (d) Wire schema; pre-split bytes fail loudly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [SpecReply, SpecReplyBundle, CommitFast,
                                 BatchCommitFast])
def test_wire_schema_parity(cls):
    assert check_class(cls) == []


def test_bundle_without_attachment_still_counts_as_a_vote():
    """``spec_order=None`` is legal: the vote counts, nothing to
    compare for equivocation."""
    cluster = lan_cluster()
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    deliver = cluster.network.handler_of("c0")

    def strip(sender, message):
        if isinstance(message, SpecReplyBundle):
            message = SpecReplyBundle(replies=message.replies)
        deliver(sender, message)

    cluster.network.set_handler("c0", strip)
    submit_puts(cluster, client, 1)
    assert log.paths == ["fast"]
    assert client.stats["poms_sent"] == 0


def _spec_order_inside_the_signed_tuple(wire):
    statement = json.loads(wire["statement"])
    statement["spec_order"] = {"type": "signed"}
    wire["statement"] = json.dumps(statement)
    return "spec_order"


def _whole_envelopes_per_signer(wire):
    statement = json.loads(wire.pop("statement"))
    wire["certificate"] = [
        {"type": "signed",
         "payload": dict(statement, replica=signer),
         "signature": {"signer": signer, "tag": tag}}
        for signer, tag in wire.pop("signatures")]
    return "certificate"


def _statement_without_its_signer(wire):
    statement = json.loads(wire["statement"])
    del statement["type"], statement["replica"]
    wire["statement"] = statement
    return "statement"


def _recover_from(tmp_path, wire):
    """Recover a fresh r0 from a WAL holding the one record ``wire``;
    returns the error recovery raised."""
    storage = ReplicaStorage(str(tmp_path), "r0")
    storage.append_entry("c0", wire)
    storage.close()

    fresh = lan_cluster()
    replica = fresh.replicas["r0"]
    storage2 = ReplicaStorage(str(tmp_path), "r0")
    replica.attach_storage(storage2)
    live_ctx = replica.ctx
    with pytest.raises(SerializationError) as err:
        replica.recover_from_storage()
    storage2.close()
    # The replay switch was flipped back: store attached, sends live.
    assert replica.storage is storage2
    assert replica.ctx is live_ctx
    return err.value


@pytest.mark.parametrize("retire", [_spec_order_inside_the_signed_tuple,
                                    _whole_envelopes_per_signer,
                                    _statement_without_its_signer])
def test_recovery_names_a_pre_split_record_and_its_segment(tmp_path,
                                                           retire):
    """A data dir written before a wire split holds records this build
    cannot use -- SPECREPLYs whose signed bytes include ``spec_order``
    (they can never verify), COMMITFASTs shipping a whole envelope per
    signer under ``certificate`` or a statement without its signer --
    so recovery must say so (key and file) instead of quietly dropping
    the commit proofs."""
    cluster = lan_cluster()
    commits = capture(cluster, "r0", CommitFast)
    client = cluster.add_client("c0", "local")
    submit_puts(cluster, client, 1)
    wire = json.loads(canonical_bytes(commits[0]))
    retired_key = retire(wire)
    error = _recover_from(tmp_path, wire)
    assert retired_key in str(error)
    assert "wal-0.log" in str(error)


def test_recovery_names_an_envelope_without_its_signed_bytes(tmp_path):
    """Envelopes written before they shipped the bytes their signer
    MAC'd held the payload as an object under ``payload``: once a
    ``KeyError``, which recovery skipped along with the proof inside;
    now an error naming the key and the segment."""
    cluster = lan_cluster()
    envelopes = []
    deliver = cluster.network.handler_of("r1")

    def keep(sender, message):
        if isinstance(message, SignedPayload) and \
                isinstance(message.payload, SpecOrder):
            envelopes.append(message)
        deliver(sender, message)

    cluster.network.set_handler("r1", keep)
    client = cluster.add_client("c0", "local", target_replica="r0")
    submit_puts(cluster, client, 1)
    envelope = envelopes[0]
    old_shape = {"type": SignedPayload.MSG_TYPE,
                 "payload": json.loads(envelope.body),
                 "signature": envelope.signature.to_wire()}
    with pytest.raises(SerializationError, match="'payload'"):
        SignedPayload.from_wire(old_shape)
    error = _recover_from(tmp_path, old_shape)
    assert "'payload'" in str(error)
    assert "wal-0.log" in str(error)
