"""Unit tests for the KV store, speculation, and checkpoints."""

from repro.statemachine.base import Command, StateSnapshot, leaf_index
from repro.statemachine.checkpoint import Checkpoint, CheckpointStore
from repro.statemachine.kvstore import KVStore


def put(key, value, ts=1, client="c"):
    return Command(client_id=client, timestamp=ts, op="put", key=key,
                   value=value)


def get(key, ts=1, client="c"):
    return Command(client_id=client, timestamp=ts, op="get", key=key)


def incr(key, delta=1, ts=1, client="c"):
    return Command(client_id=client, timestamp=ts, op="incr", key=key,
                   value=delta)


# ----------------------------------------------------------------------
# Final-state semantics
# ----------------------------------------------------------------------
def test_put_then_get():
    kv = KVStore()
    assert kv.apply(put("k", "v")) == "OK"
    assert kv.apply(get("k")) == "v"


def test_get_missing_returns_none():
    kv = KVStore()
    assert kv.apply(get("nope")) is None


def test_incr_from_zero():
    kv = KVStore()
    assert kv.apply(incr("n")) == "OK"
    assert kv.get_final("n") == 1


def test_incr_accumulates():
    kv = KVStore()
    kv.apply(incr("n", 5))
    kv.apply(incr("n", 7))
    assert kv.get_final("n") == 12


def test_incr_default_delta_is_one():
    kv = KVStore()
    kv.apply(Command(client_id="c", timestamp=1, op="incr", key="n"))
    assert kv.get_final("n") == 1


def test_incr_non_int_delta_rejected():
    kv = KVStore()
    kv.apply(incr("n", 2))
    assert kv.apply(incr("n", delta="five")) == \
        "ERROR: incr delta must be int, got 'five'"
    assert kv.final_items() == {"n": 2}


def test_incr_on_non_int_value_rejected():
    kv = KVStore()
    kv.apply(put("k", "string"))
    assert kv.apply(incr("k")) == \
        "ERROR: incr target 'k' holds non-int 'string'"
    assert kv.final_items() == {"k": "string"}


def test_non_string_key_rejected():
    """A key picks its leaf by the crc32 of its UTF-8 bytes, so only a
    string names one; any other key is a rejected command, not a crash
    on every replica that executes it."""
    kv = KVStore()
    for key in (5, None, ["k"]):
        assert kv.apply(put(key, "v")) == \
            f"ERROR: key must be a string, got {key!r}"
        assert kv.apply_speculative(get(key)).startswith("ERROR: ")
    assert kv.final_items() == {}
    assert not kv.has_speculative_state


def test_noop_does_nothing():
    kv = KVStore()
    assert kv.apply(Command.noop()) is None
    assert kv.final_items() == {}


def test_unknown_op_rejected():
    kv = KVStore()
    kv.apply(put("k", "v"))
    assert kv.apply(Command(client_id="c", timestamp=1,
                            op="frobnicate")) == \
        "ERROR: unknown op 'frobnicate'"
    assert kv.apply_speculative(Command(client_id="c", timestamp=2,
                                        op="frobnicate")) == \
        "ERROR: unknown op 'frobnicate'"
    assert kv.final_items() == {"k": "v"}
    assert not kv.has_speculative_state


# ----------------------------------------------------------------------
# Speculation
# ----------------------------------------------------------------------
def test_speculative_put_invisible_to_final():
    kv = KVStore()
    kv.apply_speculative(put("k", "spec"))
    assert kv.get_final("k") is None
    assert kv.get_speculative("k") == "spec"


def test_speculative_reads_through_to_final():
    kv = KVStore()
    kv.apply(put("k", "final"))
    assert kv.apply_speculative(get("k")) == "final"


def test_speculative_overlay_shadows_final():
    kv = KVStore()
    kv.apply(put("k", "final"))
    kv.apply_speculative(put("k", "spec"))
    assert kv.apply_speculative(get("k")) == "spec"
    assert kv.get_final("k") == "final"


def test_rollback_discards_overlay():
    kv = KVStore()
    kv.apply(put("k", "final"))
    kv.apply_speculative(put("k", "spec"))
    kv.rollback_speculative()
    assert kv.get_speculative("k") == "final"
    assert not kv.has_speculative_state
    assert kv.rollbacks == 1


def test_rollback_on_empty_overlay_not_counted():
    kv = KVStore()
    kv.rollback_speculative()
    assert kv.rollbacks == 0


def test_speculative_incr_reads_final_base():
    kv = KVStore()
    kv.apply(incr("n", 10))
    kv.apply_speculative(incr("n", 5))
    assert kv.get_speculative("n") == 15
    assert kv.get_final("n") == 10


def test_mutation_results_are_order_independent():
    """Commuting commands must produce identical replies regardless of
    speculative execution order (fast-path matching depends on it)."""
    a, b = incr("n", 2, ts=1), incr("n", 3, ts=2)
    kv1, kv2 = KVStore(), KVStore()
    r1 = [kv1.apply_speculative(a), kv1.apply_speculative(b)]
    r2 = [kv2.apply_speculative(b), kv2.apply_speculative(a)]
    assert r1 == ["OK", "OK"] and r2 == ["OK", "OK"]
    assert kv1.get_speculative("n") == kv2.get_speculative("n") == 5


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def test_snapshot_restore_roundtrip():
    kv = KVStore()
    kv.apply(put("a", 1))
    kv.apply(put("b", [1, 2]))
    snap = kv.snapshot()
    kv.apply(put("a", 999))
    kv.restore(snap)
    assert kv.get_final("a") == 1
    assert kv.get_final("b") == [1, 2]


def test_snapshot_is_immutable():
    """A captured snapshot shares its leaves with the machine, so it
    must never change afterwards: the machine copies a leaf before its
    first write, and ``restore`` adopts leaves the same way."""
    kv = KVStore()
    for i in range(40):
        kv.apply(put(f"k{i}", i))
    kv.apply(put("b", [1, 2]))
    snap = kv.snapshot()
    assert len(snap) > 1  # several leaves, so "same leaf" means something
    frozen = [dict(leaf) for leaf in snap]
    root = snap.root
    home = leaf_index("b", len(snap))
    neighbour = next(f"n{i}" for i in range(1000)
                     if leaf_index(f"n{i}", len(snap)) == home)

    def unchanged():
        assert [dict(leaf) for leaf in snap] == frozen
        assert snap.root == root
        assert StateSnapshot.checked(list(snap)).root == root

    kv.apply(put("b", "rewritten"))  # put on the same key
    unchanged()
    kv.apply(put(neighbour, "new"))  # a new key in the same leaf
    unchanged()
    kv.apply(incr("k3", 5))
    unchanged()
    kv.restore(KVStore().snapshot())  # restore another state ...
    unchanged()
    kv.restore(snap)  # ... and this one, then write over it
    kv.apply(put("b", "again"))
    kv.apply(incr("k3"))
    unchanged()
    assert kv.get_final("b") == "again"


def test_restore_clears_speculation():
    kv = KVStore()
    kv.apply_speculative(put("k", "spec"))
    kv.restore(KVStore().snapshot())
    assert not kv.has_speculative_state


def test_op_counters():
    kv = KVStore()
    kv.apply(put("a", 1))
    kv.apply_speculative(put("b", 2))
    assert kv.final_ops == 1
    assert kv.speculative_ops == 1


# ----------------------------------------------------------------------
# Command basics
# ----------------------------------------------------------------------
def test_command_wire_roundtrip():
    cmd = put("k", {"nested": True}, ts=9, client="cx")
    assert Command.from_wire(cmd.to_wire()) == cmd


def test_command_ident():
    cmd = put("k", "v", ts=4, client="cx")
    assert cmd.ident == ("cx", 4)


def test_command_mutation_flags():
    assert put("k", "v").is_mutation
    assert incr("k").is_mutation
    assert not get("k").is_mutation
    assert Command.noop().is_noop


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
def test_checkpoint_capture_digest_stable():
    a = Checkpoint.capture(10, {"k": "v"})
    b = Checkpoint.capture(10, {"k": "v"})
    assert a.state_digest == b.state_digest


def test_checkpoint_store_stabilizes_at_quorum():
    store = CheckpointStore(quorum=3, interval=10)
    cp = Checkpoint.capture(10, {"k": "v"})
    store.record_local(cp, "r0", "att-r0")  # our own attestation
    assert store.stable is None
    store.attest(10, cp.state_digest, "r1", "att-r1")
    assert store.stable is None
    store.attest(10, cp.state_digest, "r2", "att-r2")
    assert store.stable is cp
    # The votes that made it stable are its proof.
    assert store.stable_proof == ("att-r0", "att-r1", "att-r2")


def test_checkpoint_store_mismatched_digest_never_stabilizes():
    store = CheckpointStore(quorum=2, interval=10)
    cp = Checkpoint.capture(10, {"k": "v"})
    store.record_local(cp, "r0")
    store.attest(10, "different-digest", "r1")
    assert store.stable is None


def test_checkpoint_store_stabilizes_only_under_the_attested_digest():
    """Three other replicas attest a digest our local capture does not
    have: the quorum proves *their* checkpoint, so our capture is not
    declared stable, and no proof is made to vouch for it."""
    store = CheckpointStore(quorum=3, interval=10)
    cp = Checkpoint.capture(10, {"k": "diverged"})
    store.record_local(cp, "r0")
    other = Checkpoint.capture(10, {"k": "v"}).state_digest
    assert not any([store.attest(10, other, rid, f"att-{rid}")
                    for rid in ("r1", "r2", "r3")])
    assert store.has_quorum(10, other)
    assert store.stable is None
    assert store.stable_proof == ()


def test_checkpoint_due_respects_interval():
    store = CheckpointStore(quorum=2, interval=10)
    assert not store.due(0)
    assert not store.due(9)
    assert store.due(10)
    assert store.due(25)


def test_checkpoint_due_measured_from_last_stable():
    store = CheckpointStore(quorum=1, interval=10)
    cp = Checkpoint.capture(10, {})
    store.record_local(cp, "r0")
    assert store.stable is not None
    assert not store.due(15)
    assert store.due(20)


def test_checkpoint_gc_drops_older_state():
    store = CheckpointStore(quorum=1, interval=10)
    store.record_local(Checkpoint.capture(10, {"a": 1}), "r0")
    store.record_local(Checkpoint.capture(20, {"a": 2}), "r0")
    assert store.stable.watermark == 20
    assert 10 not in store._local


def test_checkpoint_due_measured_from_last_capture_not_stability():
    """Regression: ``due`` used to key off ``stable``, so until the
    first quorum formed every executed command past the first interval
    re-captured a full O(state) snapshot (the re-capture storm)."""
    store = CheckpointStore(quorum=3, interval=10)
    assert store.due(10)
    store.record_local(Checkpoint.capture(10, {"a": 1}), "r0")
    assert store.stable is None  # quorum has not formed yet
    # Not due again until a whole further interval has executed, even
    # though nothing is stable.
    for executed in range(10, 20):
        assert not store.due(executed)
    assert store.due(20)
    store.record_local(Checkpoint.capture(20, {"a": 2}), "r0")
    assert not store.due(29)


def test_checkpoint_attest_one_live_vote_per_replica_watermark():
    """A byzantine replica attesting many digests at one watermark gets
    exactly one live vote: the first digest it backed."""
    store = CheckpointStore(quorum=3, interval=10)
    cp = Checkpoint.capture(10, {"k": "v"})
    store.record_local(cp, "r0")
    store.attest(10, cp.state_digest, "r1")
    for i in range(50):
        store.attest(10, f"bogus-{i}", "byz")
    # The flood created no extra live votes and cannot stack toward a
    # quorum on any digest.
    assert store.vote_of("byz", 10) == "bogus-0"
    assert store.attestation_count(10, "bogus-0") == 1
    assert all(store.attestation_count(10, f"bogus-{i}") == 0
               for i in range(1, 50))
    # The honest digest still stabilizes with honest votes.
    assert store.attest(10, cp.state_digest, "r2")
    assert store.stable is cp


def test_checkpoint_attest_flip_flop_cannot_stabilize_two_digests():
    store = CheckpointStore(quorum=2, interval=10)
    cp = Checkpoint.capture(10, {"k": "v"})
    store.record_local(cp, "r0")
    # byz first votes for a bogus digest, then tries the real one: the
    # re-vote is ignored, so byz contributes nothing to the quorum.
    store.attest(10, "bogus", "byz")
    assert not store.attest(10, cp.state_digest, "byz")
    assert store.stable is None
    assert store.attest(10, cp.state_digest, "r1")


def test_checkpoint_install_stable_adopts_newer_only():
    store = CheckpointStore(quorum=1, interval=10)
    store.record_local(Checkpoint.capture(20, {"a": 2}), "r0")
    assert store.stable.watermark == 20
    store.install_stable(Checkpoint.capture(10, {"a": 1}))
    assert store.stable.watermark == 20  # older ignored
    store.install_stable(Checkpoint.capture(30, {"a": 3}), ("proof",))
    assert store.stable.watermark == 30
    assert store.stable_proof == ("proof",)
    assert not store.due(35)
    assert store.due(40)
