"""The names the bench ledger resolves in ``src/``, pinned in tier-1.

``benchmarks/ledger/`` is frozen (BENCHMARK.json lists it under
``paths``) and reaches into the program by name:
``benchmarks/ledger/spans.py::TARGETS`` wraps functions it finds with
``vars(cls)[name]`` -- so a method must be defined *in that class's
body*, not inherited or delegated away -- and
``benchmarks/ledger/workloads.py`` attaches the seams and reads the
counters below.  A refactor that moves one of them fails here, in
tier-1, instead of in the benchmark driver.  Nothing from
``benchmarks/`` is imported: this is the program's half of the
contract.
"""

import asyncio
import json

import pytest

from repro.core.client import EzBFTClient
from repro.core.executor import DependencyExecutor
from repro.core.replica import EzBFTReplica
from repro.crypto import signatures
from repro.crypto.digest import canonical_bytes
from repro.crypto.keys import KeyRegistry
from repro.messages import base
from repro.messages.base import SignedPayload
from repro.messages.ezbft import BatchCommitFast, Request
from repro.statemachine.base import Command
from repro.statemachine.kvstore import KVStore
from repro.storage.store import RecoverySummary, ReplicaStorage
from repro.transport import asyncio_tcp

from helpers import lan_cluster


@pytest.mark.parametrize("cls, names", [
    (EzBFTReplica, ["on_message"]),
    (EzBFTClient, ["submit", "submit_batch", "on_message"]),
    (DependencyExecutor, ["try_execute"]),
    (ReplicaStorage, ["append_entry", "append_attest", "save_snapshot",
                      "rotate", "prune", "replay_records"]),
    (KVStore, ["apply", "apply_speculative", "snapshot"]),
])
def test_span_targets_are_defined_in_the_class_body(cls, names):
    for name in names:
        assert callable(vars(cls).get(name)), f"{cls.__name__}.{name}"


def test_kvstore_entry_points_and_flat_final_state():
    """``spans.py`` times the state machine through the three names it
    finds in ``vars(KVStore)``, and the correctness gate digests every
    replica's ``final_items()``: that stays one flat ``dict`` of key to
    value, however many leaves hold the state."""
    for name in ("apply", "apply_speculative", "snapshot"):
        assert callable(vars(KVStore)[name]), name
    kv = KVStore()
    for i in range(40):
        kv.apply(Command(client_id="c", timestamp=i + 1, op="put",
                         key=f"k{i}", value=i))
    assert len(kv.snapshot()) > 1
    items = kv.final_items()
    assert type(items) is dict
    assert items == {f"k{i}": i for i in range(40)}


def test_crypto_targets_sign_and_check_bytes():
    """``repro.crypto.signatures.sign``/``verify``/``is_valid`` are
    wrapped by name and counted as the ledger's MACs and verifies.
    They take the signed *bytes*; ``canonical_bytes`` stays bound in
    the module too (the ledger's own tests check that ``install``
    rebinds that alias)."""
    registry = KeyRegistry()
    keypair = registry.create("n0", seed=b"contract")
    for name in ("sign", "verify", "is_valid"):
        assert callable(vars(signatures)[name]), name
    assert vars(signatures)["canonical_bytes"] is canonical_bytes
    data = canonical_bytes({"n": 1})
    signature = signatures.sign(data, keypair)
    signatures.verify(data, signature, registry)  # no raise
    assert signatures.is_valid(data, signature, registry)
    assert not signatures.is_valid(data + b" ", signature, registry)


def test_envelopes_reach_sign_is_valid_and_decode_by_name(monkeypatch):
    """The wrappers see an envelope's crypto and parsing only if
    ``SignedPayload`` calls ``sign``, ``is_valid`` and ``decode``
    through the module globals of ``repro.messages.base``.  ``decode``
    now recurses into a signed envelope's bytes, so one frame holding
    one envelope is two ``decode`` calls (the ledger's
    ``messages.decode_us_per_frame`` divides by frames, not calls)."""
    # The transport decodes frames through an alias of the same
    # function, which ``install`` rebinds with the original.
    assert asyncio_tcp.decode is base.decode
    calls = []
    for name in ("sign", "is_valid", "decode"):
        def wrapper(*args, _name=name, _original=vars(base)[name]):
            calls.append((_name, type(args[0])))
            return _original(*args)
        monkeypatch.setattr(base, name, wrapper)
    registry = KeyRegistry()
    keypair = registry.create("c", seed=b"contract")
    envelope = SignedPayload.create(
        Request(command=Command(client_id="c", timestamp=1, op="noop")),
        keypair)
    wire = json.loads(canonical_bytes(envelope))
    again = base.decode(wire)
    assert again.verify(registry)
    assert calls == [("sign", bytes), ("decode", dict), ("decode", dict),
                     ("is_valid", bytes)]


def test_replica_seams_and_counters_the_workloads_use(tmp_path):
    replica = lan_cluster().replicas["r0"]
    # Seams: attached by name on the replica object.
    for method in ("attach_storage", "recover_from_storage",
                   "attach_tracer"):
        assert callable(getattr(replica, method))
    assert "instruments" in vars(EzBFTReplica)  # plain assignment swaps it
    # Counters read after a run.
    assert replica.batcher.items_added == 0
    assert replica.batcher.batches_flushed == 0
    assert replica.stats["owner_changes_started"] == 0
    assert replica.executor.executed_count == 0
    assert replica.executor._deferred == {}
    # The timed restart: attach, recover, read ``records_replayed``.
    storage = ReplicaStorage(str(tmp_path), "r0")
    replica.attach_storage(storage)
    summary = replica.recover_from_storage()
    storage.close()
    assert isinstance(summary, RecoverySummary)
    assert summary.records_replayed == 0


def test_folded_commit_frame_enters_through_on_message(monkeypatch):
    """``core.replica.msgs_per_commit`` is calls of
    ``EzBFTReplica.on_message`` per commit, i.e. frames handled.  A
    :class:`BatchCommitFast` is one frame: it goes in through
    ``on_message`` once and its inner commits take no second trip
    through it; the client builds it inside its own ``on_message``."""
    handled = []
    replica_entry = EzBFTReplica.on_message
    client_entry = EzBFTClient.on_message

    def replica_on_message(self, sender, message):
        handled.append((self.node_id, type(message)))
        replica_entry(self, sender, message)

    depth = []
    sent_inside = []

    def client_on_message(self, sender, message):
        depth.append(1)
        try:
            client_entry(self, sender, message)
        finally:
            depth.pop()

    monkeypatch.setattr(EzBFTReplica, "on_message", replica_on_message)
    monkeypatch.setattr(EzBFTClient, "on_message", client_on_message)
    cluster = lan_cluster(batch_size=8, batch_timeout_ms=5.0)
    client = cluster.add_client("c0", "local", target_replica="r0")
    broadcast = client.ctx.broadcast

    def watching(dsts, message):
        if isinstance(message, BatchCommitFast):
            sent_inside.append(bool(depth))
        broadcast(dsts, message)

    client.ctx.broadcast = watching
    client.submit_batch([client.next_command("put", f"k{i}", i)
                         for i in range(8)])
    cluster.run_until_idle()
    assert sent_inside == [True]
    at_r1 = [kind for node, kind in handled if node == "r1"]
    assert at_r1.count(BatchCommitFast) == 1
    assert cluster.replicas["r1"].stats["committed_fast"] == 8
    # The proposal, then the folded commits: two frames for 8 commands.
    assert len(at_r1) == 2


def test_wan_crash_injector_is_built_from_the_cluster_alone():
    """``sim_wan_crash`` builds ``repro.scenario.faults.SimFaultInjector``
    with the cluster as its only argument and schedules its ``apply``
    for one ``CrashReplica`` and one ``RecoverReplica`` through
    ``cluster.sim.schedule_at``; the crash must cut the victim off and
    the recovery must restore every link."""
    from repro.scenario import faults

    cluster = lan_cluster()
    injector = faults.SimFaultInjector(cluster)
    for event in (faults.CrashReplica(at_ms=10.0, replica="r1"),
                  faults.RecoverReplica(at_ms=20.0, replica="r1")):
        cluster.sim.schedule_at(event.at_ms, injector.apply, event)
    partitions = cluster.network.conditions.partitions
    cluster.run(until=15.0)
    assert {("r1", "r0"), ("r0", "r1")} <= partitions
    cluster.run(until=25.0)
    assert partitions == set()
    assert [(e["event"], e["applied_ms"]) for e in injector.log] == [
        ("CrashReplica", 10.0), ("RecoverReplica", 20.0)]


def test_send_encodes_its_frame_before_it_returns(monkeypatch):
    """The ledger's ``transport.asyncio_tcp`` span is ``AsyncioNode.send``
    and its ``transport.codec`` span a wrapper bound over the
    ``encode_frame`` global of the transport module; the second nests
    under the first only if ``send`` encodes before it returns -- which
    is also why nothing done to a message after ``send`` can change
    its frame."""
    encoded = []
    encode_frame = asyncio_tcp.encode_frame

    def wrapper(*args, **kwargs):
        encoded.append(args[2])
        return encode_frame(*args, **kwargs)

    monkeypatch.setattr(asyncio_tcp, "encode_frame", wrapper)
    request = Request(command=Command(
        client_id="c", timestamp=1, op="noop"))

    async def scenario():
        addresses = {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 1)}
        node = asyncio_tcp.AsyncioNode("a", addresses["a"], addresses)
        node.send("b", request)
        seen = list(encoded)
        await node.stop()
        return seen

    assert asyncio.run(scenario()) == [request]
