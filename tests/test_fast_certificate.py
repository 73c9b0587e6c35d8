"""The fast certificate as one statement and 3f+1 tags.

A COMMITFAST holds what it ships: the first SPECREPLY header's signed
envelope (the statement) and the 3f+1 ``(R_j, sigma_Rj)`` signatures.
These tests pin what that buys and what it must still refuse:

- the cost of decoding and validating one frame, in exact counts;
- every forged certificate the validator refuses, counted in
  ``invalid_messages`` in the simulator and over TCP, and costing only
  its own commit inside a :class:`BatchCommitFast`;
- frames and WAL records written before this representation (the
  data files in ``tests/data``) decode, validate and re-encode to the
  same bytes;
- one changed byte of the statement or of a tag never validates.
"""

import asyncio
import base64
import dataclasses
import importlib
import json
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.builder import build_cluster
from repro.crypto.digest import canonical_bytes, respell_replica
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import sign
from repro.errors import SerializationError
from repro.messages import base
from repro.messages import ezbft
from repro.messages.base import SignedPayload, decode
from repro.messages.ezbft import (
    BatchCommitFast,
    CommitFast,
    EzCheckpoint,
    SpecReply,
)
from repro.sim.latency import LOCAL
from repro.sim.network import CpuModel
from repro.transport.asyncio_tcp import AsyncioCluster
from repro.transport.codec import decode_frame, encode_frame
from repro.types import InstanceID

from helpers import DeliveryLog, lan_cluster

#: The module (the package's ``digest`` attribute is the function).
digest_mod = importlib.import_module("repro.crypto.digest")
DATA = os.path.join(os.path.dirname(__file__), "data",
                    "commit_fast_pins.json")
#: What a frame body that is no message raises on its way through
#: ``decode`` (the transport drops such a frame).
UNDECODABLE = (SerializationError, KeyError, IndexError, TypeError,
               ValueError)


def _cluster(n):
    return build_cluster("ezbft", ["local"] * n, LOCAL, cpu=CpuModel.free(),
                         slow_path_timeout=50.0, retry_timeout=200.0)


def _honest_commit(cluster):
    """The COMMITFAST the client of ``cluster`` sends for one put."""
    commits = []
    deliver = cluster.network.handler_of("r1")

    def keep(sender, message):
        if isinstance(message, CommitFast):
            commits.append(message)
        deliver(sender, message)

    cluster.network.set_handler("r1", keep)
    client = cluster.add_client("c0", "local", target_replica="r0")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    (commit,) = commits
    return commit


# ----------------------------------------------------------------------
# What one COMMITFAST costs a replica, in counts
# ----------------------------------------------------------------------
class _Counts:
    """Counts calls to the functions a fast certificate's decode and
    validation could reach, each where its callers look it up."""

    def __init__(self, monkeypatch):
        self.calls = Counter()
        self._patch(monkeypatch, base, "_scan_json", "parse")
        self._patch(monkeypatch, KeyRegistry, "mac_for", "mac")
        self._patch(monkeypatch, digest_mod, "_respell_replica", "respell")
        self._patch(monkeypatch, ezbft, "statement_of", "statement_of")
        for module in (ezbft, digest_mod):
            self._patch(monkeypatch, module, "replace", "replace")

    def _patch(self, monkeypatch, owner, name, label):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            self.calls[label] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("n", [4, 7])
def test_one_frame_costs_one_parse_and_3f_plus_1_macs(monkeypatch, n):
    """Decoding one COMMITFAST frame and validating it at one replica
    parses one signed body, MACs 3f+1 times and respells 3f times; no
    header is rebuilt (``replace``) or matched (``statement_of``).
    The client encodes its COMMITFAST without respelling."""
    cluster = _cluster(n)
    commit = _honest_commit(cluster)
    replica = cluster.replicas[f"r{n - 1}"]
    quorum = cluster.config.fast_quorum_size
    assert len(commit.signatures) == quorum == n
    # A parse cache of its own, so the client's live parse is no hit.
    monkeypatch.setattr(base, "_PARSED", {})
    counts = _Counts(monkeypatch)
    frame = encode_frame("c0", ("127.0.0.1", 7000), commit)
    assert counts.calls == {}
    _, _, wire = decode_frame(frame)
    decoded = decode(wire)
    assert replica._validate_fast_certificate(decoded)
    assert counts.calls == {"parse": 1, "mac": quorum,
                            "respell": quorum - 1}
    # A second replica sharing the decoded object checks it again for
    # free: the statement's and the tags' verdicts are memoized.
    counts.calls.clear()
    assert cluster.replicas["r0"]._validate_fast_certificate(decoded)
    assert counts.calls == {}


def test_sim_replicas_sharing_one_certificate_mac_it_once(monkeypatch):
    """The simulator hands every replica the client's one COMMITFAST
    object: across the four replicas its 3f other tags are MAC-checked
    once, not once per replica."""
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local", target_replica="r0")
    client.submit(client.next_command("put", "k", 0))
    cluster.run_until_idle()
    cosigned = []
    original = CommitFast.cosigned

    def counting(self, registry):
        before = getattr(self, base._VERIFY_MEMO, None)
        verdict = original(self, registry)
        cosigned.append(before is None)
        return verdict
    monkeypatch.setattr(CommitFast, "cosigned", counting)
    client.submit(client.next_command("put", "k", 1))
    cluster.run_until_idle()
    assert cosigned == [True, False, False, False]
    assert all(r.stats["committed_fast"] == 2
               for r in cluster.replicas.values())


# ----------------------------------------------------------------------
# Forged certificates: each refused, counted, and costing only itself
# ----------------------------------------------------------------------
REPLICAS = ("r0", "r1", "r2", "r3")


def forgeries(honest, keys):
    """Six certificates built from ``honest`` (r0's statement, tags of
    r0..r3) that must not validate, each for one reason.  ``keys``
    maps node id -> key pair (the replicas' and the client ``c0``'s)."""
    statement = honest.statement
    header = statement.payload
    s0, s1, s2, s3 = honest.signatures
    lie = canonical_bytes(dataclasses.replace(header, replica="r3",
                                              seq=header.seq + 1))
    attested = [SignedPayload.create(EzCheckpoint(
        replica=rid, watermark=1, state_digest="d"), keys[rid])
        for rid in REPLICAS]

    def fast(statement, signatures):
        return dataclasses.replace(honest, statement=statement,
                                   signatures=signatures)

    return {
        "a repeated signer": fast(statement, (s0, s1, s2, s2)),
        "a client as signer": fast(statement, (s0, s1, s2, sign(
            respell_replica(statement.body, header, "c0"), keys["c0"]))),
        "fewer than 3f+1 signatures": fast(statement, (s0, s1, s2)),
        "a tag over a statement one field apart": fast(
            statement, (s0, s1, s2, sign(lie, keys["r3"]))),
        "signatures[0] not the statement's replica": fast(
            SignedPayload(body=statement.body, signature=s1),
            (s1, s0, s2, s3)),
        # Every replica signed it: only its type refuses it.
        "a statement that is no SPECREPLY": fast(
            attested[0], tuple(a.signature for a in attested)),
    }


def _keys(cluster, client):
    keys = {rid: replica.keypair
            for rid, replica in cluster.replicas.items()}
    keys["c0"] = client.keypair
    return keys


def test_each_forgery_is_refused_for_its_own_reason():
    """Each forgery differs from a certificate the replica accepts in
    the one respect it is named for."""
    cluster = lan_cluster()
    honest = _honest_commit(cluster)
    replica = cluster.replicas["r2"]
    keys = _keys(cluster, cluster.clients["c0"])
    assert replica._validate_fast_certificate(honest)
    for reason, forged in forgeries(honest, keys).items():
        assert not replica._validate_fast_certificate(forged), reason
        again = decode(json.loads(canonical_bytes(forged)))
        assert again == forged, reason
        assert not replica._validate_fast_certificate(again), reason
    # The client's and the lying replica's tags are good MACs: it is
    # membership and matching that refuse them.
    forged = forgeries(honest, keys)
    assert forged["a client as signer"].cosigned(cluster.registry)
    assert not forged["a tag over a statement one field apart"] \
        .cosigned(cluster.registry)
    assert forged["a statement that is no SPECREPLY"].cosigned(
        cluster.registry)
    # Every tag good, but the statement is for another instance.
    elsewhere = dataclasses.replace(honest, instance=InstanceID("r0", 9))
    assert elsewhere.cosigned(cluster.registry)
    assert not replica._validate_fast_certificate(elsewhere)


def test_a_memoized_verdict_does_not_outlive_the_keys():
    """The tags' verdict is memoized per registry epoch: once r2's key
    is replaced, the same certificate object no longer validates."""
    cluster = lan_cluster()
    honest = _honest_commit(cluster)
    replica = cluster.replicas["r1"]
    assert replica._validate_fast_certificate(honest)
    cluster.registry.create("r2", seed=b"another key")
    assert not honest.cosigned(cluster.registry)
    assert not replica._validate_fast_certificate(honest)


def test_forgeries_are_counted_invalid_in_the_simulator():
    """Each replica receives the six forgeries ahead of the client's
    honest COMMITFAST: it counts six invalid messages, then commits
    on the honest one."""
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local", target_replica="r0")
    keys = _keys(cluster, client)
    for rid in cluster.replicas:
        deliver = cluster.network.handler_of(rid)

        def forge_first(sender, message, deliver=deliver):
            if isinstance(message, CommitFast):
                for forged in forgeries(message, keys).values():
                    deliver(sender, forged)
            deliver(sender, message)
        cluster.network.set_handler(rid, forge_first)
    log = DeliveryLog()
    client.on_delivery = log.hook("c0")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    assert log.paths == ["fast"]
    for rid, replica in cluster.replicas.items():
        assert replica.stats["invalid_messages"] == 6, rid
        assert replica.stats["committed_fast"] == 1, rid


def test_a_forgery_in_a_folded_frame_costs_only_its_commit():
    """r1 receives the client's BatchCommitFast of 8 with six of its
    commits forged, one way each, across a real encode and decode:
    it commits the other two and counts six invalid messages.  The
    honest frame then commits the six."""
    cluster = lan_cluster(batch_size=8, batch_timeout_ms=5.0)
    client = cluster.add_client("c0", "local", target_replica="r0")
    keys = _keys(cluster, client)
    deliver = cluster.network.handler_of("r1")
    held = []

    def forge(sender, message):
        if isinstance(message, BatchCommitFast):
            commits = list(message.commits)
            for slot, reason in enumerate(forgeries(commits[0], keys)):
                commits[slot] = forgeries(commits[slot], keys)[reason]
            wire = json.loads(canonical_bytes(
                BatchCommitFast(commits=tuple(commits))))
            deliver(sender, decode(wire))
            held.append((sender, message))
            return
        deliver(sender, message)

    cluster.network.set_handler("r1", forge)
    client.submit_batch([client.next_command("put", f"k{i}", i)
                         for i in range(8)])
    cluster.run_until_idle()
    r1 = cluster.replicas["r1"]
    assert r1.stats["invalid_messages"] == 6
    assert r1.stats["committed_fast"] == 2
    assert all(cluster.replicas[rid].stats["committed_fast"] == 8
               for rid in ("r0", "r2", "r3"))
    (sender, honest), = held
    deliver(sender, honest)
    cluster.run_until_idle()
    assert r1.stats["committed_fast"] == 8
    assert r1.stats["invalid_messages"] == 6


def test_forgeries_are_counted_invalid_over_tcp():
    """The same six forgeries in real frames over loopback sockets,
    sent by the client ahead of its honest COMMITFAST."""
    async def scenario():
        cluster = AsyncioCluster(num_replicas=4)
        await cluster.start()
        try:
            client = await cluster.add_client("c0")
            keys = {rid: r.keypair for rid, r in cluster.replicas.items()}
            keys["c0"] = client.keypair
            broadcast = client.ctx.broadcast

            def forge_first(dsts, message):
                dsts = list(dsts)
                if isinstance(message, CommitFast):
                    for forged in forgeries(message, keys).values():
                        broadcast(dsts, forged)
                broadcast(dsts, message)
            client.ctx.broadcast = forge_first
            _, _, path = await cluster.request(client, "put", "k", "v")
            replicas = cluster.replicas.values()
            for _ in range(200):
                if all(r.stats["committed_fast"] == 1 for r in replicas):
                    break
                await asyncio.sleep(0.01)
            return path, [(r.stats["invalid_messages"],
                           r.stats["committed_fast"]) for r in replicas]
        finally:
            await cluster.stop()

    path, stats = asyncio.run(scenario())
    assert path == "fast"
    assert stats == [(6, 1)] * 4


# ----------------------------------------------------------------------
# Bytes written before this representation
# ----------------------------------------------------------------------
def _pins():
    with open(DATA) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["commit_fast_frame",
                                  "batch_commit_fast_frame"])
def test_recorded_frames_decode_validate_and_reencode(name):
    """A COMMITFAST frame and a BatchCommitFast of 8, as the client of
    ``lan_cluster()`` sent them before certificates were held as one
    statement: each decodes, every certificate validates, and the
    frame re-encodes to the same bytes."""
    frame = base64.b64decode(_pins()[name])
    sender, addr, wire = decode_frame(frame)
    message = decode(wire)
    commits = message.commits if isinstance(message, BatchCommitFast) \
        else (message,)
    assert len(commits) == (8 if name.startswith("batch") else 1)
    replica = lan_cluster().replicas["r1"]
    assert all(replica._validate_fast_certificate(c) for c in commits)
    assert encode_frame(sender, addr, message) == frame


def test_recorded_wal_records_decode_validate_and_reencode():
    """The nine COMMITFAST ``entry`` records r1 wrote for those
    frames: each decodes, validates and re-encodes to the same
    bytes."""
    records = _pins()["wal_entry_records"]
    assert len(records) == 9
    replica = lan_cluster().replicas["r1"]
    for text in records:
        record = json.loads(text)
        assert record["kind"] == "entry"
        commit = decode(record["wire"])
        assert isinstance(commit, CommitFast)
        assert replica._validate_fast_certificate(commit)
        again = dict(record, wire=commit.to_wire())
        assert canonical_bytes(again).decode("ascii") == text


def test_the_commit_fast_wire_golden_is_unchanged():
    """The wire schema golden's COMMITFAST entry (every sample's
    bytes hashed) is the one recorded before this representation."""
    with open(os.path.join(os.path.dirname(DATA),
                           "wire_schema.json")) as fh:
        golden = {entry["type"]: entry["sha256"]
                  for entry in json.load(fh)}
    assert golden[CommitFast.MSG_TYPE].startswith("a9a41a47")


# ----------------------------------------------------------------------
# One changed byte never validates
# ----------------------------------------------------------------------
_CLUSTERS = {}


def _replica_of(n):
    """A replica of an n-replica cluster, built once per n."""
    if n not in _CLUSTERS:
        _CLUSTERS[n] = _cluster(n)
    return _CLUSTERS[n].replicas["r0"]


def _certificate(n, header):
    replica = _replica_of(n)
    keys = {rid: r.keypair for rid, r in _CLUSTERS[n].replicas.items()}
    return replica, CommitFast.from_headers(
        header.client_id, header.instance,
        tuple(SignedPayload.create(dataclasses.replace(
            header, replica=f"r{j}"), keys[f"r{j}"]) for j in range(n)))


_text = st.text(alphabet=st.characters(min_codepoint=32,
                                       max_codepoint=0x2FF), max_size=6)
_headers = st.builds(
    SpecReply, replica=st.just("r0"), owner_number=st.integers(0, 9),
    instance=st.builds(InstanceID, st.sampled_from(["r0", "r1"]),
                       st.integers(0, 10**6)),
    deps=st.lists(st.builds(InstanceID, st.sampled_from(["r0", "r2"]),
                            st.integers(0, 99)),
                  max_size=3, unique=True).map(
                      lambda deps: tuple(sorted(deps))),
    seq=st.integers(0, 10**6), request_digest=_text, client_id=_text,
    timestamp=st.integers(0, 10**6),
    result=st.one_of(st.none(), st.integers(), _text))


def _refused(replica, wire):
    """Whether the frame ``wire`` would be dropped undecoded or the
    certificate it decodes to fails validation."""
    try:
        commit = decode(wire)
    except UNDECODABLE:
        return True
    return not replica._validate_fast_certificate(commit)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([4, 7]), header=_headers, data=st.data())
def test_one_changed_byte_never_validates(n, header, data):
    """An honest certificate for n = 4 or 7 round-trips and validates;
    the same frame with one byte of the statement, or one character of
    one tag, changed is refused."""
    replica, commit = _certificate(n, header)
    wire = json.loads(canonical_bytes(commit))
    again = decode(wire)
    assert again == commit
    assert replica._validate_fast_certificate(again)

    statement = wire["statement"]
    at = data.draw(st.integers(0, len(statement) - 1), label="at")
    byte = data.draw(st.integers(32, 126).filter(
        lambda b: b != ord(statement[at])), label="byte")
    changed = dict(wire, statement=statement[:at] + chr(byte)
                   + statement[at + 1:])
    assert _refused(replica, changed)

    j = data.draw(st.integers(0, n - 1), label="signer")
    tag = wire["signatures"][j][1]
    at = data.draw(st.integers(0, len(tag) - 1), label="tag_at")
    char = data.draw(st.sampled_from("0123456789abcdef").filter(
        lambda c: c != tag[at]), label="char")
    signatures = [list(s) for s in wire["signatures"]]
    signatures[j][1] = tag[:at] + char + tag[at + 1:]
    assert _refused(replica, dict(wire, signatures=signatures))
