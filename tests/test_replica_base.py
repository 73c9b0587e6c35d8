"""The one replica base (``repro.protocols.base.Replica``): every
protocol's replica is one, with the counters the report, ``/metrics``
and the bench ledger read, and one checkpoint path whose vote guard
holds for all four protocols."""

import pytest

from repro.messages.base import SignedPayload
from repro.messages.ezbft import EzCheckpoint
from repro.protocols import available_protocols, get_protocol
from repro.protocols.base import Replica

from helpers import lan_cluster

PROTOCOLS = ("ezbft", "pbft", "fab", "zyzzyva")

#: Each replica's counters, as the report, ``/metrics`` and the ledger
#: read them.
STAT_KEYS = {
    "ezbft": {"led", "batches_led", "spec_ordered", "committed_fast",
              "committed_slow", "executed", "owner_changes_started",
              "invalid_messages", "checkpoints", "checkpoints_stable",
              "log_entries_gcd", "state_transfers_served",
              "state_transfers_installed", "catch_ups_installed"},
    "pbft": {"executed", "committed_slow", "invalid_messages",
             "checkpoints", "checkpoints_stable", "view_changes",
             "pre_prepares", "batches_proposed"},
    "fab": {"executed", "committed_fast", "invalid_messages",
            "checkpoints", "checkpoints_stable", "view_changes",
            "proposals"},
    "zyzzyva": {"executed", "committed_fast", "invalid_messages",
                "checkpoints", "checkpoints_stable", "view_changes",
                "order_reqs", "fill_holes"},
}


@pytest.mark.parametrize("protocol", available_protocols())
def test_every_registered_replica_is_a_replica(protocol):
    assert issubclass(get_protocol(protocol).replica_cls, Replica)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_replica_stat_keys_are_pinned(protocol):
    stats = lan_cluster(protocol).replicas["r0"].stats
    assert set(stats) == STAT_KEYS[protocol]
    assert set(stats.values()) == {0}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_vote_below_the_stable_watermark_is_not_recorded(protocol):
    """An authentic EZCHECKPOINT at or below our stable watermark can
    make nothing stable: it is dropped uncounted, as a replayed vote of
    our own is, instead of holding one of its signer's live votes."""
    cluster = lan_cluster(protocol, checkpoint_interval=4)
    client = cluster.add_client("c0", "local")
    for i in range(9):
        client.submit(client.next_command("put", f"k{i % 3}", i))
    cluster.run_until_idle()
    r1, r3 = cluster.replicas["r1"], cluster.replicas["r3"]
    watermark = r3.checkpoints.stable.watermark
    assert watermark == 8
    invalid = r3.stats["invalid_messages"]
    stale = SignedPayload.create(EzCheckpoint(
        replica="r1", watermark=watermark - 4,
        state_digest="attested-by-no-one"), r1.keypair)
    r3.on_message("r1", stale)
    assert r3.checkpoints.vote_of("r1", watermark - 4) is None
    assert r3.stats["invalid_messages"] == invalid
