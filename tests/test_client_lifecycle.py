"""The one client lifecycle every protocol shares (``BaseClient``).

Every client sends the same signed REQUEST
(:class:`~repro.messages.ezbft.Request`), registers and delivers a
command the same way, and batches where its protocol takes a
:class:`~repro.messages.batching.BatchRequest` (ezBFT, PBFT); FaB and
Zyzzyva clients submit a batch one command at a time.
"""

import pytest

from repro.core.client import EzBFTClient
from repro.errors import ProtocolError
from repro.messages.base import SignedPayload
from repro.messages.batching import BatchRequest
from repro.messages.ezbft import Request
from repro.protocols.base import BaseClient
from repro.statemachine.base import Command

from helpers import DeliveryLog, lan_cluster

PROTOCOLS = ("ezbft", "pbft", "fab", "zyzzyva")
BATCHING = {"ezbft", "pbft"}

#: Each client's counters, as the report and the bench ledger read
#: them (the ledger reads ezBFT's).
STAT_KEYS = {
    "ezbft": {"batches_submitted", "delivered_fast", "delivered_slow",
              "poms_sent", "retries", "submitted"},
    "pbft": {"batches_submitted", "delivered", "retries", "submitted"},
    "fab": {"delivered", "retries", "submitted"},
    "zyzzyva": {"delivered", "delivered_fast", "delivered_slow",
                "retries", "submitted"},
}


def _client_with_sniffer(protocol, drop_first=False):
    """A LAN cluster, its client c0 (ezBFT's targets r0, the baselines'
    primary) and the list of client REQUESTs and BATCHREQUESTs the
    replicas receive.  ``drop_first``: r0 loses the first of them."""
    cluster = lan_cluster(protocol)
    seen = []
    for rid, replica in cluster.replicas.items():
        def sniff(sender, message, rid=rid, replica=replica):
            if sender == "c0" and isinstance(message, SignedPayload) and \
                    isinstance(message.payload, (Request, BatchRequest)):
                seen.append((rid, message))
                if drop_first and rid == "r0" and len(seen) == 1:
                    return
            replica.on_message(sender, message)
        cluster.set_handler(rid, sniff)
    log = DeliveryLog()
    client = cluster.add_client("c0", "local", target_replica="r0",
                                on_delivery=log.hook("c0"))
    return cluster, client, seen, log


def test_every_client_is_a_base_client():
    assert issubclass(EzBFTClient, BaseClient)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_submit_sends_one_signed_request(protocol):
    cluster, client, seen, log = _client_with_sniffer(protocol)
    command = client.next_command("put", "k", "v")
    client.submit(command)
    cluster.run_until_idle()
    [(rid, envelope)] = seen
    assert rid == "r0"
    assert envelope.signer == "c0" and envelope.authentic(client.registry)
    assert envelope.payload == Request(command=command)
    assert log.results == ["OK"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_submit_batch_sends_a_batch_where_the_protocol_takes_one(protocol):
    cluster, client, seen, log = _client_with_sniffer(protocol)
    commands = [client.next_command("put", f"k{i}", i) for i in range(3)]
    client.submit_batch(commands)
    cluster.run_until_idle()
    payloads = [envelope.payload for _, envelope in seen]
    if protocol in BATCHING:
        assert payloads == [BatchRequest(commands=tuple(commands))]
        assert client.stats["batches_submitted"] == 1
    else:
        assert payloads == [Request(command=c) for c in commands]
    assert all(envelope.signer == "c0" for _, envelope in seen)
    assert log.results == ["OK"] * 3


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_each_command_is_delivered_once(protocol):
    """r0 loses the first REQUEST: its retry reaches the replicas and
    the command is delivered once, as the three batched behind it."""
    cluster, client, seen, log = _client_with_sniffer(protocol,
                                                      drop_first=True)
    first = client.next_command("put", "a", 0)
    client.submit(first)
    client.submit_batch([client.next_command("put", f"k{i}", i)
                         for i in range(3)])
    cluster.run_until_idle()
    assert client.stats["retries"] >= 1
    assert client.stats["submitted"] == 4
    assert client.in_flight == 0
    assert client.accepted == ["OK"] * 4
    assert len(log.records) == 4
    stats = client.stats
    if "delivered" in stats:
        assert stats["delivered"] == 4
    if "delivered_fast" in stats:
        assert stats["delivered_fast"] + stats["delivered_slow"] == 4


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_client_stat_keys_are_pinned(protocol):
    _, client, _, _ = _client_with_sniffer(protocol)
    assert set(client.stats) == STAT_KEYS[protocol]
    assert set(client.stats.values()) == {0}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_command_of_another_client_is_refused(protocol):
    """Before any timer is armed: a batch with one foreign command
    registers none of them."""
    _, client, seen, _ = _client_with_sniffer(protocol)
    foreign = Command(client_id="c1", timestamp=1, op="put", key="k",
                      value="v")
    with pytest.raises(ProtocolError):
        client.submit(foreign)
    with pytest.raises(ProtocolError):
        client.submit_batch([client.next_command("put", "k", 1), foreign])
    assert client.in_flight == 0 and client.stats["submitted"] == 0
    assert seen == []
