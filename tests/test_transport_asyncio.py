"""Asyncio TCP transport tests (real sockets on localhost)."""

import asyncio

import pytest

from repro.errors import TransportError
from repro.transport.asyncio_tcp import AsyncioCluster, AsyncioNode


def run(coro):
    return asyncio.run(coro)


def test_frame_roundtrip_between_two_nodes():
    async def scenario():
        from repro.statemachine.base import Command
        from repro.messages.ezbft import Request

        addresses = {"a": ("127.0.0.1", 0),
                     "b": ("127.0.0.1", 0)}
        received = []
        node_a = AsyncioNode("a", addresses["a"], addresses)
        node_b = AsyncioNode("b", addresses["b"], addresses)
        node_b.handler = lambda sender, msg: received.append(
            (sender, msg))
        await node_a.start()
        await node_b.start()
        request = Request(command=Command(
            client_id="c", timestamp=1, op="put", key="k", value="v"))
        node_a.send("b", request)
        await asyncio.sleep(0.1)
        await node_a.stop()
        await node_b.stop()
        return received

    received = run(scenario())
    assert len(received) == 1
    sender, message = received[0]
    assert sender == "a"
    assert message.command.key == "k"


def test_send_to_unknown_destination_raises():
    async def scenario():
        addresses = {"a": ("127.0.0.1", 0)}
        node = AsyncioNode("a", addresses["a"], addresses)
        await node.start()
        try:
            with pytest.raises(TransportError):
                node.send("ghost", object())
        finally:
            await node.stop()

    run(scenario())


def test_send_to_dead_peer_is_lossy_not_fatal():
    async def scenario():
        from repro.statemachine.base import Command
        from repro.messages.ezbft import Request

        addresses = {"a": ("127.0.0.1", 0),
                     "dead": ("127.0.0.1", 0)}
        node = AsyncioNode("a", addresses["a"], addresses)
        await node.start()
        request = Request(command=Command(
            client_id="c", timestamp=1, op="noop"))
        node.send("dead", request)  # nothing listening there
        await asyncio.sleep(0.1)
        await node.stop()
        return node.frames_sent

    assert run(scenario()) == 0  # dropped, no exception


def test_timer_fires_and_cancels():
    async def scenario():
        addresses = {"a": ("127.0.0.1", 0)}
        node = AsyncioNode("a", addresses["a"], addresses)
        ctx = node.context()
        fired = []
        timer1 = ctx.set_timer(20.0, fired.append, "yes")
        timer2 = ctx.set_timer(20.0, fired.append, "no")
        timer2.cancel()
        assert timer1.pending
        assert not timer2.pending
        await asyncio.sleep(0.08)
        assert fired == ["yes"]
        assert not timer1.pending

    run(scenario())


def test_full_ezbft_consensus_over_tcp():
    async def scenario():
        cluster = AsyncioCluster(num_replicas=4)
        await cluster.start()
        client = await cluster.add_client("c0")
        results = []
        for i in range(3):
            result, latency, path = await cluster.request(
                client, "put", f"k{i}", i)
            results.append((result, path))
        # COMMITFAST is off the latency-critical path (asynchronous);
        # give the in-flight commits a moment to land before comparing
        # final state.
        await asyncio.sleep(0.2)
        states = [replica.statemachine.final_items()
                  for replica in cluster.replicas.values()]
        await cluster.stop()
        return results, states

    results, states = run(scenario())
    assert results == [("OK", "fast")] * 3
    assert all(state == states[0] for state in states)
    assert states[0] == {"k0": 0, "k1": 1, "k2": 2}


def test_tcp_reads_after_writes():
    async def scenario():
        cluster = AsyncioCluster(num_replicas=4)
        await cluster.start()
        client = await cluster.add_client("c0")
        await cluster.request(client, "incr", "n", 5)
        result, _, _ = await cluster.request(client, "get", "n")
        await cluster.stop()
        return result

    assert run(scenario()) == 5


@pytest.mark.parametrize("protocol", ["ezbft", "pbft", "zyzzyva", "fab"])
def test_every_registered_protocol_runs_over_tcp(protocol):
    """The cluster wrapper is registry-driven: every builtin protocol
    deploys on real sockets with no transport-side branching."""
    async def scenario():
        cluster = AsyncioCluster(protocol=protocol, num_replicas=4)
        await cluster.start()
        client = await cluster.add_client("c0")
        put_result, _, _ = await cluster.request(client, "put", "k", "v")
        get_result, _, _ = await cluster.request(client, "get", "k")
        await cluster.stop()
        return put_result, get_result

    assert run(scenario()) == ("OK", "v")


def test_concurrent_sends_share_one_connection():
    """Regression: two concurrent sends to an uncached destination used
    to dial duplicate connections and leak one writer."""
    async def scenario():
        from repro.statemachine.base import Command
        from repro.messages.ezbft import Request

        addresses = {"a": ("127.0.0.1", 0),
                     "b": ("127.0.0.1", 0)}
        received = []
        node_a = AsyncioNode("a", addresses["a"], addresses)
        node_b = AsyncioNode("b", addresses["b"], addresses)
        node_b.handler = lambda sender, msg: received.append(msg)
        await node_a.start()
        await node_b.start()
        connections_before = len(node_b._server.sockets)
        for i in range(8):
            request = Request(command=Command(
                client_id="c", timestamp=i + 1, op="put", key="k",
                value=i))
            node_a.send("b", request)  # all queued before any dial wins
        await asyncio.sleep(0.2)
        writers = len(node_a._writers)
        frames = node_a.frames_sent
        await node_a.stop()
        await node_b.stop()
        return writers, frames, len(received)

    writers, frames, delivered = run(scenario())
    assert writers == 1  # a single cached connection, no leaked dials
    assert frames == 8
    assert delivered == 8


def test_send_tasks_are_strongly_referenced():
    """Fire-and-forget sends must survive garbage collection: the node
    keeps strong references until each task completes."""
    async def scenario():
        import gc
        from repro.statemachine.base import Command
        from repro.messages.ezbft import Request

        addresses = {"a": ("127.0.0.1", 0),
                     "b": ("127.0.0.1", 0)}
        received = []
        node_a = AsyncioNode("a", addresses["a"], addresses)
        node_b = AsyncioNode("b", addresses["b"], addresses)
        node_b.handler = lambda sender, msg: received.append(msg)
        await node_a.start()
        await node_b.start()
        node_a.send("b", Request(command=Command(
            client_id="c", timestamp=1, op="noop")))
        assert len(node_a._send_tasks) == 1  # held while in flight
        gc.collect()  # must not reap the pending task
        await asyncio.sleep(0.2)
        assert not node_a._send_tasks  # released on completion
        await node_a.stop()
        await node_b.stop()
        return len(received)

    assert run(scenario()) == 1


@pytest.mark.parametrize("bad_body", [
    {"type": "ez-checkpoint"},                          # KeyError
    {"type": "martian"},                                # unknown type
    {"type": "ez-request", "command": 5},               # TypeError
    {"type": "ez-commit-reply", "replica": "r1", "instance": [],
     "client_id": "c", "timestamp": 1, "result": None},  # IndexError
    {"type": "ez-spec-reply", "replica": "r1",
     "owner_number": "x"},                              # ValueError
    {"type": "ez-spec-reply-bundle", "replies": []},    # __post_init__
    b"\x00not a frame",                                 # TransportError
], ids=lambda b: b["type"] if isinstance(b, dict) else "garbage")
def test_undecodable_frame_is_dropped_and_the_reader_lives(bad_body):
    """Regression: anything ``_dispatch`` raised ended the connection's
    reader task, silently -- the node closed the connection and the
    valid frames queued behind the bad one were lost.  The 4-byte
    length prefix keeps the stream in sync, so the frame is dropped
    and counted, and reading goes on."""
    async def scenario():
        import struct

        from repro.messages.ezbft import Request
        from repro.statemachine.base import Command
        from repro.transport.codec import encode_frame

        loop_errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context))
        addresses = {"b": ("127.0.0.1", 0)}
        received = []
        node = AsyncioNode("b", addresses["b"], addresses)
        node.handler = lambda sender, msg: received.append(msg)
        await node.start()
        peer = ("127.0.0.1", 1)
        good = encode_frame("a", peer, Request(command=Command(
            client_id="c", timestamp=1, op="noop")))
        bad = bad_body if isinstance(bad_body, bytes) \
            else encode_frame("a", peer, bad_body)
        reader, writer = await asyncio.open_connection(*node.address)
        for body in (good, bad, good):
            writer.write(struct.pack(">I", len(body)) + body)
        await writer.drain()
        await asyncio.sleep(0.1)
        still_open = not reader.at_eof()
        writer.close()
        await node.stop()
        return (len(received), node.frames_dropped, still_open,
                loop_errors)

    delivered, dropped, still_open, loop_errors = run(scenario())
    assert delivered == 2
    assert dropped == 1
    assert still_open
    assert loop_errors == []
