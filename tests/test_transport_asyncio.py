"""Asyncio TCP transport tests (real sockets on localhost)."""

import asyncio
import gc
import struct
import tracemalloc
from collections import Counter

import pytest

from repro.errors import TransportError
from repro.messages import base
from repro.messages.ezbft import Request
from repro.statemachine.base import Command
from repro.transport.asyncio_tcp import (
    MAX_FRAME_BYTES,
    AsyncioCluster,
    AsyncioNode,
)
from repro.transport.codec import decode_frame, encode_frame


def run(coro):
    return asyncio.run(coro)


def put(value):
    """A request whose ``value`` tells it apart on arrival."""
    return Request(command=Command(
        client_id="c", timestamp=1, op="put", key="k", value=value))


def framed(message):
    """``message`` as node "a" puts it on a connection."""
    body = encode_frame("a", ("127.0.0.1", 1), message)
    return struct.pack(">I", len(body)) + body


async def settle(seconds=0.1):
    await asyncio.sleep(seconds)


def catch_loop_errors():
    """Route what would reach the loop's exception handler to a list."""
    errors = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: errors.append(context))
    return errors


async def start_pair(**kwargs_a):
    """Nodes "a" and "b" on loopback; returns them and what "b" is
    delivered (command values, in arrival order)."""
    addresses = {"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 0)}
    node_a = AsyncioNode("a", addresses["a"], addresses, **kwargs_a)
    node_b = AsyncioNode("b", addresses["b"], addresses)
    delivered = []
    node_b.handler = lambda sender, msg: delivered.append(
        msg.command.value)
    await node_a.start()
    await node_b.start()
    return node_a, node_b, delivered


class BarePeer:
    """A listener that is not an :class:`AsyncioNode`, so a test sees a
    node's connections from the far end: how many were accepted, which
    frames arrived.  With ``reads=False`` it accepts and does not read
    -- a stalled peer -- until ``reading`` is set."""

    def __init__(self, reads=True):
        self.reading = asyncio.Event()
        if reads:
            self.reading.set()
        self.accepted = []
        self.handlers = []
        self.values = []

    async def start(self):
        self.server = await asyncio.start_server(
            self._on_connection, "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()[:2]

    async def _on_connection(self, reader, writer):
        self.accepted.append(writer)
        self.handlers.append(asyncio.current_task())
        await self.reading.wait()
        try:
            while True:
                (length,) = struct.unpack(
                    ">I", await reader.readexactly(4))
                wire = decode_frame(await reader.readexactly(length))[2]
                self.values.append(wire["command"]["value"])
        except (asyncio.IncompleteReadError, ConnectionError):
            pass

    async def stop(self):
        for writer in self.accepted:
            writer.transport.abort()  # whatever is still unread
        self.reading.set()
        if self.handlers:
            await asyncio.wait(self.handlers, timeout=5.0)
        self.server.close()
        await self.server.wait_closed()


class ScriptedShaper:
    """Stands in for :class:`repro.netem.LinkShaper` with the plans
    written out, one per send (the real one draws them from an RNG)."""

    def __init__(self, *plans):
        self.plans = list(plans)

    def plan(self, src, dst, size_bytes, now_ms):
        return self.plans.pop(0)


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


def test_co_located_nodes_parse_each_signed_body_once(monkeypatch):
    """Every node of an ``AsyncioCluster`` runs in one process, so a
    signed body several of them receive is parsed once while its
    payload lives: per fast-path command, the REQUEST, the SPECORDER
    (three followers and four reply bundles carry it) and the four
    SPECREPLY headers the client parses, plus the COMMITFAST's
    statement once more at the replicas.  A COMMITFAST (the first
    header's bytes and four signatures) decodes to that one parse and
    nothing else; it is parsed again because the client drops its
    parse when it delivers, before the COMMITFAST arrives.  Without
    the cache this run scans 16 bodies per command."""
    scanned = Counter()
    scan = base._scan_json

    def counting(text, index):
        wire, end = scan(text, index)
        scanned[wire["type"]] += 1
        return wire, end
    monkeypatch.setattr(base, "_scan_json", counting)
    puts = 12

    async def scenario():
        cluster = AsyncioCluster(num_replicas=4)
        await cluster.start()
        client = await cluster.add_client("c0")
        paths = [(await cluster.request(client, "put", f"k{i}", i))[2]
                 for i in range(puts)]
        await asyncio.sleep(0.2)  # the last COMMITFAST lands
        await cluster.stop()
        return paths

    assert run(scenario()) == ["fast"] * puts
    # At most: a body an earlier cluster of this process signed alike
    # (same keys, same commands) may still be alive and be served.
    assert scanned["ez-request"] <= puts
    assert scanned["ez-spec-order"] <= puts
    assert scanned["ez-spec-reply"] <= 5 * puts
    assert sum(scanned.values()) <= 7 * puts


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
    to dial duplicate connections and leak one writer.  Seen from the
    listener: one connection, every frame, in send order."""
    async def scenario():
        peer = BarePeer()
        addresses = {"a": ("127.0.0.1", 0), "b": await peer.start()}
        node_a = AsyncioNode("a", addresses["a"], addresses)
        await node_a.start()
        for i in range(8):
            node_a.send("b", put(i))  # all queued before the dial wins
        await settle(0.2)
        frames = node_a.frames_sent
        await node_a.stop()
        await peer.stop()
        return len(peer.accepted), frames, peer.values

    connections, frames, values = run(scenario())
    assert connections == 1  # a single connection, no leaked dials
    assert frames == 8
    assert values == list(range(8))


def test_send_tasks_are_strongly_referenced():
    """Fire-and-forget sends must survive garbage collection (the loop
    holds tasks weakly; the one task a send can start is its link's
    dial), and ``stop()`` leaves nothing of the node's behind: no task,
    and no timer that would still write a shaper-delayed frame."""
    async def scenario():
        shaper = ScriptedShaper((0.0,), (50.0,))
        node_a, node_b, delivered = await start_pair(shaper=shaper)
        node_a.send("b", put("now"))
        gc.collect()  # must not reap the pending dial
        await settle(0.2)
        assert delivered == ["now"]
        node_a.send("b", put("delayed"))  # outstanding at stop()
        await node_a.stop()
        assert asyncio.all_tasks() == {asyncio.current_task()}
        await settle(0.15)  # well past the 50 ms it was delayed by
        await node_b.stop()
        return delivered, node_a.frames_sent

    assert run(scenario()) == (["now"], 1)


def test_oversize_length_prefix_drops_the_connection_and_is_counted():
    """Regression: a length prefix above ``MAX_FRAME_BYTES`` -- the
    corrupt-peer / DoS guard -- escaped the reader as an unhandled
    ``TransportError`` and was counted nowhere.  The stream cannot be
    resynchronised, so that connection goes; the listener does not."""
    async def scenario():
        loop_errors = catch_loop_errors()
        addresses = {"b": ("127.0.0.1", 0)}
        delivered = []
        node = AsyncioNode("b", addresses["b"], addresses)
        node.handler = lambda sender, msg: delivered.append(
            msg.command.value)
        await node.start()
        reader, writer = await asyncio.open_connection(*node.address)
        writer.write(framed(put(1)) + struct.pack(">I", 1 << 30))
        await settle()
        before, dropped = list(delivered), node.frames_dropped
        closed = await reader.read() == b"" and reader.at_eof()
        writer.close()
        _, second = await asyncio.open_connection(*node.address)
        second.write(framed(put(2)))
        await settle()
        second.close()
        await node.stop()
        return before, dropped, closed, delivered, loop_errors

    before, dropped, closed, delivered, loop_errors = run(scenario())
    assert before == [1]
    assert dropped == 1
    assert closed
    assert delivered == [1, 2]
    assert loop_errors == []


def test_stalled_peer_costs_bounded_memory_not_unbounded():
    """Regression: a peer that stopped reading grew the sender without
    limit (600 sends of 64 KB: 536 tasks parked in ``drain()`` and
    35 MB buffered, nothing dropped).  A link already holding more
    than ``MAX_FRAME_BYTES`` unsent takes no more: frames are lost
    and counted, as to a dead peer, and other links do not notice."""
    async def scenario():
        loop_errors = catch_loop_errors()
        stalled = BarePeer(reads=False)
        node_a, node_b, delivered = await start_pair()
        node_a.addresses["stalled"] = await stalled.start()
        big = put("x" * (64 * 1024))
        frame_bytes = len(framed(big))
        node_a.send("stalled", big)
        await settle()  # connected: frames now go to the socket
        tracemalloc.start()
        try:
            for _ in range(599):
                node_a.send("stalled", big)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        node_a.send("b", put("healthy"))
        await settle()
        dropped = node_a.frames_dropped
        await node_a.stop()
        await node_b.stop()
        await stalled.stop()
        return held, frame_bytes, dropped, delivered, loop_errors

    held, frame_bytes, dropped, delivered, loop_errors = run(scenario())
    # The write buffer plus the frame in hand, with a fifth allowed
    # for how a bytearray over-allocates as it grows.
    assert held <= 1.2 * (MAX_FRAME_BYTES + 2 * frame_bytes)
    assert dropped > 0
    assert delivered == ["healthy"]
    assert loop_errors == []


def test_dial_into_a_black_hole_queues_bounded():
    """The same rule while dialing: frames queue behind the dial only
    up to ``MAX_FRAME_BYTES``; the rest are dropped and counted."""
    async def scenario():
        addresses = {"a": ("127.0.0.1", 0), "hole": ("127.0.0.1", 1)}
        node = AsyncioNode("a", addresses["a"], addresses)
        big = put("x" * (1 << 20))
        for _ in range(20):  # no await: the dial cannot have resolved
            node.send("hole", big)
        dropped = node.frames_dropped
        await node.stop()  # mid-dial: the dial goes with the node
        assert asyncio.all_tasks() == {asyncio.current_task()}
        return dropped, node.frames_sent

    # With the 16th (1 MB and a header each) the queue is over the bound.
    assert run(scenario()) == (4, 0)


# ----------------------------------------------------------------------
# The frame parser's edges (``StreamReader.readexactly`` owned them
# before frames were cut in ``data_received``)
# ----------------------------------------------------------------------
async def deliver_raw(chunks, then_close=True):
    """Write ``chunks`` to a fresh node over one raw connection, one
    ``write`` + loop pass each; returns what was delivered, the node's
    drop count and anything the loop's exception handler saw."""
    loop_errors = catch_loop_errors()
    addresses = {"b": ("127.0.0.1", 0)}
    delivered = []
    node = AsyncioNode("b", addresses["b"], addresses)
    node.handler = lambda sender, msg: delivered.append(
        msg.command.value)
    await node.start()
    _, writer = await asyncio.open_connection(*node.address)
    for chunk in chunks:
        writer.write(chunk)
        await writer.drain()
        await asyncio.sleep(0)
    if then_close:
        writer.close()
    await settle()
    await node.stop()
    writer.close()
    assert asyncio.all_tasks() == {asyncio.current_task()}
    return delivered, node.frames_dropped, loop_errors


def test_frames_arriving_one_byte_at_a_time():
    stream = framed(put(1)) + framed(put(2))
    chunks = [stream[i:i + 1] for i in range(len(stream))]
    assert run(deliver_raw(chunks)) == ([1, 2], 0, [])


def test_three_frames_in_one_write():
    stream = b"".join(framed(put(i)) for i in range(3))
    assert run(deliver_raw([stream])) == ([0, 1, 2], 0, [])


def test_frame_spanning_many_reads_then_a_small_one():
    large = "y" * 200_000
    stream = framed(put(large)) + framed(put("small"))
    assert run(deliver_raw([stream])) == ([large, "small"], 0, [])


def test_connection_closed_mid_frame_delivers_nothing_more():
    whole, cut = framed(put(1)), framed(put(2))[:-3]
    assert run(deliver_raw([whole + cut])) == ([1], 0, [])
    # ... nor when it is the node that goes first, mid-frame.
    assert run(deliver_raw([whole + cut], then_close=False)) == \
        ([1], 0, [])


def test_handler_bug_reaches_the_loop_and_costs_one_connection():
    """What a *handler* raises is a protocol bug, not a bad frame: it
    is not swallowed with the undecodable ones.  The loop's exception
    handler hears of it and that connection closes; the node serves
    the next one."""
    async def scenario():
        loop_errors = catch_loop_errors()
        addresses = {"b": ("127.0.0.1", 0)}
        delivered = []

        def handler(sender, msg):
            if msg.command.value == "boom":
                raise RuntimeError("protocol bug")
            delivered.append(msg.command.value)

        node = AsyncioNode("b", addresses["b"], addresses)
        node.handler = handler
        await node.start()
        reader, writer = await asyncio.open_connection(*node.address)
        writer.write(framed(put("boom")) + framed(put("behind it")))
        closed = await reader.read() == b""
        writer.close()
        _, second = await asyncio.open_connection(*node.address)
        second.write(framed(put("next")))
        await settle()
        second.close()
        await node.stop()
        return closed, delivered, [
            type(context.get("exception")) for context in loop_errors]

    assert run(scenario()) == (True, ["next"], [RuntimeError])


# ----------------------------------------------------------------------
# Link lifecycle, the netem seam on timers, flush_sends
# ----------------------------------------------------------------------
def test_send_redials_after_the_peer_restarts_at_its_address():
    """A lost link leaves the table, so the next send dials afresh."""
    async def scenario():
        node_a, node_b, delivered = await start_pair()
        node_a.send("b", put("first"))
        await settle()
        await node_b.stop()
        await settle()  # "a" sees the connection go
        reborn = AsyncioNode("b", node_b.address, node_a.addresses)
        reborn.handler = lambda sender, msg: delivered.append(
            msg.command.value)
        await reborn.start()
        node_a.send("b", put("second"))
        await settle()
        await node_a.stop()
        await reborn.stop()
        return delivered, node_a.frames_sent

    assert run(scenario()) == (["first", "second"], 2)


def test_shaper_plans_duplicate_drop_and_reorder():
    """One plan entry is one delivery.  Delayed deliveries ride their
    own timers, so a later send with a shorter delay overtakes."""
    async def scenario():
        shaper = ScriptedShaper((0.0, 5.0), (), (20.0,), (0.0,))
        node_a, node_b, delivered = await start_pair(shaper=shaper)
        node_a.send("b", put("twice"))
        await settle()
        assert (delivered, node_a.frames_sent) == (["twice"] * 2, 2)
        node_a.send("b", put("never"))
        await settle()
        assert (len(delivered), node_a.frames_dropped) == (2, 1)
        node_a.send("b", put("slow"))
        node_a.send("b", put("quick"))
        await settle()
        await node_a.stop()
        await node_b.stop()
        return delivered[2:]

    assert run(scenario()) == ["quick", "slow"]


def test_flush_sends_waits_for_the_write_buffer_bounded():
    """``flush_sends`` returns once what was sent has left for the
    kernel -- not before, and not later than ``timeout`` when the peer
    never reads.  15 MB: more than loopback socket buffers swallow,
    under the bound at which a link drops."""
    async def scenario():
        loop = asyncio.get_running_loop()
        peer = BarePeer(reads=False)
        addresses = {"a": ("127.0.0.1", 0), "b": await peer.start()}
        node = AsyncioNode("a", addresses["a"], addresses)
        big = put("z" * (1 << 20))
        for _ in range(15):
            node.send("b", big)
        started = loop.time()
        await node.flush_sends(timeout=0.3)
        stalled_for = loop.time() - started
        peer.reading.set()  # now the flush can finish
        started = loop.time()
        await node.flush_sends(timeout=10.0)
        flushed_in = loop.time() - started
        await node.stop()
        while len(peer.values) < 15 and loop.time() - started < 10.0:
            await settle(0.01)
        await peer.stop()
        return (stalled_for, flushed_in, node.frames_sent,
                node.frames_dropped, len(peer.values))

    stalled_for, flushed_in, sent, dropped, arrived = run(scenario())
    assert 0.3 <= stalled_for < 1.0
    assert flushed_in < 10.0
    assert (sent, dropped, arrived) == (15, 0, 15)


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
