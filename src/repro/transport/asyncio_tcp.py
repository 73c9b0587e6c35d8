"""Asyncio TCP transport: run the protocol objects over real sockets.

Wire format: 4-byte big-endian length prefix + the compact frame body
of :mod:`repro.transport.codec` (a small binary routing header followed
by the message's canonical JSON bytes).  Messages are reconstructed
through the same :func:`repro.messages.decode` registry the simulator's
round-trip tests exercise, so anything that runs on the simulator runs
here unchanged.

The protocol classes are synchronous event handlers, so the adapter is
thin: incoming frames invoke ``handler(sender, message)`` on the event
loop; ``NodeContext.set_timer`` maps to ``loop.call_later``; the clock
is ``loop.time()`` scaled to milliseconds.  :class:`AsyncioCluster`
adds only sockets to what the simulator's cluster has: it builds its
replicas and clients through the same
:class:`~repro.cluster.base.ProtocolCluster`.

I/O model: a frame is a write, not a task.  No protocol code awaits a
send, so :meth:`AsyncioNode.send` encodes the frame and hands the bytes
to the destination's **link** before it returns -- one
``asyncio.Protocol`` per destination owning the one connection to it:

* *dialing* -- frames queue in send order behind the one
  ``loop.create_connection`` in flight (the only task the transport
  creates; its link holds it);
* *connected* -- ``transport.write`` at once.  ``frames_sent`` counts
  frames handed to a connected transport (it used to count a stream
  writer's ``drain`` returning);
* *lost* -- ``connection_lost``, a failed dial or a closing transport
  takes the link out of the table with whatever it had queued; the
  next send dials afresh (quasi-reliable network: timeouts recover).

Frames come off a connection in ``data_received``: bytes are appended
to one buffer and every whole ``<len><body>`` in it is dispatched.

Nothing awaits a ``drain``.  It only ever suspended the one send task,
never the protocol above it, so it bounded nothing: a peer that stopped
reading held 536 parked tasks *and* 35 MB of write buffer after 600
sends.  The bound is a drop rule -- a frame offered to a link already
holding more than :data:`MAX_FRAME_BYTES` unsent is dropped and counted.
Nor are writes batched per loop iteration: a queue per link with one
``call_soon`` flush does join writes (2.19 frames per write on the
ledger's saturated ``tcp_steady``) and measured slower (parent 561 /
write-at-once 626 / coalesced 578 commits/s, 8 three-way pairs) -- with
every node on one loop, the extra pass and the frame held back an
iteration cost more than the syscall saved.  What a frame did cost was
its task: 12.2 tasks, 30.9 ``call_soon``s and 36.9 loop callbacks per
commit on ``tcp_steady``, ~14 % of its CPU.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.base import ProtocolCluster
from repro.cluster.node import NodeContext
from repro.errors import SerializationError, TransportError
from repro.messages.base import decode
from repro.messages.trace import (
    trace_context_from_bytes,
    trace_context_to_bytes,
)
from repro.obs.instruments import NULL
from repro.trace.tracer import NULL_TRACER
from repro.transport.codec import decode_frame_traced, encode_frame

_HEADER = struct.Struct(">I")
#: Frames above this size are rejected (corrupt peer / DoS guard), and
#: a link holding more than this unsent takes no more (stalled peer).
MAX_FRAME_BYTES = 16 * 1024 * 1024

Address = Tuple[str, int]

#: What a frame body that is not a message raises on its way through
#: ``decode_frame_traced`` and ``decode``: the two named errors, and
#: what a ``from_wire`` raises on JSON of the wrong shape (a missing
#: key, a scalar where a list was expected, ``InstanceID.from_wire([])``).
_UNDECODABLE = (TransportError, SerializationError, KeyError, IndexError,
                TypeError, ValueError)


def parse_hostport(value: Any) -> Address:
    """Normalize a host-map entry: ``"host:port"`` or ``(host, port)``.

    Host maps come from scenario spec files (strings) and Python
    callers (tuples); both forms must name an explicit port -- a
    remote peer cannot be dialed at an OS-assigned one.
    """
    if isinstance(value, (tuple, list)) and len(value) == 2:
        host, port = value
    elif isinstance(value, str):
        host, _, port = value.rpartition(":")
        if not host:
            raise TransportError(
                f"host map entry {value!r} must be 'host:port'")
    else:
        raise TransportError(
            f"host map entry {value!r} must be 'host:port' or "
            f"(host, port)")
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise TransportError(
            f"host map entry {value!r} has a non-integer port") \
            from None
    if not 0 < port < 65536:
        raise TransportError(
            f"host map entry {value!r} needs an explicit port in "
            f"1..65535")
    return (str(host), port)


class _AsyncioTimer:
    """Adapts ``asyncio.TimerHandle`` to the NodeContext Timer protocol."""

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        self._fired = False

    def mark_fired(self) -> None:
        self._fired = True

    def cancel(self) -> None:
        self._handle.cancel()
        self._fired = True

    @property
    def pending(self) -> bool:
        return not self._fired and not self._handle.cancelled()


class _Link(asyncio.Protocol):
    """The one connection to one destination (states: module docstring).

    Created dialing.  Two sends to an undialed destination share this
    link, so they cannot open duplicate connections (the loser's would
    leak, never closed)."""

    def __init__(self, node: "AsyncioNode", dst: str) -> None:
        self.node = node
        self.dst = dst
        self.transport: Optional[asyncio.Transport] = None
        #: Frames offered while dialing, in send order.
        self.queue: List[bytes] = []
        self.queued_bytes = 0
        # The event loop only keeps weak references to tasks, so a
        # fire-and-forget one can be garbage-collected mid-dial: the
        # link holds its own.
        self.dial = node.loop.create_task(self._connect())

    async def _connect(self) -> None:
        host, port = self.node.addresses[self.dst]
        try:
            await self.node.loop.create_connection(
                lambda: self, host, port)
        except OSError:
            # Quasi-reliable network: a dead peer just loses messages;
            # protocol timeouts recover.
            self.connection_lost(None)

    def unsent(self) -> int:
        """Bytes held for the peer: behind the dial, or in the
        transport's write buffer."""
        if self.transport is None:
            return self.queued_bytes
        return self.transport.get_write_buffer_size()

    def offer(self, data: bytes) -> None:
        node = self.node
        if self.unsent() > MAX_FRAME_BYTES:
            # A peer that stopped reading, or a dial into a black
            # hole: lose frames, not memory.
            node.frames_dropped += 1
        elif self.transport is None:
            self.queue.append(data)
            self.queued_bytes += len(data)
        else:
            self.transport.write(data)
            node.frames_sent += 1

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        for data in self.queue:
            self.offer(data)
        self.queue, self.queued_bytes = [], 0

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # Out of the table (unless a fresh link already took the
        # slot), so the next send re-dials.
        if self.node._links.get(self.dst) is self:
            del self.node._links[self.dst]

    def close(self) -> None:
        self.dial.cancel()
        if self.transport is not None:
            self.transport.close()


class _Receiver(asyncio.Protocol):
    """One accepted connection: cuts the byte stream into frames."""

    def __init__(self, node: "AsyncioNode") -> None:
        self.node = node
        self.buffer = bytearray()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.node._accepted.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.node._accepted.discard(self)

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        buffer += data
        start = 0
        while len(buffer) - start >= _HEADER.size:
            (length,) = _HEADER.unpack_from(buffer, start)
            if length > MAX_FRAME_BYTES:
                # The stream cannot be resynchronised: lose this
                # connection, count the frame, raise nothing.
                self.node.frames_dropped += 1
                self.transport.close()
                return
            end = start + _HEADER.size + length
            if end > len(buffer):
                break
            body = bytes(buffer[start + _HEADER.size:end])
            start = end
            self.node._dispatch(body)
        del buffer[:start]


class AsyncioNode:
    """One protocol node bound to a TCP listening socket."""

    #: Observability seam.  Its one per-frame site, the ``last_rx_ms``
    #: stamp, guards on ``instruments.enabled`` so a disabled
    #: deployment pays a single attribute test; ``repro serve`` swaps
    #: in a live set.
    instruments = NULL
    #: Tracing seam, same discipline: the no-op singleton by default;
    #: traced deployments swap in a live :class:`ActiveTracer` so
    #: frames carry causal context (the TRACED frame kind).
    tracer = NULL_TRACER

    def __init__(self, node_id: str, address: Address,
                 addresses: Dict[str, Address],
                 loop: Optional[asyncio.AbstractEventLoop] = None,
                 shaper: Optional[Any] = None,
                 strict_destinations: bool = True,
                 cuts: Optional[Set[Tuple[str, str]]] = None) -> None:
        self.node_id = node_id
        self.address = address
        self.addresses = addresses
        self._loop = loop
        #: Optional :class:`repro.netem.LinkShaper` shared by the whole
        #: deployment: sends are delayed / dropped / duplicated per the
        #: live profile before hitting the socket.
        self.shaper = shaper
        #: Directed ``(src, dst)`` pairs whose sends are dropped (crashes
        #: and partitions), shared by the deployment's local nodes.
        self.cuts: Set[Tuple[str, str]] = cuts if cuts is not None \
            else set()
        #: With a host map (multi-process deployments) an unknown
        #: destination is a peer we have not learned yet, not a bug:
        #: drop like a quasi-reliable network instead of raising.
        self.strict_destinations = strict_destinations
        self.handler: Optional[Callable[[str, Any], None]] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._links: Dict[str, _Link] = {}
        self._accepted: Set[_Receiver] = set()
        #: Shaper-delayed deliveries not yet written.
        self._timers: Set[asyncio.TimerHandle] = set()
        self._closed = False
        #: Frame counts; the metrics registry reads them at scrape time.
        self.frames_received = 0
        self.frames_sent = 0
        self.frames_dropped = 0
        #: When each peer was last heard from (loop-clock ms), kept
        #: only while instruments are live -- the health monitor's
        #: quorum-reachability signal.
        self.last_rx_ms: Dict[str, float] = {}

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The bound event loop, resolved lazily from the running loop
        (``asyncio.get_event_loop`` outside a running loop is
        deprecated and binds to the wrong loop under ``asyncio.run``)."""
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        return self._loop

    # ------------------------------------------------------------------
    # NodeContext glue
    # ------------------------------------------------------------------
    def context(self) -> NodeContext:
        return NodeContext(
            self.node_id,
            send_fn=lambda src, dst, msg: self.send(dst, msg),
            schedule_fn=self._schedule,
            now_fn=lambda: self.loop.time() * 1000.0,
        )

    def _schedule(self, delay_ms: float, callback: Callable[..., None],
                  *args: Any) -> _AsyncioTimer:
        timer_box: Dict[str, _AsyncioTimer] = {}

        def fire() -> None:
            timer_box["timer"].mark_fired()
            callback(*args)

        handle = self.loop.call_later(delay_ms / 1000.0, fire)
        timer = _AsyncioTimer(handle)
        timer_box["timer"] = timer
        return timer

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and listen.  Port 0 requests an OS-assigned (ephemeral)
        port; the node's entry in the shared address map is updated with
        the real port so peers that dial later reach it.  Fixed ports in
        the ephemeral range (32768+ on Linux) collide with the kernel's
        own outgoing-port allocation under load, so port 0 is the
        reliable choice for tests and local scenario runs."""
        host, port = self.address
        self._server = await self.loop.create_server(
            lambda: _Receiver(self), host, port)
        if port == 0:
            port = self._server.sockets[0].getsockname()[1]
            self.address = (host, port)
            self.addresses[self.node_id] = self.address

    async def flush_sends(self, timeout: float = 2.0) -> None:
        """Wait (bounded) until every frame sent so far has left for
        the kernel: no delayed delivery pending, no frame behind a
        dial or in a write buffer -- the graceful-drain half of
        shutdown, before :meth:`stop` cancels what is still pending."""
        deadline = self.loop.time() + timeout
        while self.loop.time() < deadline and (self._timers or any(
                link.unsent() for link in self._links.values())):
            await asyncio.sleep(0.005)

    async def stop(self) -> None:
        self._closed = True
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        links = list(self._links.values())
        self._links.clear()
        for link in links:
            link.close()
        # Accepted connections too: since Python 3.12.1
        # ``Server.wait_closed`` waits for them, and their dialers may
        # be stopped after us or never.
        for receiver in self._accepted:
            receiver.transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # A cancelled dial is gone only after a loop pass of its own.
        await asyncio.gather(*(link.dial for link in links),
                             return_exceptions=True)

    def _dispatch(self, body: bytes) -> None:
        try:
            sender, learned, wire, trace = decode_frame_traced(body)
            message = None if wire is None else decode(wire)
        except _UNDECODABLE:
            # The length prefix keeps the stream in sync: lose this
            # frame, not the connection and the frames queued behind it.
            self.frames_dropped += 1
            return
        # Frames carry the sender's *listen* address so multi-process
        # deployments (host maps) learn routes from traffic instead of
        # needing every ephemeral port configured up front.
        if self.addresses.get(sender) != learned:
            self.addresses[sender] = learned
        if self.instruments.enabled:
            # Hello frames count as "heard from" too: reachability is
            # about the peer being alive, not about payload traffic.
            self.last_rx_ms[sender] = self.loop.time() * 1000.0
        if wire is None:
            return  # address announcement only; no protocol payload
        self.frames_received += 1
        if self.handler is None:
            return
        tracer = self.tracer
        if trace is not None and tracer.enabled:
            # Restore the sender's causal context around delivery so
            # handler-side spans parent to the right request.
            prev = tracer.set_current(trace_context_from_bytes(trace))
            try:
                self.handler(sender, message)
            finally:
                tracer.set_current(prev)
        else:
            self.handler(sender, message)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def send(self, dst: str, message: Any) -> None:
        """Fire-and-forget send: the frame is encoded and handed to
        ``dst``'s link before this returns, so nothing done to
        ``message`` afterwards can change it."""
        if self._closed:
            # A late protocol timer firing after teardown must not
            # dial out of a stopped deployment.
            return
        if dst not in self.addresses:
            if not self.strict_destinations:
                # Multi-process deployment: the peer's address has not
                # been learned yet; the network is quasi-reliable, so
                # drop and let protocol retries recover.
                self.frames_dropped += 1
                return
            raise TransportError(f"unknown destination {dst!r}")
        if self.cuts and (self.node_id, dst) in self.cuts:
            self.frames_dropped += 1
            return
        trace: Optional[bytes] = None
        tracer = self.tracer
        if tracer.enabled:
            ctx = tracer.current()
            if ctx is not None:
                trace = trace_context_to_bytes(ctx)
        frame = encode_frame(self.node_id, self.address, message,
                             trace=trace)
        data = _HEADER.pack(len(frame)) + frame
        if self.shaper is None:
            self._deliver(dst, data)
            return
        # The netem seam: one send becomes zero, one, or two
        # deliveries.  Each delayed one rides its own timer, so
        # duplicates ride alone and delayed frames genuinely overtake
        # each other (reordering) like a real lossy path.
        plan = self.shaper.plan(self.node_id, dst, len(frame),
                                self.loop.time() * 1000.0)
        if not plan:
            self.frames_dropped += 1
        for delay_ms in plan:
            if delay_ms > 0.0:
                self._deliver_later(dst, data, delay_ms)
            else:
                self._deliver(dst, data)

    def announce(self, dst: str) -> None:
        """Send an address-only hello frame to ``dst`` so it learns
        this node's listen address before any protocol traffic."""
        if self._closed or dst not in self.addresses:
            return
        frame = encode_frame(self.node_id, self.address, None)
        self._deliver(dst, _HEADER.pack(len(frame)) + frame)

    def _deliver(self, dst: str, data: bytes) -> None:
        link = self._links.get(dst)
        if link is None or (link.transport is not None
                            and link.transport.is_closing()):
            link = self._links[dst] = _Link(self, dst)
        link.offer(data)

    def _deliver_later(self, dst: str, data: bytes,
                       delay_ms: float) -> None:
        def fire() -> None:
            self._timers.discard(handle)
            self._deliver(dst, data)

        # Tracked so that stop() cancels it: a frame still delayed at
        # shutdown is never written.
        handle = self.loop.call_later(delay_ms / 1000.0, fire)
        self._timers.add(handle)


class AsyncioCluster(ProtocolCluster):
    """A full protocol deployment on localhost sockets.

    Config, keys, replicas and clients are built by the
    :class:`~repro.cluster.base.ProtocolCluster` base it shares with
    the simulator's :class:`~repro.cluster.builder.Cluster`, so any
    registered protocol deploys here with every protocol option the
    simulator takes (``primary_region``/``primary_index``,
    ``interference``, ``statemachine_factory``, and the
    :class:`~repro.config.ProtocolConfig` fields), passed as keywords.
    Timeouts not given default to :data:`TIMEOUTS`.

    >>> cluster = AsyncioCluster(protocol="pbft", num_replicas=4)
    >>> await cluster.start()
    >>> client = await cluster.add_client("c0")
    >>> result = await cluster.request(client, "put", "k", "v")

    ``base_port=0`` (the default) binds every node to an OS-assigned
    port, so concurrent clusters never collide; pass a fixed base port
    only when peers outside this process need predictable addresses.

    **Host maps** lift the localhost-only restriction: ``host_map``
    pins named replicas to explicit ``"host:port"`` addresses; those
    replicas are *not* started in this process by default (another
    process -- ``python -m repro serve`` -- runs them at that address)
    but every local node knows how to dial them.  ``start_replicas``
    overrides which replicas this process instantiates (the serve side
    passes the hosted subset).  Frames carry the sender's listen
    address, so ephemeral-port peers (clients) are learned from
    traffic; :meth:`announce` primes remote replicas before load.

    ``netem`` (a :class:`repro.netem.NetemProfile`) attaches a
    :class:`repro.netem.LinkShaper` shared by every node, seeded from
    ``netem_seed``; ``regions`` labels nodes for region-token rule
    matching and for ``primary_region``.

    ``cuts``, ``set_handler``, ``context_for``, ``node_ids``,
    ``attach_shaper``, ``scale_latency``, ``now_ms`` and
    ``statemachine_factory`` are the surface it shares with the
    simulator's :class:`~repro.cluster.builder.Cluster`, which is all
    :class:`~repro.scenario.faults.FaultInjector` touches.
    """

    BASE_PORT = 41200
    #: Protocol timeouts (ms) of a deployment that names none.
    TIMEOUTS: Dict[str, float] = dict(
        slow_path_timeout=300.0, retry_timeout=2000.0,
        suspicion_timeout=1000.0, view_change_timeout=2000.0)

    def __init__(self, protocol: str = "ezbft",
                 num_replicas: int = 4,
                 host: str = "127.0.0.1",
                 base_port: int = 0,
                 host_map: Optional[Dict[str, Any]] = None,
                 start_replicas: Optional[Tuple[str, ...]] = None,
                 regions: Optional[Dict[str, str]] = None,
                 netem: Optional[Any] = None,
                 netem_seed: int = 0,
                 **options: Any) -> None:
        #: Node id -> region label (netem rule matching and primary
        #: placement only; TCP has no latency matrix).
        self.regions: Dict[str, str] = dict(regions or {})
        super().__init__(
            protocol,
            [self.regions.get(f"r{i}") for i in range(num_replicas)],
            **{**self.TIMEOUTS, **options})
        self.host = host
        self.host_map: Dict[str, Address] = {
            rid: parse_hostport(value)
            for rid, value in (host_map or {}).items()
        }
        for rid in self.host_map:
            if rid not in self.replica_ids:
                raise TransportError(
                    f"host map names unknown replica {rid!r} "
                    f"(have {self.replica_ids})")
        self.addresses: Dict[str, Address] = {}
        for i, rid in enumerate(self.replica_ids):
            if rid in self.host_map:
                self.addresses[rid] = self.host_map[rid]
            else:
                self.addresses[rid] = (
                    host, base_port + i if base_port else 0)
        if start_replicas is None:
            self.start_replicas = tuple(
                rid for rid in self.replica_ids
                if rid not in self.host_map)
        else:
            self.start_replicas = tuple(start_replicas)
            for rid in self.start_replicas:
                if rid not in self.replica_ids:
                    raise TransportError(
                        f"start_replicas names unknown replica "
                        f"{rid!r} (have {self.replica_ids})")
        #: Replicas expected to run in another process.
        self.remote_replica_ids = tuple(
            rid for rid in self.replica_ids
            if rid not in self.start_replicas)
        #: With remote peers, unknown/unlearned destinations drop like
        #: a quasi-reliable network instead of raising.
        self._strict = not self.host_map
        self.shaper: Optional[Any] = None
        self.netem_seed = netem_seed
        if netem is not None:
            from repro.netem import LinkShaper
            self.shaper = LinkShaper(netem, seed=netem_seed,
                                     region_of=self.regions.get)
        #: Directed ``(src, dst)`` pairs every local node refuses to
        #: send on (one set, shared by reference).
        self.cuts: Set[Tuple[str, str]] = set()
        self._next_port = base_port + num_replicas if base_port else 0
        self.nodes: Dict[str, AsyncioNode] = {}

    def _node(self, node_id: str, address: Address) -> AsyncioNode:
        return AsyncioNode(node_id, address, self.addresses,
                           shaper=self.shaper,
                           strict_destinations=self._strict,
                           cuts=self.cuts)

    async def start(self) -> None:
        for rid in self.start_replicas:
            node = self._node(rid, self.addresses[rid])
            replica = self.build_replica(rid, node.context())
            node.handler = replica.on_message
            await node.start()
            self.nodes[rid] = node

    async def add_client(self, client_id: str,
                         target_replica: Optional[str] = None,
                         region: Optional[str] = None):
        """Start a client node.  A leaderless client sends to
        ``target_replica`` (default r0); a primary-based one tracks
        the primary."""
        address = (self.host, self._next_port)
        if self._next_port:
            self._next_port += 1
        self.addresses[client_id] = address
        if region is not None:
            self.regions[client_id] = region
        node = self._node(client_id, address)
        client = self.build_client(client_id, node.context(),
                                   target_replica or self.replica_ids[0])
        node.handler = client.on_message
        await node.start()
        self.nodes[client_id] = node
        return client

    def context_for(self, node_id: str) -> NodeContext:
        return self.nodes[node_id].context()

    def set_handler(self, node_id: str,
                    handler: Callable[[str, Any], None]) -> None:
        self.nodes[node_id].handler = handler

    def node_ids(self) -> Tuple[str, ...]:
        """Every node this process can address: its own, the remote
        replicas, and the peers it has learned from traffic."""
        return tuple(self.addresses)

    def now_ms(self) -> float:
        return asyncio.get_running_loop().time() * 1000.0

    def attach_shaper(self) -> Any:
        """The live netem seam, materialized on every node (seeded from
        ``netem_seed``) if the deployment declared no profile."""
        if self.shaper is None:
            from repro.netem import LinkShaper
            self.shaper = LinkShaper(seed=self.netem_seed,
                                     region_of=self.regions.get)
            for node in self.nodes.values():
                node.shaper = self.shaper
        return self.shaper

    def scale_latency(self, factor: float) -> None:
        """No latency matrix on TCP: scale the live netem profile's link
        delays instead (1.0 restores the base)."""
        self.attach_shaper().set_delay_scale(factor)

    def announce_remote(self) -> None:
        """Prime every remote replica with every local node's listen
        address (hello frames), so the first protocol message a remote
        replica emits already has somewhere to go."""
        for node in self.nodes.values():
            for rid in self.remote_replica_ids:
                node.announce(rid)

    async def request(self, client, op: str, key: str = "",
                      value: Any = None, timeout: float = 10.0):
        """Submit one command and await its (result, latency, path)."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def on_delivery(command, result, latency, path):
            if not future.done():
                future.set_result((result, latency, path))

        client.on_delivery = on_delivery
        client.submit(client.next_command(op, key, value))
        return await asyncio.wait_for(future, timeout=timeout)

    async def stop(self) -> None:
        for node in self.nodes.values():
            await node.stop()
