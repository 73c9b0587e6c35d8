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
is ``loop.time()`` scaled to milliseconds.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Any, Callable, Dict, Optional, Set, Tuple

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
#: Frames above this size are rejected (corrupt peer / DoS guard).
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


class AsyncioNode:
    """One protocol node bound to a TCP listening socket."""

    #: Observability seam.  Per-frame sites guard on
    #: ``instruments.enabled`` so a disabled deployment pays a single
    #: attribute test; ``repro serve`` swaps in a live set.
    instruments = NULL
    #: Tracing seam, same discipline: the no-op singleton by default;
    #: traced deployments swap in a live :class:`ActiveTracer` so
    #: frames carry causal context (the TRACED frame kind).
    tracer = NULL_TRACER

    def __init__(self, node_id: str, address: Address,
                 addresses: Dict[str, Address],
                 loop: Optional[asyncio.AbstractEventLoop] = None,
                 shaper: Optional[Any] = None,
                 strict_destinations: bool = True) -> None:
        self.node_id = node_id
        self.address = address
        self.addresses = addresses
        self._loop = loop
        #: Optional :class:`repro.netem.LinkShaper` shared by the whole
        #: deployment: sends are delayed / dropped / duplicated per the
        #: live profile before hitting the socket.
        self.shaper = shaper
        #: With a host map (multi-process deployments) an unknown
        #: destination is a peer we have not learned yet, not a bug:
        #: drop like a quasi-reliable network instead of raising.
        self.strict_destinations = strict_destinations
        self.handler: Optional[Callable[[str, Any], None]] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: Dict[str, asyncio.StreamWriter] = {}
        #: Per-destination dial lock: two concurrent sends to an
        #: uncached destination must not open duplicate connections
        #: (the loser's writer would leak, never closed).
        self._dial_locks: Dict[str, asyncio.Lock] = {}
        #: Strong references to in-flight send tasks.  The event loop
        #: only keeps weak references to tasks, so a fire-and-forget
        #: ``create_task`` can be garbage-collected mid-send.
        self._send_tasks: Set[asyncio.Task] = set()
        self._closed = False
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
        self._server = await asyncio.start_server(
            self._on_connection, host, port)
        if port == 0:
            port = self._server.sockets[0].getsockname()[1]
            self.address = (host, port)
            self.addresses[self.node_id] = self.address

    async def flush_sends(self, timeout: float = 2.0) -> None:
        """Wait (bounded) for in-flight send tasks to finish -- the
        graceful-drain half of shutdown, before :meth:`stop` cancels
        whatever is still pending."""
        pending = {task for task in self._send_tasks
                   if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=timeout)

    async def stop(self) -> None:
        self._closed = True
        for task in list(self._send_tasks):
            task.cancel()
        self._send_tasks.clear()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                header = await reader.readexactly(_HEADER.size)
                (length,) = _HEADER.unpack(header)
                if length > MAX_FRAME_BYTES:
                    raise TransportError(
                        f"frame of {length} bytes exceeds limit")
                body = await reader.readexactly(length)
                self._dispatch(body)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        except asyncio.CancelledError:
            # Normal at shutdown: asyncio.run cancels the per-connection
            # reader tasks; swallowing keeps the loop teardown quiet.
            pass
        finally:
            writer.close()

    def _dispatch(self, body: bytes) -> None:
        try:
            sender, learned, wire, trace = decode_frame_traced(body)
            message = None if wire is None else decode(wire)
        except _UNDECODABLE:
            # The length prefix keeps the stream in sync: lose this
            # frame, not the connection and the frames queued behind it.
            self.frames_dropped += 1
            if self.instruments.enabled:
                self.instruments.frame_dropped()
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
        if self.instruments.enabled:
            self.instruments.frame_received()
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
        """Fire-and-forget send (queued on the event loop)."""
        if self._closed:
            # A late protocol timer firing after teardown must not
            # spawn fresh send tasks into a stopped deployment.
            return
        if dst not in self.addresses:
            if not self.strict_destinations:
                # Multi-process deployment: the peer's address has not
                # been learned yet; the network is quasi-reliable, so
                # drop and let protocol retries recover.
                self.frames_dropped += 1
                if self.instruments.enabled:
                    self.instruments.frame_dropped()
                return
            raise TransportError(f"unknown destination {dst!r}")
        trace: Optional[bytes] = None
        tracer = self.tracer
        if tracer.enabled:
            # Capture the causal context *now*, synchronously -- by
            # the time the send task runs, the handler that caused
            # this send has long since restored a different context.
            ctx = tracer.current()
            if ctx is not None:
                trace = trace_context_to_bytes(ctx)
        task = self.loop.create_task(self._send(dst, message,
                                                trace=trace))
        self._send_tasks.add(task)
        task.add_done_callback(self._send_tasks.discard)

    def announce(self, dst: str) -> None:
        """Send an address-only hello frame to ``dst`` so it learns
        this node's listen address before any protocol traffic."""
        if self._closed or dst not in self.addresses:
            return
        task = self.loop.create_task(self._send(dst, None, hello=True))
        self._send_tasks.add(task)
        task.add_done_callback(self._send_tasks.discard)

    async def _send(self, dst: str, message: Any,
                    hello: bool = False,
                    trace: Optional[bytes] = None) -> None:
        frame = encode_frame(self.node_id, self.address,
                             None if hello else message, trace=trace)
        if self.shaper is not None and not hello:
            # The netem seam: one send becomes zero, one, or two
            # deliveries, each delayed on the event loop.  Per-send
            # tasks make delayed frames genuinely overtake each other
            # (reordering) like a real lossy path.
            plan = self.shaper.plan(self.node_id, dst, len(frame),
                                    self.loop.time() * 1000.0)
            if not plan:
                self.frames_dropped += 1
                if self.instruments.enabled:
                    self.instruments.frame_dropped()
                return
            for extra in plan[1:]:  # duplicated copies ride alone
                self._spawn_copy(dst, frame, extra)
            if plan[0] > 0.0:
                await asyncio.sleep(plan[0] / 1000.0)
            if self._closed:
                return
        await self._write_frame(dst, frame)

    def _spawn_copy(self, dst: str, frame: bytes,
                    delay_ms: float) -> None:
        """Schedule a duplicated frame as its own send task."""

        async def copy() -> None:
            if delay_ms > 0.0:
                await asyncio.sleep(delay_ms / 1000.0)
            if not self._closed:
                await self._write_frame(dst, frame)

        task = self.loop.create_task(copy())
        self._send_tasks.add(task)
        task.add_done_callback(self._send_tasks.discard)

    async def _write_frame(self, dst: str, frame: bytes) -> None:
        try:
            writer = await self._writer_for(dst)
            writer.write(_HEADER.pack(len(frame)) + frame)
            await writer.drain()
            self.frames_sent += 1
            if self.instruments.enabled:
                self.instruments.frame_sent()
        except (ConnectionError, OSError):
            # Quasi-reliable network: a dead peer just loses messages;
            # protocol timeouts recover.  Drop the cached writer so the
            # next send re-dials.
            self._writers.pop(dst, None)

    async def _writer_for(self, dst: str) -> asyncio.StreamWriter:
        lock = self._dial_locks.setdefault(dst, asyncio.Lock())
        async with lock:
            writer = self._writers.get(dst)
            if writer is not None and not writer.is_closing():
                return writer
            host, port = self.addresses[dst]
            _, writer = await asyncio.open_connection(host, port)
            self._writers[dst] = writer
            return writer


class AsyncioCluster:
    """Convenience wrapper: a full protocol deployment on localhost.

    Registry-driven exactly like the simulator's cluster builder: any
    protocol registered in :mod:`repro.protocols.registry` deploys on
    real sockets with no per-protocol branching here.

    >>> cluster = AsyncioCluster(protocol="pbft", num_replicas=4)
    >>> await cluster.start()
    >>> client = await cluster.add_client("c0")
    >>> result = await cluster.request(client, "put", "k", "v")

    ``base_port=0`` (the default) binds every node to an OS-assigned
    port, so concurrent clusters never collide; pass a fixed base port
    only when peers outside this process need predictable addresses.
    ``config_overrides`` are forwarded to :class:`ProtocolConfig`
    (timeouts, ``checkpoint_interval``, ``batch_size``, ...).

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
    matching.
    """

    BASE_PORT = 41200

    def __init__(self, protocol: str = "ezbft",
                 num_replicas: int = 4,
                 host: str = "127.0.0.1",
                 base_port: int = 0,
                 statemachine_factory: Optional[Callable[[], Any]] = None,
                 host_map: Optional[Dict[str, Any]] = None,
                 start_replicas: Optional[Tuple[str, ...]] = None,
                 regions: Optional[Dict[str, str]] = None,
                 netem: Optional[Any] = None,
                 netem_seed: int = 0,
                 **config_overrides: Any) -> None:
        from repro.config import ProtocolConfig
        from repro.crypto.keys import KeyRegistry
        from repro.protocols.registry import get_protocol
        from repro.statemachine.kvstore import KVStore

        self.protocol = protocol
        self.spec = get_protocol(protocol)
        self.host = host
        self.statemachine_factory = statemachine_factory or KVStore
        self.replica_ids = tuple(f"r{i}" for i in range(num_replicas))
        defaults: Dict[str, Any] = dict(
            slow_path_timeout=300.0, retry_timeout=2000.0,
            suspicion_timeout=1000.0, view_change_timeout=2000.0)
        defaults.update(config_overrides)
        self.config = ProtocolConfig(
            replica_ids=self.replica_ids, **defaults)
        self.registry = KeyRegistry()
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
        #: Node id -> region label (netem rule matching only; TCP has
        #: no latency matrix).
        self.regions: Dict[str, str] = dict(regions or {})
        #: With remote peers, unknown/unlearned destinations drop like
        #: a quasi-reliable network instead of raising.
        self._strict = not self.host_map
        self.shaper: Optional[Any] = None
        if netem is not None:
            from repro.netem import LinkShaper
            self.shaper = LinkShaper(netem, seed=netem_seed,
                                     region_of=self.regions.get)
        self._next_port = base_port + num_replicas if base_port else 0
        self.nodes: Dict[str, AsyncioNode] = {}
        self.replicas: Dict[str, Any] = {}
        self.clients: Dict[str, Any] = {}

    def _wiring(self, target_replica: Optional[str] = None):
        from repro.protocols.registry import WiringContext
        from repro.statemachine.interference import KVInterference

        return WiringContext(
            config=self.config,
            primary_index=0,
            interference=KVInterference(),
            target_replica=target_replica,
        )

    async def start(self) -> None:
        wiring = self._wiring()
        for rid in self.start_replicas:
            node = AsyncioNode(rid, self.addresses[rid], self.addresses,
                               shaper=self.shaper,
                               strict_destinations=self._strict)
            # Key seeds are deterministic, so every process of a
            # multi-machine deployment derives the same registry.
            keypair = self.registry.create(rid, seed=b"tcp-demo")
            replica = self.spec.replica_cls(
                rid, self.config, node.context(), keypair,
                self.registry,
                statemachine=self.statemachine_factory(),
                **self.spec.replica_kwargs(wiring))
            node.handler = replica.on_message
            await node.start()
            self.nodes[rid] = node
            self.replicas[rid] = replica
        for rid in self.remote_replica_ids:
            # Remote replicas still need registry entries so local
            # nodes can verify their signatures.
            self.registry.create(rid, seed=b"tcp-demo")

    async def add_client(self, client_id: str,
                         target_replica: Optional[str] = None,
                         region: Optional[str] = None):
        address = (self.host, self._next_port)
        if self._next_port:
            self._next_port += 1
        self.addresses[client_id] = address
        if region is not None:
            self.regions[client_id] = region
        node = AsyncioNode(client_id, address, self.addresses,
                           shaper=self.shaper,
                           strict_destinations=self._strict)
        keypair = self.registry.create(client_id, seed=b"tcp-demo")
        wiring = self._wiring(
            target_replica=target_replica or self.replica_ids[0])
        client = self.spec.client_cls(
            client_id, self.config, node.context(), keypair,
            self.registry, **self.spec.client_kwargs(wiring))
        node.handler = client.on_message
        await node.start()
        self.nodes[client_id] = node
        self.clients[client_id] = client
        return client

    def attach_shaper(self, shaper: Any) -> None:
        """Install (or replace) the netem seam on every node, live.
        Fault injectors use this to materialize a shaper lazily when a
        chaos event fires on a scenario that declared no profile."""
        self.shaper = shaper
        for node in self.nodes.values():
            node.shaper = shaper

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
