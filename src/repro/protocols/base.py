"""The request lifecycle the primary-based baselines share.

PBFT, FaB and Zyzzyva differ only in how they order requests.  Around
the ordering, :class:`BaseReplica` holds the exactly-once ingress rule,
forwarding to the primary and the execute-and-reply step, and
:class:`BaseClient` the pending table, retries, delivery and the f+1
reply collector.  Executed idents are the ezBFT executor's
:class:`~repro.core.executor.ExecutedIdents` (clients pipeline, so an
older timestamp may be unseen rather than stale): ingress drops only
executed idents, and execution applies an ident at most once.

Every baseline checkpoints as PBFT does (Zyzzyva's own protocol is
PBFT's): it attests every ``checkpoint_interval`` executed slots with an
EZCHECKPOINT, and a stable one drops the slots and executed record below
it.  They order totally, so a count cut is consistent.  There is no state
transfer, nor FILL-HOLE below the primary's cut: a laggard stays behind.

Both are :class:`~repro.cluster.node.Node` subclasses: a handler sees
only an envelope its payload's author signed, a replica if the message
is replica-authored.  The one role a handler still checks is the view's
primary (:meth:`BaseReplica._from_primary`: an ordering message names
no author, so it must be signed by the view's primary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.cluster.node import Node, NodeContext, Timer, note_accepted
from repro.config import ProtocolConfig
from repro.core.executor import CommandIdent, ExecutedIdents
from repro.crypto.digest import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.errors import ProtocolError
from repro.messages.base import SignedPayload, authentic_payload
from repro.messages.ezbft import EzCheckpoint
from repro.obs.instruments import NULL
from repro.statemachine.base import Command, StateMachine
from repro.statemachine.checkpoint import Checkpoint, CheckpointStore

#: Delivery callback shared by all protocol clients:
#: (command, result, latency_ms, path).
DeliveryCallback = Callable[[Command, Any, float, str], None]


class BaseReplica(Node):
    """Common replica state, request lifecycle and checkpoints; a
    subclass supplies :meth:`_order`, per executed slot its reply
    message, its handler tables (EZCHECKPOINT's is :meth:`_on_checkpoint`)
    and ``_slots``, seqno -> slot with an ``executed`` flag."""

    #: Observability seam: the shared no-op singleton by default;
    #: ``repro serve`` swaps in a live registry-backed instrument set.
    instruments = NULL
    #: Commit path counted (``stats["committed_<path>"]``) per
    #: executed slot.
    commit_path = "fast"
    #: A backup forwarding a request arms a timer that calls
    #: :meth:`_suspect_primary` unless the request gets ordered.
    progress_timers = False
    counts_invalid = True

    def __init__(self, node_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry, statemachine: StateMachine,
                 initial_view: int = 0) -> None:
        if node_id not in config.replica_ids:
            raise ProtocolError(f"{node_id!r} not in replica set")
        self.node_id = node_id
        self.config = config
        self.ctx = ctx
        self.keypair = keypair
        self.registry = registry
        self.statemachine = statemachine
        self.view = initial_view
        self.executed_idents = ExecutedIdents()
        #: Per client: (timestamp, signed reply) of its latest execution.
        self._reply_cache: Dict[str, Tuple[int, SignedPayload]] = {}
        #: Request digest -> progress timer.
        self._request_timers: Dict[str, Timer] = {}
        self.checkpoints = CheckpointStore(
            quorum=config.slow_quorum_size,
            interval=config.checkpoint_interval)
        self.stats: Dict[str, int] = {
            "executed": 0,
            "committed_" + self.commit_path: 0,
            "invalid_messages": 0,
            "checkpoints": 0,
            "checkpoints_stable": 0,
        }

    @property
    def primary(self) -> str:
        return self.config.primary_for_view(self.view)

    @property
    def is_primary(self) -> bool:
        return self.primary == self.node_id

    def sign(self, payload: Any) -> SignedPayload:
        return SignedPayload.create(payload, self.keypair)

    def broadcast_others(self, message: Any) -> None:
        self.ctx.broadcast(self.config.others(self.node_id), message)

    def footprint(self) -> Dict[str, int]:
        """Sizes of the resident log structures: the slot table."""
        return {"slots": len(self._slots)}

    def rejoin(self) -> None:
        """Back from a crash: nothing to do.  A primary-based baseline
        catches up from the primary's next ordering messages and its
        view changes; only ezBFT asks its peers (``EzBFTReplica``)."""

    # ------------------------------------------------------------------
    def _on_request(self, sender: str, request: Any,
                    envelope: SignedPayload) -> None:
        """A client's request: the primary orders it, a backup forwards
        it to the primary."""
        if not self._admit(request.command):
            return
        if self.is_primary:
            self._order(request)
            return
        self.ctx.send(self.primary, envelope)
        if self.progress_timers:
            key = digest(request)
            if key not in self._request_timers:
                self._request_timers[key] = self.ctx.set_timer(
                    self.config.view_change_timeout,
                    self._on_progress_timeout, key)

    def _admit(self, command: Command) -> bool:
        """Ingress: an executed command is answered from the reply cache
        (if it still holds it) and goes no further."""
        if command.ident in self.executed_idents:
            self._resend_reply(command.ident)
            return False
        return True

    def _order(self, request: Any) -> None:
        raise NotImplementedError

    def _from_primary(self, signer: str, view: int, request: Any,
                      request_digest: str) -> bool:
        """An ordering message counts only in the current view, signed
        by its primary, with the digest of the request it carries."""
        if view != self.view:
            return False
        if signer != self.primary or digest(request) != request_digest:
            self.stats["invalid_messages"] += 1
            return False
        return True

    def _vote_proof_holds(self, proof: Iterable[Any], vote_cls: Any,
                          for_view: Callable[[Any], bool]) -> bool:
        """A view change's proof: 2f+1 ``vote_cls`` votes from distinct
        replicas, each ``for_view`` and checked as the envelope it
        is."""
        voters = set()
        for envelope in proof:
            vote = authentic_payload(envelope, vote_cls, self.registry)
            if vote is None or not for_view(vote):
                return False
            voters.add(vote.replica)
        return len(voters) >= self.config.slow_quorum_size

    def _resend_reply(self, ident: CommandIdent) -> None:
        client, timestamp = ident
        cached = self._reply_cache.get(client)
        if cached is not None and cached[0] == timestamp:
            self.ctx.send(client, cached[1])

    def _execute_and_reply(self, command: Command,
                           reply_for: Callable[[Any], Any]) -> None:
        """Execute the next ordered slot, holding ``command``, and send
        its client the signed ``reply_for(result)``.  A command ordered
        twice (its retry reached the primary before it executed) uses
        up its second slot without being applied again; the slot still
        counts towards the next checkpoint."""
        self.stats["executed"] += 1
        self.stats["committed_" + self.commit_path] += 1
        self.instruments.execute()
        ident = command.ident
        if ident in self.executed_idents:
            self._resend_reply(ident)
        else:
            result = self.statemachine.apply(command)
            self.executed_idents.record(ident)
            envelope = self.sign(reply_for(result))
            self._reply_cache[command.client_id] = (command.timestamp,
                                                    envelope)
            self.ctx.send(command.client_id, envelope)
        self._maybe_checkpoint()

    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        """Every ``checkpoint_interval`` executed slots: capture the
        state, mark the executed record and attest the capture."""
        executed = self.stats["executed"]
        if not self.checkpoints.due(executed):
            return
        checkpoint = Checkpoint.capture(
            executed, {"state": self.statemachine.snapshot()})
        self.statemachine.record.mark(executed)
        self.checkpoints.record_local(checkpoint, self.node_id)
        self.stats["checkpoints"] += 1
        msg = EzCheckpoint(replica=self.node_id, watermark=executed,
                           state_digest=checkpoint.state_digest)
        self.broadcast_others(self.sign(msg))

    def _on_checkpoint(self, sender: str, msg: EzCheckpoint,
                       envelope: SignedPayload) -> None:
        if self.checkpoints.attest(msg.watermark, msg.state_digest,
                                   msg.replica):
            self.stats["checkpoints_stable"] += 1
            self._gc_log(msg.watermark)
            self.statemachine.record.cut(msg.watermark)

    def _gc_log(self, stable_watermark: int) -> None:
        """Drop the slots below a stable checkpoint: each was executed
        here before the capture, or reopened since by a late vote."""
        for seqno in [s for s in self._slots if s < stable_watermark - 1]:
            del self._slots[seqno]

    # ------------------------------------------------------------------
    def _on_progress_timeout(self, request_key: str) -> None:
        self._request_timers.pop(request_key, None)
        self._suspect_primary()

    def _suspect_primary(self) -> None:
        raise NotImplementedError

    def _cancel_progress_timer(self, request_digest: Optional[str]) -> None:
        timer = self._request_timers.pop(request_digest, None)
        if timer is not None:
            timer.cancel()

    def _adopt_view(self, new_view: int) -> None:
        self.view = new_view
        for timer in self._request_timers.values():
            timer.cancel()
        self._request_timers.clear()


@dataclass
class PendingRequest:
    """One in-flight command on a client; it leaves the client's table
    when delivered."""

    command: Command
    start_time: float
    #: Replica -> its reply (the protocol decides what a reply is).
    replies: Dict[str, Any] = field(default_factory=dict)
    retry_timer: Optional[Timer] = None

    def cancel_timers(self) -> None:
        if self.retry_timer is not None:
            self.retry_timer.cancel()


class BaseClient(Node):
    """Common client state and request lifecycle; a subclass names its
    request message and delivery path, and files its reply under
    :meth:`_on_reply` (the f+1 collector) or under a completion rule
    of its own that ends in :meth:`_deliver`."""

    #: Signed request carrying one command.
    request_cls: Any = None
    #: Delivery path reported for an f+1 reply quorum.
    path = ""
    pending_cls = PendingRequest
    #: Protocol-specific counters, added to :attr:`stats` at zero.
    extra_stats: Tuple[str, ...] = ()

    def __init__(self, client_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry,
                 initial_view: int = 0,
                 on_delivery: Optional[DeliveryCallback] = None) -> None:
        self.client_id = client_id
        self.config = config
        self.ctx = ctx
        self.keypair = keypair
        self.registry = registry
        self.view = initial_view
        self.on_delivery = on_delivery
        self._next_timestamp = 1
        self._pending: Dict[CommandIdent, PendingRequest] = {}
        #: The result this client accepted for each command, at index
        #: timestamp - 1 (``note_accepted``).
        self.accepted: List[Any] = []
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "delivered": 0,
            "retries": 0,
        }
        self.stats.update(dict.fromkeys(self.extra_stats, 0))

    @property
    def primary(self) -> str:
        return self.config.primary_for_view(self.view)

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def next_command(self, op: str, key: str = "",
                     value: Any = None) -> Command:
        command = Command(client_id=self.client_id,
                          timestamp=self._next_timestamp,
                          op=op, key=key, value=value)
        self._next_timestamp += 1
        return command

    def sign(self, payload: Any) -> SignedPayload:
        return SignedPayload.create(payload, self.keypair)

    # ------------------------------------------------------------------
    def submit(self, command: Command) -> None:
        self._register_pending(command)
        self.ctx.send(self.primary,
                      self.sign(self.request_cls(command=command)))

    def submit_batch(self, commands) -> None:
        """One :meth:`submit` per command, unless the protocol has a
        batched request message."""
        for command in commands:
            self.submit(command)

    def _register_pending(self, command: Command) -> None:
        pending = self.pending_cls(command=command, start_time=self.ctx.now)
        self._pending[command.ident] = pending
        self.stats["submitted"] += 1
        self._start_attempt(pending)

    def _start_attempt(self, pending: PendingRequest) -> None:
        """Arm the timers of one (re)send of ``pending``."""
        pending.retry_timer = self.ctx.set_timer(
            self.config.retry_timeout, self._on_retry,
            pending.command.ident)

    def _on_retry(self, ident: CommandIdent) -> None:
        pending = self._pending.get(ident)
        if pending is None:
            return
        self.stats["retries"] += 1
        # Broadcast to every replica; backups answer from their reply
        # cache or forward to the primary.
        self.ctx.broadcast(self.config.replica_ids, self.sign(
            self.request_cls(command=pending.command)))
        self._start_attempt(pending)

    # ------------------------------------------------------------------
    def _on_reply(self, sender: str, reply: Any,
                  envelope: SignedPayload) -> None:
        pending = self._pending.get((reply.client_id, reply.timestamp))
        if pending is not None:
            self._count_reply(pending, reply)

    def _count_reply(self, pending: PendingRequest, reply: Any) -> None:
        """Deliver once f+1 replicas report the same result."""
        pending.replies[reply.replica] = reply
        by_result: Dict[str, list] = {}
        for rep in pending.replies.values():
            by_result.setdefault(repr(rep.result), []).append(rep)
        for group in by_result.values():
            if len(group) >= self.config.weak_quorum_size:
                self._deliver(pending, group[0].result, self.path)
                return

    def _deliver(self, pending: PendingRequest, result: Any,
                 path: str) -> None:
        pending.cancel_timers()
        latency = self.ctx.now - pending.start_time
        self.stats["delivered"] += 1
        del self._pending[pending.command.ident]
        note_accepted(self.accepted, pending.command.timestamp, result)
        if self.on_delivery is not None:
            self.on_delivery(pending.command, result, latency, path)
