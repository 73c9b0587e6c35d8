"""The request lifecycle and view change the primary-based baselines
share, and the client lifecycle every protocol shares.

PBFT, FaB and Zyzzyva differ only in how they order requests.  Around
the ordering, :class:`BaseReplica` holds the exactly-once ingress rule,
forwarding to the primary, the execute-and-reply step, checkpoints and
the view change.  :class:`BaseClient` is every client, ezBFT's too: one
signed REQUEST (:class:`~repro.messages.ezbft.Request`), the pending
table, submission, retries and delivery; for the baselines also view
tracking and the f+1 reply collector.  Executed idents are
the ezBFT executor's :class:`~repro.core.executor.ExecutedIdents`
(clients pipeline, so an older timestamp may be unseen rather than
stale): ingress drops only executed idents, and execution applies an
ident at most once.

Every baseline checkpoints as PBFT does (Zyzzyva's own protocol is
PBFT's): it attests every ``checkpoint_interval`` executed slots with a
signed EZCHECKPOINT, and a stable one -- with its 2f+1 attestations as
``checkpoints.stable_proof`` -- drops the slots and executed record below
it.  They order totally, so a count cut is consistent.  There is no state
transfer, nor FILL-HOLE below the primary's cut: a laggard stays behind.

Every baseline changes view as PBFT does.  A progress timeout or an
equivocating primary makes a replica send a VIEW-CHANGE -- its stable
checkpoint's proof and, per seqno above it, the protocol's certificate
for the slot -- and stop ordering; f+1 of them for a view make it join.
The new primary sends 2f+1 with the orders of the re-issue set
(:func:`reissue_set`) they determine, which every backup recomputes.

Both are :class:`~repro.cluster.node.Node` subclasses: a handler sees
only an envelope its payload's author signed, a replica if the message
is replica-authored, and an ordering message or NEW-VIEW only if the
primary of the view it names signed it (its class's ``ROLE``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro.cluster.node import Node, NodeContext, Timer, note_accepted
from repro.config import ProtocolConfig
from repro.core.checkpointing import checkpoint_proof
from repro.core.executor import CommandIdent, ExecutedIdents
from repro.crypto.digest import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.errors import ProtocolError
from repro.messages.base import SignedPayload, authentic_payload
from repro.messages.batching import BatchRequest
from repro.messages.ezbft import EzCheckpoint, Request
from repro.messages.pbft import NewView, ViewChange
from repro.obs.instruments import NULL
from repro.statemachine.base import Command, StateMachine
from repro.statemachine.checkpoint import Checkpoint, CheckpointStore

#: Delivery callback shared by all protocol clients:
#: (command, result, latency_ms, path).
DeliveryCallback = Callable[[Command, Any, float, str], None]
#: A checked VIEW-CHANGE: the stable watermark its checkpoint proves and,
#: per certificate, the ordering message it certifies and how many
#: VIEW-CHANGEs must report that order for it to stand (1: it stands
#: alone).
CheckedVote = Tuple[int, List[Tuple[Any, int]]]


def reissue_set(votes: Iterable[CheckedVote]
                ) -> Optional[Tuple[int, Dict[int, Any]]]:
    """PBFT's NEW-VIEW rule over 2f+1 checked VIEW-CHANGEs: the highest
    stable watermark ``low`` and, per seqno from it to the highest
    reported one, the request of the highest-view order that stands
    (reported by as many distinct VIEW-CHANGEs as it needs); failing
    one, the request every report there names; failing a report,
    ``None``, a null request, which uses up its slot.  Reports naming
    different requests with no standing order among them leave the set
    undetermined: ``None`` for the whole (these votes make no
    NEW-VIEW)."""
    votes = list(votes)
    low = max(stable for stable, _ in votes)
    voters: Dict[Tuple[int, int, str], Set[int]] = {}
    needs: Dict[Tuple[int, int, str], int] = {}
    requests: Dict[int, Dict[str, Any]] = {}
    for index, (_, entries) in enumerate(votes):
        for order, need in entries:
            if order.seqno >= low:
                key = (order.seqno, order.view, digest(order.request))
                voters.setdefault(key, set()).add(index)
                needs[key] = min(need, needs.get(key, need))
                requests.setdefault(order.seqno, {})[key[2]] = order.request
    standing: Dict[int, Any] = {}  # the highest-ranked standing order last
    for seqno, _, d in sorted((k for k in needs if len(voters[k]) >= needs[k]),
                              key=lambda k: (k[1], -needs[k], k[2])):
        standing[seqno] = requests[seqno][d]
    reissue: Dict[int, Any] = {}
    for seqno in range(low, max(requests, default=low - 1) + 1):
        named = list(requests.get(seqno, {}).values())
        if seqno not in standing and len(named) > 1:
            return None
        reissue[seqno] = standing.get(seqno, named[0] if named else None)
    return low, reissue


class BaseReplica(Node):
    """Common replica state, request lifecycle, checkpoints and view
    change; a subclass supplies :meth:`_order`, :meth:`_order_at` and
    ``order_cls``, per executed slot its reply message, the certificate
    check :meth:`_certified`, its handler tables (extending
    ``BaseReplica._SIGNED_HANDLERS``) and ``_slots``, seqno -> slot
    whose ``envelope`` is the signed order it holds, if any, and whose
    ``certificate`` is what a VIEW-CHANGE reports for it."""

    #: Observability seam: the shared no-op singleton by default;
    #: ``repro serve`` swaps in a live registry-backed instrument set.
    instruments = NULL
    #: Commit path counted (``stats["committed_<path>"]``) per
    #: executed slot.
    commit_path = "fast"
    counts_invalid = True
    #: The ordering message the view's primary signs (PRE-PREPARE,
    #: ORDER-REQ, PROPOSE).
    order_cls: Any = None

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
        #: The view we are moving to: above ``view`` from our
        #: VIEW-CHANGE until a NEW-VIEW installs; we order nothing then.
        self._target_view = initial_view
        #: View -> replica -> (its signed VIEW-CHANGE, the vote checked).
        self._view_change_votes: Dict[int, Dict[str, Tuple[
            SignedPayload, CheckedVote]]] = {}
        self._next_seqno = 0  # the primary's allocator
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
            "view_changes": 0,
        }

    @property
    def primary(self) -> str:
        return self.config.replica_at(self.view)

    @property
    def is_primary(self) -> bool:
        return self.primary == self.node_id

    @property
    def _view_changing(self) -> bool:
        return self._target_view > self.view

    def sign(self, payload: Any) -> SignedPayload:
        return SignedPayload.create(payload, self.keypair)

    def broadcast_others(self, message: Any) -> None:
        self.ctx.broadcast(self.config.others(self.node_id), message)

    def footprint(self) -> Dict[str, int]:
        """Sizes of the resident log structures: the slot table."""
        return {"slots": len(self._slots)}

    def rejoin(self) -> None:
        """Back from a crash: nothing, yet.  A primary-based baseline has
        no state transfer, so a replica that missed slots while down
        never fills them and executes nothing after it recovers; only
        ezBFT asks its peers (``EzBFTReplica``)."""

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

    def _from_primary(self, view: int, request: Any,
                      request_digest: str) -> bool:
        """An ordering message (its view's primary signed it: ``ROLE``)
        counts only in the current view, while we are not leaving it,
        with the digest of the request it carries."""
        if view != self.view or self._view_changing:
            return False
        if digest(request) != request_digest:
            self.stats["invalid_messages"] += 1
            return False
        return True

    def _resend_reply(self, ident: CommandIdent) -> None:
        client, timestamp = ident
        cached = self._reply_cache.get(client)
        if cached is not None and cached[0] == timestamp:
            self.ctx.send(client, cached[1])

    def _execute_and_reply(self, command: Optional[Command],
                           reply_for: Callable[[Any], Any]) -> None:
        """Execute the next ordered slot, holding ``command``, and send
        its client the signed ``reply_for(result)``.  A command ordered
        twice (its retry reached the primary before it executed) uses
        up its second slot without being applied again, as a null
        request (``None``) does; the slot still counts towards the next
        checkpoint."""
        self.stats["executed"] += 1
        self.stats["committed_" + self.commit_path] += 1
        self.instruments.execute()
        if command is None:
            pass  # a null request only uses up its slot
        elif command.ident in self.executed_idents:
            self._resend_reply(command.ident)
        else:
            result = self.statemachine.apply(command)
            self.executed_idents.record(command.ident)
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
        envelope = self.sign(EzCheckpoint(
            replica=self.node_id, watermark=executed,
            state_digest=checkpoint.state_digest))
        stable = self.checkpoints.record_local(checkpoint, self.node_id,
                                               envelope)
        self.stats["checkpoints"] += 1
        self.broadcast_others(envelope)
        if stable:
            # Peer attestations had already reached quorum before our
            # own capture.
            self._on_stable(executed)

    def _on_checkpoint(self, sender: str, msg: EzCheckpoint,
                       envelope: SignedPayload) -> None:
        if self.checkpoints.attest(msg.watermark, msg.state_digest,
                                   msg.replica, envelope):
            self._on_stable(msg.watermark)

    def _on_stable(self, watermark: int) -> None:
        """Our checkpoint at ``watermark`` became stable: drop the log
        and executed record below it."""
        self.stats["checkpoints_stable"] += 1
        self._gc_log(watermark)
        self.statemachine.record.cut(watermark)

    def _gc_log(self, stable_watermark: int) -> None:
        """Drop the slots below a stable checkpoint: each was executed
        here before the capture, or reopened since by a late vote."""
        for seqno in [s for s in self._slots if s < stable_watermark - 1]:
            del self._slots[seqno]

    # ------------------------------------------------------------------
    # View change
    # ------------------------------------------------------------------
    def _on_progress_timeout(self, request_key: str) -> None:
        self._request_timers.pop(request_key, None)
        self._suspect_primary()

    def _cancel_progress_timer(self, request_digest: Optional[str]) -> None:
        timer = self._request_timers.pop(request_digest, None)
        if timer is not None:
            timer.cancel()

    def _suspect_primary(self) -> None:
        """A progress timeout or an equivocating primary: ask for the
        view after the one we are in or already moving to."""
        self._start_view_change(self._target_view + 1)

    def _start_view_change(self, new_view: int) -> None:
        """Send our VIEW-CHANGE for ``new_view``: our stable checkpoint's
        proof and every certificate we hold above it."""
        if new_view <= self._target_view:
            return
        self._target_view = new_view
        self._cancel_request_timers()
        stable = self.checkpoints.stable
        low = stable.watermark if stable else 0
        certificates = (self._slots[seqno].certificate
                        for seqno in sorted(self._slots) if seqno >= low)
        vote = ViewChange(new_view=new_view,
                          checkpoint=self.checkpoints.stable_proof,
                          certificates=tuple(filter(None, certificates)),
                          replica=self.node_id)
        envelope = self.sign(vote)
        self.broadcast_others(envelope)
        self._on_view_change(self.node_id, vote, envelope)

    def _on_view_change(self, sender: str, vote: ViewChange,
                        envelope: SignedPayload) -> None:
        """Count a VIEW-CHANGE whose checkpoint proof and certificates
        hold: join its view at f+1, lead it at 2f+1 if it is ours."""
        if vote.new_view <= self.view:
            return
        checked = self._checked(vote)
        if checked is None:
            self.stats["invalid_messages"] += 1
            return
        votes = self._view_change_votes.setdefault(vote.new_view, {})
        votes[vote.replica] = (envelope, checked)
        if len(votes) >= self.config.weak_quorum_size:
            self._start_view_change(vote.new_view)
        if len(votes) >= self.config.slow_quorum_size and \
                self.view < vote.new_view == self._target_view and \
                self.config.replica_at(vote.new_view) == self.node_id:
            self._lead(vote.new_view, votes)

    def _checked(self, vote: ViewChange) -> Optional[CheckedVote]:
        """A VIEW-CHANGE's proven stable watermark and certified orders;
        ``None`` if its checkpoint proof or any certificate fails, or two
        certificates name one seqno (a vote reports a slot once)."""
        stable: Optional[Tuple[int, str]] = (0, "")
        if vote.checkpoint:
            stable = checkpoint_proof(vote.checkpoint, self.registry,
                                      self.config.slow_quorum_size)
        entries = [self._certified(c) if c else None
                   for c in vote.certificates]
        if stable is None or None in entries or \
                len({o.seqno for o, _ in entries}) < len(entries):
            return None
        return stable[0], entries

    def _lead(self, new_view: int, votes: Dict[str, Tuple[
            SignedPayload, CheckedVote]]) -> None:
        """Become the primary of ``new_view``: order again, in it, the
        re-issue set of the first 2f+1 collected VIEW-CHANGEs that
        determine one, and send it with them as proof; with none, wait
        for more."""
        for chosen in combinations(votes.values(),
                                   self.config.slow_quorum_size):
            determined = reissue_set(checked for _, checked in chosen)
            if determined is not None:
                break
        else:
            return
        low, reissue = determined
        self._adopt_view(new_view, low + len(reissue))
        orders = []
        for seqno, request in reissue.items():
            orders.append(self.sign(self._order_at(new_view, seqno,
                                                   request)))
            self._deliver_order(orders[-1])
        self.broadcast_others(self.sign(NewView(
            new_view=new_view, proof=tuple(e for e, _ in chosen),
            orders=tuple(orders), primary=self.node_id)))

    def _on_new_view(self, sender: str, msg: NewView,
                     envelope: SignedPayload) -> None:
        """Install a NEW-VIEW whose orders (authentic, so its view's
        primary's) are the re-issue set of its proof."""
        if msg.new_view <= self.view:
            return
        votes = [authentic_payload(e, ViewChange, self.registry)
                 for e in msg.proof]
        checked = {vote.replica: self._checked(vote) for vote in votes
                   if vote is not None and vote.new_view == msg.new_view}
        orders = [authentic_payload(e, self.order_cls, self.registry)
                  for e in msg.orders]
        if len(checked) < self.config.slow_quorum_size or \
                len(checked) < len(votes) or None in checked.values():
            self.stats["invalid_messages"] += 1
            return
        determined = reissue_set(checked.values())
        if determined is None or \
                [o and (o.seqno, o.view, o.request) for o in orders] != \
                [(s, msg.new_view, r) for s, r in determined[1].items()]:
            self.stats["invalid_messages"] += 1
            return
        self._adopt_view(msg.new_view, determined[0] + len(orders))
        for order in msg.orders:
            self._deliver_order(order)

    def _adopt_view(self, new_view: int, next_seqno: int) -> None:
        """Enter ``new_view`` (counted once per view moved to), the
        primary's allocator at ``next_seqno``.  An unexecuted slot from
        there on that holds an order holds one of an older view that
        nobody re-issued; one holding only votes keeps them (they may be
        the new view's, overtaking its NEW-VIEW)."""
        self.view = self._target_view = new_view
        self._next_seqno = next_seqno
        self.stats["view_changes"] += 1
        self._cancel_request_timers()
        self._view_change_votes = {
            v: votes for v, votes in self._view_change_votes.items()
            if v > new_view}
        floor = max(next_seqno, self.stats["executed"])
        for seqno in [s for s, slot in self._slots.items()
                      if s >= floor and slot.envelope is not None]:
            del self._slots[seqno]

    def _deliver_order(self, envelope: SignedPayload) -> None:
        """Hand a NEW-VIEW's signed order to our own handler for it."""
        self._SIGNED_HANDLERS[self.order_cls.MSG_TYPE](
            self, envelope.signer, envelope.payload, envelope)

    def _cancel_request_timers(self) -> None:
        for timer in self._request_timers.values():
            timer.cancel()
        self._request_timers.clear()

    # ------------------------------------------------------------------
    # The protocol's certificates
    # ------------------------------------------------------------------
    def _certified(self, certificate: Tuple[SignedPayload, ...]
                   ) -> Optional[Tuple[Any, int]]:
        """The order ``certificate`` certifies and how many VIEW-CHANGEs
        must report it for it to stand (see :func:`reissue_set`);
        ``None`` if it does not hold."""
        raise NotImplementedError

    def _order_at(self, view: int, seqno: int, request: Any) -> Any:
        """The order putting ``request`` (or ``None``) at ``seqno``."""
        raise NotImplementedError

    def _quorum_certifies(self, order: Any, votes: Iterable[Any],
                          vote_cls: Any) -> bool:
        """2f+1 authentic ``vote_cls`` votes from distinct replicas, each
        for ``order``'s view, seqno and request digest."""
        voters = set()
        for envelope in votes:
            vote = authentic_payload(envelope, vote_cls, self.registry)
            if vote is None or (vote.view, vote.seqno, vote.request_digest) \
                    != (order.view, order.seqno, order.request_digest):
                return False
            voters.add(envelope.signer)
        return len(voters) >= self.config.slow_quorum_size

    _SIGNED_HANDLERS = {
        EzCheckpoint.MSG_TYPE: _on_checkpoint,
        ViewChange.MSG_TYPE: _on_view_change,
        NewView.MSG_TYPE: _on_new_view,
    }


@dataclass
class PendingRequest:
    """One in-flight command on a client; it leaves the client's table
    when delivered."""

    command: Command
    start_time: float
    #: Replica -> its reply (the protocol decides what a reply is).
    replies: Dict[str, Any] = field(default_factory=dict)
    retry_timer: Optional[Timer] = None
    #: A speculative client's (ezBFT, Zyzzyva) fallback to its slow
    #: path.
    slow_timer: Optional[Timer] = None

    def cancel_timers(self) -> None:
        for timer in (self.slow_timer, self.retry_timer):
            if timer is not None:
                timer.cancel()


class BaseClient(Node):
    """Every protocol's client: its identity, pending table and submit
    -> deliver lifecycle.  A command is registered (its timers armed by
    :meth:`_start_attempt`), sent as a signed
    :class:`~repro.messages.ezbft.Request` -- a batch as one
    :class:`~repro.messages.batching.BatchRequest` where the protocol
    takes one (``batched_requests``) -- retried when its retry timer
    fires, and delivered once by :meth:`_deliver`.

    A primary-based subclass names its delivery path and files its
    reply, which names the replica's ``view``, under :meth:`_on_reply`,
    counted by the f+1 collector or by a completion rule of its own
    (:meth:`_count_reply`) that ends in :meth:`_deliver`.  ezBFT's
    client (:class:`~repro.core.client.EzBFTClient`) sends to a target
    replica instead of the primary and completes by its own paths."""

    #: Delivery path reported for an f+1 reply quorum.
    path = ""
    pending_cls = PendingRequest
    #: The counters in :attr:`stats`, from zero.  :meth:`_deliver`
    #: counts ``delivered`` and ``delivered_<path>`` if the client keeps
    #: them.
    stat_keys: Tuple[str, ...] = ("submitted", "delivered", "retries")
    #: Whether :meth:`submit_batch` sends a batch as one signed
    #: ``BatchRequest`` (the protocol's replicas take one) rather than
    #: one request per command.
    batched_requests = False

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
        self.stats: Dict[str, int] = dict.fromkeys(self.stat_keys, 0)

    @property
    def primary(self) -> str:
        return self.config.replica_at(self.view)

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def next_command(self, op: str, key: str = "",
                     value: Any = None) -> Command:
        """Build a command with the next exactly-once timestamp."""
        command = Command(client_id=self.client_id,
                          timestamp=self._next_timestamp,
                          op=op, key=key, value=value)
        self._next_timestamp += 1
        return command

    def sign(self, payload: Any) -> SignedPayload:
        return SignedPayload.create(payload, self.keypair)

    # ------------------------------------------------------------------
    def submit(self, command: Command) -> None:
        """Send ``command`` as a signed REQUEST."""
        pending = self._register_pending(command)
        self._send_request((pending,), self.sign(Request(command=command)))

    def submit_batch(self, commands: Iterable[Command]) -> None:
        """Submit several of this client's commands: under one signature
        as a ``BatchRequest`` if ``batched_requests``, else one
        :meth:`submit` each.  A batch of one degrades to :meth:`submit`.
        Each command keeps its own pending entry and timers, so retries
        are per command (singleton requests)."""
        commands = list(commands)
        for command in commands:
            # The whole batch, before any timer is armed.
            self._check_owner(command)
        if not self.batched_requests or len(commands) < 2:
            for command in commands:
                self.submit(command)
            return
        pendings = [self._register_pending(command) for command in commands]
        self.stats["batches_submitted"] += 1
        self._send_request(pendings, self.sign(
            BatchRequest(commands=tuple(commands))))

    def _send_request(self, pendings: Sequence[PendingRequest],
                      envelope: SignedPayload) -> None:
        """Send the first attempt of ``pendings``: to the primary."""
        self.ctx.send(self.primary, envelope)

    def _check_owner(self, command: Command) -> None:
        if command.client_id != self.client_id:
            raise ProtocolError("command does not belong to this client")

    def _register_pending(self, command: Command) -> PendingRequest:
        """Record ``command`` as in flight and arm its first attempt."""
        self._check_owner(command)
        pending = self.pending_cls(command=command, start_time=self.ctx.now)
        self._pending[command.ident] = pending
        self.stats["submitted"] += 1
        self._start_attempt(pending)
        return pending

    def _start_attempt(self, pending: PendingRequest) -> None:
        """Arm the timers of one (re)send of ``pending``."""
        pending.retry_timer = self.ctx.set_timer(
            self.config.retry_timeout, self._on_retry,
            pending.command.ident)

    def _on_retry(self, ident: CommandIdent) -> None:
        pending = self._pending.get(ident)
        if pending is not None:
            self._retry(pending)

    def _retry(self, pending: PendingRequest) -> None:
        """Broadcast the request to every replica; backups answer from
        their reply cache or forward it to the primary."""
        self.stats["retries"] += 1
        self.ctx.broadcast(self.config.replica_ids, self.sign(
            Request(command=pending.command)))
        self._start_attempt(pending)

    # ------------------------------------------------------------------
    def _on_reply(self, sender: str, reply: Any,
                  envelope: SignedPayload) -> None:
        """A reply to a pending command also names the replica's view:
        follow it, so a retry reaches the new primary after a change."""
        pending = self._pending.get((reply.client_id, reply.timestamp))
        if pending is not None:
            self.view = max(self.view, reply.view)
            self._count_reply(pending, reply, envelope)

    def _count_reply(self, pending: PendingRequest, reply: Any,
                     envelope: SignedPayload) -> None:
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
        """Close ``pending``: cancel its timers, drop it from the table,
        record ``result`` and hand it to ``on_delivery``."""
        pending.cancel_timers()
        latency = self.ctx.now - pending.start_time
        stats = self.stats
        for key in ("delivered", "delivered_" + path):
            if key in stats:
                stats[key] += 1
        del self._pending[pending.command.ident]
        note_accepted(self.accepted, pending.command.timestamp, result)
        if self.on_delivery is not None:
            self.on_delivery(pending.command, result, latency, path)
