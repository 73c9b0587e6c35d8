"""The ezBFT replica: every replica is a potential command-leader.

Implements paper Section IV: the fast-path proposal pipeline (steps 2-3),
speculative execution, slow-path commit handling (step 5.2), fast commits
(step 5.1), retried-request relaying (step 4.3) and proof-of-misbehavior
handling (step 4.4), and what an ezBFT checkpoint captures and drops.
Identity, signing and the checkpoint capture -> attest -> stable path
are :class:`~repro.protocols.base.Replica`'s, as for every protocol.
Three managers, each constructed with the replica, hold the rest:
owner changes (Section IV-E, :mod:`repro.core.owner_change`), catch-up
and state transfer (:mod:`repro.core.checkpointing`), durability
(:mod:`repro.core.recovery`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.node import NodeContext, Timer, dispatcher
from repro.config import ProtocolConfig
from repro.core.batching import RequestBatcher
from repro.core.checkpointing import CheckpointManager
from repro.core.executor import DependencyExecutor
from repro.core.instance import EntryStatus, InstanceSpace, LogEntry
from repro.core.owner_change import OwnerChangeManager
from repro.core.recovery import RecoveryManager
from repro.crypto.digest import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.messages.base import SignedPayload
from repro.messages.batching import BatchRequest, BatchSpecOrder
from repro.messages.ezbft import (
    BatchCommitFast,
    Commit,
    CommitFast,
    CommitReply,
    EzCheckpoint,
    NewOwner,
    OwnerChange,
    ProofOfMisbehavior,
    Request,
    ResendRequest,
    SpecOrder,
    SpecReply,
    SpecReplyBundle,
    StartOwnerChange,
    StateTransferReply,
    StateTransferRequest,
)
from repro.obs.instruments import NULL
from repro.protocols.base import Replica
from repro.statemachine.base import Command, StateMachine
from repro.statemachine.checkpoint import Checkpoint
from repro.statemachine.interference import InterferenceRelation
from repro.trace.context import trace_id_for
from repro.trace.span import (
    SPAN_EXEC_DEPWAIT,
    SPAN_OWNER_LEAD,
    SPAN_REPLICA_COMMIT,
    SPAN_REPLICA_VOTE,
)
from repro.trace.tracer import NULL_TRACER
from repro.types import InstanceID
from repro.wire import ints_exact


#: What ``_pending_spec_orders`` holds for a slot filled from its
#: COMMIT (or a catch-up) above the next expected slot, before its
#: SPECORDER was accepted: the drain steps over it when the gap closes.
_FILLED: Tuple[Any, Any] = (None, None)


class EzBFTReplica(Replica):
    """One ezBFT replica node.

    Parameters
    ----------
    node_id:
        This replica's identifier (must appear in ``config.replica_ids``).
    config:
        Shared membership/quorum/timeout configuration.
    ctx:
        Transport-agnostic environment (send, timers, clock).
    keypair / registry:
        Signing identity and the verification registry.
    statemachine:
        The replicated application (normally a
        :class:`repro.statemachine.KVStore`).
    interference:
        The command-interference relation used for dependency collection.
    """

    #: Observability seam: the shared no-op singleton by default;
    #: ``repro serve`` swaps in a live registry-backed instrument set.
    instruments = NULL
    #: Tracing seam, same discipline (see :mod:`repro.trace`): no-op
    #: singleton by default, swapped via :meth:`attach_tracer`; every
    #: span site guards on ``tracer.enabled``.
    tracer = NULL_TRACER
    #: Durability seam: ``None`` keeps every persistence hook one
    #: attribute test on the bench-gated hot path; ``repro serve
    #: --data-dir`` (and ``durable=true`` scenarios) attach a
    #: :class:`repro.storage.ReplicaStorage` via :meth:`attach_storage`.
    storage = None
    stat_keys = ("led", "batches_led", "spec_ordered", "committed_fast",
                 "committed_slow", "executed", "owner_changes_started",
                 "invalid_messages", "checkpoints", "checkpoints_stable",
                 "log_entries_gcd", "state_transfers_served",
                 "state_transfers_installed", "catch_ups_installed")
    #: The shared dispatcher, held in this class's own body (see
    #: :func:`~repro.cluster.node.dispatcher`).
    on_message = dispatcher()

    def __init__(self, node_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry, statemachine: StateMachine,
                 interference: InterferenceRelation) -> None:
        super().__init__(node_id, config, ctx, keypair, registry,
                         statemachine)
        self.interference = interference

        self.spaces: Dict[str, InstanceSpace] = {
            rid: InstanceSpace(rid, config.initial_owner_number(rid))
            for rid in config.replica_ids
        }
        self._log_index: Dict[InstanceID, LogEntry] = {}
        #: Dependency-collection index: index key (see
        #: :meth:`_index_key`) -> space owner -> that space's instances
        #: on the key, ascending by slot.  Every instance of
        #: ``_log_index`` sits in exactly one chain;
        #: :meth:`_index_entry` adds, :meth:`_truncate_space` trims.
        self._key_index: Dict[str, Dict[str, List[InstanceID]]] = {}
        #: Per client, the newest command timestamp :meth:`_index_entry`
        #: has ever indexed.  Truncation and slot rewrites never lower
        #: it, so a command above it was never logged here: the bound
        #: that lets :meth:`_find_entry_for_command` skip the chains
        #: for a fresh request.
        self._indexed_ts: Dict[str, int] = {}
        self.executor = DependencyExecutor(statemachine)
        #: A dep on an uncommitted *duplicate* instance -- one holding
        #: a command that already executed via its chosen instance --
        #: is satisfied; without this, a client retry that proposed the
        #: same command through a second leader leaves an orphan dep
        #: that blocks execution forever (exactly-once applies make
        #: the waiver safe; see DependencyExecutor.dep_waiver).
        self.executor.dep_waiver = self._duplicate_dep_waiver
        self.owner_changes = OwnerChangeManager(self)
        #: Owner-path batcher: requests this replica will lead are
        #: accumulated and flushed as one BATCHSPECORDER (pass-through
        #: when ``config.batch_size == 1``).
        self.batcher = RequestBatcher(
            batch_size=config.batch_size,
            batch_timeout_ms=config.batch_timeout_ms,
            flush_fn=self._flush_lead_queue,
            set_timer_fn=ctx.set_timer)

        #: Exactly-once bookkeeping (paper's "Nitpick" in step 2).
        self._client_ts: Dict[str, int] = {}
        self._client_reply_cache: Dict[
            str, Tuple[int, SpecReplyBundle]] = {}
        #: Open while a BATCHSPECORDER is being led or accepted:
        #: (client, id of the signed proposal) -> (proposal, signed
        #: SPECREPLY headers), flushed as one SpecReplyBundle per key
        #: so the batch ships once per client instead of once per
        #: command.  ``None`` sends each reply straight away.
        self._reply_outbox: Optional[Dict[
            Tuple[str, int],
            Tuple[SignedPayload, List[SignedPayload]]]] = None

        #: Tracing bookkeeping (both stay empty unless a tracer is
        #: attached): per instance, the commit event's context and the
        #: commit-time clock, consumed by :meth:`_trace_exec_parent`
        #: when the entry finally executes; per command ident, the
        #: client's wire context, stashed at enqueue because the
        #: batcher may lead well after the delivery that carried it.
        self._trace_slots: Dict[InstanceID, Tuple[Any, float]] = {}
        self._trace_requests: Dict[Tuple[str, int], Any] = {}

        #: SPECORDERs that arrived before their predecessor slot:
        #: (space owner, slot) -> (inner order, signed envelope).  The
        #: envelope may be a singleton SPECORDER or a BATCHSPECORDER
        #: covering the order.
        self._pending_spec_orders: Dict[
            Tuple[str, int], Tuple[SpecOrder, SignedPayload]] = {}
        #: Requests to lead that arrived while :meth:`rejoin` waits for
        #: a peer's answer; led (or dropped, if deposed) once it lands.
        self._held_requests: List[Request] = []
        #: Suspicion timers set after relaying a RESENDREQ (step 4.3):
        #: command digest -> (suspected replica, timer).
        self._suspicions: Dict[str, Tuple[str, Timer]] = {}
        #: Rolling per-space digest of our own proposal history (the
        #: SPECORDER ``log_digest`` field, maintained incrementally).
        self._space_chain: Dict[str, str] = {}

        #: Per-space contiguous-executed frontier cursor (see
        #: :meth:`_executed_frontier`).
        self._frontier_cursor: Dict[str, int] = {}
        self.checkpointing = CheckpointManager(self)
        self.executor.on_execute = self._on_entry_executed
        self.recovery = RecoveryManager(self)

    def footprint(self) -> Dict[str, int]:
        """Sizes of the resident log/execution structures."""
        executor = self.executor
        return {
            "log_entries": len(self._log_index),
            "space_slots": sum(len(s) for s in self.spaces.values()),
            "executed_instances": len(executor.executed),
            "history": len(self.statemachine.record.entries),
            "results": len(executor._results),
            "deferred": len(executor._deferred),
            "pending_spec_orders": len(self._pending_spec_orders),
        }

    # ------------------------------------------------------------------
    # Tracing seam
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer: Any) -> None:
        """Attach a live tracer (see :mod:`repro.trace`) to this
        replica and its executor, with the executor's ``exec.apply``
        spans parented through our commit-time context bookkeeping."""
        self.tracer = tracer
        self.executor.tracer = tracer
        self.executor.trace_node = self.node_id
        self.executor.trace_parent = self._trace_exec_parent

    # ------------------------------------------------------------------
    # Step 2: client request -> command-leader proposal
    # ------------------------------------------------------------------
    def _on_request(self, sender: str, request: Request,
                    envelope: SignedPayload) -> None:
        self._admit(request)

    def _on_batch_request(self, sender: str, batch: BatchRequest,
                          envelope: SignedPayload) -> None:
        """A client's batched submission: one signature, many commands,
        all the signer's own.  Each is admitted, in timestamp order,
        exactly as a singleton REQUEST would be."""
        for command in sorted(batch.commands, key=lambda c: c.timestamp):
            self._admit(Request(command=command))

    def _admit(self, request: Request) -> None:
        """The ingress rule for a client's (authenticated) request:
        answer a duplicate from what we hold, relay a retry meant for
        another replica, lead the rest."""
        client = request.client_id
        t = request.timestamp
        seen = t <= self._client_ts.get(client, -1)
        # Client retry broadcast (step 4.3), meant for another replica.
        relayed = request.original_replica not in (None, self.node_id)
        if seen or relayed:
            # An older timestamp is *not* necessarily stale: open-loop
            # clients pipeline many outstanding timestamps, so under
            # message loss a retry of t=5 can arrive after we led
            # t=25.  Only drop if we already ordered this command --
            # re-replying from its canonical instance (and
            # re-broadcasting the order if we led it) so every
            # replica's answer names the same instance; a genuinely
            # unseen command proceeds to the normal lead/relay path.
            # Execution stays exactly-once regardless -- the executor
            # dedups applies by (client, timestamp).
            entry = self._find_entry_for_command(request.command)
            if entry is not None and self._reaffirm_entry(entry):
                return
            # The instance is gone from the log (checkpoint GC), or
            # holds no SPECORDER to answer from (rebuilt by a NEWOWNER,
            # adopted from a COMMIT, installed by catch-up): the last
            # reply we sent is then the only answer left.
            cached = self._client_reply_cache.get(client)
            if seen and cached is not None and cached[0] == t:
                self.ctx.send(client, cached[1])
                return
            if entry is not None:
                return
        if relayed:
            self._relay_resend(request)
        else:
            self._enqueue_lead(request)

    def _enqueue_lead(self, request: Request) -> None:
        """Hand a request we will lead to the owner-path batcher (which
        passes straight through when batching is disabled)."""
        tracer = self.tracer
        if tracer.enabled:
            # The batcher may flush after this delivery returns, by
            # which time the client's wire context is gone -- stash it
            # per ident for :meth:`_lead` to pick up.  The
            # trace-id check matters for client-side BATCHREQUESTs:
            # one frame carries many commands but only the first
            # sampled command's context, and adopting it for the rest
            # would graft their spans onto the wrong trace.
            ctx = tracer.current()
            ident = request.command.ident
            if ctx is not None and ctx.trace_id == trace_id_for(*ident):
                self._trace_requests[ident] = ctx
        self.batcher.add(request)

    def _flush_lead_queue(self, requests: List[Request]) -> None:
        """Batcher flush: lead the accumulated requests.

        Duplicates that slipped in while queued (e.g. a client retry
        during the batch window) are dropped here, where the whole
        batch is visible.
        """
        fresh: List[Request] = []
        seen = set()
        for request in requests:
            ident = request.command.ident
            if ident in seen:
                continue
            seen.add(ident)
            if self._find_entry_for_command(request.command) is not None:
                continue
            fresh.append(request)
        if fresh:
            self._lead(fresh)

    def _lead(self, requests: List[Request]) -> None:
        """Become the command-leader for ``requests`` (paper step 2):
        allocate consecutive slots, speculatively execute, and
        broadcast the proposal -- the paper's signed SPECORDER for one
        request, one signed BATCHSPECORDER covering all of several (the
        step amortized)."""
        space = self.spaces[self.node_id]
        if space.frozen:
            # We were deposed by an owner change; we may no longer
            # propose.  The clients' retries will reach other replicas.
            return
        if self.checkpointing.rejoining:
            # Back from a crash: the cluster may have deposed us while
            # we were away, so lead only once a peer's answer says.
            self._held_requests.extend(requests)
            return
        tracer = self.tracer
        orders: List[SpecOrder] = []
        entries: List[LogEntry] = []
        spans: List[Any] = []
        for request in requests:
            command = request.command
            if tracer.enabled:
                # ``owner.lead``, parented at the client context stashed
                # at enqueue time.  No stash (unsampled trace, or a
                # command that rode another trace's frame) means no
                # span -- never guess a parent.
                spans.append(tracer.start_span(
                    SPAN_OWNER_LEAD, self.node_id,
                    parent=self._trace_requests.pop(command.ident, None)))
            # max(): leading a late retry of an older timestamp must
            # not lower the dedup watermark below newer commands.
            self._client_ts[command.client_id] = max(
                self._client_ts.get(command.client_id, -1),
                command.timestamp)
            slot = space.allocate_slot()
            instance = InstanceID(self.node_id, slot)
            deps = self._collect_deps(command, exclude=instance,
                                      leading=True)
            seq = 1 + self._max_dep_seq(deps)
            orders.append(SpecOrder(
                leader=self.node_id,
                owner_number=space.owner_number,
                instance=instance,
                command=command,
                deps=deps,
                seq=seq,
                log_digest=self._space_chain.get(self.node_id, ""),
                request_digest=digest(request),
            ))
            entry = LogEntry(instance=instance,
                             owner_number=space.owner_number,
                             command=command, deps=deps, seq=seq)
            # Install before processing the next request so later batch
            # members see dependencies on earlier ones.
            self._install_entry(entry)
            self._advance_space_digest(space, entry)
            space.expected_slot = slot + 1
            self._speculative_execute(entry)
            self.stats["led"] += 1
            entries.append(entry)
        batched = len(orders) > 1
        proposal: Any = orders[0]
        if batched:
            proposal = BatchSpecOrder(leader=self.node_id,
                                      owner_number=space.owner_number,
                                      orders=tuple(orders))
            self.stats["batches_led"] += 1
        signed = self.sign(proposal)
        for entry in entries:
            entry.spec_order = signed
        self._persist_entry(self.node_id, signed)
        # Traced: the broadcast and our own SPECREPLYs ride the first
        # sampled request's lead context, so every peer's vote span
        # parents under it (exact for one request; a documented
        # approximation for a batch).
        lead_ctx = next((span.context() for span in spans
                         if span is not None), None)
        if lead_ctx is not None:
            prev = tracer.set_current(lead_ctx)
        if batched:
            self._reply_outbox = {}
        try:
            self.broadcast_others(signed)
            for entry, order in zip(entries, orders):
                self._send_spec_reply(entry, signed,
                                      request_digest=order.request_digest)
        finally:
            if batched:
                self._flush_reply_outbox()
            if lead_ctx is not None:
                tracer.set_current(prev)
            for span in spans:
                tracer.end_span(span)

    def _relay_resend(self, request: Request) -> None:
        """Relay a retried request we hold no instance of to its
        original recipient and start a suspicion timer (step 4.3)."""
        ident_key = digest(request.command)
        resend = ResendRequest(request=request, forwarder=self.node_id)
        self.ctx.send(request.original_replica, resend)
        if ident_key not in self._suspicions:
            timer = self.ctx.set_timer(
                self.config.suspicion_timeout,
                self._on_suspicion_timeout, request.original_replica,
                ident_key)
            self._suspicions[ident_key] = \
                (request.original_replica, timer)

    def _on_suspicion_timeout(self, suspect: str, ident_key: str) -> None:
        self._suspicions.pop(ident_key, None)
        self.owner_changes.suspect(suspect)

    def _on_resend_request(self, sender: str, resend: ResendRequest,
                           envelope: None) -> None:
        """Original recipient's side of step 4.3."""
        if not ints_exact(resend):
            # Unsigned, so no envelope check ran on its command.
            self.stats["invalid_messages"] += 1
            return
        request = resend.request
        entry = self._find_entry_for_command(request.command)
        if entry is not None and entry.spec_order is not None:
            # Re-broadcast the original SPECORDER so the forwarder (and
            # anyone else who missed it) can make progress.
            self.broadcast_others(entry.spec_order)
            self._send_spec_reply(entry, entry.spec_order)
            return
        fresh = Request(command=request.command, original_replica=None)
        # Lead the embedded request as a direct submission.  It arrives
        # unsigned: nothing here proves its client sent it, and we cannot
        # sign for the client.  Carrying the client's signed envelope
        # instead is ROADMAP direction 1(b).
        self._lead([fresh])

    # ------------------------------------------------------------------
    # Step 3: SPECORDER -> speculative execution -> SPECREPLY
    # ------------------------------------------------------------------
    def _on_spec_order(self, sender: str, order: SpecOrder,
                       envelope: SignedPayload) -> None:
        self._accept_proposal(sender, order.instance.owner, (order,),
                              envelope)

    def _on_batch_spec_order(self, sender: str, batch: BatchSpecOrder,
                             envelope: SignedPayload) -> None:
        """An owner's batched proposal: verify once, accept each inner
        SPECORDER exactly as a singleton."""
        self._accept_proposal(
            sender, batch.leader,
            sorted(batch.orders, key=lambda o: o.instance.slot), envelope)

    def _accept_proposal(self, sender: str, owner: str,
                         orders: Sequence[SpecOrder],
                         envelope: SignedPayload) -> None:
        """Accept a signed proposal for ``owner``'s space -- a SPECORDER
        or a BATCHSPECORDER; ``orders`` is what it carries, ascending
        by slot.  The next expected slot is accepted and buffered
        successors drained behind it, a later one is buffered, an
        earlier one is a duplicate."""
        proposal = envelope.payload
        leader = proposal.leader
        space = self.spaces.get(owner)
        if space is None:
            self.stats["invalid_messages"] += 1
            return
        if space.frozen:
            return  # we committed to an owner change for this space
        if proposal.owner_number != space.owner_number:
            # Not the space's current owner number (its holder signed).
            self.stats["invalid_messages"] += 1
            return
        for order in orders:
            if order.leader != leader or \
                    order.instance.owner != owner or \
                    order.owner_number != proposal.owner_number:
                self.stats["invalid_messages"] += 1
                return
        if orders[-1].instance.slot < space.expected_slot:
            return  # nothing but duplicates
        self._persist_entry(sender, envelope)
        batched = len(orders) > 1
        if batched:
            self._reply_outbox = {}
        try:
            for order in orders:
                slot = order.instance.slot
                if slot > space.expected_slot:
                    # Out-of-order arrival; buffer until the gap fills.
                    # The paper validates I = maxI + 1; buffering
                    # (rather than rejecting) tolerates network jitter
                    # without spurious owner changes.
                    self._pending_spec_orders[(space.owner, slot)] = \
                        (order, envelope)
                elif slot == space.expected_slot:
                    self._accept_spec_order(order, envelope)
                    self._drain_pending(space)
        finally:
            if batched:
                self._flush_reply_outbox()

    def _drain_pending(self, space) -> None:
        """Accept any buffered successors now contiguous with the log."""
        while True:
            nxt = self._pending_spec_orders.pop(
                (space.owner, space.expected_slot), None)
            if nxt is None:
                break
            pending_order, pending_env = nxt
            if space.expected_slot in space:
                # Filled first (``_FILLED``, or a buffered order whose
                # COMMIT overtook it): accepting an order there would
                # downgrade the committed entry and run it twice.
                space.expected_slot += 1
                continue
            self._accept_spec_order(pending_order, pending_env)

    def _step_over_filled(self, space) -> None:
        """Move ``space`` past slots filled without their SPECORDER,
        dropping what is buffered for them, and accept what follows."""
        pending = self._pending_spec_orders
        while space.expected_slot in space:
            pending.pop((space.owner, space.expected_slot), None)
            space.expected_slot += 1
        if not space.frozen:
            self._drain_pending(space)

    def _put_filled(self, space, entry: LogEntry) -> None:
        """Install a committed ``entry`` whose SPECORDER we never
        accepted (adopted from a COMMIT, or from a catch-up); a slot
        above the next expected one is marked for the drain."""
        space.force_put(entry)
        self._index_entry(entry)
        slot = entry.instance.slot
        if slot > space.expected_slot:
            self._pending_spec_orders.setdefault((space.owner, slot),
                                                 _FILLED)

    def _accept_spec_order(self, order: SpecOrder,
                           envelope: SignedPayload) -> None:
        space = self.spaces[order.instance.owner]
        command = order.command
        tracer = self.tracer
        span = prev = None
        if tracer.enabled:
            # The vote span covers dep-merge, speculative execution and
            # signing our SPECREPLY header (sent inside the span when
            # unbatched, with its batch's bundle just after otherwise),
            # parented at the leader's wire context.
            span = tracer.start_span(SPAN_REPLICA_VOTE, self.node_id,
                                     parent=tracer.current())
            if span is not None:
                prev = tracer.set_current(span.context())
        try:
            # Merge the leader's dependencies with what we know locally
            # (paper: "updates the dependencies and sequence number
            # according to its log").
            local_deps = self._collect_deps(command, exclude=order.instance)
            merged = tuple(sorted(set(order.deps) | set(local_deps)))
            seq = max(order.seq, 1 + self._max_dep_seq(merged))
            entry = LogEntry(instance=order.instance,
                             owner_number=order.owner_number,
                             command=command, deps=merged, seq=seq,
                             spec_order=envelope)
            self._install_entry(entry)
            space.expected_slot = order.instance.slot + 1
            self._client_ts[command.client_id] = max(
                self._client_ts.get(command.client_id, -1),
                command.timestamp)
            self._speculative_execute(entry)
            self.stats["spec_ordered"] += 1
            self._send_spec_reply(entry, envelope,
                                  request_digest=order.request_digest)
            # A SPECORDER from the suspected replica resolves suspicion
            # for the command (paper step 4.3: the timer waits for the
            # original recipient's SPECORDER, not anyone else's).
            self._resolve_suspicion(command, order.leader)
        finally:
            if span is not None:
                tracer.set_current(prev)
                tracer.end_span(span)

    def _resolve_suspicion(self, command: Command, leader: str) -> None:
        if not self._suspicions:
            return  # the usual case: skip hashing the command
        key = digest(command)
        entry = self._suspicions.get(key)
        if entry is not None and entry[0] == leader:
            entry[1].cancel()
            del self._suspicions[key]

    def _send_spec_reply(self, entry: LogEntry,
                         signed_order: SignedPayload,
                         request_digest: Optional[str] = None) -> None:
        """Sign the SPECREPLY header for ``entry`` and send it with
        ``signed_order`` beside it (a :class:`SpecReplyBundle`) -- at
        once, or with the rest of its batch when an outbox is open."""
        if request_digest is None:
            request_digest = self._request_digest_for(entry, signed_order)
        reply = SpecReply(
            replica=self.node_id,
            owner_number=entry.owner_number,
            instance=entry.instance,
            deps=entry.deps,
            seq=entry.seq,
            request_digest=request_digest,
            client_id=entry.command.client_id,
            timestamp=entry.command.timestamp,
            result=entry.spec_result,
        )
        header = self.sign(reply)
        client = entry.command.client_id
        outbox = self._reply_outbox
        if outbox is None:
            self._send_reply_bundle(client, (header,), signed_order)
            return
        outbox.setdefault((client, id(signed_order)),
                          (signed_order, []))[1].append(header)

    def _send_reply_bundle(self, client: str,
                           headers: Tuple[SignedPayload, ...],
                           signed_order: SignedPayload) -> None:
        bundle = SpecReplyBundle(replies=headers, spec_order=signed_order)
        self._client_reply_cache[client] = \
            (headers[-1].payload.timestamp, bundle)
        self.ctx.send(client, bundle)

    def _flush_reply_outbox(self) -> None:
        """Close the outbox: one bundle per (client, proposal).  Traced,
        the bundles ride the context the batch itself rode -- the lead
        context in :meth:`_lead`, the delivering frame's in
        :meth:`_accept_proposal` -- not each vote's own."""
        outbox, self._reply_outbox = self._reply_outbox, None
        for (client, _), (signed_order, headers) in outbox.items():
            self._send_reply_bundle(client, tuple(headers), signed_order)

    def _request_digest_for(self, entry: LogEntry,
                            signed_order: SignedPayload) -> str:
        """The request digest the entry's proposal committed to,
        whether the envelope is a singleton SPECORDER or a batch."""
        payload = signed_order.payload
        if isinstance(payload, BatchSpecOrder):
            inner = payload.order_for(entry.instance)
            return inner.request_digest if inner is not None else ""
        return payload.request_digest

    def _speculative_execute(self, entry: LogEntry) -> None:
        """Paper Section IV-B: speculative execution runs on the latest
        state (speculative overlay over final)."""
        entry.spec_result = self.statemachine.apply_speculative(
            entry.command)
        entry.spec_executed = True

    # ------------------------------------------------------------------
    # Step 5: commits
    # ------------------------------------------------------------------
    def _on_commit_fast(self, sender: str, commit: CommitFast,
                        envelope: None) -> None:
        entry = self._log_index.get(commit.instance)
        if entry is None or entry.status.at_least(EntryStatus.COMMITTED):
            return
        if not self._validate_fast_certificate(commit):
            self.stats["invalid_messages"] += 1
            return
        self._persist_entry(sender, commit)
        # The certificate is one statement; adopt its metadata (it may
        # differ from ours if we merged deps the quorum did not see --
        # the certificate is authoritative).
        sample = commit.statement.payload
        entry.deps = sample.deps
        entry.seq = sample.seq
        entry.status = EntryStatus.COMMITTED
        entry.commit_proof = commit
        entry.reply_to = None  # fast path: no COMMITREPLY
        self.stats["committed_fast"] += 1
        if self.tracer.enabled:
            self._trace_commit(entry, "fast")
        self._advance_execution([entry])

    def _on_batch_commit_fast(self, sender: str, batch: BatchCommitFast,
                              envelope: None) -> None:
        """A client's k COMMITFASTs in one frame: each is validated,
        persisted and counted exactly as if it had arrived alone."""
        for commit in batch.commits:
            self._on_commit_fast(sender, commit, None)

    def _on_commit(self, sender: str, commit: Commit,
                   envelope: SignedPayload) -> None:
        if not self._validate_slow_certificate(commit):
            self.stats["invalid_messages"] += 1
            return
        entry = self._log_index.get(commit.instance)
        if entry is None:
            space = self.spaces.get(commit.instance.owner)
            if space is None:
                return
            if commit.instance.slot < space.low_slot:
                # Below a stable checkpoint: the instance was executed
                # durably and garbage-collected.  Resurrecting the slot
                # would shift our execution count off every other
                # replica's watermarks; answer from retained state.
                reply = CommitReply(
                    replica=self.node_id, instance=commit.instance,
                    client_id=commit.client_id,
                    timestamp=commit.command.timestamp,
                    result=self.executor.result_of(commit.command.ident))
                self.ctx.send(commit.client_id, self.sign(reply))
                return
            # We never saw the SPECORDER (e.g. we were partitioned); adopt
            # the commit wholesale.
            entry = LogEntry(instance=commit.instance,
                             owner_number=space.owner_number,
                             command=commit.command, deps=commit.deps,
                             seq=commit.seq)
            self._put_filled(space, entry)
            if commit.instance.slot == space.expected_slot:
                self._step_over_filled(space)
        if entry.status == EntryStatus.EXECUTED:
            # Already final -- resend the reply.
            self._send_commit_reply(entry, commit.client_id)
            return
        self._persist_entry(sender, envelope)
        entry.deps = commit.deps
        entry.seq = commit.seq
        entry.status = EntryStatus.COMMITTED
        entry.committed_slow = True
        entry.commit_proof = envelope
        entry.reply_to = commit.client_id
        # Invalidate speculation: final execution will re-run on the final
        # state (paper step 5.2).
        self.statemachine.rollback_speculative()
        self.stats["committed_slow"] += 1
        if self.tracer.enabled:
            self._trace_commit(entry, "slow")
        self._advance_execution([entry])

    def _trace_commit(self, entry: LogEntry, path: str) -> None:
        """Record the path-tagged ``replica.commit`` point event and
        remember its context plus the commit-time clock, so final
        execution can hang the ``exec.depwait`` / ``exec.apply`` spans
        under it (see :meth:`_trace_exec_parent`).  Only under the
        request's own trace (the ingress rule of :meth:`_admit`): a
        :class:`BatchCommitFast` rides one request's context and carries
        k requests' commits."""
        tracer = self.tracer
        ctx = tracer.current()
        if ctx is None or \
                ctx.trace_id != trace_id_for(*entry.command.ident):
            return
        event = tracer.event(SPAN_REPLICA_COMMIT, self.node_id, ctx,
                             attrs={"path": path})
        if event is not None:
            self._trace_slots[entry.instance] = \
                (event.context(), tracer.now())

    def _trace_exec_parent(self, entry: LogEntry) -> Optional[Any]:
        """Executor callback (see :attr:`DependencyExecutor.trace_parent`):
        pop the commit-time context for ``entry``, record the
        commit-to-execution gap as an ``exec.depwait`` span, and return
        its context as the parent for the ``exec.apply`` span."""
        slot = self._trace_slots.pop(entry.instance, None)
        if slot is None:
            return None
        ctx, committed_ms = slot
        tracer = self.tracer
        span = tracer.span_at(SPAN_EXEC_DEPWAIT, self.node_id, ctx,
                              committed_ms, tracer.now())
        return span.context() if span is not None else ctx

    def _advance_execution(self, newly_committed=None) -> None:
        """Run the executor over the newly committed entries (plus its
        blocked frontier); ``None`` forces a full log scan."""
        executed = self.executor.try_execute(self._log_index,
                                             candidates=newly_committed)
        for entry in executed:
            self.stats["executed"] += 1
            self.instruments.execute()
            if entry.reply_to is not None:
                self._send_commit_reply(entry, entry.reply_to)

    # ------------------------------------------------------------------
    # Checkpointing (paper: owner changes carry "instances executed or
    # committed since the last checkpoint")
    # ------------------------------------------------------------------
    def _on_entry_executed(self, entry: LogEntry) -> None:
        """Executor hook: captures run per executed entry, not per
        commit wave, so they land exactly on interval boundaries -- a
        wave can straddle one, and a capture at a stray watermark would
        never match the other replicas' attestations (permanently
        disabling GC here)."""
        self._maybe_checkpoint(self.executor.executed_count)

    def _capture_snapshot(self) -> dict:
        """Everything a lagging replica needs to resume past us.

        Every field is a deterministic function of the first
        ``executed_count`` executions, so digests agree across replicas
        that executed the same prefix."""
        executor = self.executor
        frontier = {owner: self._executed_frontier(space)
                    for owner, space in self.spaces.items()}
        floors, sparse = executor.client_progress()
        executed_above = sorted(
            [iid.owner, iid.slot] for iid in executor.executed
            if iid.slot >= frontier[iid.owner])
        return {
            "state": self.statemachine.snapshot(),
            "frontier": frontier,
            "client_floors": floors,
            "client_sparse": sparse,
            "client_results": executor.latest_results(),
            "executed_above": executed_above,
        }

    def _executed_frontier(self, space: InstanceSpace) -> int:
        """First slot of ``space`` that is not contiguously executed --
        the GC cut: everything below is final at this replica.

        Resumes from a cached cursor (execution never un-happens, so
        the frontier is monotone): amortized O(new executions) per
        capture instead of O(whole executed prefix)."""
        slot = max(space.low_slot,
                   self._frontier_cursor.get(space.owner, 0))
        while True:
            entry = space.get(slot)
            if entry is None or entry.status != EntryStatus.EXECUTED:
                break
            slot += 1
        self._frontier_cursor[space.owner] = slot
        return slot

    def _attest(self, sender: str, msg: EzCheckpoint,
                envelope: SignedPayload) -> bool:
        """Log the vote to the WAL before counting it; one that proves
        a checkpoint a whole interval past us, without making ours
        stable, opens a catch-up round to it -- the prefix below it may
        be truncated everywhere, and its messages are never resent."""
        if self.storage is not None:
            self.storage.append_attest(sender, envelope)
        if super()._attest(sender, msg, envelope):
            return True
        store = self.checkpoints
        if store.has_quorum(msg.watermark, msg.state_digest) and \
                msg.watermark >= self.executor.executed_count + \
                max(1, store.interval):
            self.checkpointing.catch_up(target=msg.watermark)
        return False

    def _gc_below(self, checkpoint: Checkpoint) -> None:
        """Truncate the log below the stable checkpoint's frontier, then
        persist the checkpoint (:meth:`RecoveryManager.persist_stable`).

        Only contiguously *executed* prefixes are dropped: the frontier
        is re-clamped locally so a committed-but-unexecuted instance can
        never be garbage-collected."""
        frontier = checkpoint.snapshot.get("frontier", {})
        removed = 0
        effective: Dict[str, int] = {}
        for owner, space in self.spaces.items():
            cut = min(int(frontier.get(owner, 0)),
                      self._executed_frontier(space))
            effective[owner] = cut
            removed += self._truncate_space(space, cut)
        self.executor.truncate(
            effective, self.statemachine.record.cut(checkpoint.watermark))
        self.stats["log_entries_gcd"] += removed
        self.recovery.persist_stable(checkpoint)

    # ------------------------------------------------------------------
    # State transfer, durability (delegated)
    # ------------------------------------------------------------------
    def _on_state_transfer_request(self, sender: str,
                                   request: StateTransferRequest,
                                   envelope: None) -> None:
        self.checkpointing.on_state_transfer_request(sender, request)

    def _on_state_transfer_reply(self, sender: str,
                                 reply: StateTransferReply,
                                 envelope: None) -> None:
        self.checkpointing.on_state_transfer_reply(sender, reply)

    def checkpoint_base_slot(self, owner: str) -> int:
        """First slot of ``owner``'s space above the last stable
        checkpoint -- the base of owner-change recovery payloads."""
        space = self.spaces[owner]
        base = space.low_slot
        stable = self.checkpoints.stable
        if stable is not None:
            frontier = stable.snapshot.get("frontier", {})
            base = max(base, int(frontier.get(owner, 0)))
        return base

    def attach_storage(self, storage: Any) -> None:
        """Wire the durability seam (a ``repro.storage.ReplicaStorage``).

        Attach before traffic flows; pair with
        :meth:`recover_from_storage` to restart from its contents.
        """
        self.storage = storage

    def recover_from_storage(self) -> Any:
        """Rebuild this replica from its attached store (see
        :meth:`repro.core.recovery.RecoveryManager.recover`), then
        :meth:`rejoin` for what disk did not hold; returns a
        :class:`repro.storage.RecoverySummary`."""
        summary = self.recovery.recover()
        self.rejoin()
        return summary

    def rejoin(self) -> None:
        """The one way back from a crash or a restart: ask a peer what
        we missed -- checkpoint, log above our frontier, the NEWOWNERs
        it installed -- and lead nothing until an answer is installed
        (:meth:`CheckpointManager.catch_up`)."""
        self.checkpointing.catch_up(rejoining=True)

    def _release_held_requests(self) -> None:
        """Lead what :meth:`_lead` held while rejoining, less anything
        ordered elsewhere in the meantime."""
        held, self._held_requests = self._held_requests, []
        if held:
            self._flush_lead_queue(held)

    def _persist_entry(self, sender: str, message: Any) -> None:
        if self.storage is not None:
            self.storage.append_entry(sender, message)

    def _send_commit_reply(self, entry: LogEntry, client_id: str) -> None:
        reply = CommitReply(
            replica=self.node_id,
            instance=entry.instance,
            client_id=entry.command.client_id,
            timestamp=entry.command.timestamp,
            result=entry.final_result,
        )
        self.ctx.send(client_id, self.sign(reply))

    # ------------------------------------------------------------------
    # Certificates
    # ------------------------------------------------------------------
    def _validate_fast_certificate(self, commit: CommitFast) -> bool:
        """3f+1 distinct replicas signed one SPECREPLY statement for the
        commit's instance.  Checked in order: the quorum size; that the
        signers are distinct replicas; that the statement is a
        SPECREPLY header, authentic (its signer is the ``replica`` it
        names and ``signatures[0]``) and for this instance; then each
        other signer's tag over the statement respelled for it
        (:meth:`CommitFast.cosigned`).  Nothing is compared between
        headers: they match by construction."""
        signatures = commit.signatures
        if len(signatures) < self.config.fast_quorum_size:
            return False
        replicas = self.registry.replicas
        signers = {signature.signer for signature in signatures}
        if len(signers) != len(signatures) or \
                not signers.issubset(replicas):
            return False
        head = commit.statement
        header = head.payload
        return isinstance(header, SpecReply) and \
            head.authentic(self.registry) and \
            header.instance == commit.instance and \
            commit.cosigned(self.registry)

    def _validate_slow_certificate(self, commit: Commit) -> bool:
        """2f+1 authentic SPECREPLY headers from distinct replicas for
        the commit's instance *and command*, with the COMMIT's metadata
        exactly what they combine to: ``deps`` their union, ``seq``
        their maximum.  The client signs the COMMIT but may not choose
        either -- dependency collection leans on every correct voter's
        deps surviving into the final set (see :meth:`_collect_deps`)."""
        cert = commit.certificate
        if len(cert) < self.config.slow_quorum_size:
            return False
        signers = set()
        deps: set = set()
        seq = 0
        for signed in cert:
            reply = signed.payload
            if not isinstance(reply, SpecReply) or \
                    not signed.authentic(self.registry) or \
                    reply.instance != commit.instance or \
                    (reply.client_id, reply.timestamp) != \
                    commit.command.ident:
                return False
            signers.add(reply.replica)
            deps.update(reply.deps)
            seq = max(seq, reply.seq)
        return len(signers) == len(cert) and \
            commit.deps == tuple(sorted(deps)) and commit.seq == seq

    # ------------------------------------------------------------------
    # Misbehavior and owner changes (delegated)
    # ------------------------------------------------------------------
    def _on_pom(self, sender: str, pom: ProofOfMisbehavior,
                envelope: None) -> None:
        self.owner_changes.on_pom(pom)

    def _on_start_owner_change(self, sender: str, msg: StartOwnerChange,
                               envelope: SignedPayload) -> None:
        self.owner_changes.on_start_owner_change(msg)

    def _on_owner_change(self, sender: str, msg: OwnerChange,
                         envelope: SignedPayload) -> None:
        self.owner_changes.on_owner_change(msg, envelope)

    def _on_new_owner(self, sender: str, msg: NewOwner,
                      envelope: SignedPayload) -> None:
        self.owner_changes.on_new_owner(msg, envelope)

    # ------------------------------------------------------------------
    # Dependency collection
    # ------------------------------------------------------------------
    def _collect_deps(self, command: Command, exclude: InstanceID,
                      leading: bool = False) -> Tuple[InstanceID, ...]:
        """The transitive frontier of the paper's dependency set D.

        D is every instance in the log whose command interferes with
        ``command``.  What is returned (and sent, signed, logged) is D
        minus the instances an *applied* one already stands in for:
        walking each instance space newest-first, an older instance
        ``a`` is left out when a later instance ``g`` of the same space
        is already in the result, interferes with ``a``, and was finally
        executed here by really applying its command
        (:attr:`LogEntry.applied`).  Every other member of D is
        included.  A new command ``b`` then still runs after ``a`` at
        every replica:

        - A space is accepted in slot order, so every correct replica
          that voted on ``g`` held ``a`` and put ``a`` -- or,
          inductively, an applied cover of it -- into its SPECREPLY.
        - A fast certificate is 3f+1 identical replies and a slow one
          the union of 2f+1 (:meth:`_validate_slow_certificate` binds a
          COMMIT to that union), so either holds a correct replica's
          reply: ``g``'s *final* deps reach ``a`` through committed
          instances, ``b -> g -> ... -> a``, and ``seq`` grows along
          the chain.
        - ``g`` is executed, hence committed, so no owner change can
          turn it into a no-op and cut the chain.
        - ``g`` was the first application of its command here, after
          ``a``.  ``a`` interferes with that command, and interfering
          commands run in one order everywhere, so no instance of it
          runs before ``a`` at any replica: the executor's
          ``dep_waiver``, which releases an edge to ``g`` once a
          duplicate of ``g`` has executed, cannot fire before ``a``
          has run.

        Each exclusion drops one of these: a spec-ordered entry can be
        no-op'ed, a committed one may yet execute as a cache hit, a
        cache hit or no-op never applied anything, and an entry marked
        executed from a snapshot does not know which it was.  Covering
        asks the relation only ``interferes``; it need not be
        transitive (an applied ``get`` covers an older ``put`` for a
        new ``put``, never for a new ``get``).

        ``leading`` (this replica is proposing ``command``) holds the
        newest covers back.  A fast commit needs 3f+1 identical
        SPECREPLYs and a follower answers ``order.deps`` united with
        its own frontier, so the proposal must already hold whatever a
        follower would add -- and a follower that has not yet applied
        ``g``, because ``g``'s COMMIT is still on its way there, adds
        ``a``.  So while leading, an applied instance covers only once
        a later applied instance *of the same client* has been passed
        in its space: that client sent the later command after the
        earlier one's commit, which has then had a whole protocol round
        to land everywhere.  A superset of the frontier is always safe,
        and this one costs about a dependency per space and client on
        the key.  It is a heuristic: a pipelining client gives no such
        round, and where a follower still adds something the command
        commits on the slow path.

        The walk of a space stops at the first cover that the relation
        says *absorbs* (:meth:`InterferenceRelation.absorbs`: it
        interferes with every non-noop command on its index key).
        Every older instance in the chain would be left out as covered
        by it, and a noop is never in D, so stopping leaves the result
        unchanged; it makes a hot key cost the frontier the walk
        returns rather than the log behind it.
        """
        chains = self._key_index.get(self._index_key(command))
        if chains is None:
            return ()
        interferes = self.interference.interferes
        absorbs = self.interference.absorbs
        log = self._log_index
        deps: List[InstanceID] = []
        for chain in chains.values():
            covers: List[Command] = []
            unsettled: set = set()  # clients with one applied passed
            for iid in reversed(chain):
                if iid == exclude:
                    continue
                entry = log[iid]
                candidate = entry.command
                for cover in covers:
                    if interferes(cover, candidate):
                        break
                else:
                    if interferes(candidate, command):
                        deps.append(iid)
                        if not entry.applied:
                            continue
                        if leading and \
                                candidate.client_id not in unsettled:
                            unsettled.add(candidate.client_id)
                        elif absorbs(candidate):
                            break  # it covers everything older
                        else:
                            covers.append(candidate)
        deps.sort()
        return tuple(deps)

    def _index_key(self, command: Command) -> str:
        """Which chains of ``_key_index`` can hold an instance that
        interferes with ``command``: its key under a key-based relation,
        one shared bucket otherwise."""
        return command.key if self.interference.key_based else ""

    def _max_dep_seq(self, deps: Tuple[InstanceID, ...]) -> int:
        best = 0
        for dep in deps:
            entry = self._log_index.get(dep)
            if entry is not None and entry.seq > best:
                best = entry.seq
        return best

    # ------------------------------------------------------------------
    # Log plumbing
    # ------------------------------------------------------------------
    def _install_entry(self, entry: LogEntry) -> None:
        self.spaces[entry.instance.owner].put(entry)
        self._index_entry(entry)

    def _index_entry(self, entry: LogEntry) -> None:
        """Bind ``entry`` to its instance in the log index and the key
        chains; replacing a slot's entry (recovery, state transfer)
        moves the instance when the command's key changed."""
        iid = entry.instance
        previous = self._log_index.get(iid)
        self._log_index[iid] = entry
        command = entry.command
        if command.timestamp > self._indexed_ts.get(command.client_id, -1):
            self._indexed_ts[command.client_id] = command.timestamp
        key = self._index_key(command)
        if previous is not None:
            old_key = self._index_key(previous.command)
            if old_key == key:
                return
            self._key_index[old_key][iid.owner].remove(iid)
            self._prune_chain(old_key, iid.owner)
        chains = self._key_index.get(key)
        if chains is None:
            self._key_index[key] = {iid.owner: [iid]}
            return
        chain = chains.setdefault(iid.owner, [])
        if not chain or chain[-1] < iid:
            chain.append(iid)
        else:
            insort(chain, iid)  # adopted out of slot order

    def _truncate_space(self, space: InstanceSpace, cut: int) -> int:
        """Drop every slot of ``space`` below ``cut`` from the space,
        the log index, the key chains and the out-of-order buffer;
        returns how many entries went.  The chains are ascending by
        slot, so each loses a prefix and none is rebuilt;
        ``space.truncate`` itself still scans the space."""
        owner = space.owner
        floor = InstanceID(owner, cut)
        for slot in range(space.low_slot, cut):
            entry = space.get(slot)
            if entry is None:
                continue
            self._log_index.pop(entry.instance, None)
            key = self._index_key(entry.command)
            chains = self._key_index.get(key)
            chain = chains.get(owner) if chains else None
            if not chain or chain[0] >= floor:
                continue  # an earlier slot on this key trimmed it
            del chain[:bisect_left(chain, floor)]
            self._prune_chain(key, owner)
        pending = self._pending_spec_orders
        for stale in [k for k in pending if k[0] == owner and k[1] < cut]:
            del pending[stale]
        return space.truncate(cut)

    def _prune_chain(self, key: str, owner: str) -> None:
        """Forget ``owner``'s chain under ``key`` once it is empty."""
        chains = self._key_index[key]
        if not chains[owner]:
            del chains[owner]
            if not chains:
                del self._key_index[key]

    def _find_entry_for_command(self, command: Command
                                ) -> Optional[LogEntry]:
        # A command newer than every timestamp its client ever had
        # indexed here is not in the log: a fresh request, the usual
        # case, pays one lookup.  Only retries scan the chains.
        if command.timestamp > self._indexed_ts.get(command.client_id, -1):
            return None
        # The chains under the command's index key are authoritative
        # (every logged instance sits in exactly one), so no O(|log|)
        # fallback is needed.
        #
        # Retried commands can end up proposed in *several* competing
        # instances (a retry can rotate the command-leader); picking the
        # smallest (owner, slot) -- not iteration order, which differs
        # per replica with message loss -- makes every replica's
        # re-reply converge on the same instance so the client can
        # assemble a matching quorum.
        best: Optional[LogEntry] = None
        chains = self._key_index.get(self._index_key(command))
        if chains is None:
            return None
        for chain in chains.values():
            for iid in chain:
                entry = self._log_index[iid]
                if entry.command.ident == command.ident and \
                        (best is None or iid < best.instance):
                    best = entry
        return best

    def _duplicate_dep_waiver(self, iid: InstanceID) -> bool:
        """True when the dep instance's command has already executed
        through another instance (see executor.dep_waiver)."""
        entry = self._log_index.get(iid)
        return entry is not None and not entry.command.is_noop and \
            self.executor.has_executed(entry.command.ident)

    def _reaffirm_entry(self, entry: LogEntry) -> bool:
        """Converge a retried command on one instance: re-send our
        SPECREPLY for it, and -- if we led it -- re-broadcast the
        signed SPECORDER so replicas that lost the original install
        the same instance instead of a fresh competing one.  False
        when the entry holds no SPECORDER to answer from."""
        if entry.spec_order is None:
            return False
        if entry.instance.owner == self.node_id and \
                entry.spec_order.signer == self.node_id:
            self.broadcast_others(entry.spec_order)
        self._send_spec_reply(entry, entry.spec_order)
        return True

    def _advance_space_digest(self, space: InstanceSpace,
                              entry: LogEntry) -> None:
        """Chain the freshly led entry into the space's rolling digest
        (the paper's ``h``, sent as the SPECORDER ``log_digest``).  A
        hash chain advanced per proposal keeps the owner's hot path
        O(1) instead of re-serializing the whole space per SPECORDER."""
        self._space_chain[space.owner] = digest([
            self._space_chain.get(space.owner, ""),
            entry.instance.to_wire(), entry.command.to_wire(), entry.seq,
        ])

    # ------------------------------------------------------------------
    # Handler tables
    # ------------------------------------------------------------------
    _SIGNED_HANDLERS = {
        **Replica._SIGNED_HANDLERS,
        Request.MSG_TYPE: _on_request,
        BatchRequest.MSG_TYPE: _on_batch_request,
        SpecOrder.MSG_TYPE: _on_spec_order,
        BatchSpecOrder.MSG_TYPE: _on_batch_spec_order,
        Commit.MSG_TYPE: _on_commit,
        StartOwnerChange.MSG_TYPE: _on_start_owner_change,
        OwnerChange.MSG_TYPE: _on_owner_change,
        NewOwner.MSG_TYPE: _on_new_owner,
    }
    _PLAIN_HANDLERS = {
        CommitFast.MSG_TYPE: _on_commit_fast,
        BatchCommitFast.MSG_TYPE: _on_batch_commit_fast,
        ResendRequest.MSG_TYPE: _on_resend_request,
        ProofOfMisbehavior.MSG_TYPE: _on_pom,
        StateTransferRequest.MSG_TYPE: _on_state_transfer_request,
        StateTransferReply.MSG_TYPE: _on_state_transfer_reply,
    }
