"""The ezBFT replica: every replica is a potential command-leader.

Implements paper Section IV: the fast-path proposal pipeline (steps 2-3),
speculative execution, slow-path commit handling (step 5.2), fast commits
(step 5.1), retried-request relaying (step 4.3), proof-of-misbehavior
handling (step 4.4), and the owner-change protocol (Section IV-E, via
:class:`repro.core.owner_change.OwnerChangeManager`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.node import NodeContext, Timer
from repro.config import ProtocolConfig
from repro.core.batching import (
    RequestBatcher,
    batch_request_is_authentic,
    fresh_batch_commands,
)
from repro.core.executor import DependencyExecutor
from repro.core.instance import EntryStatus, InstanceSpace, LogEntry
from repro.core.owner_change import OwnerChangeManager, summarize_entry
from repro.crypto.digest import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.errors import ProtocolError, SerializationError
from repro.messages.base import SignedPayload, decode
from repro.messages.batching import BatchRequest, BatchSpecOrder
from repro.obs.instruments import NULL
from repro.messages.ezbft import (
    Commit,
    CommitFast,
    CommitReply,
    EzCheckpoint,
    LogEntrySummary,
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
from repro.statemachine.base import Command, StateMachine
from repro.statemachine.checkpoint import Checkpoint, CheckpointStore
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


class _RecoveryContext:
    """ctx stand-in during WAL replay: sends and broadcasts are muted
    (the cluster already saw them pre-crash; re-sending would duplicate
    protocol traffic), everything else passes through to the real
    context."""

    def __init__(self, inner: NodeContext) -> None:
        self._inner = inner

    def send(self, target: str, message: Any) -> None:
        pass

    def broadcast(self, targets: Any, message: Any) -> None:
        pass

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class EzBFTReplica:
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
    #: True while :meth:`recover_from_storage` replays the WAL:
    #: disables persistence (the records are already on disk) and mutes
    #: sends (the cluster saw them pre-crash).
    _recovering = False

    def __init__(self, node_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry, statemachine: StateMachine,
                 interference: InterferenceRelation) -> None:
        if node_id not in config.replica_ids:
            raise ProtocolError(f"{node_id!r} not in replica set")
        self.node_id = node_id
        self.config = config
        self.ctx = ctx
        self.keypair = keypair
        self.registry = registry
        self.statemachine = statemachine
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
        self.executor = DependencyExecutor(statemachine)
        #: Checkpoint captures hook in per executed entry, not per
        #: commit wave: a wave can straddle an interval boundary, and a
        #: capture at a stray watermark would never match the other
        #: replicas' attestations (permanently disabling GC here).
        self.executor.on_execute = self._on_entry_executed
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
            flush_fn=self._flush_lead_batch,
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
        #: Suspicion timers set after relaying a RESENDREQ (step 4.3):
        #: command digest -> (suspected replica, timer).
        self._suspicions: Dict[str, Tuple[str, Timer]] = {}
        #: Rolling per-space digest of our own proposal history (the
        #: SPECORDER ``log_digest`` field, maintained incrementally).
        self._space_chain: Dict[str, str] = {}

        #: Checkpointing: local snapshots + peer attestations; on
        #: stability the log below the checkpoint's per-space frontier
        #: is garbage-collected (paper: owner changes carry "instances
        #: executed or committed since the last checkpoint").
        self.checkpoints = CheckpointStore(
            quorum=config.slow_quorum_size,
            interval=config.checkpoint_interval)
        #: (watermark, digest) -> replica -> its signed EZCHECKPOINT;
        #: the stable set doubles as the state-transfer proof.
        self._checkpoint_proofs: Dict[
            Tuple[int, str], Dict[str, SignedPayload]] = {}
        #: Signed attestation quorum for the current stable checkpoint,
        #: tagged with its watermark (stability can advance on vote
        #: counts while the retained envelopes lag; a mismatched proof
        #: must never be served).
        self._stable_proof: Tuple[SignedPayload, ...] = ()
        self._stable_proof_watermark = -1
        #: Per-space cached contiguous-executed frontier cursor, so
        #: captures cost O(new executions) instead of rescanning the
        #: whole executed prefix when stability stalls.
        self._frontier_cursor: Dict[str, int] = {}
        #: Every (watermark, digest) that became stable here, in order --
        #: cross-replica agreement tests compare these.
        self.checkpoint_log: List[Tuple[int, str]] = []
        #: Highest watermark we already requested a state transfer for,
        #: and the peers asked at that watermark (up to f+1 distinct
        #: peers, so at least one is correct and answers).
        self._transfer_requested = -1
        self._transfer_peers_asked: set = set()

        # Metrics.
        self.stats = {
            "led": 0,
            "batches_led": 0,
            "spec_ordered": 0,
            "committed_fast": 0,
            "committed_slow": 0,
            "executed": 0,
            "owner_changes_started": 0,
            "invalid_messages": 0,
            "checkpoints": 0,
            "checkpoints_stable": 0,
            "log_entries_gcd": 0,
            "state_transfers_served": 0,
            "state_transfers_installed": 0,
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
    # Dispatch
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: Any) -> None:
        """Entry point for every message delivered to this replica."""
        if isinstance(message, SignedPayload):
            if not message.verify(self.registry):
                self.stats["invalid_messages"] += 1
                return
            payload = message.payload
            handler = self._SIGNED_HANDLERS.get(type(payload).MSG_TYPE)
            if handler is None:
                self.stats["invalid_messages"] += 1
                return
            handler(self, sender, payload, message)
            return
        handler = self._PLAIN_HANDLERS.get(type(message).MSG_TYPE, None)
        if handler is None:
            self.stats["invalid_messages"] += 1
            return
        handler(self, sender, message)

    # ------------------------------------------------------------------
    # Step 2: client request -> command-leader proposal
    # ------------------------------------------------------------------
    def _on_request(self, sender: str, request: Request,
                    envelope: SignedPayload) -> None:
        if envelope.signer != request.client_id:
            self.stats["invalid_messages"] += 1
            return
        client = request.client_id
        t = request.timestamp
        cached_t = self._client_ts.get(client, -1)
        if t <= cached_t:
            cached = self._client_reply_cache.get(client)
            if cached is not None and cached[0] == t:
                self.ctx.send(client, cached[1])
                return
            # An older timestamp is *not* necessarily stale: open-loop
            # clients pipeline many outstanding timestamps, so under
            # message loss a retry of t=5 can arrive after we led
            # t=25.  Only drop if we already ordered this command
            # (re-replying where we can); a genuinely unseen command
            # proceeds to the normal lead/relay path.  Execution stays
            # exactly-once regardless -- the executor dedups applies
            # by (client, timestamp).
            entry = self._find_entry_for_command(request.command)
            if entry is not None:
                self._reaffirm_entry(entry)
                return

        if request.original_replica not in (None, self.node_id):
            # Client retry broadcast (step 4.3): relay to the original
            # recipient and start suspecting it.
            self._relay_resend(request)
            return

        self._enqueue_lead(request)

    def _on_batch_request(self, sender: str, batch: BatchRequest,
                          envelope: SignedPayload) -> None:
        """A client's batched submission: one signature, many commands.

        Unpacks into the normal leading path after per-command
        exactly-once checks; all commands must belong to the signer.
        """
        if not batch_request_is_authentic(batch, envelope):
            self.stats["invalid_messages"] += 1
            return
        for command in fresh_batch_commands(
                batch, self._client_ts, self._client_reply_cache,
                lambda cached: self.ctx.send(batch.client_id, cached)):
            self._enqueue_lead(Request(command=command))

    def _enqueue_lead(self, request: Request) -> None:
        """Hand a request we will lead to the owner-path batcher (which
        passes straight through when batching is disabled)."""
        tracer = self.tracer
        if tracer.enabled:
            # The batcher may flush after this delivery returns, by
            # which time the client's wire context is gone -- stash it
            # per ident for :meth:`_trace_lead_span` to pick up.  The
            # trace-id check matters for client-side BATCHREQUESTs:
            # one frame carries many commands but only the first
            # sampled command's context, and adopting it for the rest
            # would graft their spans onto the wrong trace.
            ctx = tracer.current()
            ident = request.command.ident
            if ctx is not None and ctx.trace_id == trace_id_for(*ident):
                self._trace_requests[ident] = ctx
        self.batcher.add(request)

    def _trace_lead_span(self, command: Command) -> Optional[Any]:
        """Open the ``owner.lead`` span for a request we are leading,
        parented at the client context stashed at enqueue time.  No
        stash (unsampled trace, or a command that rode another trace's
        frame) means no span -- never guess a parent."""
        tracer = self.tracer
        parent = self._trace_requests.pop(command.ident, None)
        if parent is None:
            return None
        return tracer.start_span(SPAN_OWNER_LEAD, self.node_id,
                                 parent=parent)

    def _flush_lead_batch(self, requests: List[Request]) -> None:
        """Batcher flush: lead the accumulated requests.

        Duplicates that slipped in while queued (e.g. a client retry
        during the batch window) are dropped here, where the whole
        batch is visible; singletons degrade to the classic unbatched
        SPECORDER path.
        """
        space = self.spaces[self.node_id]
        if space.frozen:
            # We were deposed by an owner change; we may no longer
            # propose.  The clients' retries will reach other replicas.
            return
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
        if not fresh:
            return
        if len(fresh) == 1:
            self._lead(fresh[0])
        else:
            self._lead_batch(fresh)

    def _lead_batch(self, requests: List[Request]) -> None:
        """Become the command-leader for a whole batch: allocate
        consecutive slots and broadcast one signed BATCHSPECORDER
        covering all of them (paper step 2, amortized)."""
        space = self.spaces[self.node_id]
        tracer = self.tracer
        orders: List[SpecOrder] = []
        entries: List[LogEntry] = []
        spans: List[Any] = []
        for request in requests:
            command = request.command
            if tracer.enabled:
                spans.append(self._trace_lead_span(command))
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
            order = SpecOrder(
                leader=self.node_id,
                owner_number=space.owner_number,
                instance=instance,
                command=command,
                deps=deps,
                seq=seq,
                log_digest=self._space_digest(space),
                request_digest=digest(request),
            )
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
            orders.append(order)
            entries.append(entry)
        batch = BatchSpecOrder(leader=self.node_id,
                               owner_number=space.owner_number,
                               orders=tuple(orders))
        signed_batch = SignedPayload.create(batch, self.keypair)
        for entry in entries:
            entry.spec_order = signed_batch
        self.stats["batches_led"] += 1
        self._persist_entry(self.node_id, signed_batch)
        # Traced: the single BATCHSPECORDER broadcast and the one
        # SpecReplyBundle per client are attributed to the first
        # sampled request's lead context (exact when batch_size == 1;
        # a documented approximation for larger batches).
        prev = None
        if spans:
            prev = tracer.set_current(next(
                (s.context() for s in spans if s is not None), None))
        self._reply_outbox = {}
        try:
            self.ctx.broadcast(self.config.others(self.node_id),
                               signed_batch)
            for entry, order in zip(entries, orders):
                self._send_spec_reply(entry, signed_batch,
                                      request_digest=order.request_digest)
        finally:
            self._flush_reply_outbox()
            if spans:
                tracer.set_current(prev)
                for span in spans:
                    tracer.end_span(span)

    def _lead(self, request: Request) -> None:
        """Become the command-leader for ``request`` (paper step 2)."""
        space = self.spaces[self.node_id]
        if space.frozen:
            # We were deposed by an owner change; we may no longer
            # propose.  The client's retry will reach another replica.
            return
        command = request.command
        tracer = self.tracer
        span = self._trace_lead_span(command) if tracer.enabled else None
        # max(): leading a late retry of an older timestamp must not
        # lower the dedup watermark below newer commands.
        self._client_ts[command.client_id] = max(
            self._client_ts.get(command.client_id, -1),
            command.timestamp)
        slot = space.allocate_slot()
        instance = InstanceID(self.node_id, slot)
        deps = self._collect_deps(command, exclude=instance,
                                  leading=True)
        seq = 1 + self._max_dep_seq(deps)
        request_digest = digest(request)
        spec_order = SpecOrder(
            leader=self.node_id,
            owner_number=space.owner_number,
            instance=instance,
            command=command,
            deps=deps,
            seq=seq,
            log_digest=self._space_digest(space),
            request_digest=request_digest,
        )
        signed_order = SignedPayload.create(spec_order, self.keypair)
        entry = LogEntry(instance=instance,
                         owner_number=space.owner_number,
                         command=command, deps=deps, seq=seq,
                         spec_order=signed_order)
        self._install_entry(entry)
        self._advance_space_digest(space, entry)
        space.expected_slot = slot + 1
        self._speculative_execute(entry)
        self.stats["led"] += 1

        self._persist_entry(self.node_id, signed_order)
        if span is None:
            self.ctx.broadcast(self.config.others(self.node_id),
                               signed_order)
            self._send_spec_reply(entry, signed_order)
            return
        # The SPECORDER broadcast and our own SPECREPLY ride the lead
        # context, so every peer's vote span parents under it.
        prev = tracer.set_current(span.context())
        try:
            self.ctx.broadcast(self.config.others(self.node_id),
                               signed_order)
            self._send_spec_reply(entry, signed_order)
        finally:
            tracer.set_current(prev)
            tracer.end_span(span)

    def _relay_resend(self, request: Request) -> None:
        """Relay a retried request to its original recipient and start a
        suspicion timer (paper step 4.3)."""
        ident_key = digest(request.command)
        already = self._find_entry_for_command(request.command)
        if already is not None:
            # We have already spec-ordered this command; re-reply (and
            # re-broadcast the order if we led it) so retries converge
            # on one instance.
            self._reaffirm_entry(already)
            return
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

    def _on_resend_request(self, sender: str,
                           resend: ResendRequest) -> None:
        """Original recipient's side of step 4.3."""
        request = resend.request
        entry = self._find_entry_for_command(request.command)
        if entry is not None and entry.spec_order is not None:
            # Re-broadcast the original SPECORDER so the forwarder (and
            # anyone else who missed it) can make progress.
            self.ctx.broadcast(self.config.others(self.node_id),
                               entry.spec_order)
            self._send_spec_reply(entry, entry.spec_order)
            return
        fresh = Request(command=request.command, original_replica=None)
        # Re-sign locally?  No -- we cannot sign for the client.  Treat the
        # embedded (client-signed) request as a direct submission.
        self._lead(fresh)

    # ------------------------------------------------------------------
    # Step 3: SPECORDER -> speculative execution -> SPECREPLY
    # ------------------------------------------------------------------
    def _on_spec_order(self, sender: str, order: SpecOrder,
                       envelope: SignedPayload) -> None:
        if envelope.signer != order.leader:
            self.stats["invalid_messages"] += 1
            return
        space = self.spaces.get(order.instance.owner)
        if space is None:
            self.stats["invalid_messages"] += 1
            return
        if space.frozen:
            return  # we committed to an owner change for this space
        if order.leader != self.config.owner_for_number(
                space.owner_number) or \
                order.owner_number != space.owner_number:
            # Not the current owner of that space.
            self.stats["invalid_messages"] += 1
            return

        slot = order.instance.slot
        if slot < space.expected_slot:
            return  # duplicate
        self._persist_entry(sender, envelope)
        if slot > space.expected_slot:
            # Out-of-order arrival; buffer until the gap fills.  The paper
            # validates I = maxI + 1; buffering (rather than rejecting)
            # tolerates network jitter without spurious owner changes.
            self._pending_spec_orders[(space.owner, slot)] = \
                (order, envelope)
            return

        self._accept_spec_order(order, envelope)
        self._drain_pending(space)

    def _on_batch_spec_order(self, sender: str, batch: BatchSpecOrder,
                             envelope: SignedPayload) -> None:
        """An owner's batched proposal: verify once, accept each inner
        SPECORDER exactly as a singleton."""
        if envelope.signer != batch.leader:
            self.stats["invalid_messages"] += 1
            return
        space = self.spaces.get(batch.leader)
        if space is None:
            self.stats["invalid_messages"] += 1
            return
        if space.frozen:
            return  # we committed to an owner change for this space
        if batch.leader != self.config.owner_for_number(
                space.owner_number) or \
                batch.owner_number != space.owner_number:
            self.stats["invalid_messages"] += 1
            return
        orders = sorted(batch.orders, key=lambda o: o.instance.slot)
        for order in orders:
            if order.leader != batch.leader or \
                    order.instance.owner != batch.leader or \
                    order.owner_number != batch.owner_number:
                self.stats["invalid_messages"] += 1
                return
        if any(o.instance.slot >= space.expected_slot for o in orders):
            self._persist_entry(sender, envelope)
        self._reply_outbox = {}
        try:
            for order in orders:
                slot = order.instance.slot
                if slot < space.expected_slot:
                    continue  # duplicate
                if slot > space.expected_slot:
                    self._pending_spec_orders[(space.owner, slot)] = \
                        (order, envelope)
                    continue
                self._accept_spec_order(order, envelope)
                self._drain_pending(space)
        finally:
            self._flush_reply_outbox()

    def _drain_pending(self, space) -> None:
        """Accept any buffered successors now contiguous with the log."""
        while True:
            nxt = self._pending_spec_orders.pop(
                (space.owner, space.expected_slot), None)
            if nxt is None:
                break
            pending_order, pending_env = nxt
            self._accept_spec_order(pending_order, pending_env)

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
        once, or with the rest of its batch when an outbox is open.
        Byzantine subclasses override this hook on both paths."""
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
        header = SignedPayload.create(reply, self.keypair)
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
        context in :meth:`_lead_batch`, the delivering frame's in
        :meth:`_on_batch_spec_order` -- not each vote's own."""
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
    def _on_commit_fast(self, sender: str, commit: CommitFast) -> None:
        entry = self._log_index.get(commit.instance)
        if entry is None or entry.status.at_least(EntryStatus.COMMITTED):
            return
        if not self._validate_fast_certificate(commit):
            self.stats["invalid_messages"] += 1
            return
        self._persist_entry(sender, commit)
        # The certificate's replies all match; adopt their metadata (they
        # may differ from ours if we merged deps the quorum did not see --
        # the certificate is authoritative).
        sample = commit.certificate[0].payload
        entry.deps = sample.deps
        entry.seq = sample.seq
        entry.status = EntryStatus.COMMITTED
        entry.commit_proof = commit.certificate
        entry.reply_to = None  # fast path: no COMMITREPLY
        self.stats["committed_fast"] += 1
        self.instruments.commit("fast")
        if self.tracer.enabled:
            self._trace_commit(entry, "fast")
        self._advance_execution([entry])

    def _on_commit(self, sender: str, commit: Commit,
                   envelope: SignedPayload) -> None:
        if envelope.signer != commit.client_id:
            self.stats["invalid_messages"] += 1
            return
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
                self.ctx.send(commit.client_id,
                              SignedPayload.create(reply, self.keypair))
                return
            # We never saw the SPECORDER (e.g. we were partitioned); adopt
            # the commit wholesale.
            entry = LogEntry(instance=commit.instance,
                             owner_number=space.owner_number,
                             command=commit.command, deps=commit.deps,
                             seq=commit.seq)
            space.force_put(entry)
            self._index_entry(entry)
        if entry.status == EntryStatus.EXECUTED:
            # Already final -- resend the reply.
            self._send_commit_reply(entry, commit.client_id)
            return
        self._persist_entry(sender, envelope)
        entry.deps = commit.deps
        entry.seq = commit.seq
        entry.status = EntryStatus.COMMITTED
        entry.committed_slow = True
        entry.commit_proof = (envelope,)
        entry.reply_to = commit.client_id
        # Invalidate speculation: final execution will re-run on the final
        # state (paper step 5.2).
        self.statemachine.rollback_speculative()
        self.stats["committed_slow"] += 1
        self.instruments.commit("slow")
        if self.tracer.enabled:
            self._trace_commit(entry, "slow")
        self._advance_execution([entry])

    def _trace_commit(self, entry: LogEntry, path: str) -> None:
        """Record the path-tagged ``replica.commit`` point event and
        remember its context plus the commit-time clock, so final
        execution can hang the ``exec.depwait`` / ``exec.apply`` spans
        under it (see :meth:`_trace_exec_parent`)."""
        tracer = self.tracer
        event = tracer.event(SPAN_REPLICA_COMMIT, self.node_id,
                             tracer.current(), attrs={"path": path})
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
    # Checkpointing, log compaction, state transfer
    # ------------------------------------------------------------------
    def _on_entry_executed(self, entry: LogEntry) -> None:
        """Executor hook: runs after every single final execution, so
        captures land exactly on interval boundaries."""
        self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        """Capture and broadcast a checkpoint at interval boundaries."""
        count = self.executor.executed_count
        if not self.checkpoints.due(count):
            return
        checkpoint = Checkpoint.capture(count, self._capture_snapshot())
        msg = EzCheckpoint(replica=self.node_id, watermark=count,
                           state_digest=checkpoint.state_digest)
        signed = SignedPayload.create(msg, self.keypair)
        self._checkpoint_proofs.setdefault(
            (count, checkpoint.state_digest), {})[self.node_id] = signed
        stable_before = self.checkpoints.stable
        self.checkpoints.record_local(checkpoint)
        self.stats["checkpoints"] += 1
        self.ctx.broadcast(self.config.others(self.node_id), signed)
        if self.checkpoints.stable is not stable_before:
            # Peer attestations had already reached quorum before our
            # own capture; stability fired inside record_local.
            self._on_checkpoint_stable(self.checkpoints.stable)

    def _capture_snapshot(self) -> dict:
        """Everything a lagging replica needs to resume past us.

        Every field is a deterministic function of the first
        ``executed_count`` executions, so digests agree across replicas
        that executed the same prefix."""
        frontier = {owner: self._executed_frontier(space)
                    for owner, space in self.spaces.items()}
        floors, sparse = self.executor.client_progress()
        executed_above = sorted(
            [iid.owner, iid.slot] for iid in self.executor.executed
            if iid.slot >= frontier[iid.owner])
        return {
            "state": self.statemachine.snapshot(),
            "frontier": frontier,
            "client_floors": floors,
            "client_sparse": sparse,
            "client_results": self.executor.latest_results(),
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

    def _on_ez_checkpoint(self, sender: str, msg: EzCheckpoint,
                          envelope: SignedPayload) -> None:
        if envelope.signer != msg.replica or \
                msg.replica not in self.config.replica_ids:
            self.stats["invalid_messages"] += 1
            return
        if msg.replica == self.node_id:
            # Our own attestation replayed back at us: we already voted
            # as "__self__" at capture, and counting the replay as a
            # second distinct voter would let f+1 real replicas fake a
            # 2f+1 quorum.
            return
        stable = self.checkpoints.stable
        if stable is not None and msg.watermark <= stable.watermark:
            return  # below our stable watermark; nothing to learn
        self._persist_attest(sender, envelope)
        became_stable = self.checkpoints.attest(
            msg.watermark, msg.state_digest, msg.replica)
        horizon = self.executor.executed_count + \
            8 * max(1, self.checkpoints.interval)
        if msg.watermark <= horizon and \
                self.checkpoints.vote_of(msg.replica, msg.watermark) == \
                msg.state_digest:
            # Vote accepted (not an equivocating re-vote) and near our
            # own execution horizon: retain the signed attestation for
            # the state-transfer proof.  Far-future watermarks are
            # never ones we will stabilize (if we lag that far we
            # install a transferred proof instead), so dropping them
            # bounds what a byzantine flood can pin in memory.
            self._checkpoint_proofs.setdefault(
                (msg.watermark, msg.state_digest), {}).setdefault(
                msg.replica, envelope)
        if became_stable:
            self._on_checkpoint_stable(self.checkpoints.stable)
        elif self.checkpoints.has_quorum(msg.watermark, msg.state_digest):
            # The cluster proved a checkpoint we never captured: we are
            # behind.  If the gap is at least one interval, the prefix
            # below it may already be truncated everywhere -- catch up
            # via state transfer instead of waiting for messages that
            # will never be resent.
            self._maybe_request_state_transfer(msg.watermark, msg.replica)

    def _on_checkpoint_stable(self, checkpoint: Checkpoint) -> None:
        self.stats["checkpoints_stable"] += 1
        self.instruments.checkpoint_stable(checkpoint.watermark)
        self.checkpoint_log.append(
            (checkpoint.watermark, checkpoint.state_digest))
        key = (checkpoint.watermark, checkpoint.state_digest)
        proof = self._checkpoint_proofs.get(key, {})
        if len(proof) >= self.config.slow_quorum_size:
            self._stable_proof = tuple(proof.values())
            self._stable_proof_watermark = checkpoint.watermark
        self._checkpoint_proofs = {
            k: v for k, v in self._checkpoint_proofs.items()
            if k[0] > checkpoint.watermark
        }
        self._gc_below(checkpoint)
        if self.storage is not None and not self._recovering:
            self._persist_stable(checkpoint)

    def _gc_below(self, checkpoint: Checkpoint) -> None:
        """Truncate the log below the stable checkpoint's frontier.

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
        if removed:
            self._pending_spec_orders = {
                k: v for k, v in self._pending_spec_orders.items()
                if k[1] >= effective.get(k[0], 0)
            }
        self.executor.truncate(checkpoint.watermark, effective)
        self.stats["log_entries_gcd"] += removed

    def _truncate_space(self, space: InstanceSpace, cut: int) -> int:
        """Drop every slot of ``space`` below ``cut`` from the space,
        the log index and the key chains; returns how many went.  The
        chains are ascending by slot, so each loses a prefix and none is
        rebuilt; ``space.truncate`` itself still scans the space."""
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
        return space.truncate(cut)

    def _prune_chain(self, key: str, owner: str) -> None:
        """Forget ``owner``'s chain under ``key`` once it is empty."""
        chains = self._key_index[key]
        if not chains[owner]:
            del chains[owner]
            if not chains:
                del self._key_index[key]

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

    def _maybe_request_state_transfer(self, watermark: int,
                                      peer: str) -> None:
        interval = max(1, self.checkpoints.interval)
        if watermark < self.executor.executed_count + interval:
            return  # close enough to catch up from live traffic
        if watermark > self._transfer_requested:
            self._transfer_requested = watermark
            self._transfer_peers_asked = set()
        # One ask per peer, up to f+1 distinct attesters per watermark:
        # a single unlucky choice (peer without a provable stable
        # checkpoint) must not strand us for another whole interval.
        if peer in self._transfer_peers_asked or \
                len(self._transfer_peers_asked) >= \
                self.config.weak_quorum_size:
            return
        self._transfer_peers_asked.add(peer)
        request = StateTransferRequest(
            replica=self.node_id,
            have_watermark=self.executor.executed_count)
        self.ctx.send(peer, request)

    def _on_state_transfer_request(self, sender: str,
                                   request: StateTransferRequest) -> None:
        if request.replica != sender or \
                request.replica not in self.config.replica_ids:
            # Snapshot replies are expensive; an unsigned request with a
            # spoofed reply target would be a cheap reflection vector.
            self.stats["invalid_messages"] += 1
            return
        stable = self.checkpoints.stable
        if stable is None or stable.watermark <= request.have_watermark:
            return
        if len(self._stable_proof) < self.config.slow_quorum_size or \
                self._stable_proof_watermark != stable.watermark:
            return  # cannot prove this checkpoint; let a peer serve it
        reply = StateTransferReply(
            replica=self.node_id,
            watermark=stable.watermark,
            snapshot=stable.snapshot,
            proof=self._stable_proof,
            entries=self._summarize_log_suffix(stable),
        )
        self.ctx.send(request.replica, reply)
        self.stats["state_transfers_served"] += 1

    def _summarize_log_suffix(self, stable: Checkpoint
                              ) -> Tuple[LogEntrySummary, ...]:
        """The retained log above the stable checkpoint's frontier, with
        the strongest proof held per entry -- what a lagging replica
        needs on top of the snapshot to rejoin live traffic."""
        frontier = stable.snapshot.get("frontier", {})
        return tuple(
            summarize_entry(entry)
            for owner, space in self.spaces.items()
            for entry in space.entries()
            if entry.instance.slot >= int(frontier.get(owner, 0)))

    def _on_state_transfer_reply(self, sender: str,
                                 reply: StateTransferReply) -> None:
        if reply.watermark <= self.executor.executed_count:
            return  # caught up by other means in the meantime
        behind = reply.watermark >= self.executor.executed_count + \
            max(1, self.checkpoints.interval)
        solicited = bool(self._transfer_peers_asked) and \
            reply.watermark >= self._transfer_requested
        if not (behind or solicited):
            # Unsolicited and we are not meaningfully behind: installing
            # would needlessly discard speculation, pending orders, and
            # reply-cache results that live execution will cover anyway.
            return
        if not self._verify_checkpoint_proof(reply):
            self.stats["invalid_messages"] += 1
            return
        self._install_snapshot(reply)

    def _verify_checkpoint_proof(self, reply: StateTransferReply) -> bool:
        """2f+1 distinct, valid EZCHECKPOINT signatures binding the
        reply's watermark to the digest of the shipped snapshot."""
        state_digest = digest(reply.snapshot)
        signers = set()
        for envelope in reply.proof:
            if not isinstance(envelope, SignedPayload):
                return False
            payload = envelope.payload
            if not isinstance(payload, EzCheckpoint):
                return False
            if payload.watermark != reply.watermark or \
                    payload.state_digest != state_digest:
                return False
            if not envelope.verify(self.registry):
                return False
            if envelope.signer != payload.replica or \
                    payload.replica not in self.config.replica_ids:
                return False
            signers.add(payload.replica)
        return len(signers) >= self.config.slow_quorum_size

    def _install_snapshot(self, reply: StateTransferReply) -> None:
        """Adopt a proven stable checkpoint wholesale (state transfer).

        Restores the application state, truncates every space to the
        checkpoint's frontier, fast-forwards the executor, installs the
        transferred log suffix entry-by-entry (each individually
        verified), and resumes normal execution."""
        snapshot = reply.snapshot
        frontier = {owner: int(slot)
                    for owner, slot in
                    snapshot.get("frontier", {}).items()}
        executed_above = {
            InstanceID(owner, slot)
            for owner, slot in snapshot.get("executed_above", ())
        }
        self.statemachine.rollback_speculative()
        self.statemachine.restore(snapshot.get("state", {}))
        for owner, space in self.spaces.items():
            self._truncate_space(space, frontier.get(owner, 0))
        self._pending_spec_orders = {
            k: v for k, v in self._pending_spec_orders.items()
            if k[1] >= frontier.get(k[0], 0)
        }
        # Forget cached frontier cursors: entries above the cut that we
        # had executed locally are being demoted below (their effects
        # died with the restore), so the contiguous-executed scan must
        # resume from the installed frontier, not our old progress.
        self._frontier_cursor = dict(frontier)
        self.executor.install(
            reply.watermark, frontier,
            {c: int(t) for c, t in
             snapshot.get("client_floors", {}).items()},
            snapshot.get("client_sparse", {}),
            executed_above,
            client_results=snapshot.get("client_results", {}))
        # Entries we executed locally but that are NOT inside the
        # snapshot's first ``watermark`` executions lost their effects
        # with the restore; demote them so they re-apply.
        for iid, entry in self._log_index.items():
            if entry.status == EntryStatus.EXECUTED and \
                    iid not in executed_above:
                entry.status = EntryStatus.COMMITTED
                entry.applied = False
        for summary in reply.entries:
            self._install_transferred_entry(summary, frontier)
        for iid in executed_above:
            entry = self._log_index.get(iid)
            if entry is not None:
                # Its effect is inside the snapshot state already; mark
                # executed so it is never re-applied.
                entry.status = EntryStatus.EXECUTED
        for space in self.spaces.values():
            while space.expected_slot in space:
                space.expected_slot += 1
            if space.owner == self.node_id:
                space.next_slot = max(space.next_slot,
                                      space.max_occupied_slot + 1)
        state_digest = digest(snapshot)
        self.checkpoints.install_stable(Checkpoint(
            watermark=reply.watermark, state_digest=state_digest,
            snapshot=snapshot))
        self.checkpoint_log.append((reply.watermark, state_digest))
        self._stable_proof = reply.proof
        self._stable_proof_watermark = reply.watermark
        self._transfer_requested = max(self._transfer_requested,
                                       reply.watermark)
        self._transfer_peers_asked = set()
        self.stats["state_transfers_installed"] += 1
        if self.storage is not None and not self._recovering:
            self._persist_stable(self.checkpoints.stable)
        for space in self.spaces.values():
            if not space.frozen:
                self._drain_pending(space)
        self._advance_execution()

    def _install_transferred_entry(self, summary: LogEntrySummary,
                                   frontier: Dict[str, int]) -> None:
        """Install one suffix entry, trusting only verifiable evidence.

        The suffix is not covered by the snapshot digest, so every
        entry's command/deps/seq are adopted from its *verified* proof
        (a commit certificate or the owner's signed SPECORDER), never
        from the unverified summary; proofless summaries are skipped --
        safety over liveness, the live protocol re-delivers anything
        still open."""
        instance = summary.instance
        if summary.command is None or \
                instance.slot < frontier.get(instance.owner, 0):
            return
        space = self.spaces.get(instance.owner)
        if space is None:
            return
        existing = self._log_index.get(instance)
        committed = summary.proof_kind == "commit"
        if existing is not None and (
                existing.status.at_least(EntryStatus.COMMITTED)
                or not committed):
            return  # never downgrade what we already hold
        if committed:
            entry = self._entry_from_commit_proof(summary)
        else:
            entry = self._entry_from_spec_order_proof(summary)
        if entry is None:
            return
        space.force_put(entry)
        self._index_entry(entry)

    def _entry_from_commit_proof(self, summary: LogEntrySummary
                                 ) -> Optional[LogEntry]:
        """A committed suffix entry backed by either a 2f+1 SPECREPLY
        certificate (fast path evidence) or the client's signed COMMIT
        (slow path evidence); metadata comes from the certificate."""
        proof = summary.proof
        if not proof or not all(isinstance(p, SignedPayload)
                                for p in proof):
            return None
        payloads = [p.payload for p in proof]
        if all(isinstance(p, SpecReply) for p in payloads):
            if len(proof) < self.config.slow_quorum_size:
                return None
            if not self._validate_reply_certificate(
                    proof, summary.instance, require_match=True):
                return None
            sample: SpecReply = payloads[0]
            command = summary.command
            if command.ident != (sample.client_id, sample.timestamp):
                return None
            return LogEntry(
                instance=summary.instance,
                owner_number=sample.owner_number,
                command=command, deps=sample.deps, seq=sample.seq,
                status=EntryStatus.COMMITTED,
                commit_proof=tuple(proof))
        if len(proof) == 1 and isinstance(payloads[0], Commit):
            envelope, commit = proof[0], payloads[0]
            if not envelope.verify(self.registry) or \
                    envelope.signer != commit.client_id:
                return None
            if commit.instance != summary.instance or \
                    not self._validate_slow_certificate(commit):
                return None
            return LogEntry(
                instance=summary.instance,
                owner_number=summary.owner_number,
                command=commit.command, deps=commit.deps,
                seq=commit.seq, status=EntryStatus.COMMITTED,
                commit_proof=tuple(proof))
        return None

    def _entry_from_spec_order_proof(self, summary: LogEntrySummary
                                     ) -> Optional[LogEntry]:
        """An uncommitted suffix entry: only the owner's own signed
        SPECORDER (or a batch covering the instance) is evidence."""
        if len(summary.proof) != 1:
            return None
        envelope = summary.proof[0]
        if not isinstance(envelope, SignedPayload) or \
                not envelope.verify(self.registry):
            return None
        payload = envelope.payload
        if isinstance(payload, BatchSpecOrder):
            inner = payload.order_for(summary.instance)
        elif isinstance(payload, SpecOrder) and \
                payload.instance == summary.instance:
            inner = payload
        else:
            return None
        if inner is None or envelope.signer != inner.leader:
            return None
        if inner.leader != self.config.owner_for_number(
                inner.owner_number):
            return None
        return LogEntry(
            instance=summary.instance,
            owner_number=inner.owner_number,
            command=inner.command, deps=inner.deps, seq=inner.seq,
            status=EntryStatus.SPEC_ORDERED, spec_order=envelope)

    # ------------------------------------------------------------------
    # Durability: WAL/snapshot persistence and restart-from-disk
    # ------------------------------------------------------------------
    def attach_storage(self, storage: Any) -> None:
        """Wire the durability seam (a ``repro.storage.ReplicaStorage``).

        Attach before traffic flows; pair with
        :meth:`recover_from_storage` to restart from its contents.
        """
        self.storage = storage

    def _persist_entry(self, sender: str, message: Any) -> None:
        if self.storage is not None and not self._recovering:
            self.storage.append_entry(sender, message)

    def _persist_attest(self, sender: str, message: Any) -> None:
        if self.storage is not None and not self._recovering:
            self.storage.append_attest(sender, message)

    def _persist_stable(self, checkpoint: Checkpoint) -> None:
        """Make a stable checkpoint durable: atomic snapshot file, then
        a fresh WAL segment re-logging the retained suffix (so every
        segment head is self-contained from its watermark on), then
        prune history beyond the retention window."""
        self.storage.save_snapshot(checkpoint.watermark,
                                   checkpoint.state_digest,
                                   checkpoint.snapshot)
        self.storage.rotate(checkpoint.watermark)
        self._relog_retained()
        self.storage.prune()

    def _relog_retained(self) -> None:
        """Re-append the evidence for everything above the stable
        frontier -- retained log entries, their strongest commit proof,
        and still-buffered out-of-order orders -- into the fresh
        segment, so recovery never needs pruned history."""
        seen: set = set()
        pinned: list = []  # id() is only unique while the object lives

        def relog(sender: str, message: Any) -> None:
            if message is None or id(message) in seen:
                return  # a batch envelope covers several entries
            seen.add(id(message))
            pinned.append(message)
            self.storage.append_entry(sender, message)

        for space in self.spaces.values():
            for entry in space.entries():
                if entry.spec_order is not None:
                    relog(entry.spec_order.signer, entry.spec_order)
                if not entry.status.at_least(EntryStatus.COMMITTED) or \
                        not entry.commit_proof:
                    continue
                if entry.committed_slow:
                    proof = entry.commit_proof[0]
                    relog(proof.signer, proof)
                else:
                    relog(self.node_id, CommitFast(
                        client_id=entry.command.client_id,
                        instance=entry.instance,
                        certificate=entry.commit_proof))
        for _, envelope in self._pending_spec_orders.values():
            relog(envelope.signer, envelope)

    def recover_from_storage(self) -> Any:
        """Rebuild this replica from its attached store.

        Loads the newest digest-valid snapshot (restore state machine,
        frontiers, executor bookkeeping, checkpoint watermark), then
        replays the retained WAL segments through the ordinary message
        handlers with sends muted and persistence disabled.  Anything
        past what disk retains is rejoined through the existing
        state-transfer path once live traffic resumes.  Returns a
        :class:`repro.storage.RecoverySummary`.
        """
        from repro.storage.store import RecoverySummary

        if self.storage is None:
            raise ProtocolError("recover_from_storage: no storage "
                                "attached")
        summary = RecoverySummary()
        payload = self.storage.load_snapshot(summary)
        # Materialize before mutating anything: a stability event during
        # replay rotates and prunes segments, which must not race the
        # read side.
        records = list(self.storage.replay_records(summary))
        executed_above: set = set()
        if payload is not None:
            executed_above = self._restore_checkpoint(payload)
        live_ctx = self.ctx
        self.ctx = _RecoveryContext(live_ctx)
        self._recovering = True
        try:
            for record in records:
                if not isinstance(record, dict):
                    continue
                wire = record.get("wire")
                if wire is None:
                    continue
                try:
                    message = decode(wire)
                except SerializationError as exc:
                    # A record this build cannot read (e.g. written
                    # before SPECORDERs moved out of the signed
                    # SPECREPLY): skipping it would silently drop the
                    # commit proofs it holds, so name the file.
                    raise SerializationError(
                        f"{record.get('segment')}: unusable WAL record "
                        f"from {record.get('sender')!r}: {exc}") from exc
                except (ProtocolError, KeyError, TypeError, ValueError):
                    continue  # malformed record: skip, stay live
                self.on_message(str(record.get("sender", "")), message)
        finally:
            self._recovering = False
            self.ctx = live_ctx
        # Mirrors _install_snapshot: replayed entries whose effects are
        # already inside the restored state must never re-apply.
        for iid in executed_above:
            entry = self._log_index.get(iid)
            if entry is not None:
                entry.status = EntryStatus.EXECUTED
        own = self.spaces[self.node_id]
        own.next_slot = max(own.next_slot, own.max_occupied_slot + 1)
        for space in self.spaces.values():
            if not space.frozen:
                self._drain_pending(space)
        self._advance_execution()
        stable = self.checkpoints.stable
        if stable is not None and \
                stable.watermark != (summary.snapshot_watermark or 0):
            # Replay advanced stability past the on-disk snapshot; sync
            # the store so the next restart starts from the newer point.
            self._persist_stable(stable)
        return summary

    def _restore_checkpoint(self, payload: Dict[str, Any]) -> set:
        """Adopt a recovered snapshot (the local-disk analogue of
        :meth:`_install_snapshot`, minus transferred suffix entries --
        those come from WAL replay).  Returns the ``executed_above``
        instance set for the post-replay fixup."""
        snapshot = payload["snapshot"]
        watermark = int(payload["watermark"])
        frontier = {owner: int(slot)
                    for owner, slot in
                    snapshot.get("frontier", {}).items()}
        executed_above = {
            InstanceID(owner, slot)
            for owner, slot in snapshot.get("executed_above", ())
        }
        self.statemachine.restore(snapshot.get("state", {}))
        for owner, space in self.spaces.items():
            space.truncate(frontier.get(owner, 0))
        self._frontier_cursor = dict(frontier)
        floors = {c: int(t) for c, t in
                  snapshot.get("client_floors", {}).items()}
        self.executor.install(
            watermark, frontier, floors,
            snapshot.get("client_sparse", {}),
            executed_above,
            client_results=snapshot.get("client_results", {}))
        for client, floor in floors.items():
            self._client_ts[client] = max(
                self._client_ts.get(client, -1), floor)
        checkpoint = Checkpoint(watermark=watermark,
                                state_digest=payload["state_digest"],
                                snapshot=snapshot)
        self.checkpoints = CheckpointStore.restore_from(
            checkpoint, quorum=self.config.slow_quorum_size,
            interval=self.config.checkpoint_interval)
        self.checkpoint_log.append((watermark, checkpoint.state_digest))
        return executed_above

    def _send_commit_reply(self, entry: LogEntry, client_id: str) -> None:
        reply = CommitReply(
            replica=self.node_id,
            instance=entry.instance,
            client_id=entry.command.client_id,
            timestamp=entry.command.timestamp,
            result=entry.final_result,
        )
        self.ctx.send(client_id, SignedPayload.create(reply, self.keypair))

    # ------------------------------------------------------------------
    # Certificates
    # ------------------------------------------------------------------
    def _validate_fast_certificate(self, commit: CommitFast) -> bool:
        cert = commit.certificate
        if len(cert) < self.config.fast_quorum_size:
            return False
        return self._validate_reply_certificate(cert, commit.instance,
                                                require_match=True)

    def _validate_slow_certificate(self, commit: Commit) -> bool:
        """2f+1 valid SPECREPLY headers for the commit's instance *and
        command*, with the COMMIT's metadata exactly what they combine
        to: ``deps`` their union, ``seq`` their maximum.  The client
        signs the COMMIT but may not choose either -- dependency
        collection leans on every correct voter's deps surviving into
        the final set (see :meth:`_collect_deps`)."""
        cert = commit.certificate
        if len(cert) < self.config.slow_quorum_size:
            return False
        if not self._validate_reply_certificate(cert, commit.instance,
                                                require_match=False):
            return False
        deps: set = set()
        seq = 0
        for signed in cert:
            reply = signed.payload
            if (reply.client_id, reply.timestamp) != commit.command.ident:
                return False
            deps.update(reply.deps)
            seq = max(seq, reply.seq)
        return commit.deps == tuple(sorted(deps)) and commit.seq == seq

    def _validate_reply_certificate(self, cert, instance: InstanceID,
                                    require_match: bool) -> bool:
        signers = set()
        first: Optional[SpecReply] = None
        for signed in cert:
            reply = signed.payload
            if not isinstance(reply, SpecReply):
                return False
            if not signed.verify(self.registry):
                return False
            if signed.signer != reply.replica:
                return False
            if reply.instance != instance:
                return False
            if reply.replica not in self.config.replica_ids:
                return False
            signers.add(reply.replica)
            if first is None:
                first = reply
            elif require_match and not first.matches_fast(reply):
                return False
        return len(signers) == len(cert)

    # ------------------------------------------------------------------
    # Misbehavior and owner changes (delegated)
    # ------------------------------------------------------------------
    def _on_pom(self, sender: str, pom: ProofOfMisbehavior) -> None:
        self.owner_changes.on_pom(pom)

    def _on_start_owner_change(self, sender: str, msg: StartOwnerChange,
                               envelope: SignedPayload) -> None:
        if envelope.signer != msg.sender:
            self.stats["invalid_messages"] += 1
            return
        self.owner_changes.on_start_owner_change(msg)

    def _on_owner_change(self, sender: str, msg: OwnerChange,
                         envelope: SignedPayload) -> None:
        if envelope.signer != msg.sender:
            self.stats["invalid_messages"] += 1
            return
        self.owner_changes.on_owner_change(msg, envelope)

    def _on_new_owner(self, sender: str, msg: NewOwner,
                      envelope: SignedPayload) -> None:
        if envelope.signer != msg.new_owner:
            self.stats["invalid_messages"] += 1
            return
        self.owner_changes.on_new_owner(msg)

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
        executed from a snapshot does not know which it was.  The
        relation is only ever asked ``interferes``; it need not be
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
        """
        chains = self._key_index.get(self._index_key(command))
        if chains is None:
            return ()
        interferes = self.interference.interferes
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
        key = self._index_key(entry.command)
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

    def _find_entry_for_command(self, command: Command
                                ) -> Optional[LogEntry]:
        # The chains under the command's index key are authoritative
        # (every logged instance sits in exactly one), so no O(|log|)
        # fallback is needed on the hot path.
        #
        # Retried commands can end up proposed in *several* competing
        # instances (each retry rotates the command-leader); picking the
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

    def _reaffirm_entry(self, entry: LogEntry) -> None:
        """Converge a retried command on one instance: re-send our
        SPECREPLY for it, and -- if we led it -- re-broadcast the
        signed SPECORDER so replicas that lost the original install
        the same instance instead of a fresh competing one."""
        if entry.spec_order is None:
            return
        if entry.instance.owner == self.node_id and \
                entry.spec_order.signer == self.node_id:
            self.ctx.broadcast(self.config.others(self.node_id),
                               entry.spec_order)
        self._send_spec_reply(entry, entry.spec_order)

    def _space_digest(self, space: InstanceSpace) -> str:
        """Rolling digest of a space's proposal history (the paper's
        ``h``).

        Maintained as a hash chain advanced per appended proposal
        (:meth:`_advance_space_digest`), keeping the owner's hot path
        O(1) instead of re-serializing the whole space per SPECORDER.
        """
        return self._space_chain.get(space.owner, "")

    def _advance_space_digest(self, space: InstanceSpace,
                              entry: LogEntry) -> None:
        """Chain the freshly led entry into the space's rolling digest."""
        self._space_chain[space.owner] = digest([
            self._space_chain.get(space.owner, ""),
            entry.instance.to_wire(), entry.command.to_wire(), entry.seq,
        ])

    # ------------------------------------------------------------------
    # Handler tables
    # ------------------------------------------------------------------
    _SIGNED_HANDLERS = {
        Request.MSG_TYPE: _on_request,
        BatchRequest.MSG_TYPE: _on_batch_request,
        SpecOrder.MSG_TYPE: _on_spec_order,
        BatchSpecOrder.MSG_TYPE: _on_batch_spec_order,
        Commit.MSG_TYPE: _on_commit,
        StartOwnerChange.MSG_TYPE: _on_start_owner_change,
        OwnerChange.MSG_TYPE: _on_owner_change,
        NewOwner.MSG_TYPE: _on_new_owner,
        EzCheckpoint.MSG_TYPE: _on_ez_checkpoint,
    }
    _PLAIN_HANDLERS = {
        CommitFast.MSG_TYPE: _on_commit_fast,
        ResendRequest.MSG_TYPE: _on_resend_request,
        ProofOfMisbehavior.MSG_TYPE: _on_pom,
        StateTransferRequest.MSG_TYPE: _on_state_transfer_request,
        StateTransferReply.MSG_TYPE: _on_state_transfer_reply,
    }
