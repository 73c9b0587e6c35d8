"""The ezBFT client: an active participant in consensus.

Paper steps 1, 4.1-4.4 and 6.2: the client sends its request to one
(nearest) replica, collects SPECREPLYs, certifies the fast path with 3f+1
matching replies (COMMITFAST), falls back to the slow path by combining
the designated slow quorum's dependency sets (COMMIT), detects
command-leader equivocation (POM), and re-broadcasts timed-out requests
to trigger recovery.  Registration, submission and delivery are every
client's (:class:`~repro.protocols.base.BaseClient`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.node import NodeContext, dispatcher
from repro.config import ProtocolConfig
from repro.core.owner_change import evidence_orders
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.errors import ProtocolError
from repro.messages.base import SignedPayload
from repro.messages.ezbft import (
    BatchCommitFast,
    Commit,
    CommitFast,
    CommitReply,
    ProofOfMisbehavior,
    Request,
    SpecReply,
    SpecReplyBundle,
    statement_of,
)
from repro.protocols.base import BaseClient, DeliveryCallback, PendingRequest
from repro.statemachine.base import Command
from repro.trace.context import trace_id_for
from repro.trace.span import SPAN_CLIENT_REQUEST, SPAN_CLIENT_SLOW_PATH
from repro.trace.tracer import NULL_TRACER
from repro.types import InstanceID


@dataclass
class _Pending(PendingRequest):
    # ``replies`` holds replica -> (SPECREPLY header, its signed
    # envelope, the statement it makes:
    # :func:`~repro.messages.ezbft.statement_of`); reset on retry.
    #: The replica this attempt was sent to.
    target: str = ""
    #: replica -> the signed SPECORDER its bundle carried beside the
    #: header (unverified until two of them disagree); reset on retry.
    spec_orders: Dict[str, SignedPayload] = field(default_factory=dict)
    commit_replies: Dict[str, CommitReply] = field(default_factory=dict)
    phase: str = "spec"  # spec -> fast | slow -> done
    retries: int = 0
    #: Retries in a row that kept ``target`` (see ``EzBFTClient._retry``).
    held: int = 0
    pom_sent: bool = False
    #: Root ``client.request`` span (None when tracing is off or the
    #: trace was not sampled); every message this request emits is sent
    #: with this span's context current so it rides the wire.
    span: Optional[Any] = None


class EzBFTClient(BaseClient):
    """One ezBFT client."""

    #: Tracing seam (see :mod:`repro.trace`): the no-op singleton by
    #: default; the scenario runner / serve session swap in a live
    #: tracer.  The client owns each request's root span.
    tracer = NULL_TRACER

    #: Retry rounds in a row a client stays with a target that keeps
    #: answering (see :meth:`_retry`) before it rotates all the same.
    HELD_RETRIES = 3

    pending_cls = _Pending
    stat_keys = ("submitted", "batches_submitted", "delivered_fast",
                 "delivered_slow", "retries", "poms_sent")
    batched_requests = True

    # The entry points stay in this class's own namespace, where
    # ``benchmarks/ledger/spans.py`` looks them up to wrap them (the
    # dispatcher is a distinct function: see
    # :func:`~repro.cluster.node.dispatcher`).
    submit = BaseClient.submit
    submit_batch = BaseClient.submit_batch
    on_message = dispatcher()

    def __init__(self, client_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry, target_replica: str,
                 on_delivery: Optional[DeliveryCallback] = None) -> None:
        if target_replica not in config.replica_ids:
            raise ProtocolError(
                f"target {target_replica!r} not a replica")
        super().__init__(client_id, config, ctx, keypair, registry,
                         on_delivery=on_delivery)
        self.target_replica = target_replica
        #: Fast commits certified while one SpecReplyBundle is being
        #: walked, flushed as one frame when the walk ends (the mirror
        #: of the replica's ``_reply_outbox``): a batch's bundle from
        #: the last replica completes k fast quorums in one delivery.
        self._commit_outbox: List[Tuple[_Pending, CommitFast]] = []

    # ------------------------------------------------------------------
    # Step 1: submission
    # ------------------------------------------------------------------
    def _send_request(self, pendings: Sequence[_Pending],
                      envelope: SignedPayload) -> None:
        """Send to the target replica.  One frame carries a whole batch:
        it rides the first sampled request's root context.  The replica
        only adopts a context whose trace id matches the command, so the
        other commands in the batch keep their root span but grow no
        server-side spans (exact tracing needs client batching off)."""
        span = next((pending.span for pending in pendings
                     if pending.span is not None), None)
        self._send_under(span, self.ctx.send, self.target_replica,
                         envelope)

    def _send_under(self, span: Optional[Any],
                    send: Callable[[Any, Any], None],
                    dst: Any, message: Any) -> None:
        """``send(dst, message)`` -- ``ctx.send`` or ``ctx.broadcast``
        -- with ``span``'s context current, so the message carries it
        on the wire.  Without a span (tracing off, or the request not
        sampled) it is the plain call."""
        if span is None:
            send(dst, message)
            return
        tracer = self.tracer
        prev = tracer.set_current(span.context())
        try:
            send(dst, message)
        finally:
            tracer.set_current(prev)

    def _register_pending(self, command: Command) -> _Pending:
        pending = super()._register_pending(command)
        pending.target = self.target_replica
        tracer = self.tracer
        if tracer.enabled:
            # Root of the request's trace; sampling is decided here,
            # on the deterministic command ident, so every node keeps
            # or drops the same request.
            pending.span = tracer.start_span(
                SPAN_CLIENT_REQUEST, self.client_id,
                trace_id=trace_id_for(command.client_id,
                                      command.timestamp))
        return pending

    def _start_attempt(self, pending: _Pending) -> None:
        """A fresh attempt collects its replies anew, with a slow-path
        timer beside the retry timer."""
        pending.replies.clear()
        pending.spec_orders.clear()
        pending.commit_replies.clear()
        pending.phase = "spec"
        pending.slow_timer = self.ctx.set_timer(
            self.config.slow_path_timeout, self._on_slow_timeout,
            pending.command.ident)
        super()._start_attempt(pending)

    # ------------------------------------------------------------------
    # Step 4: speculative replies
    # ------------------------------------------------------------------
    def _on_spec_reply_bundle(self, sender: str, bundle: SpecReplyBundle,
                              envelope: None) -> None:
        """The bundle is unsigned; each header inside is checked as an
        envelope of its own."""
        try:
            for signed in bundle.replies:
                reply = signed.payload
                if isinstance(reply, SpecReply) and \
                        signed.authentic(self.registry):
                    self._on_spec_reply(reply, signed, bundle.spec_order)
        finally:
            self._flush_commit_outbox()

    def _on_spec_reply(self, reply: SpecReply, envelope: SignedPayload,
                       signed_order: Optional[SignedPayload] = None
                       ) -> None:
        pending = self._pending.get((reply.client_id, reply.timestamp))
        if pending is None or pending.phase != "spec":
            return
        pending.replies[reply.replica] = (reply, envelope,
                                          statement_of(envelope))
        if signed_order is not None:
            pending.spec_orders[reply.replica] = signed_order

        if self._detect_misbehavior(pending):
            return

        group = self._largest_matching_group(pending)
        # Step 4.1: 3f+1 matching replies -> fast decision.
        if len(group) >= self.config.fast_quorum_size:
            self._deliver_fast(pending, group)
            return
        # Optimization: once every replica has answered and the replies
        # cannot reach a fast quorum, go slow immediately rather than
        # waiting for the timer (the timer remains the correctness net).
        if len(pending.replies) == self.config.n and \
                len(group) < self.config.fast_quorum_size:
            self._try_slow_path(pending)

    def _largest_matching_group(self, pending: _Pending):
        """Largest set of matching replies (step 4's 'matched
        responses'): replies whose signed headers make one statement,
        compared as bytes."""
        groups: Dict[bytes, list] = {}
        for reply, _, statement in pending.replies.values():
            if statement is not None:
                groups.setdefault(statement, []).append(reply)
        return max(groups.values(), key=len, default=[])

    def _detect_misbehavior(self, pending: _Pending) -> bool:
        """Step 4.4: compare the SPECORDERs the replicas attached;
        equivocation by the command-leader -> POM.

        Attachments sit outside the replicas' signatures, so they prove
        nothing until checked.  Equal signature tags mean the same
        proposal and cost nothing (the common case); only when tags
        differ are the candidates verified against the registry, and
        the POM needs two that are validly signed by the leader, each
        proposing this very command -- a forged, garbled or replayed
        attachment from one byzantine replica is ignored."""
        if pending.pom_sent:
            return True
        orders = [so for so in pending.spec_orders.values()
                  if so.signer == pending.target]
        if len({so.signature.tag for so in orders}) < 2:
            return False
        ident = pending.command.ident
        valid: Dict[str, SignedPayload] = {}
        for so in orders:
            if so.signature.tag in valid:
                continue
            proposed = evidence_orders(so, pending.target) or ()
            if any(o.command.ident == ident for o in proposed) \
                    and so.authentic(self.registry):
                valid[so.signature.tag] = so
        if len(valid) < 2:
            return False
        first, second = list(valid.values())[:2]
        self._send_pom(pending, first, second)
        return True

    def _send_pom(self, pending: _Pending, first: SignedPayload,
                  second: SignedPayload) -> None:
        pending.pom_sent = True
        self.stats["poms_sent"] += 1
        suspect = pending.target
        owner_number = first.payload.owner_number
        pom = ProofOfMisbehavior(suspect=suspect,
                                 owner_number=owner_number,
                                 evidence=(first, second))
        self.ctx.broadcast(self.config.replica_ids, pom)
        # Recovery will finalize the old instance; retry through another
        # replica so the command itself makes progress.
        self._retry(pending, exclude=suspect)

    # ------------------------------------------------------------------
    # Step 4.1: fast path
    # ------------------------------------------------------------------
    def _deliver_fast(self, pending: _Pending, group) -> None:
        certificate = tuple(
            envelope
            for replica, (reply, envelope, _) in
            sorted(pending.replies.items())
            if any(reply is g for g in group)
        )[:self.config.fast_quorum_size]
        pending.phase = "fast"  # decided; sent and delivered at flush
        self._commit_outbox.append((pending, CommitFast(
            client_id=self.client_id, instance=group[0].instance,
            certificate=certificate)))

    def _flush_commit_outbox(self) -> None:
        """Close the outbox: broadcast what the bundle certified -- one
        COMMITFAST as itself, several as one :class:`BatchCommitFast`
        -- then hand the results to the application.

        Asynchronous: the COMMITFAST is not on the latency-critical
        path (nothing is awaited between the send and the deliveries).
        It carries a root context -- the request's own, or for a batch
        the first sampled request's, as ``submit_batch`` does -- so each
        replica's commit event (and its execution spans) joins the
        trace."""
        outbox = self._commit_outbox
        if not outbox:
            return
        self._commit_outbox = []
        commits = tuple(commit for _, commit in outbox)
        span = next((pending.span for pending, _ in outbox
                     if pending.span is not None), None)
        self._send_under(
            span, self.ctx.broadcast, self.config.replica_ids,
            commits[0] if len(commits) == 1
            else BatchCommitFast(commits=commits))
        for pending, commit in outbox:
            self._deliver(pending, commit.certificate[0].payload.result,
                          "fast")

    # ------------------------------------------------------------------
    # Step 4.2 / 6.2: slow path
    # ------------------------------------------------------------------
    def _on_slow_timeout(self, ident: Tuple[str, int]) -> None:
        pending = self._pending.get(ident)
        if pending is None or pending.phase != "spec":
            return
        self._try_slow_path(pending)

    def _try_slow_path(self, pending: _Pending) -> None:
        quorum = self.config.slow_quorum_for(pending.target)
        available = {r: pending.replies[r]
                     for r in quorum if r in pending.replies}
        if len(available) < self.config.slow_quorum_size:
            # The designated quorum is short (a member may be the faulty
            # replica).  Any 2f+1 signed replies are an equally valid
            # certificate -- the designated set is a determinism
            # optimization, not a safety requirement -- so fall back to
            # whatever we hold.
            available = dict(pending.replies)
        if len(available) < self.config.slow_quorum_size:
            return  # keep waiting; the retry timer is the next net
        # Replies must agree on the instance to be combinable.
        by_instance: Dict[InstanceID, list] = {}
        for reply, envelope, _ in available.values():
            by_instance.setdefault(reply.instance, []).append(
                (reply, envelope))
        instance, combinable = max(by_instance.items(),
                                   key=lambda kv: len(kv[1]))
        if len(combinable) < self.config.slow_quorum_size:
            return
        deps = set()
        seq = 0
        for reply, _ in combinable:
            deps.update(reply.deps)
            seq = max(seq, reply.seq)
        certificate = tuple(envelope for _, envelope in combinable)
        commit = Commit(client_id=self.client_id, instance=instance,
                        command=pending.command,
                        deps=tuple(sorted(deps)), seq=seq,
                        certificate=certificate)
        pending.phase = "slow"
        envelope = self.sign(commit)
        span = pending.span
        # Mark the fallback and send the combined COMMIT under the root
        # context so the slow-path commit events join the trace.
        if span is not None:
            self.tracer.event(SPAN_CLIENT_SLOW_PATH, self.client_id,
                              span.context())
        self._send_under(span, self.ctx.broadcast,
                         self.config.replica_ids, envelope)

    def _on_commit_reply(self, sender: str, reply: CommitReply,
                         envelope: SignedPayload) -> None:
        pending = self._pending.get((reply.client_id, reply.timestamp))
        if pending is None or pending.phase != "slow":
            return
        pending.commit_replies[reply.replica] = reply
        # 2f+1 matching results finalize the command (step 6.2).
        by_result: Dict[str, list] = {}
        for crep in pending.commit_replies.values():
            by_result.setdefault(repr(crep.result), []).append(crep)
        for group in by_result.values():
            if len(group) >= self.config.slow_quorum_size:
                self._deliver(pending, group[0].result, "slow")
                return

    # ------------------------------------------------------------------
    # Step 4.3: retry / recovery trigger
    # ------------------------------------------------------------------
    def _retry(self, pending: _Pending,
               exclude: Optional[str] = None) -> None:
        """Re-broadcast the request naming the unresponsive recipient (so
        correct replicas relay and suspect it), and re-submit it directly
        -- to the next replica in ring order unless f+1 replicas
        answered, so the command itself makes progress without a dead
        or faulty recipient."""
        pending.retries += 1
        self.stats["retries"] += 1
        original = pending.target
        # Keep the target only while f+1 distinct replicas answered
        # since the last send: one of them is correct, so a correct
        # replica holds an instance of the command, and a fresh leader
        # would fork a second one.  The broadcast below then has every
        # correct replica re-answer from the canonical instance, which
        # converges the replies.  Fewer answers rotate at once -- the
        # target alone proves nothing, since a faulty leader can answer
        # the client and withhold its SPECORDER -- and so does the retry
        # after HELD_RETRIES held rounds in a row, so that no replica
        # pins the client for ever.
        heard = len(pending.replies.keys() |
                    pending.commit_replies.keys())
        if heard > self.config.f and exclude is None and \
                pending.held < self.HELD_RETRIES:
            pending.held += 1
        else:
            pending.held = 0
            # Rotate to the next replica (skipping the excluded one).
            idx = self.config.index_of(original)
            for step in range(1, self.config.n + 1):
                candidate = self.config.replica_at(idx + step)
                if candidate != exclude:
                    pending.target = candidate
                    break
        # Retries continue the same trace: recovery latency is part of
        # the request's causal story, not a fresh one.
        span = pending.span
        self._send_under(span, self.ctx.broadcast,
                         self.config.others(original),
                         self.sign(Request(command=pending.command,
                                           original_replica=original)))
        self._send_under(span, self.ctx.send, pending.target,
                         self.sign(Request(command=pending.command)))
        self._start_attempt(pending)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, pending: _Pending, result: Any, path: str) -> None:
        if pending.phase == "done":
            return
        pending.phase = "done"
        if pending.retries > 0 and pending.target != self.target_replica:
            # The original target was unresponsive; stick with the replica
            # that actually served us for future requests.
            self.target_replica = pending.target
        if pending.span is not None:
            # Close the root span with the commit path that actually
            # delivered; the critical-path analyzer buckets on it.
            self.tracer.end_span(pending.span, attrs={"path": path})
            pending.span = None
        super()._deliver(pending, result, path)

    _SIGNED_HANDLERS = {CommitReply.MSG_TYPE: _on_commit_reply}
    _PLAIN_HANDLERS = {SpecReplyBundle.MSG_TYPE: _on_spec_reply_bundle}
