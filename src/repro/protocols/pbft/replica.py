"""PBFT replica: pre-prepare / prepare / commit three-phase ordering.

Client-visible latency is five communication steps: REQUEST ->
PRE-PREPARE -> PREPARE -> COMMIT -> REPLY, which is why PBFT sits at the
top of Figure 4's latency bars.

Checkpoints, log garbage collection and the view change are
:class:`~repro.protocols.base.BaseReplica`'s.  A slot's certificate is
the one it prepared with: the primary's signed PRE-PREPARE (or the
BATCHPREPREPARE holding it) and 2f+1 PREPAREs for it, the primary's
own among them, since the primary here sends a PREPARE too.  Votes are
kept per view, so a vote for the next view that overtakes its NEW-VIEW
still counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.cluster.node import NodeContext
from repro.config import ProtocolConfig
from repro.core.batching import RequestBatcher
from repro.crypto.digest import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.messages.base import SignedPayload, authentic_payload
from repro.messages.batching import BatchPrePrepare, BatchRequest
from repro.messages.ezbft import Request
from repro.messages.pbft import PBFTCommit, PBFTReply, PrePrepare, Prepare
from repro.protocols.base import BaseReplica
from repro.statemachine.base import StateMachine


@dataclass
class _Slot:
    pre_prepare: Optional[PrePrepare] = None
    #: The signed PRE-PREPARE, or the BATCHPREPREPARE holding it.
    envelope: Optional[SignedPayload] = None
    #: (view, request digest) -> replica -> its signed PREPARE.
    prepares: Dict[Tuple[int, str], Dict[str, SignedPayload]] = field(
        default_factory=dict)
    #: (view, request digest) -> the replicas that committed it.
    commits: Dict[Tuple[int, str], Set[str]] = field(default_factory=dict)
    #: The envelope and PREPAREs this slot last prepared with.
    certificate: Tuple[SignedPayload, ...] = ()
    prepared: bool = False
    committed: bool = False
    executed: bool = False


class PBFTReplica(BaseReplica):
    """One PBFT replica."""

    commit_path = "slow"
    order_cls = PrePrepare

    def __init__(self, node_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry, statemachine: StateMachine,
                 initial_view: int = 0) -> None:
        super().__init__(node_id, config, ctx, keypair, registry,
                         statemachine, initial_view)
        self._slots: Dict[int, _Slot] = {}
        self._last_executed = -1   # highest contiguously executed seqno
        #: Primary-path batcher: requests this replica proposes while
        #: primary are accumulated and flushed as one BATCHPREPREPARE
        #: (pass-through when ``config.batch_size == 1``).
        self.batcher = RequestBatcher(
            batch_size=config.batch_size,
            batch_timeout_ms=config.batch_timeout_ms,
            flush_fn=self._flush_proposals,
            set_timer_fn=ctx.set_timer)
        self.stats.update({
            "pre_prepares": 0,
            "batches_proposed": 0,
        })

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _order(self, request: Request) -> None:
        self.batcher.add(request)

    def _on_batch_request(self, sender: str, batch: BatchRequest,
                          envelope: SignedPayload) -> None:
        """A client's batched submission: one signature, many commands.

        The primary admits each command, in timestamp order, exactly as
        a singleton request; backups forward the whole envelope to the
        primary (retries fall back to singleton requests, which carry
        the progress timers).
        """
        if not self.is_primary:
            self.ctx.send(self.primary, envelope)
            return
        for command in sorted(batch.commands, key=lambda c: c.timestamp):
            if self._admit(command):
                self._order(Request(command=command))

    def _flush_proposals(self, requests) -> None:
        """Batcher flush: order the accumulated requests.

        Singletons degrade to the classic per-request PRE-PREPARE;
        larger flushes are proposed as one signed BATCHPREPREPARE over
        consecutive sequence numbers.  Duplicates that slipped in during
        the batch window are dropped here.
        """
        if self._view_changing:
            return  # clients will retry into the new view
        first: Dict[Any, Request] = {}
        for request in requests:
            first.setdefault(request.command.ident, request)
        fresh = list(first.values())
        if len(fresh) == 1:
            self._propose(fresh[0])
            return
        inner = [self._order_request(request) for request in fresh]
        envelope = self.sign(BatchPrePrepare(view=self.view,
                                             pre_prepares=tuple(inner)))
        self.stats["batches_proposed"] += 1
        self.broadcast_others(envelope)
        # The primary counts as having pre-prepared + prepared.
        for pre_prepare in inner:
            self._slots[pre_prepare.seqno].envelope = envelope
            self._broadcast_prepare(pre_prepare.seqno,
                                    pre_prepare.request_digest)

    def _order_request(self, request: Request) -> PrePrepare:
        """Assign the next sequence number and record the slot."""
        pre_prepare = self._order_at(self.view, self._next_seqno, request)
        self._next_seqno += 1
        self.stats["pre_prepares"] += 1
        self._slot(pre_prepare.seqno).pre_prepare = pre_prepare
        return pre_prepare

    def _order_at(self, view: int, seqno: int,
                  request: Optional[Request]) -> PrePrepare:
        return PrePrepare(view=view, seqno=seqno,
                          request_digest=digest(request), request=request)

    def _propose(self, request: Request) -> None:
        pre_prepare = self._order_request(request)
        envelope = self.sign(pre_prepare)
        self._slots[pre_prepare.seqno].envelope = envelope
        self.broadcast_others(envelope)
        # The primary counts as having pre-prepared + prepared.
        self._broadcast_prepare(pre_prepare.seqno,
                                pre_prepare.request_digest)

    # ------------------------------------------------------------------
    # Three-phase commit
    # ------------------------------------------------------------------
    def _on_batch_pre_prepare(self, sender: str, batch: BatchPrePrepare,
                              envelope: SignedPayload) -> None:
        """The primary's batched ordering: each inner PRE-PREPARE, which
        must name the batch's view, counts as a singleton."""
        if any(p.view != batch.view for p in batch.pre_prepares):
            self.stats["invalid_messages"] += 1
            return
        for pre_prepare in sorted(batch.pre_prepares,
                                  key=lambda p: p.seqno):
            self._on_pre_prepare(sender, pre_prepare, envelope)

    def _on_pre_prepare(self, sender: str, msg: PrePrepare,
                        envelope: SignedPayload) -> None:
        """The primary's PRE-PREPARE, alone or in the batch
        ``envelope``.  One of a newer view than the slot's starts the
        slot's three phases again."""
        if not self._from_primary(msg.view, msg.request,
                                  msg.request_digest):
            return
        slot = self._slot(msg.seqno)
        if slot.pre_prepare is not None and \
                slot.pre_prepare.view == msg.view:
            if slot.pre_prepare.request_digest != msg.request_digest:
                self._suspect_primary()  # equivocating primary
            return
        slot.pre_prepare, slot.envelope = msg, envelope
        slot.prepared = slot.committed = False
        self._cancel_progress_timer(msg.request_digest)
        self._broadcast_prepare(msg.seqno, msg.request_digest)

    def _broadcast_prepare(self, seqno: int, request_digest: str) -> None:
        prepare = Prepare(view=self.view, seqno=seqno,
                          request_digest=request_digest,
                          replica=self.node_id)
        envelope = self.sign(prepare)
        self._record_prepare(prepare, envelope)
        self.broadcast_others(envelope)

    def _on_prepare(self, sender: str, msg: Prepare,
                    envelope: SignedPayload) -> None:
        if msg.view >= self._target_view:
            self._record_prepare(msg, envelope)

    def _record_prepare(self, msg: Prepare, envelope: SignedPayload) -> None:
        slot = self._slot(msg.seqno)
        key = (msg.view, msg.request_digest)
        voters = slot.prepares.setdefault(key, {})
        voters[msg.replica] = envelope
        # prepared == pre-prepare + 2f matching prepares (own included).
        pre_prepare = slot.pre_prepare
        if not slot.prepared and pre_prepare is not None and \
                (pre_prepare.view, pre_prepare.request_digest) == key \
                and len(voters) >= self.config.slow_quorum_size:
            slot.prepared = True
            slot.certificate = (slot.envelope, *voters.values())
            commit = PBFTCommit(view=msg.view, seqno=msg.seqno,
                                request_digest=msg.request_digest,
                                replica=self.node_id)
            self._record_commit(commit)
            self.broadcast_others(self.sign(commit))

    def _on_commit(self, sender: str, msg: PBFTCommit,
                   envelope: SignedPayload) -> None:
        if msg.view >= self._target_view:
            self._record_commit(msg)

    def _record_commit(self, msg: PBFTCommit) -> None:
        slot = self._slot(msg.seqno)
        key = (msg.view, msg.request_digest)
        voters = slot.commits.setdefault(key, set())
        voters.add(msg.replica)
        pre_prepare = slot.pre_prepare
        if not slot.committed and slot.prepared and \
                (pre_prepare.view, pre_prepare.request_digest) == key and \
                len(voters) >= self.config.slow_quorum_size:
            slot.committed = True
            self._execute_ready()

    def _certified(self, certificate: Tuple[SignedPayload, ...]
                   ) -> Optional[Tuple[PrePrepare, int]]:
        """A prepared certificate, which stands alone: the PRE-PREPARE
        its view's primary signed, alone or in a BATCHPREPREPARE, and
        2f+1 PREPAREs for it."""
        holder = authentic_payload(certificate[0],
                                   (PrePrepare, BatchPrePrepare),
                                   self.registry)
        if isinstance(holder, BatchPrePrepare):
            last = authentic_payload(certificate[-1], Prepare, self.registry)
            holder = next((p for p in holder.pre_prepares
                           if last is not None and p.seqno == last.seqno
                           and p.view == holder.view), None)
        if isinstance(holder, PrePrepare) and self._quorum_certifies(
                holder, certificate[1:], Prepare):
            return holder, 1
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute_ready(self) -> None:
        while True:
            nxt = self._slots.get(self._last_executed + 1)
            if nxt is None or not nxt.committed or nxt.executed:
                return
            nxt.executed = True
            self._last_executed += 1
            request = nxt.pre_prepare.request
            command = request.command if request is not None else None
            self._execute_and_reply(command, lambda result: PBFTReply(
                view=self.view, timestamp=command.timestamp,
                client_id=command.client_id, replica=self.node_id,
                result=result))
            self._cancel_progress_timer(nxt.pre_prepare.request_digest)

    # ------------------------------------------------------------------
    def _slot(self, seqno: int) -> _Slot:
        return self._slots.setdefault(seqno, _Slot())

    _SIGNED_HANDLERS = {
        **BaseReplica._SIGNED_HANDLERS,
        Request.MSG_TYPE: BaseReplica._on_request,
        BatchRequest.MSG_TYPE: _on_batch_request,
        PrePrepare.MSG_TYPE: _on_pre_prepare,
        BatchPrePrepare.MSG_TYPE: _on_batch_pre_prepare,
        Prepare.MSG_TYPE: _on_prepare,
        PBFTCommit.MSG_TYPE: _on_commit,
    }
