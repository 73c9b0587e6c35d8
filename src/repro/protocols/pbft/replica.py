"""PBFT replica: pre-prepare / prepare / commit three-phase ordering.

Client-visible latency is five communication steps: REQUEST ->
PRE-PREPARE -> PREPARE -> COMMIT -> REPLY, which is why PBFT sits at the
top of Figure 4's latency bars.

Includes a view-change protocol (timer-driven, 2f+1 VIEW-CHANGE
certificate, NEW-VIEW with re-issued pre-prepares); checkpoints and log
garbage collection are :class:`~repro.protocols.base.BaseReplica`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.cluster.node import NodeContext
from repro.config import ProtocolConfig
from repro.core.batching import RequestBatcher
from repro.crypto.digest import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.messages.base import SignedPayload
from repro.messages.batching import BatchPrePrepare, BatchRequest
from repro.messages.ezbft import EzCheckpoint
from repro.messages.pbft import (
    NewView,
    PBFTCommit,
    PBFTReply,
    PBFTRequest,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.protocols.base import BaseReplica
from repro.statemachine.base import StateMachine


@dataclass
class _Slot:
    request: Optional[PBFTRequest] = None
    request_digest: Optional[str] = None
    pre_prepare: Optional[PrePrepare] = None
    #: Request digest -> the replicas that voted for it.
    prepares: Dict[str, Set[str]] = field(default_factory=dict)
    commits: Dict[str, Set[str]] = field(default_factory=dict)
    prepared: bool = False
    committed: bool = False
    executed: bool = False


class PBFTReplica(BaseReplica):
    """One PBFT replica."""

    commit_path = "slow"
    progress_timers = True

    def __init__(self, node_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry, statemachine: StateMachine,
                 initial_view: int = 0) -> None:
        super().__init__(node_id, config, ctx, keypair, registry,
                         statemachine, initial_view)
        self._slots: Dict[int, _Slot] = {}
        self._next_seqno = 0       # primary-side allocator
        self._last_executed = -1   # highest contiguously executed seqno
        self._view_change_votes: Dict[int, Dict[str, SignedPayload]] = {}
        self._view_changing = False
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
            "view_changes": 0,
        })

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _order(self, request: PBFTRequest) -> None:
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
                self._order(PBFTRequest(command=command))

    def _flush_proposals(self, requests) -> None:
        """Batcher flush: order the accumulated requests.

        Singletons degrade to the classic per-request PRE-PREPARE;
        larger flushes are proposed as one signed BATCHPREPREPARE over
        consecutive sequence numbers.  Duplicates that slipped in during
        the batch window are dropped here.
        """
        if self._view_changing:
            return  # clients will retry into the new view
        first: Dict[Any, PBFTRequest] = {}
        for request in requests:
            first.setdefault(request.command.ident, request)
        fresh = list(first.values())
        if len(fresh) == 1:
            self._propose(fresh[0])
            return
        inner = []
        for request in fresh:
            inner.append(self._order_request(request))
        batch = BatchPrePrepare(view=self.view,
                                pre_prepares=tuple(inner))
        self.stats["batches_proposed"] += 1
        self.broadcast_others(self.sign(batch))
        # The primary counts as having pre-prepared + prepared.
        for pre_prepare in inner:
            self._broadcast_prepare(pre_prepare.seqno,
                                    pre_prepare.request_digest)

    def _order_request(self, request: PBFTRequest) -> PrePrepare:
        """Assign the next sequence number and record the slot."""
        seqno = self._next_seqno
        self._next_seqno += 1
        d = digest(request)
        pre_prepare = PrePrepare(view=self.view, seqno=seqno,
                                 request_digest=d, request=request)
        self.stats["pre_prepares"] += 1
        slot = self._slot(seqno)
        slot.request = request
        slot.request_digest = d
        slot.pre_prepare = pre_prepare
        return pre_prepare

    def _propose(self, request: PBFTRequest) -> None:
        pre_prepare = self._order_request(request)
        self.broadcast_others(self.sign(pre_prepare))
        # The primary counts as having pre-prepared + prepared.
        self._broadcast_prepare(pre_prepare.seqno,
                                pre_prepare.request_digest)

    # ------------------------------------------------------------------
    # Three-phase commit
    # ------------------------------------------------------------------
    def _on_batch_pre_prepare(self, sender: str, batch: BatchPrePrepare,
                              envelope: SignedPayload) -> None:
        """The primary's batched ordering: verify once, process each
        inner PRE-PREPARE exactly as a singleton."""
        if batch.view != self.view or self._view_changing:
            return
        signer = envelope.signer
        if signer != self.config.primary_for_view(batch.view):
            self.stats["invalid_messages"] += 1
            return
        for pre_prepare in batch.pre_prepares:
            if pre_prepare.view != batch.view:
                self.stats["invalid_messages"] += 1
                return
        for pre_prepare in sorted(batch.pre_prepares,
                                  key=lambda p: p.seqno):
            self._accept_pre_prepare(signer, pre_prepare)

    def _on_pre_prepare(self, sender: str, msg: PrePrepare,
                        envelope: SignedPayload) -> None:
        self._accept_pre_prepare(envelope.signer, msg)

    def _accept_pre_prepare(self, signer: str, msg: PrePrepare) -> None:
        """A PRE-PREPARE names no author: it counts when ``signer`` (of
        it, or of the batch or NEW-VIEW carrying it) is the primary."""
        if self._view_changing or not self._from_primary(
                signer, msg.view, msg.request, msg.request_digest):
            return
        slot = self._slot(msg.seqno)
        if slot.pre_prepare is not None and \
                slot.request_digest != msg.request_digest:
            # Equivocating primary; vote it out.
            self._start_view_change()
            return
        slot.request = msg.request
        slot.request_digest = msg.request_digest
        slot.pre_prepare = msg
        self._cancel_progress_timer(msg.request_digest)
        self._broadcast_prepare(msg.seqno, msg.request_digest)

    def _broadcast_prepare(self, seqno: int, request_digest: str) -> None:
        prepare = Prepare(view=self.view, seqno=seqno,
                          request_digest=request_digest,
                          replica=self.node_id)
        self._record_prepare(prepare)
        self.broadcast_others(self.sign(prepare))

    def _on_prepare(self, sender: str, msg: Prepare,
                    envelope: SignedPayload) -> None:
        if msg.view != self.view or self._view_changing:
            return
        self._record_prepare(msg)

    def _record_prepare(self, msg: Prepare) -> None:
        slot = self._slot(msg.seqno)
        voters = slot.prepares.setdefault(msg.request_digest, set())
        voters.add(msg.replica)
        # prepared == pre-prepare + 2f matching prepares (own included).
        if not slot.prepared and slot.request_digest == msg.request_digest \
                and len(voters) >= self.config.slow_quorum_size:
            slot.prepared = True
            commit = PBFTCommit(view=self.view, seqno=msg.seqno,
                                request_digest=msg.request_digest,
                                replica=self.node_id)
            self._record_commit(commit)
            self.broadcast_others(self.sign(commit))

    def _on_commit(self, sender: str, msg: PBFTCommit,
                   envelope: SignedPayload) -> None:
        if msg.view != self.view or self._view_changing:
            return
        self._record_commit(msg)

    def _record_commit(self, msg: PBFTCommit) -> None:
        slot = self._slot(msg.seqno)
        voters = slot.commits.setdefault(msg.request_digest, set())
        voters.add(msg.replica)
        if not slot.committed and slot.prepared and \
                slot.request_digest == msg.request_digest and \
                len(voters) >= self.config.slow_quorum_size:
            slot.committed = True
            self._execute_ready()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute_ready(self) -> None:
        while True:
            nxt = self._slots.get(self._last_executed + 1)
            if nxt is None or not nxt.committed or nxt.executed or \
                    nxt.request is None:
                return
            nxt.executed = True
            self._last_executed += 1
            command = nxt.request.command
            self._execute_and_reply(command, lambda result: PBFTReply(
                view=self.view, timestamp=command.timestamp,
                client_id=command.client_id, replica=self.node_id,
                result=result))
            self._cancel_progress_timer(nxt.request_digest)

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------
    def _suspect_primary(self) -> None:
        self._start_view_change()

    def _start_view_change(self) -> None:
        if self._view_changing:
            return
        self._view_changing = True
        self.stats["view_changes"] += 1
        new_view = self.view + 1
        stable = self.checkpoints.stable
        stable_seqno = stable.watermark if stable else 0
        prepared = []
        requests = []
        for seqno in sorted(self._slots):
            slot = self._slots[seqno]
            if slot.prepared and not slot.executed and \
                    slot.request is not None:
                prepared.append((seqno, slot.request_digest, self.view))
                requests.append(slot.request)
        msg = ViewChange(new_view=new_view,
                         last_stable_seqno=stable_seqno,
                         prepared=tuple(prepared),
                         requests=tuple(requests),
                         replica=self.node_id)
        signed = self.sign(msg)
        self._on_view_change(self.node_id, msg, signed)  # our own vote
        self.broadcast_others(signed)

    def _on_view_change(self, sender: str, msg: ViewChange,
                        envelope: SignedPayload) -> None:
        if msg.new_view <= self.view:
            return
        votes = self._view_change_votes.setdefault(msg.new_view, {})
        votes[msg.replica] = envelope
        # Join the view change once f+1 replicas demand it.
        if len(votes) >= self.config.weak_quorum_size and \
                not self._view_changing:
            self._start_view_change()
        if len(votes) >= self.config.slow_quorum_size and \
                self.config.primary_for_view(msg.new_view) == self.node_id:
            self._become_primary(msg.new_view, votes)

    def _become_primary(self, new_view: int,
                        votes: Dict[str, SignedPayload]) -> None:
        if self.view >= new_view:
            return
        # Re-issue pre-prepares for every prepared request reported.
        reissued: Dict[int, PrePrepare] = {}
        for envelope in votes.values():
            vc: ViewChange = envelope.payload
            for (seqno, req_digest, _view), request in zip(
                    vc.prepared, vc.requests):
                if seqno not in reissued:
                    reissued[seqno] = PrePrepare(
                        view=new_view, seqno=seqno,
                        request_digest=req_digest, request=request)
        proof = tuple(votes.values())
        new_view_msg = NewView(new_view=new_view,
                               view_change_proof=proof,
                               pre_prepares=tuple(reissued.values()),
                               primary=self.node_id)
        self.broadcast_others(self.sign(new_view_msg))
        self._adopt_view(new_view)
        # Continue sequence numbering after everything we have executed
        # or seen ordered -- re-using an occupied seqno would look like
        # equivocation to the backups and trigger another view change.
        occupied = max(self._slots) if self._slots else -1
        self._next_seqno = max(self._next_seqno, self._last_executed + 1,
                               occupied + 1)
        seqnos = [p.seqno for p in reissued.values()]
        if seqnos:
            self._next_seqno = max(self._next_seqno, max(seqnos) + 1)
        for pre_prepare in reissued.values():
            slot = self._slot(pre_prepare.seqno)
            slot.request = pre_prepare.request
            slot.request_digest = pre_prepare.request_digest
            slot.pre_prepare = pre_prepare
            self._broadcast_prepare(pre_prepare.seqno,
                                    pre_prepare.request_digest)

    def _on_new_view(self, sender: str, msg: NewView,
                     envelope: SignedPayload) -> None:
        if msg.new_view <= self.view:
            return
        if self.config.primary_for_view(msg.new_view) != msg.primary or \
                not self._vote_proof_holds(
                    msg.view_change_proof, ViewChange,
                    lambda vote: vote.new_view == msg.new_view):
            self.stats["invalid_messages"] += 1
            return
        self._adopt_view(msg.new_view)
        for pre_prepare in msg.pre_prepares:
            self._accept_pre_prepare(msg.primary, pre_prepare)

    def _adopt_view(self, new_view: int) -> None:
        super()._adopt_view(new_view)
        self._view_changing = False
        # Reset per-view vote state for lower views.
        self._view_change_votes = {
            v: votes for v, votes in self._view_change_votes.items()
            if v > new_view
        }

    # ------------------------------------------------------------------
    def _slot(self, seqno: int) -> _Slot:
        return self._slots.setdefault(seqno, _Slot())

    _SIGNED_HANDLERS = {
        PBFTRequest.MSG_TYPE: BaseReplica._on_request,
        BatchRequest.MSG_TYPE: _on_batch_request,
        PrePrepare.MSG_TYPE: _on_pre_prepare,
        BatchPrePrepare.MSG_TYPE: _on_batch_pre_prepare,
        Prepare.MSG_TYPE: _on_prepare,
        PBFTCommit.MSG_TYPE: _on_commit,
        EzCheckpoint.MSG_TYPE: BaseReplica._on_checkpoint,
        ViewChange.MSG_TYPE: _on_view_change,
        NewView.MSG_TYPE: _on_new_view,
    }
