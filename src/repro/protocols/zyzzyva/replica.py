"""Zyzzyva replica: speculative execution off the primary's order.

Fast path (3 client-visible steps): the primary assigns a sequence number
and broadcasts ORDER-REQ; replicas speculatively execute in sequence
order and respond directly to the client.  Slow path: the client
broadcasts a commit certificate (2f+1 matching SPEC-RESPONSEs) and
replicas acknowledge with LOCAL-COMMIT.  Execution is speculative in
the protocol's sense, but it goes straight into the state machine's
final state: nothing here ever rolls an executed slot back.

Includes FILL-HOLE recovery for gaps and an I-HATE-THE-PRIMARY /
NEW-VIEW change driven by progress timeouts or primary equivocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.cluster.node import NodeContext, Timer
from repro.config import ProtocolConfig
from repro.crypto.digest import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.messages.base import SignedPayload, authentic_payload
from repro.messages.ezbft import EzCheckpoint
from repro.messages.zyzzyva import (
    FillHole,
    IHateThePrimary,
    LocalCommit,
    OrderReq,
    SpecResponse,
    ZCommit,
    ZNewView,
    ZRequest,
)
from repro.protocols.base import BaseReplica
from repro.statemachine.base import StateMachine


@dataclass
class _Slot:
    order_req: Optional[OrderReq] = None
    signed_order: Optional[SignedPayload] = None
    history_digest: str = ""
    executed: bool = False
    committed: bool = False


class ZyzzyvaReplica(BaseReplica):
    """One Zyzzyva replica."""

    progress_timers = True

    def __init__(self, node_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry, statemachine: StateMachine,
                 initial_view: int = 0) -> None:
        super().__init__(node_id, config, ctx, keypair, registry,
                         statemachine, initial_view)
        self._slots: Dict[int, _Slot] = {}
        self._next_seqno = 0          # primary allocator
        self._next_to_execute = 0     # replicas execute in seqno order
        self._history_digest = ""     # rolling history hash h_n
        self._max_committed = -1
        self._fill_hole_timer: Optional[Timer] = None
        #: Deposed view -> replica -> its signed I-HATE-THE-PRIMARY.
        self._ihtp_votes: Dict[int, Dict[str, SignedPayload]] = {}
        self._hated_views: Set[int] = set()
        self.stats.update({
            "order_reqs": 0,
            "fill_holes": 0,
            "view_changes": 0,
        })

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def _order(self, request: ZRequest) -> None:
        seqno = self._next_seqno
        self._next_seqno += 1
        d = digest(request)
        history = digest([self._history_digest, d])
        order = OrderReq(view=self.view, seqno=seqno,
                         history_digest=history, request_digest=d,
                         request=request)
        signed_order = self.sign(order)
        self.stats["order_reqs"] += 1
        self.broadcast_others(signed_order)
        self._accept_order(order, signed_order)

    def _on_order_req(self, sender: str, order: OrderReq,
                      envelope: SignedPayload) -> None:
        if not self._from_primary(envelope.signer, order.view,
                                  order.request, order.request_digest):
            return
        existing = self._slots.get(order.seqno)
        if existing is not None and existing.order_req is not None:
            if existing.order_req.request_digest != order.request_digest:
                # Primary equivocation.
                self._hate_primary()
            return
        self._accept_order(order, envelope)

    def _accept_order(self, order: OrderReq,
                      envelope: SignedPayload) -> None:
        slot = self._slots.setdefault(order.seqno, _Slot())
        slot.order_req = order
        slot.signed_order = envelope
        self._cancel_progress_timer(order.request_digest)
        self._execute_ready()
        if order.seqno > self._next_to_execute and \
                self._fill_hole_timer is None:
            # There is a gap; ask the primary to fill it.
            self._fill_hole_timer = self.ctx.set_timer(
                self.config.view_change_timeout / 2.0,
                self._request_fill_hole)

    def _execute_ready(self) -> None:
        """Speculatively execute contiguous slots in sequence order."""
        while True:
            slot = self._slots.get(self._next_to_execute)
            if slot is None or slot.order_req is None or slot.executed:
                return
            order = slot.order_req
            # Verify the history chain: our rolling digest must match the
            # primary's claim, otherwise our histories diverged.
            expected = digest([self._history_digest,
                               order.request_digest])
            if order.history_digest != expected:
                self._hate_primary()
                return
            self._history_digest = expected
            slot.history_digest = expected
            slot.executed = True
            command = order.request.command
            self._execute_and_reply(command, lambda result: SpecResponse(
                view=self.view, seqno=order.seqno,
                history_digest=expected,
                request_digest=order.request_digest,
                client_id=command.client_id,
                timestamp=command.timestamp,
                replica=self.node_id,
                result=result,
                order_req=slot.signed_order,
            ))
            self._next_to_execute += 1
            if self._fill_hole_timer is not None and \
                    not self._has_gap():
                self._fill_hole_timer.cancel()
                self._fill_hole_timer = None

    def _has_gap(self) -> bool:
        return any(s > self._next_to_execute for s in self._slots)

    # ------------------------------------------------------------------
    # Slow path
    # ------------------------------------------------------------------
    def _on_commit(self, sender: str, commit: ZCommit,
                   envelope: None) -> None:
        if len(commit.certificate) < self.config.slow_quorum_size:
            self.stats["invalid_messages"] += 1
            return
        first: Optional[SpecResponse] = None
        signers = set()
        for signed in commit.certificate:
            resp = authentic_payload(signed, SpecResponse, self.registry)
            if resp is None:
                self.stats["invalid_messages"] += 1
                return
            signers.add(resp.replica)
            if first is None:
                first = resp
            elif not first.matches(resp):
                self.stats["invalid_messages"] += 1
                return
        if first is None or len(signers) < self.config.slow_quorum_size:
            return
        slot = self._slots.get(first.seqno)
        if slot is not None:
            slot.committed = True
        self._max_committed = max(self._max_committed, first.seqno)
        ack = LocalCommit(view=self.view, seqno=first.seqno,
                          request_digest=first.request_digest,
                          history_digest=first.history_digest,
                          replica=self.node_id,
                          client_id=commit.client_id)
        self.ctx.send(commit.client_id, self.sign(ack))

    # ------------------------------------------------------------------
    # Fill-hole
    # ------------------------------------------------------------------
    def _request_fill_hole(self) -> None:
        self._fill_hole_timer = None
        if not self._has_gap():
            return
        self.stats["fill_holes"] += 1
        msg = FillHole(view=self.view, seqno=self._next_to_execute,
                       replica=self.node_id)
        self.ctx.send(self.primary, msg)
        # If the hole persists, the primary is suspect.
        self._fill_hole_timer = self.ctx.set_timer(
            self.config.view_change_timeout, self._on_fill_hole_failed)

    def _on_fill_hole_failed(self) -> None:
        self._fill_hole_timer = None
        if self._has_gap():
            self._hate_primary()

    def _on_fill_hole(self, sender: str, msg: FillHole,
                      envelope: None) -> None:
        if not self.is_primary or msg.view != self.view:
            return
        slot = self._slots.get(msg.seqno)
        if slot is not None and slot.signed_order is not None:
            self.ctx.send(msg.replica, slot.signed_order)

    # ------------------------------------------------------------------
    # View change
    # ------------------------------------------------------------------
    def _suspect_primary(self) -> None:
        self._hate_primary()

    def _hate_primary(self) -> None:
        if self.view in self._hated_views:
            return
        self._hated_views.add(self.view)
        vote = IHateThePrimary(view=self.view, replica=self.node_id)
        signed = self.sign(vote)
        self._record_ihtp(vote, signed)
        self.broadcast_others(signed)

    def _on_ihtp(self, sender: str, vote: IHateThePrimary,
                 envelope: SignedPayload) -> None:
        if vote.view < self.view:
            return
        self._record_ihtp(vote, envelope)

    def _record_ihtp(self, vote: IHateThePrimary,
                     envelope: SignedPayload) -> None:
        votes = self._ihtp_votes.setdefault(vote.view, {})
        votes[vote.replica] = envelope
        if len(votes) >= self.config.weak_quorum_size:
            # Join the mutiny (at least one correct replica voted).
            if self.view == vote.view and \
                    vote.view not in self._hated_views:
                self._hate_primary()
        if len(votes) >= self.config.slow_quorum_size:
            new_view = vote.view + 1
            if self.config.primary_for_view(new_view) == self.node_id \
                    and self.view <= vote.view:
                self._become_primary(new_view)

    def _become_primary(self, new_view: int) -> None:
        self.stats["view_changes"] += 1
        msg = ZNewView(new_view=new_view, primary=self.node_id,
                       max_committed_seqno=self._max_committed,
                       proof=tuple(self._ihtp_votes[new_view - 1].values()))
        self.broadcast_others(self.sign(msg))
        self._adopt_view(new_view)
        occupied = max(self._slots) if self._slots else -1
        self._next_seqno = max(self._next_seqno, self._next_to_execute,
                               occupied + 1)

    def _on_new_view(self, sender: str, msg: ZNewView,
                     envelope: SignedPayload) -> None:
        if msg.new_view <= self.view:
            return
        if self.config.primary_for_view(msg.new_view) != msg.primary or \
                not self._vote_proof_holds(
                    msg.proof, IHateThePrimary,
                    lambda vote: vote.view == msg.new_view - 1):
            self.stats["invalid_messages"] += 1
            return
        self._adopt_view(msg.new_view)

    _SIGNED_HANDLERS = {
        ZRequest.MSG_TYPE: BaseReplica._on_request,
        OrderReq.MSG_TYPE: _on_order_req,
        IHateThePrimary.MSG_TYPE: _on_ihtp,
        ZNewView.MSG_TYPE: _on_new_view,
        EzCheckpoint.MSG_TYPE: BaseReplica._on_checkpoint,
    }
    _PLAIN_HANDLERS = {
        ZCommit.MSG_TYPE: _on_commit,
        FillHole.MSG_TYPE: _on_fill_hole,
    }
