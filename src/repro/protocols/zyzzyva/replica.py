"""Zyzzyva replica: speculative execution off the primary's order.

Fast path (3 client-visible steps): the primary assigns a sequence number
and broadcasts ORDER-REQ; replicas speculatively execute in sequence
order and respond directly to the client.  Slow path: the client
broadcasts a commit certificate (2f+1 matching SPEC-RESPONSEs) and
replicas acknowledge with LOCAL-COMMIT.  Execution is speculative in
the protocol's sense, but it goes straight into the state machine's
final state: nothing here ever rolls an executed slot back.

Includes FILL-HOLE recovery for gaps; the view change is
:class:`~repro.protocols.base.BaseReplica`'s.  A slot's certificate is
the primary's signed ORDER-REQ, with the client's commit certificate
once one arrived; an ORDER-REQ without one is re-issued only when f+1
VIEW-CHANGEs report it (Kotla et al.).  A re-issued ORDER-REQ chains its
history digest on the order at the seqno before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cluster.node import NodeContext, Timer
from repro.config import ProtocolConfig
from repro.crypto.digest import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.messages.base import SignedPayload, authentic_payload
from repro.messages.ezbft import Request
from repro.messages.zyzzyva import (
    FillHole,
    LocalCommit,
    OrderReq,
    SpecResponse,
    ZCommit,
)
from repro.protocols.base import BaseReplica
from repro.statemachine.base import StateMachine


@dataclass
class _Slot:
    order: Optional[OrderReq] = None
    envelope: Optional[SignedPayload] = None
    #: The signed ORDER-REQ, then with the commit certificate for it.
    certificate: Tuple[SignedPayload, ...] = ()
    executed: bool = False


class ZyzzyvaReplica(BaseReplica):
    """One Zyzzyva replica."""

    order_cls = OrderReq
    stat_keys = BaseReplica.stat_keys + ("order_reqs", "fill_holes")

    def __init__(self, node_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry, statemachine: StateMachine,
                 initial_view: int = 0) -> None:
        super().__init__(node_id, config, ctx, keypair, registry,
                         statemachine, initial_view)
        self._slots: Dict[int, _Slot] = {}
        self._next_to_execute = 0     # replicas execute in seqno order
        self._history_digest = ""     # rolling history hash h_n
        self._max_committed = -1
        self._fill_hole_timer: Optional[Timer] = None

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def _order(self, request: Request) -> None:
        order = self._order_at(self.view, self._next_seqno, request)
        self._next_seqno += 1
        signed_order = self.sign(order)
        self.stats["order_reqs"] += 1
        self.broadcast_others(signed_order)
        self._accept_order(order, signed_order)

    def _order_at(self, view: int, seqno: int,
                  request: Optional[Request]) -> OrderReq:
        """The history digest chains on the order at ``seqno - 1``."""
        d = digest(request)
        prev = self._slots.get(seqno - 1)
        history = digest([prev.order.history_digest
                          if prev is not None and prev.order else "", d])
        return OrderReq(view=view, seqno=seqno, history_digest=history,
                        request_digest=d, request=request)

    def _on_order_req(self, sender: str, order: OrderReq,
                      envelope: SignedPayload) -> None:
        if not self._from_primary(order.view, order.request,
                                  order.request_digest):
            return
        existing = self._slots.get(order.seqno)
        if existing is not None and existing.order is not None and \
                existing.order.view == order.view:
            if existing.order.request_digest != order.request_digest:
                self._suspect_primary()  # primary equivocation
            return
        self._accept_order(order, envelope)

    def _accept_order(self, order: OrderReq,
                      envelope: SignedPayload) -> None:
        self._slots[order.seqno] = _Slot(order=order, envelope=envelope,
                                         certificate=(envelope,))
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
            if slot is None or slot.order is None or slot.executed:
                return
            order = slot.order
            # Verify the history chain: our rolling digest must match the
            # primary's claim, otherwise our histories diverged.
            expected = digest([self._history_digest,
                               order.request_digest])
            if order.history_digest != expected:
                self._suspect_primary()
                return
            self._history_digest = expected
            slot.executed = True
            command = order.request.command if order.request else None
            self._execute_and_reply(command, lambda result: SpecResponse(
                view=self.view, seqno=order.seqno,
                history_digest=expected,
                request_digest=order.request_digest,
                client_id=command.client_id,
                timestamp=command.timestamp,
                replica=self.node_id,
                result=result,
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
        """A commit certificate: 2f+1 matching SPEC-RESPONSEs from
        distinct replicas."""
        responses = [authentic_payload(e, SpecResponse, self.registry)
                     for e in commit.certificate]
        first = responses[0] if responses else None
        if first is None or None in responses or \
                not all(first.matches(r) for r in responses) or \
                len({r.replica for r in responses}) < \
                self.config.slow_quorum_size:
            self.stats["invalid_messages"] += 1
            return
        slot = self._slots.get(first.seqno)
        if slot is not None and slot.order is not None and \
                slot.order.request_digest == first.request_digest:
            slot.certificate = (slot.envelope, *commit.certificate)
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
            self._suspect_primary()

    def _on_fill_hole(self, sender: str, msg: FillHole,
                      envelope: None) -> None:
        if not self.is_primary or msg.view != self.view:
            return
        slot = self._slots.get(msg.seqno)
        if slot is not None and slot.envelope is not None:
            self.ctx.send(msg.replica, slot.envelope)

    def _certified(self, certificate: Tuple[SignedPayload, ...]
                   ) -> Optional[Tuple[OrderReq, int]]:
        """The ORDER-REQ its view's primary signed; it stands alone with
        a commit certificate of 2f+1 SPEC-RESPONSEs for it, at f+1
        reports without one."""
        order = authentic_payload(certificate[0], OrderReq, self.registry)
        if order is None or len(certificate) > 1 and not \
                self._quorum_certifies(order, certificate[1:], SpecResponse):
            return None
        return order, 1 if len(certificate) > 1 else \
            self.config.weak_quorum_size

    _SIGNED_HANDLERS = {
        **BaseReplica._SIGNED_HANDLERS,
        Request.MSG_TYPE: BaseReplica._on_request,
        OrderReq.MSG_TYPE: _on_order_req,
    }
    _PLAIN_HANDLERS = {
        ZCommit.MSG_TYPE: _on_commit,
        FillHole.MSG_TYPE: _on_fill_hole,
    }
