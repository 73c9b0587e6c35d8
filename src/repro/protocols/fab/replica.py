"""Parameterized FaB replica (common case, t = 0, N = 3f+1).

The proposer (primary) broadcasts PROPOSE; every replica acts as acceptor
and learner: acceptors broadcast ACCEPT, and a learner that collects the
accept quorum ceil((N + f + 1) / 2) -- 2f+1, the slow quorum, at
N = 3f+1 -- executes in sequence order and replies to the client.
Client-visible steps: REQUEST -> PROPOSE -> ACCEPT -> REPLY = 4 (one
fewer than PBFT, one more than Zyzzyva/ezBFT).

The proposer changes as a PBFT primary does
(:class:`~repro.protocols.base.BaseReplica`): the proposal number is the
view.  A slot's certificate is the one it learned with, the proposer's
signed PROPOSE and the accept quorum's ACCEPTs for it (Martin and
Alvisi's proof that a value was accepted), else the PROPOSE it accepted.
A learner learns on 2f+1 ACCEPTs, without Parameterized FaB's
commit-proof step, so a value learned by one correct learner alone is
vouched for by one correct acceptor in any 2f+1 VIEW-CHANGEs: an
accepted PROPOSE is re-issued when no report contests it, and a contest
with no learned certificate blocks the NEW-VIEW rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cluster.node import NodeContext
from repro.config import ProtocolConfig
from repro.crypto.digest import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.messages.base import SignedPayload, authentic_payload
from repro.messages.ezbft import Request
from repro.messages.fab import FabAccept, FabPropose
from repro.messages.pbft import PBFTReply
from repro.protocols.base import BaseReplica
from repro.statemachine.base import StateMachine


@dataclass
class _Slot:
    #: The proposal this acceptor accepted, and its signed PROPOSE.
    propose: Optional[FabPropose] = None
    envelope: Optional[SignedPayload] = None
    #: (proposal number, request digest) -> acceptor -> its ACCEPT.
    accepts: Dict[Tuple[int, str], Dict[str, SignedPayload]] = field(
        default_factory=dict)
    #: The PROPOSE and ACCEPTs this slot last learned with, else the
    #: PROPOSE it accepted.
    certificate: Tuple[SignedPayload, ...] = ()
    learned: bool = False
    executed: bool = False


class FabReplica(BaseReplica):
    """One FaB replica (proposer + acceptor + learner roles)."""

    order_cls = FabPropose

    def __init__(self, node_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry, statemachine: StateMachine,
                 initial_view: int = 0) -> None:
        super().__init__(node_id, config, ctx, keypair, registry,
                         statemachine, initial_view)
        self._slots: Dict[int, _Slot] = {}
        self._last_executed = -1
        self.stats.update({"proposals": 0})

    # ------------------------------------------------------------------
    def _order(self, request: Request) -> None:
        propose = self._order_at(self.view, self._next_seqno, request)
        self._next_seqno += 1
        self.stats["proposals"] += 1
        signed = self.sign(propose)
        self.broadcast_others(signed)
        self._on_propose(self.node_id, propose, signed)

    def _order_at(self, view: int, seqno: int,
                  request: Optional[Request]) -> FabPropose:
        return FabPropose(proposal_number=view, seqno=seqno,
                          request_digest=digest(request), request=request)

    def _on_propose(self, sender: str, propose: FabPropose,
                    envelope: SignedPayload) -> None:
        """The proposer's PROPOSE.  An acceptor accepts one value per
        slot and proposal number."""
        if not self._from_primary(propose.proposal_number,
                                  propose.request, propose.request_digest):
            return
        slot = self._slots.setdefault(propose.seqno, _Slot())
        if slot.propose is not None and \
                slot.propose.proposal_number == propose.proposal_number:
            return
        slot.propose, slot.envelope = propose, envelope
        slot.learned = False
        if len(slot.certificate) < 2:
            slot.certificate = (envelope,)
        self._cancel_progress_timer(propose.request_digest)
        accept = FabAccept(proposal_number=propose.proposal_number,
                           seqno=propose.seqno,
                           request_digest=propose.request_digest,
                           acceptor=self.node_id)
        signed = self.sign(accept)
        self._record_accept(accept, signed)
        self.broadcast_others(signed)

    def _on_accept(self, sender: str, accept: FabAccept,
                   envelope: SignedPayload) -> None:
        if accept.proposal_number >= self._target_view:
            self._record_accept(accept, envelope)

    def _record_accept(self, accept: FabAccept,
                       envelope: SignedPayload) -> None:
        slot = self._slots.setdefault(accept.seqno, _Slot())
        key = (accept.proposal_number, accept.request_digest)
        voters = slot.accepts.setdefault(key, {})
        voters[accept.acceptor] = envelope
        propose = slot.propose
        if not slot.learned and propose is not None and \
                (propose.proposal_number, propose.request_digest) == key \
                and len(voters) >= self.config.slow_quorum_size:
            slot.learned = True
            slot.certificate = (slot.envelope, *voters.values())
            self._execute_ready()

    def _certified(self, certificate: Tuple[SignedPayload, ...]
                   ) -> Optional[Tuple[FabPropose, int]]:
        """The PROPOSE its view's proposer signed; it stands alone with
        the accept quorum's ACCEPTs for it (learned).  Without them it
        needs every VIEW-CHANGE: a value one learner learned may have a
        single correct reporter, so it is re-issued only uncontested."""
        propose = authentic_payload(certificate[0], FabPropose,
                                    self.registry)
        if propose is None or len(certificate) > 1 and not \
                self._quorum_certifies(propose, certificate[1:], FabAccept):
            return None
        return propose, 1 if len(certificate) > 1 else \
            self.config.slow_quorum_size

    def _execute_ready(self) -> None:
        while True:
            slot = self._slots.get(self._last_executed + 1)
            if slot is None or not slot.learned or slot.executed:
                return
            slot.executed = True
            self._last_executed += 1
            request = slot.propose.request
            command = request.command if request is not None else None
            self._execute_and_reply(command, lambda result: PBFTReply(
                view=self.view, timestamp=command.timestamp,
                client_id=command.client_id, replica=self.node_id,
                result=result))

    _SIGNED_HANDLERS = {
        **BaseReplica._SIGNED_HANDLERS,
        Request.MSG_TYPE: BaseReplica._on_request,
        FabPropose.MSG_TYPE: _on_propose,
        FabAccept.MSG_TYPE: _on_accept,
    }
