"""Parameterized FaB replica (common case, t = 0, N = 3f+1).

The proposer (primary) broadcasts PROPOSE; every replica acts as acceptor
and learner: acceptors broadcast ACCEPT, and a learner that collects the
accept quorum ceil((N + f + 1) / 2) -- 2f+1, the slow quorum, at
N = 3f+1 -- executes in sequence order and replies to the client.
Client-visible steps: REQUEST -> PROPOSE -> ACCEPT -> REPLY = 4 (one
fewer than PBFT, one more than Zyzzyva/ezBFT).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.cluster.node import NodeContext
from repro.config import ProtocolConfig
from repro.crypto.digest import digest
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.messages.base import SignedPayload
from repro.messages.ezbft import EzCheckpoint
from repro.messages.fab import FabAccept, FabPropose, FabReply, FabRequest
from repro.protocols.base import BaseReplica
from repro.statemachine.base import StateMachine


@dataclass
class _Slot:
    request: Optional[FabRequest] = None
    request_digest: Optional[str] = None
    #: Request digest -> the acceptors that accepted it.
    accepts: Dict[str, Set[str]] = field(default_factory=dict)
    accepted_digest: Optional[str] = None
    learned: bool = False
    executed: bool = False


class FabReplica(BaseReplica):
    """One FaB replica (proposer + acceptor + learner roles)."""

    def __init__(self, node_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry, statemachine: StateMachine,
                 initial_view: int = 0) -> None:
        super().__init__(node_id, config, ctx, keypair, registry,
                         statemachine, initial_view)
        self._slots: Dict[int, _Slot] = {}
        self._next_seqno = 0
        self._last_executed = -1
        self.stats.update({"proposals": 0})

    # ------------------------------------------------------------------
    def _order(self, request: FabRequest) -> None:
        seqno = self._next_seqno
        self._next_seqno += 1
        d = digest(request)
        propose = FabPropose(proposal_number=self.view, seqno=seqno,
                             request_digest=d, request=request)
        self.stats["proposals"] += 1
        signed = self.sign(propose)
        self.broadcast_others(signed)
        self._accept_propose(self.node_id, propose)

    def _on_propose(self, sender: str, propose: FabPropose,
                    envelope: SignedPayload) -> None:
        self._accept_propose(envelope.signer, propose)

    def _accept_propose(self, signer: str, propose: FabPropose) -> None:
        """A PROPOSE names no author: it counts when ``signer`` is the
        proposer (the view's primary)."""
        if not self._from_primary(signer, propose.proposal_number,
                                  propose.request, propose.request_digest):
            return
        slot = self._slots.setdefault(propose.seqno, _Slot())
        if slot.accepted_digest is not None and \
                slot.accepted_digest != propose.request_digest:
            return  # acceptors accept at most one value per slot
        slot.request = propose.request
        slot.request_digest = propose.request_digest
        slot.accepted_digest = propose.request_digest
        accept = FabAccept(proposal_number=propose.proposal_number,
                           seqno=propose.seqno,
                           request_digest=propose.request_digest,
                           acceptor=self.node_id)
        self._record_accept(accept)
        self.broadcast_others(self.sign(accept))

    def _on_accept(self, sender: str, accept: FabAccept,
                   envelope: SignedPayload) -> None:
        if accept.proposal_number != self.view:
            return
        self._record_accept(accept)

    def _record_accept(self, accept: FabAccept) -> None:
        slot = self._slots.setdefault(accept.seqno, _Slot())
        voters = slot.accepts.setdefault(accept.request_digest, set())
        voters.add(accept.acceptor)
        if not slot.learned and slot.request_digest == accept.request_digest \
                and len(voters) >= self.config.slow_quorum_size:
            slot.learned = True
            self._execute_ready()

    def _execute_ready(self) -> None:
        while True:
            slot = self._slots.get(self._last_executed + 1)
            if slot is None or not slot.learned or slot.executed or \
                    slot.request is None:
                return
            slot.executed = True
            self._last_executed += 1
            command = slot.request.command
            self._execute_and_reply(command, lambda result: FabReply(
                seqno=self._last_executed, client_id=command.client_id,
                timestamp=command.timestamp, replica=self.node_id,
                result=result))

    _SIGNED_HANDLERS = {
        FabRequest.MSG_TYPE: BaseReplica._on_request,
        FabPropose.MSG_TYPE: _on_propose,
        FabAccept.MSG_TYPE: _on_accept,
        EzCheckpoint.MSG_TYPE: BaseReplica._on_checkpoint,
    }
