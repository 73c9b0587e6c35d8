"""FaB Paxos wire messages (Martin & Alvisi, "Fast Byzantine Consensus").

We implement Parameterized FaB in its common-case configuration
(t = 0, N = 3f+1): the proposer (primary) broadcasts PROPOSE, acceptors
broadcast ACCEPT to the learners (all replicas), and a replica that sees
the accept quorum executes and replies to the client.  Client-visible
steps: REQUEST -> PROPOSE -> ACCEPT -> REPLY = 4, one fewer than PBFT,
one more than Zyzzyva/ezBFT -- exactly the ordering Figure 4 shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.messages.base import register_message
from repro.statemachine.base import Command


@register_message
@dataclass(frozen=True)
class FabRequest:
    """Client request to the proposer."""

    MSG_TYPE = "fab-request"
    AUTHOR = "client_id"
    #: Client-facing cost: connection termination + ECDSA verification
    #: (see repro.messages.ezbft.Request).
    cpu_cost_units = 20

    command: Command

    @property
    def client_id(self) -> str:
        return self.command.client_id

    @property
    def timestamp(self) -> int:
        return self.command.timestamp


@register_message
@dataclass(frozen=True)
class FabPropose:
    """<PROPOSE, pn, n, d> plus the request."""

    MSG_TYPE = "fab-propose"
    AUTHOR = None
    ROLE = "proposal_number"  # signed by the proposer of that number
    cpu_cost_units = 1

    proposal_number: int
    seqno: int
    request_digest: str
    #: ``None``: a null request, which a NEW-VIEW orders into a gap.
    request: Optional[FabRequest]

    @property
    def view(self) -> int:
        return self.proposal_number


@register_message
@dataclass(frozen=True)
class FabAccept:
    """<ACCEPT, pn, n, d, i> -- acceptor i accepted the proposal."""

    MSG_TYPE = "fab-accept"
    AUTHOR = "acceptor"
    cpu_cost_units = 1

    proposal_number: int
    seqno: int
    request_digest: str
    acceptor: str

    @property
    def view(self) -> int:
        return self.proposal_number


@register_message
@dataclass(frozen=True)
class FabReply:
    """Learner's reply to the client after executing the learned value;
    ``view`` (the proposal number) tells the client whom to ask next."""

    MSG_TYPE = "fab-reply"
    AUTHOR = "replica"
    cpu_cost_units = 1

    view: int
    seqno: int
    client_id: str
    timestamp: int
    replica: str
    result: Any
