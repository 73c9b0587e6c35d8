"""PBFT wire messages (Castro & Liskov, OSDI '99).

Five client-visible communication steps: REQUEST -> PRE-PREPARE ->
PREPARE -> COMMIT -> REPLY.  Checkpoints are attested with
:class:`~repro.messages.ezbft.EzCheckpoint`; the VIEW-CHANGE and NEW-VIEW
defined here serve all three primary-based baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.messages.base import (
    SignedPayload,
    register_message,
)
from repro.statemachine.base import Command


@register_message
@dataclass(frozen=True)
class PBFTRequest:
    """<REQUEST, o, t, c>."""

    MSG_TYPE = "pbft-request"
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
class PrePrepare:
    """<PRE-PREPARE, v, n, d> plus the request itself."""

    MSG_TYPE = "pbft-pre-prepare"
    AUTHOR = None
    ROLE = "view"  # signed by the view's primary
    cpu_cost_units = 1

    view: int
    seqno: int
    request_digest: str
    #: ``None``: a null request, which a NEW-VIEW orders into a gap.
    request: Optional[PBFTRequest]


@register_message
@dataclass(frozen=True)
class Prepare:
    """<PREPARE, v, n, d, i>."""

    MSG_TYPE = "pbft-prepare"
    AUTHOR = "replica"
    cpu_cost_units = 1

    view: int
    seqno: int
    request_digest: str
    replica: str


@register_message
@dataclass(frozen=True)
class PBFTCommit:
    """<COMMIT, v, n, d, i>."""

    MSG_TYPE = "pbft-commit"
    AUTHOR = "replica"
    cpu_cost_units = 1

    view: int
    seqno: int
    request_digest: str
    replica: str


@register_message
@dataclass(frozen=True)
class PBFTReply:
    """<REPLY, v, t, c, i, r>."""

    MSG_TYPE = "pbft-reply"
    AUTHOR = "replica"
    cpu_cost_units = 1

    view: int
    timestamp: int
    client_id: str
    replica: str
    result: Any


@register_message
@dataclass(frozen=True)
class ViewChange:
    """<VIEW-CHANGE, v+1, C, P, i>, shared by PBFT, FaB and Zyzzyva.

    ``checkpoint`` is the 2f+1 signed EZCHECKPOINTs of the sender's
    stable checkpoint (none before its first); ``certificates`` holds,
    per seqno above it, the protocol's certificate for the slot: signed
    envelopes its replica checks (``BaseReplica._certified``).
    """

    MSG_TYPE = "view-change"
    AUTHOR = "replica"

    new_view: int
    checkpoint: Tuple[SignedPayload, ...]
    certificates: Tuple[Tuple[SignedPayload, ...], ...]
    replica: str

    @property
    def cpu_cost_units(self) -> int:
        return max(1, len(self.certificates))


@register_message
@dataclass(frozen=True)
class NewView:
    """<NEW-VIEW, v+1, V, O>: 2f+1 VIEW-CHANGEs and, signed one by one,
    the ordering messages of the re-issue set they determine."""

    MSG_TYPE = "new-view"
    AUTHOR = "primary"
    ROLE = "new_view"

    new_view: int
    proof: Tuple[SignedPayload, ...]
    orders: Tuple[SignedPayload, ...]
    primary: str

    @property
    def cpu_cost_units(self) -> int:
        return max(1, len(self.proof) + len(self.orders))
