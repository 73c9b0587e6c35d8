"""PBFT wire messages (Castro & Liskov, OSDI '99).

Five client-visible communication steps: REQUEST -> PRE-PREPARE ->
PREPARE -> COMMIT -> REPLY.  View changes included; checkpoints are
attested with :class:`~repro.messages.ezbft.EzCheckpoint`.
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
    AUTHOR = None  # role: the view's primary
    cpu_cost_units = 1

    view: int
    seqno: int
    request_digest: str
    request: PBFTRequest


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
    """<VIEW-CHANGE, v+1, n, P, i>.

    ``prepared`` summarizes the sender's prepared-but-uncommitted requests
    above its last stable checkpoint: tuples of (seqno, digest, view) with
    the full request attached so the new primary can re-propose.
    """

    MSG_TYPE = "pbft-view-change"
    AUTHOR = "replica"

    new_view: int
    last_stable_seqno: int
    prepared: Tuple[Tuple[int, str, int], ...]
    requests: Tuple[PBFTRequest, ...]
    replica: str

    @property
    def cpu_cost_units(self) -> int:
        return max(1, len(self.prepared))


@register_message
@dataclass(frozen=True)
class NewView:
    """<NEW-VIEW, v+1, V, O> -- the new primary's view-change certificate
    plus re-issued PRE-PREPAREs."""

    MSG_TYPE = "pbft-new-view"
    AUTHOR = "primary"

    new_view: int
    view_change_proof: Tuple[SignedPayload, ...]
    pre_prepares: Tuple[PrePrepare, ...]
    primary: str

    @property
    def cpu_cost_units(self) -> int:
        return max(1, len(self.view_change_proof) + len(self.pre_prepares))
