"""Zyzzyva wire messages (Kotla et al., SOSP '07).

Fast path: REQUEST -> ORDER-REQ -> SPEC-RESPONSE (3 client-visible steps,
3f+1 matching responses).  Slow path: client broadcasts a COMMIT
certificate of 2f+1 matching responses and waits for 2f+1 LOCAL-COMMITs
(2 extra steps).
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
class ZRequest:
    """<REQUEST, o, t, c>."""

    MSG_TYPE = "zyzzyva-request"
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
class OrderReq:
    """<ORDER-REQ, v, n, h_n, d> plus the request."""

    MSG_TYPE = "zyzzyva-order-req"
    AUTHOR = None
    ROLE = "view"  # signed by the view's primary
    cpu_cost_units = 1

    view: int
    seqno: int
    history_digest: str
    request_digest: str
    #: ``None``: a null request, which a NEW-VIEW orders into a gap.
    request: Optional[ZRequest]


@register_message
@dataclass(frozen=True)
class SpecResponse:
    """<SPEC-RESPONSE, v, n, h_n, H(r), c, t>, i, r, OR.

    ``order_req`` embeds the signed ORDER-REQ so the client can prove
    primary equivocation (two ORDER-REQs with the same n, different d).
    """

    MSG_TYPE = "zyzzyva-spec-response"
    AUTHOR = "replica"
    cpu_cost_units = 1

    view: int
    seqno: int
    history_digest: str
    request_digest: str
    client_id: str
    timestamp: int
    replica: str
    result: Any
    order_req: Optional[SignedPayload] = None

    def matches(self, other: "SpecResponse") -> bool:
        """Matching per the Zyzzyva spec: v, n, h, d, t and r equal."""
        return (self.view == other.view
                and self.seqno == other.seqno
                and self.history_digest == other.history_digest
                and self.request_digest == other.request_digest
                and self.timestamp == other.timestamp
                and self.result == other.result)


@register_message
@dataclass(frozen=True)
class ZCommit:
    """<COMMIT, c, CC> -- 2f+1 matching SPEC-RESPONSEs."""

    MSG_TYPE = "zyzzyva-commit"
    AUTHOR = None  # unsigned; each response is checked

    client_id: str
    seqno: int
    certificate: Tuple[SignedPayload, ...]

    @property
    def cpu_cost_units(self) -> int:
        return max(1, len(self.certificate))


@register_message
@dataclass(frozen=True)
class LocalCommit:
    """<LOCAL-COMMIT, v, d, h, i, c>."""

    MSG_TYPE = "zyzzyva-local-commit"
    AUTHOR = "replica"
    cpu_cost_units = 1

    view: int
    seqno: int
    request_digest: str
    history_digest: str
    replica: str
    client_id: str


@register_message
@dataclass(frozen=True)
class FillHole:
    """<FILL-HOLE, v, n, i> -- a replica asks the primary for a missed
    ORDER-REQ."""

    MSG_TYPE = "zyzzyva-fill-hole"
    AUTHOR = None  # unsigned
    cpu_cost_units = 1

    view: int
    seqno: int
    replica: str
