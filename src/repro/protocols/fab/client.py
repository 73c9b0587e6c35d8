"""FaB client: sends to the proposer, accepts f+1 matching replies."""

from __future__ import annotations

from repro.messages.fab import FabReply, FabRequest
from repro.protocols.base import BaseClient


class FabClient(BaseClient):
    """One FaB client."""

    request_cls = FabRequest
    path = "fab"
    _SIGNED_HANDLERS = {FabReply.MSG_TYPE: BaseClient._on_reply}
