"""FaB client: sends to the proposer, accepts f+1 matching replies."""

from __future__ import annotations

from repro.messages.pbft import PBFTReply
from repro.protocols.base import BaseClient


class FabClient(BaseClient):
    """One FaB client."""

    path = "fab"
    _SIGNED_HANDLERS = {PBFTReply.MSG_TYPE: BaseClient._on_reply}
