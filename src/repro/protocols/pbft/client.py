"""PBFT client: sends to the primary, accepts f+1 matching replies."""

from __future__ import annotations

from repro.messages.pbft import PBFTReply
from repro.protocols.base import BaseClient


class PBFTClient(BaseClient):
    """One PBFT client."""

    path = "pbft"
    stat_keys = BaseClient.stat_keys + ("batches_submitted",)
    batched_requests = True
    _SIGNED_HANDLERS = {PBFTReply.MSG_TYPE: BaseClient._on_reply}
