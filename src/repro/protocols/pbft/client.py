"""PBFT client: sends to the primary, accepts f+1 matching replies."""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.messages.batching import BatchRequest
from repro.messages.pbft import PBFTReply, PBFTRequest
from repro.protocols.base import BaseClient


class PBFTClient(BaseClient):
    """One PBFT client."""

    request_cls = PBFTRequest
    path = "pbft"
    extra_stats = ("batches_submitted",)

    def submit_batch(self, commands) -> None:
        """Submit several of this client's commands under one signature.

        One :class:`~repro.messages.batching.BatchRequest` travels to
        the primary; each command keeps its own pending state and retry
        timer (retries degrade to singleton broadcast requests).  A
        batch of one degrades to :meth:`submit`.
        """
        commands = list(commands)
        if not commands:
            return
        if len(commands) == 1:
            self.submit(commands[0])
            return
        for command in commands:
            if command.client_id != self.client_id:
                raise ProtocolError(
                    "command does not belong to this client")
        for command in commands:
            self._register_pending(command)
        self.stats["batches_submitted"] += 1
        batch = BatchRequest(commands=tuple(commands))
        self.ctx.send(self.primary, self.sign(batch))

    _SIGNED_HANDLERS = {PBFTReply.MSG_TYPE: BaseClient._on_reply}
