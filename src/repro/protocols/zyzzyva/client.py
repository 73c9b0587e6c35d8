"""Zyzzyva client: 3f+1 matching speculative responses complete a request
in three steps; otherwise a commit certificate closes it in five."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.messages.base import SignedPayload
from repro.messages.zyzzyva import LocalCommit, SpecResponse, ZCommit
from repro.protocols.base import BaseClient, PendingRequest


@dataclass
class _Pending(PendingRequest):
    # ``replies`` holds replica -> (SpecResponse, signed envelope).
    local_commits: Dict[str, LocalCommit] = field(default_factory=dict)
    phase: str = "spec"  # spec -> commit
    #: The SPEC-RESPONSE group the commit certificate certified.
    certified: Optional[SpecResponse] = None


class ZyzzyvaClient(BaseClient):
    """One Zyzzyva client."""

    pending_cls = _Pending
    stat_keys = BaseClient.stat_keys + ("delivered_fast", "delivered_slow")

    def _start_attempt(self, pending: _Pending) -> None:
        pending.replies.clear()
        pending.local_commits.clear()
        pending.phase = "spec"
        pending.slow_timer = self.ctx.set_timer(
            self.config.slow_path_timeout, self._on_slow_timeout,
            pending.command.ident)
        super()._start_attempt(pending)

    # ------------------------------------------------------------------
    def _count_reply(self, pending: _Pending, resp: SpecResponse,
                     envelope: SignedPayload) -> None:
        if pending.phase != "spec":
            return
        pending.replies[resp.replica] = (resp, envelope)
        group = self._largest_matching_group(pending)
        if len(group) >= self.config.fast_quorum_size:
            self._deliver(pending, group[0].result, "fast")
            return
        if len(pending.replies) == self.config.n:
            self._try_commit(pending)

    def _largest_matching_group(self, pending: _Pending):
        responses = [r for r, _ in pending.replies.values()]
        best: list = []
        for anchor in responses:
            group = [r for r in responses if anchor.matches(r)]
            if len(group) > len(best):
                best = group
        return best

    # ------------------------------------------------------------------
    def _on_slow_timeout(self, ident: Tuple[str, int]) -> None:
        pending = self._pending.get(ident)
        if pending is None or pending.phase != "spec":
            return
        self._try_commit(pending)

    def _try_commit(self, pending: _Pending) -> None:
        group = self._largest_matching_group(pending)
        if len(group) < self.config.slow_quorum_size:
            return  # wait for the retry timer
        certificate = tuple(
            envelope for replica, (resp, envelope)
            in sorted(pending.replies.items())
            if any(resp is g for g in group)
        )[:self.config.slow_quorum_size]
        commit = ZCommit(client_id=self.client_id,
                         seqno=group[0].seqno,
                         certificate=certificate)
        pending.phase = "commit"
        pending.certified = group[0]
        self.ctx.broadcast(self.config.replica_ids, commit)

    def _on_local_commit(self, sender: str, ack: LocalCommit,
                         envelope: SignedPayload) -> None:
        # LOCAL-COMMITs carry no client timestamp: match the seqno the
        # commit certificate certified, and deliver that group's result.
        for pending in list(self._pending.values()):
            if pending.phase != "commit" or \
                    pending.certified.seqno != ack.seqno:
                continue
            pending.local_commits[ack.replica] = ack
            if len(pending.local_commits) >= \
                    self.config.slow_quorum_size:
                self._deliver(pending, pending.certified.result, "slow")
            return

    _SIGNED_HANDLERS = {
        SpecResponse.MSG_TYPE: BaseClient._on_reply,
        LocalCommit.MSG_TYPE: _on_local_commit,
    }
