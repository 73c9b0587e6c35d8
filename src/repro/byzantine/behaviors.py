"""Concrete byzantine replica behaviours for ezBFT.

Each class exercises one of the failure modes the paper discusses:

- :class:`SilentReplica` -- a crashed/unresponsive replica; drives the
  client-retry -> RESENDREQ -> suspicion-timeout -> owner-change path
  (paper step 4.3).
- :class:`EquivocatingLeaderReplica` -- a command-leader that sends
  different SPECORDERs for the same request to different replicas;
  drives the client's proof-of-misbehavior path (paper step 4.4).
- :class:`DepSuppressingReplica` -- the Figure-3 misbehaviour: reports
  empty dependencies / sequence number 1 regardless of its log (the
  TLA+ spec's ``behavior = "bad"`` branch), knocking clients off the
  fast path without being individually provable.
- :class:`CorruptResultReplica` -- replies with a corrupted execution
  result; clients never match it, so it can at worst force slow paths.
"""

from __future__ import annotations

from typing import Any, List, Optional, Type

from repro.core.instance import InstanceSpace, LogEntry
from repro.errors import ConfigurationError
from repro.core.replica import EzBFTReplica
from repro.crypto.digest import digest
from repro.messages.base import SignedPayload
from repro.messages.ezbft import Request, SpecOrder, SpecReply
from repro.types import InstanceID


class SilentReplica(EzBFTReplica):
    """Receives everything, does nothing."""

    def on_message(self, sender: str, message: Any) -> None:
        return


class EquivocatingLeaderReplica(EzBFTReplica):
    """Sends conflicting SPECORDERs for the same request: the same slot
    is proposed with different metadata to different replicas, so the
    client observes two validly signed, conflicting SPECORDERs and can
    assemble a proof of misbehavior (paper step 4.4)."""

    def _lead(self, requests: List[Request]) -> None:
        space = self.spaces[self.node_id]
        if space.frozen:
            return
        for request in requests:
            self._equivocate(space, request)

    def _equivocate(self, space: InstanceSpace, request: Request) -> None:
        command = request.command
        self._client_ts[command.client_id] = command.timestamp
        slot = space.allocate_slot()
        request_digest = digest(request)

        def make_order(seq: int) -> SignedPayload:
            instance = InstanceID(self.node_id, slot)
            order = SpecOrder(
                leader=self.node_id,
                owner_number=space.owner_number,
                instance=instance,
                command=command,
                deps=(),
                seq=seq,
                log_digest="",
                request_digest=request_digest,
            )
            return SignedPayload.create(order, self.keypair)

        order_a = make_order(1)
        order_b = make_order(2)
        others = self.config.others(self.node_id)
        half = len(others) // 2
        for dst in others[:half]:
            self.ctx.send(dst, order_a)
        for dst in others[half:]:
            self.ctx.send(dst, order_b)
        # Reply to the client consistently with order_a.
        entry = LogEntry(instance=order_a.payload.instance,
                         owner_number=space.owner_number,
                         command=command, deps=(), seq=1,
                         spec_order=order_a)
        entry.spec_result = "equivocated"
        self._send_spec_reply(entry, order_a)
        self.stats["led"] += 1


class DepSuppressingReplica(EzBFTReplica):
    """Always reports empty dependencies and sequence number 1 in its
    SPECREPLYs (the TLA+ 'bad' branch / Figure 3's R2)."""

    def _send_spec_reply(self, entry: LogEntry,
                         signed_order: SignedPayload,
                         request_digest=None) -> None:
        lied = LogEntry(instance=entry.instance,
                        owner_number=entry.owner_number,
                        command=entry.command,
                        deps=(), seq=1,
                        spec_order=entry.spec_order)
        lied.spec_result = entry.spec_result
        super()._send_spec_reply(lied, signed_order,
                                 request_digest=request_digest)


class CorruptResultReplica(EzBFTReplica):
    """Replies with a corrupted execution result."""

    def _send_spec_reply(self, entry: LogEntry,
                         signed_order: SignedPayload,
                         request_digest=None) -> None:
        corrupted = LogEntry(instance=entry.instance,
                             owner_number=entry.owner_number,
                             command=entry.command,
                             deps=entry.deps, seq=entry.seq,
                             spec_order=entry.spec_order)
        corrupted.spec_result = "##corrupt##"
        super()._send_spec_reply(corrupted, signed_order,
                                 request_digest=request_digest)


#: Declarative behaviour names, the vocabulary scenario fault schedules
#: (``SwapByzantine(behavior="equivocate")``) and the CLI use.
BEHAVIORS = {
    "silent": SilentReplica,
    "equivocate": EquivocatingLeaderReplica,
    "dep_suppress": DepSuppressingReplica,
    "corrupt_result": CorruptResultReplica,
}


def behavior_by_name(name: str) -> Type[EzBFTReplica]:
    """Resolve a behaviour name from :data:`BEHAVIORS`."""
    try:
        return BEHAVIORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown byzantine behavior {name!r}; choose from "
            f"{tuple(BEHAVIORS)}") from None


def install_byzantine(cluster, replica_id: str,
                      behavior: Type[EzBFTReplica]) -> EzBFTReplica:
    """Replace ``replica_id`` in a cluster (simulated or TCP) with an
    instance of ``behavior`` (typically before the run starts; swapping
    mid-run discards the replica's application state, which a byzantine
    node is allowed to do anyway).  The stand-in is built like every
    replica of the deployment -- same key, same interference relation,
    a fresh state machine from the cluster's factory.  Returns the new
    replica object."""
    replica = cluster.build_replica(
        replica_id, cluster.context_for(replica_id), behavior)
    cluster.set_handler(replica_id, replica.on_message)
    return replica


def silence_node(cluster, node_id: str) -> None:
    """Make any node (replica of any protocol, or client) drop all
    incoming messages -- equivalent to a crash."""
    cluster.set_handler(node_id, lambda sender, message: None)
