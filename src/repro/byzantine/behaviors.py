"""Byzantine behaviours: policies over what a replica sends.

A policy is a function ``(replica, dst, message)`` returning what the
replica sends to ``dst`` in place of ``message``: the message itself, a
rewrite re-signed with the replica's own keypair (the only key it
holds), or ``None`` for nothing.  :func:`install_byzantine` wraps the
live replica's send with one; the node keeps its object, state and
instruments, runs its protocol's handlers as a correct replica does,
and lies only on the wire.

- ``silent`` -- sends nothing: drives the client-retry -> RESENDREQ ->
  suspicion -> owner-change path (paper step 4.3), or a view change.
- ``corrupt_result`` -- every reply it signs carries a corrupted
  result; clients never match it, so it can at worst force slow paths.
- ``dep_suppress`` -- Figure 3's misbehaviour (the TLA+ spec's ``bad``
  branch): its SPECREPLY headers report no dependencies and sequence
  number 1, knocking clients off the fast path unprovably.
- ``equivocate`` -- a command-leader whose proposals reach the second
  half of its peers with every order's ``seq`` one higher: two signed,
  conflicting SPECORDERs, a proof of misbehavior (paper step 4.4).

A behaviour names the messages its lie rides in; a protocol whose nodes
receive none of them cannot express it (:func:`require_expressible`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, NamedTuple, Tuple, Union

from repro.cluster.node import NodeContext
from repro.errors import ConfigurationError
from repro.messages.base import SignedPayload
from repro.messages.batching import BatchSpecOrder
from repro.messages.ezbft import (
    CommitReply,
    SpecOrder,
    SpecReply,
    SpecReplyBundle,
)
from repro.messages.pbft import PBFTReply
from repro.messages.zyzzyva import SpecResponse
from repro.protocols import get_protocol

#: ``(replica, dst, message) -> message to send, or None``.
Policy = Callable[[Any, str, Any], Any]

#: What ``corrupt_result`` puts in every result it signs.
CORRUPT = "##corrupt##"


def rewriting(kinds: Tuple[type, ...],
              change: Callable[[Any], dict]) -> Policy:
    """A policy that rewrites each payload of ``kinds`` the replica
    itself signed -- sent as it is, or as a header of an unsigned
    :class:`SpecReplyBundle` -- with the fields ``change(payload)``
    returns, re-signed with the replica's keypair."""
    def policy(replica: Any, dst: str, message: Any) -> Any:
        if isinstance(message, SpecReplyBundle):
            return replace(message, replies=tuple(
                policy(replica, dst, header) for header in message.replies))
        if isinstance(message, SignedPayload) and \
                message.signer == replica.node_id and \
                isinstance(message.payload, kinds):
            payload = message.payload
            return SignedPayload.create(
                replace(payload, **change(payload)), replica.keypair)
        return message
    return policy


def _bump_seq(order: Any) -> dict:
    if isinstance(order, BatchSpecOrder):
        return {"orders": tuple(replace(inner, seq=inner.seq + 1)
                                for inner in order.orders)}
    return {"seq": order.seq + 1}


_raise_seq = rewriting((SpecOrder, BatchSpecOrder), _bump_seq)


def _equivocate(replica: Any, dst: str, message: Any) -> Any:
    others = replica.config.others(replica.node_id)
    if dst in others[len(others) // 2:]:
        return _raise_seq(replica, dst, message)
    return message


#: Every payload a replica signs with an execution result in it.
_REPLIES = (SpecReply, CommitReply, PBFTReply, SpecResponse)


class Behavior(NamedTuple):
    """A named behaviour's policy and where it can run."""

    policy: Policy
    #: The messages the lie rides in: a protocol whose nodes receive
    #: none of them cannot express the behaviour (empty: any protocol).
    carriers: Tuple[type, ...] = ()


#: Declarative behaviour names, the vocabulary scenario fault schedules
#: (``SwapByzantine(behavior="equivocate")``) and the CLI use.
BEHAVIORS = {
    "silent": Behavior(lambda replica, dst, message: None),
    "equivocate": Behavior(_equivocate, (SpecOrder, BatchSpecOrder)),
    "dep_suppress": Behavior(
        rewriting((SpecReply,), lambda header: {"deps": (), "seq": 1}),
        (SpecReplyBundle,)),
    "corrupt_result": Behavior(
        rewriting(_REPLIES, lambda reply: {"result": CORRUPT}),
        (SpecReplyBundle,) + _REPLIES),
}


def behavior_by_name(name: str) -> Behavior:
    """Resolve a behaviour name from :data:`BEHAVIORS`."""
    try:
        return BEHAVIORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown byzantine behavior {name!r}; choose from "
            f"{tuple(BEHAVIORS)}") from None


def require_expressible(name: str, protocol: str) -> Behavior:
    """The behaviour ``name``, if ``protocol``'s replicas or clients
    receive a message it lies in; raises :class:`ConfigurationError`
    naming both otherwise."""
    behavior = behavior_by_name(name)
    spec = get_protocol(protocol)
    received = {msg_type for cls in (spec.replica_cls, spec.client_cls)
                for msg_type in (*cls._SIGNED_HANDLERS,
                                 *cls._PLAIN_HANDLERS)}
    if behavior.carriers and not received & {
            carrier.MSG_TYPE for carrier in behavior.carriers}:
        raise ConfigurationError(
            f"byzantine behavior {name!r} cannot run on protocol "
            f"{protocol!r}: its nodes exchange none of "
            f"{tuple(c.__name__ for c in behavior.carriers)}")
    return behavior


def install_byzantine(cluster: Any, replica_id: str,
                      behavior: Union[str, Policy]) -> Any:
    """Make the live ``replica_id`` of a cluster (simulated or TCP)
    byzantine: everything it sends passes through ``behavior`` -- a
    name from :data:`BEHAVIORS` its protocol can express, or a policy.
    The replica object stays the cluster's; returns it."""
    policy = behavior if callable(behavior) else \
        require_expressible(behavior, cluster.protocol).policy
    replica = cluster.replicas[replica_id]
    live = replica.ctx

    def send(src: str, dst: str, message: Any) -> None:
        message = policy(replica, dst, message)
        if message is not None:
            live.send(dst, message)

    replica.ctx = NodeContext(live.node_id, send, live.set_timer,
                              lambda: live.now)
    return replica


def silence_node(cluster: Any, node_id: str) -> None:
    """Make any node (replica of any protocol, or client) drop all
    incoming messages -- equivalent to a crash."""
    cluster.set_handler(node_id, lambda sender, message: None)
