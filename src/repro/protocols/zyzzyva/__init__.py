"""Zyzzyva (Kotla et al., SOSP '07) on the shared substrate."""

from repro.protocols.zyzzyva.replica import ZyzzyvaReplica
from repro.protocols.zyzzyva.client import ZyzzyvaClient
from repro.protocols.registry import ProtocolSpec, register_protocol

SPEC = register_protocol(ProtocolSpec(
    name="zyzzyva",
    replica_cls=ZyzzyvaReplica,
    client_cls=ZyzzyvaClient,
    leaderless=False,
    description="Primary-based speculative BFT: 3-step fast path off "
                "the primary's order, client-driven commit fallback.",
))

__all__ = ["SPEC", "ZyzzyvaReplica", "ZyzzyvaClient"]
