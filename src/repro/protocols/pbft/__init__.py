"""PBFT (Castro & Liskov, OSDI '99) on the shared substrate."""

from repro.protocols.pbft.replica import PBFTReplica
from repro.protocols.pbft.client import PBFTClient
from repro.protocols.registry import ProtocolSpec, register_protocol

SPEC = register_protocol(ProtocolSpec(
    name="pbft",
    replica_cls=PBFTReplica,
    client_cls=PBFTClient,
    leaderless=False,
    description="Primary-based three-phase BFT: "
                "pre-prepare / prepare / commit, 5-step latency.",
))

__all__ = ["SPEC", "PBFTReplica", "PBFTClient"]
