"""FaB Paxos (Martin & Alvisi) on the shared substrate."""

from repro.protocols.fab.replica import FabReplica
from repro.protocols.fab.client import FabClient
from repro.protocols.registry import ProtocolSpec, register_protocol

SPEC = register_protocol(ProtocolSpec(
    name="fab",
    replica_cls=FabReplica,
    client_cls=FabClient,
    leaderless=False,
    description="Fast Byzantine Paxos: 2-step common case, "
                "primary-based proposal with larger fast quorums.",
))

__all__ = ["SPEC", "FabReplica", "FabClient"]
