"""ezBFT (Arun, Peluso, Ravindran -- ICDCS 2019) registry entry.

The implementation lives in :mod:`repro.core` (it is the paper's primary
contribution); this package gives it the same pluggable registration
surface as the baselines so the cluster builder treats all four
protocols uniformly.
"""

from repro.core.client import EzBFTClient
from repro.core.replica import EzBFTReplica
from repro.protocols.registry import ProtocolSpec, register_protocol

SPEC = register_protocol(ProtocolSpec(
    name="ezbft",
    replica_cls=EzBFTReplica,
    client_cls=EzBFTClient,
    leaderless=True,
    supports_durability=True,
    supports_tracing=True,
    description="Leaderless speculative BFT: every replica is a "
                "command-leader; 2-step fast path, 3-step slow path.",
))

__all__ = ["SPEC", "EzBFTReplica", "EzBFTClient"]
