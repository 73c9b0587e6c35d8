"""Protocol registry and implementations.

All four builtin protocols -- the paper's ezBFT plus the PBFT, Zyzzyva
and FaB baselines -- run on the same substrate (crypto, network, state
machine) so latency/throughput comparisons isolate protocol structure.
Each protocol package registers a
:class:`~repro.protocols.registry.ProtocolSpec` on import; the cluster
builder constructs nodes purely from the registry, so new protocols plug
in by registering a spec of their own (see README "Adding a protocol").
"""

from repro.protocols.registry import (
    ProtocolSpec,
    available_protocols,
    get_protocol,
    register_protocol,
    unregister_protocol,
)

# Importing the protocol packages registers their specs (in the
# canonical ezbft-first order the paper's tables use).
from repro.protocols import ezbft  # noqa: E402
from repro.protocols import pbft, zyzzyva, fab  # noqa: E402

from repro.core.replica import EzBFTReplica
from repro.core.client import EzBFTClient
from repro.protocols.pbft.replica import PBFTReplica
from repro.protocols.pbft.client import PBFTClient
from repro.protocols.zyzzyva.replica import ZyzzyvaReplica
from repro.protocols.zyzzyva.client import ZyzzyvaClient
from repro.protocols.fab.replica import FabReplica
from repro.protocols.fab.client import FabClient

__all__ = [
    "ProtocolSpec",
    "register_protocol",
    "unregister_protocol",
    "get_protocol",
    "available_protocols",
    "EzBFTReplica",
    "EzBFTClient",
    "PBFTReplica",
    "PBFTClient",
    "ZyzzyvaReplica",
    "ZyzzyvaClient",
    "FabReplica",
    "FabClient",
]
