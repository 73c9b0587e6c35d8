"""One way to build a deployment of a registered protocol.

:class:`ProtocolCluster` is the base of both backends' clusters: the
simulator's :class:`~repro.cluster.builder.Cluster` and the TCP
:class:`~repro.transport.asyncio_tcp.AsyncioCluster`.  It alone builds
the :class:`~repro.config.ProtocolConfig`, the key registry, and every
replica and client, so a protocol option -- timeouts, primary
placement, interference relation, state machine -- means the same on
both backends.  A subclass supplies the transport: the
:class:`~repro.cluster.node.NodeContext` a node is built with, and how
its handler is reached.

The constructor contract a :class:`~repro.protocols.registry.ProtocolSpec`
promises, chosen by its ``leaderless`` flag:

- its replica class takes ``(node_id, config, ctx, keypair, registry,
  statemachine=..., interference=...)`` when leaderless, else
  ``initial_view=`` (the primary's index) in place of ``interference``;
- its client class takes ``(client_id, config, ctx, keypair, registry,
  on_delivery=..., target_replica=...)`` when leaderless, else
  ``initial_view=`` in place of ``target_replica``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.config import ProtocolConfig
from repro.crypto.keys import KeyRegistry
from repro.errors import ConfigurationError
from repro.protocols.registry import get_protocol
from repro.statemachine.base import StateMachine
from repro.statemachine.interference import KVInterference
from repro.statemachine.kvstore import KVStore

#: Every node's key derives from its id and this seed, so every process
#: of a multi-machine deployment derives the same registry (and a WAL
#: written by one run verifies in the next).
KEY_SEED = b"tcp-demo"


class ProtocolCluster:
    """Config, keys, replicas and clients of one deployment.

    ``replica_regions`` places one replica per entry (ids r0..rN-1; a
    ``None`` entry has no region).  ``primary_region`` -- the first
    replica there -- or ``primary_index`` chooses the initial primary
    of the single-leader baselines; leaderless protocols take
    ``interference`` (default: :class:`KVInterference`) instead.
    ``statemachine_factory`` is called once per replica (default: a
    fresh :class:`~repro.statemachine.KVStore`); ``config_overrides``
    go to :class:`ProtocolConfig`.
    """

    def __init__(self, protocol: str,
                 replica_regions: Sequence[Optional[str]], *,
                 primary_region: Optional[str] = None,
                 primary_index: int = 0,
                 interference: Optional[Any] = None,
                 statemachine_factory: Optional[
                     Callable[[], StateMachine]] = None,
                 **config_overrides: Any) -> None:
        self.protocol = protocol
        self.spec = get_protocol(protocol)
        replica_ids = tuple(f"r{i}" for i in range(len(replica_regions)))
        self.replica_regions = dict(zip(replica_ids, replica_regions))
        if primary_region is not None:
            candidates = [i for i, region in enumerate(replica_regions)
                          if region == primary_region]
            if not candidates:
                raise ConfigurationError(
                    f"no replica in primary region {primary_region!r}")
            primary_index = candidates[0]
        if not 0 <= primary_index < len(replica_ids):
            raise ConfigurationError(
                f"primary_index {primary_index} out of range")
        self.primary_index = primary_index
        self.config = ProtocolConfig(replica_ids=replica_ids,
                                     **config_overrides)
        self.registry = KeyRegistry(replica_ids)
        # Every replica's key, hosted here or not: local nodes verify a
        # remote replica's signatures, and a replica rebuilt by
        # ``build_replica`` keeps its key (registering one again would
        # drop every cached verdict).
        self._keypairs = {rid: self.registry.create(rid, seed=KEY_SEED)
                          for rid in replica_ids}
        self.interference = interference if interference is not None \
            else KVInterference()
        self.statemachine_factory = statemachine_factory or KVStore
        self.replicas: Dict[str, Any] = {}
        self.clients: Dict[str, Any] = {}

    @property
    def replica_ids(self) -> Tuple[str, ...]:
        return self.config.replica_ids

    @property
    def primary_id(self) -> str:
        return self.replica_ids[self.primary_index]

    def build_replica(self, replica_id: str, ctx: Any,
                      replica_cls: Optional[Any] = None) -> Any:
        """Construct ``replica_id`` -- as the protocol's replica class,
        or ``replica_cls`` -- with a fresh state machine, and make it
        the deployment's.  The caller routes its deliveries to it."""
        replica_cls = replica_cls or self.spec.replica_cls
        if self.spec.leaderless:
            role = {"interference": self.interference}
        else:
            role = {"initial_view": self.primary_index}
        replica = replica_cls(
            replica_id, self.config, ctx, self._keypairs[replica_id],
            self.registry, statemachine=self.statemachine_factory(),
            **role)
        self.replicas[replica_id] = replica
        return replica

    def build_client(self, client_id: str, ctx: Any,
                     target_replica: str,
                     on_delivery: Optional[Callable] = None) -> Any:
        """Construct and record a client.  A leaderless client sends to
        ``target_replica``; a primary-based one tracks the primary."""
        if client_id in self.clients:
            raise ConfigurationError(f"duplicate client id {client_id!r}")
        if self.spec.leaderless:
            role = {"target_replica": target_replica}
        else:
            role = {"initial_view": self.primary_index}
        client = self.spec.client_cls(
            client_id, self.config, ctx,
            self.registry.create(client_id, seed=KEY_SEED), self.registry,
            on_delivery=on_delivery, **role)
        self.clients[client_id] = client
        return client

    def replica_stats(self) -> Dict[str, Dict[str, int]]:
        return {rid: dict(r.stats) for rid, r in self.replicas.items()}

    def statemachines(self) -> Dict[str, StateMachine]:
        """Each replica's application state machine."""
        return {rid: r.statemachine for rid, r in self.replicas.items()}

    def log_footprint(self) -> Dict[str, Dict[str, int]]:
        """Per replica, the sizes of its resident log/execution
        structures (its ``footprint()``) and their ``total``.  The
        memory-bound benchmark samples this over a long run to prove
        checkpoint GC keeps every structure O(checkpoint interval)
        instead of O(history)."""
        out = {}
        for rid, replica in self.replicas.items():
            sizes = replica.footprint()
            sizes["total"] = sum(sizes.values())
            out[rid] = sizes
        return out
