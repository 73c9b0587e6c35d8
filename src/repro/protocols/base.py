"""Shared plumbing for the baseline protocol implementations."""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.cluster.node import NodeContext
from repro.config import ProtocolConfig
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.errors import ProtocolError
from repro.messages.base import SignedPayload
from repro.obs.instruments import NULL
from repro.statemachine.base import Command, StateMachine

#: Delivery callback shared by all protocol clients:
#: (command, result, latency_ms, path).
DeliveryCallback = Callable[[Command, Any, float, str], None]


class BaseReplica:
    """Common replica state: identity, config, transport, crypto, app."""

    #: Observability seam: the shared no-op singleton by default;
    #: ``repro serve`` swaps in a live registry-backed instrument set.
    instruments = NULL

    def __init__(self, node_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry, statemachine: StateMachine,
                 initial_view: int = 0) -> None:
        if node_id not in config.replica_ids:
            raise ProtocolError(f"{node_id!r} not in replica set")
        self.node_id = node_id
        self.config = config
        self.ctx = ctx
        self.keypair = keypair
        self.registry = registry
        self.statemachine = statemachine
        self.view = initial_view
        self.stats: Dict[str, int] = {
            "executed": 0,
            "invalid_messages": 0,
        }

    @property
    def primary(self) -> str:
        return self.config.primary_for_view(self.view)

    @property
    def is_primary(self) -> bool:
        return self.primary == self.node_id

    def sign(self, payload: Any) -> SignedPayload:
        return SignedPayload.create(payload, self.keypair)

    def broadcast_others(self, message: Any) -> None:
        self.ctx.broadcast(self.config.others(self.node_id), message)


class BaseClient:
    """Common client state for primary-based protocols."""

    def __init__(self, client_id: str, config: ProtocolConfig,
                 ctx: NodeContext, keypair: KeyPair,
                 registry: KeyRegistry,
                 initial_view: int = 0,
                 on_delivery: Optional[DeliveryCallback] = None) -> None:
        self.client_id = client_id
        self.config = config
        self.ctx = ctx
        self.keypair = keypair
        self.registry = registry
        self.view = initial_view
        self.on_delivery = on_delivery
        self._next_timestamp = 1
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "delivered": 0,
            "retries": 0,
        }

    @property
    def primary(self) -> str:
        return self.config.primary_for_view(self.view)

    def next_command(self, op: str, key: str = "",
                     value: Any = None) -> Command:
        command = Command(client_id=self.client_id,
                          timestamp=self._next_timestamp,
                          op=op, key=key, value=value)
        self._next_timestamp += 1
        return command

    def sign(self, payload: Any) -> SignedPayload:
        return SignedPayload.create(payload, self.keypair)
