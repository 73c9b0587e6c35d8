"""Declarative protocol registry: plug a protocol in, never edit the
builder.

Every protocol in the repository describes itself with a
:class:`ProtocolSpec` -- its replica/client classes and capability
flags -- and registers it with :func:`register_protocol` from its own
package.  Both backends build nodes purely from the registry, through
:class:`repro.cluster.base.ProtocolCluster`: it looks the spec up by
name and derives the constructor keywords from its ``leaderless``
flag, so adding a fifth protocol (or a new scenario/state machine)
never touches either backend.

This module is deliberately dependency-light (errors + stdlib only) so
any protocol package can import it without cycles; the builtin specs are
registered as a side effect of importing :mod:`repro.protocols`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.errors import ConfigurationError

#: Registered name -> spec, in registration order.
_REGISTRY: Dict[str, "ProtocolSpec"] = {}


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol's construction recipe and capability surface.

    Capability flags:

    - ``leaderless``: no distinguished primary -- clients take a
      ``target_replica`` (their nearest one on the simulator) and
      replicas an ``interference`` relation (the ezBFT shape).
      Primary-based replicas and clients instead take an
      ``initial_view``: the initial primary's index.  The full
      constructor contract is in :mod:`repro.cluster.base`.
    - ``supports_durability``: the replica has the storage seam
      (``attach_storage`` / ``recover_from_storage``), so ``durable``
      deployments back it with an on-disk store; replicas without it
      run in memory.
    - ``supports_tracing``: the replica has the ``attach_tracer`` seam
      and emits server-side spans; replicas without it still run under
      ``--trace`` but contribute none.
    """

    name: str
    replica_cls: Any
    client_cls: Any
    leaderless: bool = False
    supports_durability: bool = False
    supports_tracing: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.islower():
            raise ConfigurationError(
                f"protocol name must be a non-empty lowercase string, "
                f"got {self.name!r}")


# ----------------------------------------------------------------------
# Registry operations
# ----------------------------------------------------------------------
def register_protocol(spec: ProtocolSpec) -> ProtocolSpec:
    """Register ``spec`` under ``spec.name``; duplicate names raise."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(
            f"protocol {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_protocol(name: str) -> None:
    """Remove a registered protocol (primarily for tests and plugins)."""
    if name not in _REGISTRY:
        raise ConfigurationError(f"protocol {name!r} is not registered")
    del _REGISTRY[name]


def get_protocol(name: str) -> ProtocolSpec:
    """Look up a spec by name, raising with the available choices."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown protocol {name!r}; choose from "
            f"{available_protocols()}")
    return spec


def available_protocols() -> Tuple[str, ...]:
    """Registered protocol names, in registration order."""
    return tuple(_REGISTRY)
