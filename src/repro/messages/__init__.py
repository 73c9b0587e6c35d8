"""Wire message types for every protocol in the repository.

Each message is a frozen dataclass with:

- a unique ``MSG_TYPE`` string,
- ``to_wire()`` / ``from_wire()`` for canonical (de)serialization,
  *derived* from the dataclass fields when ``register_message`` runs
  (:mod:`repro.wire` states the grammar; it is the wire specification),
- a ``cpu_cost_units`` class attribute consumed by the simulator's CPU
  model (certificate-carrying messages cost proportionally more to verify).

Three classes write wire methods by hand, because their wire form is
not their field list: ``SignedPayload`` (both: the signed bytes ride as
a string and are parsed, through :func:`decode`, into any registered
type), ``CommitFast`` (both: one SPECREPLY header as signed and 3f+1
signatures, not 3f+1 envelopes) and ``SpecReply.from_wire`` (names the
retired ``spec_order`` key and coerces the integer fields; its
``to_wire`` is derived).

:func:`repro.messages.base.decode` reconstructs any registered message
from its wire dict -- used by the asyncio transport and by tests that
round-trip every type.
"""

from repro.messages.base import (
    MESSAGE_REGISTRY,
    SignedPayload,
    decode,
    register_message,
)
from repro.messages import (  # noqa: F401 (register)
    batching,
    ezbft,
    fab,
    pbft,
    zyzzyva,
)

__all__ = [
    "MESSAGE_REGISTRY",
    "SignedPayload",
    "decode",
    "register_message",
    "ezbft",
    "pbft",
    "zyzzyva",
    "fab",
    "batching",
]
