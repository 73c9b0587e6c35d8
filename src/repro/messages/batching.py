"""Batched wire messages: amortize one signature over many commands.

Batching is the standard BFT throughput lever: PBFT and Zyzzyva both
amortize one signature/ordering step over many requests.  Every batched
message here follows the same cost model -- the receiver verifies **one**
signature for the whole batch and then one cheap digest per contained
command -- so ``cpu_cost_units`` scales sub-linearly in batch size
instead of linearly as it would for the equivalent stream of singleton
messages.

Three batch shapes cover the hot paths:

- :class:`BatchRequest` -- a client packs several of its own commands
  into one signed request (client -> replica).  This amortizes the
  dominant client-facing cost: connection termination plus an ECDSA
  verification (~20 units) is paid once per batch instead of once per
  command.
- :class:`BatchSpecOrder` -- the ezBFT owner proposes a run of
  consecutive instance slots in one signed message (owner -> replicas).
- :class:`BatchPrePrepare` -- the PBFT primary assigns a run of
  consecutive sequence numbers in one signed message
  (primary -> backups).

A batch of one is always legal but never produced by the batching layer
(:mod:`repro.core.batching` degrades single-item flushes to the classic
unbatched messages).

The reply to a :class:`BatchSpecOrder` is batched as well, but lives
with the message it batches: one
:class:`repro.messages.ezbft.SpecReplyBundle` per client carries that
client's signed SPECREPLY headers with the signed batch once beside
them (the paper's ``<<SPECREPLY ...>_sigma, R_j, rep, SO>`` closes the
signature before ``SO``), instead of one reply per command each
embedding the whole batch.

So is the fourth shape, the leg back:
:class:`repro.messages.ezbft.BatchCommitFast` folds the k COMMITFASTs
a client certifies from one such bundle into one frame
(client -> replicas).  Neither of the two shares a signature -- every
header, every certificate is checked on its own -- so neither uses
:func:`batch_cost`: each costs what the k singletons it replaces cost
(``k`` units), and saves frames and bytes, not verifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import SerializationError
from repro.messages.base import register_message
from repro.messages.ezbft import SpecOrder
from repro.messages.pbft import PrePrepare
from repro.statemachine.base import Command
from repro.types import InstanceID

#: Cost of verifying the one signature covering a replica-to-replica
#: batch (same as any singleton protocol message).
BATCH_SIGNATURE_UNITS = 1
#: Cost of terminating a client connection and verifying the client's
#: ECDSA signature (see :class:`repro.messages.ezbft.Request`).
CLIENT_SIGNATURE_UNITS = 20
#: Cost of hashing one contained command (a digest is ~25x cheaper than
#: a signature verification on the paper's testbed).
PER_COMMAND_DIGEST_UNITS = 0.05


def batch_cost(signature_units: float, count: int) -> float:
    """One signature plus ``count`` per-command digests.

    The two batch shapes priced differently live in
    :mod:`repro.messages.ezbft`: a ``SpecReplyBundle``'s ``k`` headers
    are individually signed and a ``BatchCommitFast``'s ``k``
    certificates individually checked, so each costs ``k`` units --
    what the ``k`` singletons it replaces cost, and exactly one unit
    unbatched.
    """
    return signature_units + PER_COMMAND_DIGEST_UNITS * count


@register_message
@dataclass(frozen=True)
class BatchRequest:
    """<BATCHREQ, [m_1..m_k], c> -- one client's commands under one
    signature.

    Its author is its client, whose every command must be: a mixed
    batch has no ``client_id``, so no signer is its author.  The ezBFT
    owner and the PBFT primary unpack it into their request flow.
    """

    MSG_TYPE = "batch-request"
    AUTHOR = "client_id"

    commands: Tuple[Command, ...]

    def __post_init__(self) -> None:
        if not self.commands:
            raise SerializationError("BatchRequest must carry commands")

    @property
    def client_id(self) -> Optional[str]:
        client = self.commands[0].client_id
        mixed = any(c.client_id != client for c in self.commands)
        return None if mixed else client

    @property
    def cpu_cost_units(self) -> float:
        return batch_cost(CLIENT_SIGNATURE_UNITS, len(self.commands))


@register_message
@dataclass(frozen=True)
class BatchSpecOrder:
    """<BATCHSPECORDER, O, [SO_1..SO_k]> -- the ezBFT owner's proposal
    for a run of consecutive slots of its instance space.

    The inner :class:`~repro.messages.ezbft.SpecOrder` bodies are
    unsigned; the batch envelope's single signature covers all of them.
    Receivers process each inner order exactly as a singleton SPECORDER
    (dependency merge, speculative execution, one signed SPECREPLY
    header per command) but pay the verification cost only once, and
    answer each client with a single bundle of its headers.
    """

    MSG_TYPE = "ez-batch-spec-order"
    AUTHOR = "leader"
    ROLE = "owner_number"

    leader: str
    owner_number: int
    orders: Tuple[SpecOrder, ...]

    def __post_init__(self) -> None:
        if not self.orders:
            raise SerializationError("BatchSpecOrder must carry orders")

    @property
    def cpu_cost_units(self) -> float:
        return batch_cost(BATCH_SIGNATURE_UNITS, len(self.orders))

    def order_for(self, instance: InstanceID) -> Optional[SpecOrder]:
        """The inner order proposing ``instance``, if any."""
        for order in self.orders:
            if order.instance == instance:
                return order
        return None


@register_message
@dataclass(frozen=True)
class BatchPrePrepare:
    """<BATCHPREPREPARE, v, [PP_1..PP_k]> -- the PBFT primary's ordering
    of a run of consecutive sequence numbers under one signature.

    Backups unpack and process each inner PRE-PREPARE as usual; the
    PREPARE/COMMIT phases stay per-seqno (they are cheap 1-unit
    messages -- the amortization target is the primary's ordering step).
    """

    MSG_TYPE = "pbft-batch-pre-prepare"
    AUTHOR = None
    ROLE = "view"  # signed by the view's primary

    view: int
    pre_prepares: Tuple[PrePrepare, ...]

    def __post_init__(self) -> None:
        if not self.pre_prepares:
            raise SerializationError(
                "BatchPrePrepare must carry pre-prepares")

    @property
    def cpu_cost_units(self) -> float:
        return batch_cost(BATCH_SIGNATURE_UNITS, len(self.pre_prepares))
