"""Instance spaces and the per-replica command log.

Every replica owns an *instance space* -- a sequence of numbered slots it
assigns to the commands it leads.  Every replica mirrors every space: the
union of all spaces is the replica's command log.  Consensus establishes
(a) the command in each slot, and (b) the cross-space dependency/sequence
metadata that determines execution order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Set, Tuple, Union

from repro.errors import InstanceSpaceFrozenError, ProtocolError
from repro.messages.base import SignedPayload
from repro.messages.ezbft import CommitFast
from repro.statemachine.base import Command
from repro.types import InstanceID


class EntryStatus(enum.Enum):
    """Lifecycle of a log entry, matching the TLA+ ``Status`` set plus the
    execution stages."""

    SPEC_ORDERED = "spec-ordered"
    COMMITTED = "committed"
    EXECUTED = "executed"

    def at_least(self, other: "EntryStatus") -> bool:
        order = [EntryStatus.SPEC_ORDERED, EntryStatus.COMMITTED,
                 EntryStatus.EXECUTED]
        return order.index(self) >= order.index(other)


@dataclass
class LogEntry:
    """One slot's worth of consensus state at one replica."""

    instance: InstanceID
    owner_number: int
    command: Command
    deps: Tuple[InstanceID, ...]
    seq: int
    status: EntryStatus = EntryStatus.SPEC_ORDERED
    #: Result of speculative execution (sent in SPECREPLY).
    spec_result: Any = None
    spec_executed: bool = False
    #: Result of final execution (sent in COMMITREPLY).
    final_result: Any = None
    #: True only when final execution here really ran
    #: ``statemachine.apply`` on this entry's command -- not for a
    #: no-op, an exactly-once cache hit, or an entry marked executed
    #: from a snapshot.  Dependency collection lets only such an entry
    #: stand in for older ones (``EzBFTReplica._collect_deps``).
    applied: bool = False
    #: Signed SPECORDER this entry derives from (evidence for recovery).
    spec_order: Optional[SignedPayload] = None
    #: What committed the entry: the COMMITFAST whose certificate it
    #: passed, or the client's signed COMMIT; ``None`` when nothing
    #: holds one (uncommitted, or finalized by a NEWOWNER).
    commit_proof: Optional[Union[CommitFast, SignedPayload]] = None
    #: True when a slow-path COMMIT fixed deps/seq (final metadata).
    committed_slow: bool = False
    #: Client to notify with a COMMITREPLY after final execution.
    reply_to: Optional[str] = None

    @property
    def sort_key(self) -> Tuple[int, str, int]:
        """Deterministic intra-SCC execution key: sequence number first,
        replica-id tie-break, then slot for totality."""
        return (self.seq, self.instance.owner, self.instance.slot)


class InstanceSpace:
    """One replica's instance space as mirrored at some node."""

    def __init__(self, owner: str, initial_owner_number: int) -> None:
        self.owner = owner
        self.owner_number = initial_owner_number
        self.frozen = False
        self._slots: Dict[int, LogEntry] = {}
        #: Next slot the *space owner* will assign (meaningful only at the
        #: owner itself).
        self.next_slot = 0
        #: Next slot this node expects in a SPECORDER from the owner --
        #: the paper's ``maxI + 1`` validation.
        self.expected_slot = 0
        #: First slot still held: everything below was garbage-collected
        #: at a stable checkpoint (its commands are durably executed).
        self.low_slot = 0

    def __contains__(self, slot: int) -> bool:
        return slot in self._slots

    def get(self, slot: int) -> Optional[LogEntry]:
        return self._slots.get(slot)

    def entries(self) -> Iterator[LogEntry]:
        for slot in sorted(self._slots):
            yield self._slots[slot]

    def put(self, entry: LogEntry) -> None:
        if self.frozen:
            raise InstanceSpaceFrozenError(
                f"instance space of {self.owner!r} is frozen")
        if entry.instance.owner != self.owner:
            raise ProtocolError(
                f"entry {entry.instance} does not belong to space "
                f"{self.owner!r}")
        self._slots[entry.instance.slot] = entry

    def force_put(self, entry: LogEntry) -> None:
        """Install an entry bypassing the frozen check -- used when a
        NEWOWNER message finalizes a frozen space's history."""
        self._slots[entry.instance.slot] = entry

    def allocate_slot(self) -> int:
        """Owner-side: claim the lowest available slot."""
        slot = self.next_slot
        self.next_slot += 1
        return slot

    def truncate(self, before_slot: int) -> int:
        """Drop every slot below ``before_slot`` (checkpoint GC).

        Returns the number of entries removed.  Callers are responsible
        for only truncating below a stable checkpoint's frontier."""
        if before_slot <= self.low_slot:
            return 0
        doomed = [s for s in self._slots if s < before_slot]
        for slot in doomed:
            del self._slots[slot]
        self.low_slot = before_slot
        self.expected_slot = max(self.expected_slot, before_slot)
        self.next_slot = max(self.next_slot, before_slot)
        return len(doomed)

    @property
    def max_occupied_slot(self) -> int:
        """Largest occupied slot, or -1 when empty."""
        return max(self._slots) if self._slots else -1

    def __len__(self) -> int:
        return len(self._slots)
