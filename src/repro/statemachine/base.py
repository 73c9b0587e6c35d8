"""Command wire type and the replicated state machine base.

Execution model (matching Zyzzyva/ezBFT requirements): *final state* is
the authoritative map, mutated only by :meth:`StateMachine.apply`;
*speculative state* is an overlay on top of it, mutated by
:meth:`StateMachine.apply_speculative` and read through to the final
state.  :meth:`StateMachine.rollback_speculative` discards the overlay
in O(overlay size).

The final state is held as ``L`` *leaves*, a power of two of dicts: a
key lives in leaf ``crc32(key) & (L - 1)``, and the leaves are the only
copy of the state.  A capture (:meth:`StateMachine.snapshot`) freezes
the leaves and hands them out as a :class:`StateSnapshot`; the first
write to a leaf after it copies that leaf (copy-on-write), and the
next capture digests only the leaves copied since.  The *state root*
is the digest of the leaf digests -- the hierarchical state-partition
digest of Castro & Liskov, "Practical Byzantine Fault Tolerance and
Proactive Recovery" (TOCS 2002) -- so a capture costs the leaves
written since the last one, not the whole store.  ``L`` is
:func:`leaf_count` of the state's size, re-chosen at each capture.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Set, Tuple
from zlib import crc32

from repro.crypto.digest import leaf_digest, state_root
from repro.errors import SerializationError, StateMachineError
from repro.wire import wire_struct


@wire_struct
@dataclass(frozen=True)
class Command:
    """An operation a client asks the replicated service to execute.

    ``client_id`` and ``timestamp`` together identify the command (the
    paper's exactly-once mechanism); ``op``/``key``/``value`` describe the
    operation against the key-value service used in the evaluation.

    Supported ops:

    - ``"get"``    -- read ``key``; result is the current value.
    - ``"put"``    -- write ``value`` to ``key``; result is ``"OK"``.
    - ``"incr"``   -- add ``value`` (int, default 1) to ``key``; result is
      ``"OK"``.  Increments commute with each other, which the paper
      uses to contrast ezBFT's interference relation with Q/U's
      read/write conflicts.  Mutations answer ``"OK"``, not the value
      or the new total, so commuting commands reply alike in any
      execution order and still match on the fast path.
    - ``"noop"``   -- does nothing; used by recovery to fill instances.
    """

    client_id: str
    timestamp: int
    op: str
    key: str = ""
    value: Any = None

    @property
    def ident(self) -> Tuple[str, int]:
        """Globally unique command identity."""
        return (self.client_id, self.timestamp)

    @property
    def is_mutation(self) -> bool:
        return self.op in ("put", "incr")

    @property
    def is_noop(self) -> bool:
        return self.op == "noop"

    @classmethod
    def noop(cls) -> "Command":
        """The distinguished no-op command used to finalize empty slots."""
        return cls(client_id="__noop__", timestamp=0, op="noop")


Read = Callable[[str], Any]
Write = Callable[[str, Any], None]

#: Average keys per leaf the partition allows: :func:`leaf_count` keeps
#: a leaf at 4-8 keys on average, so a small state pays for few leaves.
KEYS_PER_LEAF = 8
#: Bytes of one leaf digest in a digest buffer.
_DIGEST_SIZE = 32


def leaf_count(size: int) -> int:
    """``L`` for a final state of ``size`` keys: the least power of two
    giving at most :data:`KEYS_PER_LEAF` keys per leaf on average."""
    count = 1
    while count * KEYS_PER_LEAF < size:
        count <<= 1
    return count


def leaf_index(key: str, count: int) -> int:
    """The leaf ``key`` lives in when there are ``count`` leaves (a
    power of two).  ``crc32``, not the process-salted ``hash()``: every
    replica must place a key alike."""
    return crc32(key.encode("utf-8", "surrogatepass")) & (count - 1)


class StateSnapshot(tuple):
    """The final state at one capture: a tuple of leaf dicts that
    nobody writes again, with ``digests`` (their 32-byte digests in
    leaf order, one buffer) and ``root`` (the state root over them).

    It encodes -- on the wire, on disk, in canonical bytes -- as the
    list of its leaves; the digests and root live in memory only, so a
    snapshot that arrived is rebuilt with :meth:`checked`.
    """

    digests: bytes
    root: str

    @classmethod
    def of(cls, leaves: Sequence[Dict[str, Any]],
           digests: bytes) -> "StateSnapshot":
        snapshot = cls(leaves)
        snapshot.digests = digests
        snapshot.root = state_root(digests)
        return snapshot

    @classmethod
    def checked(cls, leaves: Any) -> "StateSnapshot":
        """Shipped leaves (a state transfer's, a disk snapshot's) with
        every digest recomputed from them, never taken on trust.

        Raises ``SerializationError`` unless there is a power of two of
        leaves, each a dict, and every key is a string sitting in its
        own leaf -- a misplaced key would be unreachable by reads."""
        if not isinstance(leaves, (list, tuple)):
            raise SerializationError(
                f"state must be a list of leaves, got "
                f"{type(leaves).__name__}")
        count = len(leaves)
        if count < 1 or count & (count - 1):
            raise SerializationError(
                f"leaf count {count} is not a power of two")
        digests = bytearray()
        for index, leaf in enumerate(leaves):
            if not isinstance(leaf, dict):
                raise SerializationError(f"leaf {index} is not a dict")
            for key in leaf:
                if not isinstance(key, str) or \
                        leaf_index(key, count) != index:
                    raise SerializationError(
                        f"key {key!r} is not in its leaf (found in "
                        f"leaf {index} of {count})")
            digests += leaf_digest(leaf)
        return cls.of(leaves, bytes(digests))


class ExecutedLog:
    """The commands a state machine applied to its final state, in
    order, as ``(command, result)`` pairs: the one record of execution
    :mod:`repro.check` judges.

    It is cut where a protocol garbage-collects, at a stable
    checkpoint: :meth:`mark` notes the log's length when a checkpoint
    is captured, and :meth:`cut` drops the entries below that length
    once the checkpoint is stable.  ``watermark`` is the stable
    checkpoint the log starts after -- the one it was last cut at, or
    the one a state transfer installed (:meth:`restart`) -- so two
    replicas' logs with the same ``watermark`` start from the same
    applied prefix.
    """

    def __init__(self, entries: Sequence[Tuple[Command, Any]] = (),
                 watermark: int = 0) -> None:
        self.entries: List[Tuple[Command, Any]] = list(entries)
        self.watermark = watermark
        #: Entries cut from the front so far, so a noted length stays a
        #: position in the log.
        self._cut = 0
        #: Checkpoint watermark -> log length at its capture.
        self._marks: Dict[int, int] = {}

    def mark(self, watermark: int) -> None:
        """Note the log's length at the capture of checkpoint
        ``watermark``."""
        self._marks[watermark] = self._cut + len(self.entries)

    def cut(self, watermark: int) -> List[Tuple[Command, Any]]:
        """Checkpoint ``watermark`` is stable: drop and return the
        entries applied before its capture (none if it was not
        captured here)."""
        length = self._marks.pop(watermark, None)
        self._marks = {w: n for w, n in self._marks.items()
                       if w > watermark}
        if length is None:
            return []
        keep_from = length - self._cut
        dropped = self.entries[:keep_from]
        del self.entries[:keep_from]
        self._cut = length
        self.watermark = watermark
        return dropped

    def restart(self, watermark: int) -> None:
        """The final state was replaced by checkpoint ``watermark``'s:
        what was applied before no longer describes it."""
        self._cut += len(self.entries)
        self.entries = []
        self._marks = {}
        self.watermark = watermark


class StateMachine(ABC):
    """Deterministic application state machine: a final map of keys to
    values with a speculative overlay on top.

    A subclass supplies only :meth:`_execute`, its application's rules;
    this class runs them against the final state or the overlay.  They
    must be deterministic: the same sequence of commands applied to the
    same initial state yields the same results and final state on every
    replica.  A command the rules reject (``StateMachineError``) is
    answered with the result ``"ERROR: <message>"`` and changes nothing;
    so is a command whose key is not a string.

    The rules never mutate a value they read in place: they ``write`` a
    new one.  Captured snapshots share values with the live leaves (a
    leaf is copied on its first write, its values are not), so an
    in-place mutation would rewrite history.
    """

    #: What a read of a key that was never written returns.
    default: Any = None

    def __init__(self) -> None:
        #: The final state: ``L`` leaf dicts (module docstring).
        self._leaves: List[Dict[str, Any]] = [{}]
        #: Leaves written since the last capture -- this machine's own
        #: copies, whose digests are stale.  Every other leaf is shared
        #: with a snapshot and is copied before it is written.
        self._written: Set[int] = {0}
        #: Leaf digests, 32 bytes per leaf in leaf order.
        self._digests = bytearray(_DIGEST_SIZE)
        self._size = 0
        self._overlay: Dict[str, Any] = {}
        #: Every command :meth:`apply` ran, with its result.
        self.record = ExecutedLog()
        self.final_ops = 0
        self.speculative_ops = 0
        self.rollbacks = 0

    @abstractmethod
    def _execute(self, command: Command, read: Read, write: Write) -> Any:
        """Execute one non-noop ``command`` and return its result.

        ``read(key)`` and ``write(key, value)`` are bound to the state
        being executed against: the final state, or the overlay read
        through to it.  Raise ``StateMachineError`` to reject the
        command, and validate it before the first ``write``, so a
        rejected command leaves the state as it found it.
        """

    def apply(self, command: Command) -> Any:
        """Execute ``command`` against the final state, record it, and
        return its result."""
        self.final_ops += 1
        result = self._run(command, self.get_final, self._write_final)
        self.record.entries.append((command, result))
        return result

    def apply_speculative(self, command: Command) -> Any:
        """Execute ``command`` against the speculative overlay."""
        self.speculative_ops += 1
        return self._run(command, self.get_speculative,
                         self._overlay.__setitem__)

    def _run(self, command: Command, read: Read, write: Write) -> Any:
        if command.op == "noop":
            return None
        try:
            if not isinstance(command.key, str):
                raise StateMachineError(
                    f"key must be a string, got {command.key!r}")
            return self._execute(command, read, write)
        except StateMachineError as exc:
            return f"ERROR: {exc}"

    def _write_final(self, key: str, value: Any) -> None:
        index = leaf_index(key, len(self._leaves))
        leaf = self._leaves[index]
        if index not in self._written:
            # First write since a capture shared this leaf: copy it.
            leaf = self._leaves[index] = dict(leaf)
            self._written.add(index)
        if key not in leaf:
            self._size += 1
        leaf[key] = value

    def rollback_speculative(self) -> None:
        """Discard all speculative effects (keep final state)."""
        if self._overlay:
            self.rollbacks += 1
        self._overlay.clear()

    def snapshot(self) -> StateSnapshot:
        """Freeze the final state and return its leaves with the state
        root (for checkpoints).

        Only the leaves written since the last capture are digested
        again.  A state that outgrew its leaf count is re-partitioned
        first, which digests every leaf once per doubling."""
        count = leaf_count(self._size)
        if count != len(self._leaves):
            self._repartition(count)
        leaves, digests = self._leaves, self._digests
        for index in self._written:
            at = index * _DIGEST_SIZE
            digests[at:at + _DIGEST_SIZE] = leaf_digest(leaves[index])
        self._written.clear()
        return StateSnapshot.of(leaves, bytes(digests))

    def _repartition(self, count: int) -> None:
        leaves: List[Dict[str, Any]] = [{} for _ in range(count)]
        for leaf in self._leaves:
            for key, value in leaf.items():
                leaves[leaf_index(key, count)][key] = value
        self._leaves = leaves
        self._written = set(range(count))
        self._digests = bytearray(count * _DIGEST_SIZE)

    def restore(self, snapshot: StateSnapshot) -> None:
        """Make a captured or :meth:`StateSnapshot.checked` snapshot the
        final state, adopting its leaves and digests without copying
        them (a leaf is copied on its first write, as after a capture);
        clears speculation."""
        self._leaves = list(snapshot)
        self._written = set()
        self._digests = bytearray(snapshot.digests)
        self._size = sum(map(len, snapshot))
        self._overlay.clear()

    # ------------------------------------------------------------------
    # Introspection (used heavily by tests)
    # ------------------------------------------------------------------
    def get_final(self, key: str) -> Any:
        """Read a key from the final state only."""
        return self._leaves[leaf_index(key, len(self._leaves))].get(
            key, self.default)

    def get_speculative(self, key: str) -> Any:
        """Read a key as speculation sees it (overlay, then final)."""
        if key in self._overlay:
            return self._overlay[key]
        return self.get_final(key)

    @property
    def has_speculative_state(self) -> bool:
        return bool(self._overlay)

    def final_items(self) -> Dict[str, Any]:
        """The final state as one flat dict."""
        merged: Dict[str, Any] = {}
        for leaf in self._leaves:
            merged.update(leaf)
        return merged

    def speculative_items(self) -> Dict[str, Any]:
        """Final state with the speculative overlay applied on top --
        the state a speculative protocol (ezBFT pre-commit) exposes
        before commitment catches up."""
        merged = self.final_items()
        merged.update(self._overlay)
        return merged
