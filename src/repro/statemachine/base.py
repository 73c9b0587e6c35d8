"""Command wire type and the replicated state machine base.

Execution model (matching Zyzzyva/ezBFT requirements): *final state* is
the authoritative map, mutated only by :meth:`StateMachine.apply`;
*speculative state* is an overlay on top of it, mutated by
:meth:`StateMachine.apply_speculative` and read through to the final
state.  :meth:`StateMachine.rollback_speculative` discards the overlay
in O(overlay size).
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.errors import StateMachineError
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


class StateMachine(ABC):
    """Deterministic application state machine: a final map of keys to
    values with a speculative overlay on top.

    A subclass supplies only :meth:`_execute`, its application's rules;
    this class runs them against the final state or the overlay.  They
    must be deterministic: the same sequence of commands applied to the
    same initial state yields the same results and final state on every
    replica.  A command the rules reject (``StateMachineError``) is
    answered with the result ``"ERROR: <message>"`` and changes nothing.
    """

    #: What a read of a key that was never written returns.
    default: Any = None

    def __init__(self) -> None:
        self._final: Dict[str, Any] = {}
        self._overlay: Dict[str, Any] = {}
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
        """Execute ``command`` against the final state; return its result."""
        self.final_ops += 1
        return self._run(command, self.get_final, self._final.__setitem__)

    def apply_speculative(self, command: Command) -> Any:
        """Execute ``command`` against the speculative overlay."""
        self.speculative_ops += 1
        return self._run(command, self.get_speculative,
                         self._overlay.__setitem__)

    def _run(self, command: Command, read: Read, write: Write) -> Any:
        if command.op == "noop":
            return None
        try:
            return self._execute(command, read, write)
        except StateMachineError as exc:
            return f"ERROR: {exc}"

    def rollback_speculative(self) -> None:
        """Discard all speculative effects (keep final state)."""
        if self._overlay:
            self.rollbacks += 1
        self._overlay.clear()

    def snapshot(self) -> dict:
        """Serializable copy of the final state (for checkpoints)."""
        return copy.deepcopy(self._final)

    def restore(self, snapshot: dict) -> None:
        """Replace final state with ``snapshot``; clears speculation."""
        self._final = copy.deepcopy(snapshot)
        self._overlay.clear()

    # ------------------------------------------------------------------
    # Introspection (used heavily by tests)
    # ------------------------------------------------------------------
    def get_final(self, key: str) -> Any:
        """Read a key from the final state only."""
        return self._final.get(key, self.default)

    def get_speculative(self, key: str) -> Any:
        """Read a key as speculation sees it (overlay, then final)."""
        if key in self._overlay:
            return self._overlay[key]
        return self._final.get(key, self.default)

    @property
    def has_speculative_state(self) -> bool:
        return bool(self._overlay)

    def final_items(self) -> Dict[str, Any]:
        return dict(self._final)

    def speculative_items(self) -> Dict[str, Any]:
        """Final state with the speculative overlay applied on top --
        the state a speculative protocol (ezBFT pre-commit) exposes
        before commitment catches up."""
        merged = dict(self._final)
        merged.update(self._overlay)
        return merged
