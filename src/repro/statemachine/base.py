"""Command wire type and the abstract replicated state machine."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Optional, Tuple

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
    - ``"put"``    -- write ``value`` to ``key``; result is ``value``.
    - ``"incr"``   -- add ``value`` (int, default 1) to ``key``; result is
      the new total.  Increments commute with each other, which the paper
      uses to contrast ezBFT's interference relation with Q/U's
      read/write conflicts.
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


class StateMachine(ABC):
    """Deterministic application state machine.

    Implementations must be deterministic: the same sequence of commands
    applied to the same initial state yields the same results and final
    state on every replica.
    """

    @abstractmethod
    def apply(self, command: Command) -> Any:
        """Execute ``command`` against the final state; return its result."""

    @abstractmethod
    def apply_speculative(self, command: Command) -> Any:
        """Execute ``command`` against the speculative overlay."""

    @abstractmethod
    def rollback_speculative(self) -> None:
        """Discard all speculative effects (keep final state)."""

    @abstractmethod
    def snapshot(self) -> dict:
        """Serializable copy of the final state (for checkpoints)."""

    @abstractmethod
    def restore(self, snapshot: dict) -> None:
        """Replace final state with ``snapshot``; clears speculation."""
