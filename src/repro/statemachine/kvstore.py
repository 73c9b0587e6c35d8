"""Replicated key-value store: the service used in the evaluation.

Result conventions: ``get`` returns the value (or ``None``), mutations
(``put``, ``incr``) return the string ``"OK"``.  Mutation results are
deliberately order-independent so that commands that *commute on state*
also produce identical replies regardless of speculative execution order
-- otherwise two non-interfering increments could spuriously knock the
protocol off the fast path.
"""

from __future__ import annotations

from typing import Any

from repro.errors import StateMachineError
from repro.statemachine.base import Command, Read, StateMachine, Write


class KVStore(StateMachine):
    """In-memory deterministic KV state machine."""

    # The entry points stay in KVStore's own namespace, where
    # ``benchmarks/ledger/spans.py`` looks them up to wrap them.
    apply = StateMachine.apply
    apply_speculative = StateMachine.apply_speculative
    snapshot = StateMachine.snapshot

    def _execute(self, command: Command, read: Read, write: Write) -> Any:
        op = command.op
        if op == "get":
            return read(command.key)
        if op == "put":
            write(command.key, command.value)
            return "OK"
        if op == "incr":
            delta = command.value if command.value is not None else 1
            if not isinstance(delta, int):
                raise StateMachineError(
                    f"incr delta must be int, got {delta!r}")
            current = read(command.key)
            if current is None:
                current = 0
            if not isinstance(current, int):
                raise StateMachineError(
                    f"incr target {command.key!r} holds non-int "
                    f"{current!r}")
            write(command.key, current + delta)
            return "OK"
        raise StateMachineError(f"unknown op {op!r}")
