"""A replicated counter service: the simplest pluggable application.

Demonstrates the ``statemachine_factory`` extension point of
:func:`repro.cluster.build_cluster`: scenarios beyond the key-value
store plug in without touching the builder or any protocol code.

Ops (``Command.key`` names the counter):

- ``"incr"`` -- add ``value`` (int, default 1); result ``"OK"``.
- ``"get"``  -- read the counter; result is the current total (0 when
  never incremented).
- ``"noop"`` -- does nothing (recovery filler).

Increment results are order-independent (all return ``"OK"``), so
commuting increments stay on the fast path of speculative protocols
exactly as the KV store's mutations do.
"""

from __future__ import annotations

from typing import Any

from repro.errors import StateMachineError
from repro.statemachine.base import Command, Read, StateMachine, Write


class CounterMachine(StateMachine):
    """In-memory deterministic counter state machine."""

    default = 0

    def _execute(self, command: Command, read: Read, write: Write) -> Any:
        op = command.op
        if op == "get":
            return read(command.key)
        if op == "incr":
            delta = command.value if command.value is not None else 1
            if not isinstance(delta, int):
                raise StateMachineError(
                    f"incr delta must be int, got {delta!r}")
            write(command.key, read(command.key) + delta)
            return "OK"
        raise StateMachineError(
            f"CounterMachine does not support op {op!r}")
