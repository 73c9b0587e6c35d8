"""A replicated bank-account service with balance-dependent results.

A deliberately *non-commutative* application for the
``statemachine_factory`` extension point: a withdrawal's result depends
on the balance at execution time, so interfering commands genuinely
exercise the protocols' ordering guarantees (speculative replies that
were executed against different orders will disagree and push the
protocol onto its slow path, exactly as they should).

Ops (``Command.key`` names the account; amounts are non-negative ints):

- ``"deposit"``  -- add ``value``; result ``"OK"``.
- ``"withdraw"`` -- subtract ``value`` if covered; result ``"OK"`` or
  ``"INSUFFICIENT"`` (the balance is never driven negative).
- ``"balance"``  -- read; result is the current balance (0 for unknown
  accounts).
- ``"noop"``     -- does nothing (recovery filler).
"""

from __future__ import annotations

from typing import Any

from repro.errors import StateMachineError
from repro.statemachine.base import Command, Read, StateMachine, Write


class BankMachine(StateMachine):
    """In-memory deterministic account store."""

    default = 0

    def __init__(self) -> None:
        super().__init__()
        self.rejected_withdrawals = 0

    def _amount(self, command: Command) -> int:
        amount = command.value
        if not isinstance(amount, int) or amount < 0:
            raise StateMachineError(
                f"amount must be a non-negative int, got {amount!r}")
        return amount

    def _execute(self, command: Command, read: Read, write: Write) -> Any:
        op = command.op
        if op == "balance":
            return read(command.key)
        if op == "deposit":
            amount = self._amount(command)
            write(command.key, read(command.key) + amount)
            return "OK"
        if op == "withdraw":
            amount = self._amount(command)
            current = read(command.key)
            if current < amount:
                self.rejected_withdrawals += 1
                return "INSUFFICIENT"
            write(command.key, current - amount)
            return "OK"
        raise StateMachineError(
            f"BankMachine does not support op {op!r}")
