"""Replicated state machine substrate.

Provides the :class:`Command` wire type, the command-interference relation
the protocol uses for dependency collection, the checkpoint store, and
:class:`StateMachine`, the base that gives every application the
speculative-execute / rollback / final-execute cycle ezBFT and Zyzzyva
require.  Three applications are built on it: the key-value store of the
evaluation (:class:`KVStore`), a counter (:class:`CounterMachine`) and a
bank with balance-dependent results (:class:`BankMachine`).
"""

from repro.statemachine.base import Command, StateMachine
from repro.statemachine.interference import (
    InterferenceRelation,
    KVInterference,
    AlwaysInterfere,
    NeverInterfere,
)
from repro.statemachine.kvstore import KVStore
from repro.statemachine.counter import CounterMachine
from repro.statemachine.bank import BankMachine
from repro.statemachine.checkpoint import Checkpoint, CheckpointStore

__all__ = [
    "Command",
    "StateMachine",
    "InterferenceRelation",
    "KVInterference",
    "AlwaysInterfere",
    "NeverInterfere",
    "KVStore",
    "CounterMachine",
    "BankMachine",
    "Checkpoint",
    "CheckpointStore",
]
