"""Replicated state machine substrate.

Provides the :class:`Command` wire type, the command-interference relation
the protocol uses for dependency collection, the checkpoint store, and
:class:`StateMachine`, the base that gives every application the
speculative-execute / rollback / final-execute cycle ezBFT and Zyzzyva
require.  Three applications are built on it: the key-value store of the
evaluation (:class:`KVStore`), a counter (:class:`CounterMachine`) and a
bank with balance-dependent results (:class:`BankMachine`).

The base holds the final state as copy-on-write leaves with cached
digests: a checkpoint capture (:meth:`StateMachine.snapshot`) shares
the leaves with its :class:`StateSnapshot` instead of copying the
store, and rehashes only the leaves written since the last capture.
A checkpoint's digest covers the snapshot's other fields plus the
state root, the digest of the leaf digests.
"""

from repro.statemachine.base import Command, StateMachine, StateSnapshot
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
    "StateSnapshot",
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
