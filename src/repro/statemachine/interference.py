"""Command-interference relations.

The paper (Section III): two commands interfere if executing them in
different orders from the same state can produce different final states.
For the key-value service used in the evaluation this reduces to:

- commands on different keys never interfere;
- two ``get``\\ s never interfere;
- ``incr``\\ s commute with each other (the paper explicitly calls out that
  "mutative operations such as incrementing a variable" commute under
  ezBFT's relation, unlike Q/U's read/write classification) -- but an
  ``incr`` interferes with a ``get`` (the read sees different values) and
  with a ``put``;
- ``put`` interferes with every command on the same key: put/put do not
  commute (last write wins), and neither do put/get or put/incr.

``noop`` commands never interfere with anything.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.statemachine.base import Command


class InterferenceRelation(ABC):
    """Abstract symmetric interference predicate over commands."""

    #: True when commands on different keys never interfere: a replica
    #: may then look for a command's dependencies among same-key
    #: instances only.  False (search the whole log) is always safe.
    key_based: bool = False

    @abstractmethod
    def interferes(self, a: Command, b: Command) -> bool:
        """True iff ``a`` and ``b`` do not commute."""


class KVInterference(InterferenceRelation):
    """The key-value relation described in the module docstring."""

    key_based = True

    def interferes(self, a: Command, b: Command) -> bool:
        if a.is_noop or b.is_noop:
            return False
        if a.key != b.key:
            return False
        ops = {a.op, b.op}
        if ops == {"get"}:
            return False
        if ops == {"incr"}:
            # Two incrs on the same key reach the same total in either
            # order, and each answers "OK" (not the new total), so
            # neither the final state nor the replies depend on the
            # order: they commute.
            return False
        return True


class ReadWriteInterference(InterferenceRelation):
    """Q/U-style classification: reads conflict with writes, writes with
    everything.  Strictly coarser than :class:`KVInterference`; used by the
    ablation benchmarks to quantify what the finer relation buys."""

    key_based = True

    def interferes(self, a: Command, b: Command) -> bool:
        if a.is_noop or b.is_noop:
            return False
        if a.key != b.key:
            return False
        return a.is_mutation or b.is_mutation


class AlwaysInterfere(InterferenceRelation):
    """Every pair of non-noop commands interferes.

    Turns ezBFT's per-replica instance spaces into a single totally ordered
    log -- the worst case the 100%-contention experiments exercise.
    """

    key_based = False

    def interferes(self, a: Command, b: Command) -> bool:
        return not (a.is_noop or b.is_noop)


class NeverInterfere(InterferenceRelation):
    """No commands interfere; every request takes the fast path."""

    key_based = True

    def interferes(self, a: Command, b: Command) -> bool:
        return False
