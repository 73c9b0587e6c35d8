"""Checkpointing: periodic proofs that a prefix of execution is durable.

PBFT garbage-collects its message log at checkpoint boundaries; ezBFT's
owner-change messages carry "instances executed or committed *since the
last checkpoint*".  Both need the same building block: a snapshot of the
application state bound to an execution watermark, plus a quorum of
matching digests proving the snapshot is correct.

A checkpoint snapshot is a dict whose ``state`` is a
:class:`~repro.statemachine.base.StateSnapshot`; the other fields are
the protocol's own (frontiers, client progress).  Its digest is the
digest of those fields with ``state`` standing as the state root.  A
capture takes the root from the state machine's cache
(:meth:`Checkpoint.capture`); a snapshot that arrived -- by state
transfer or from disk -- has its root recomputed from the shipped
leaves (:func:`received_checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.crypto.digest import digest
from repro.errors import SerializationError
from repro.statemachine.base import StateSnapshot


def _snapshot_digest(snapshot: dict) -> str:
    """The one definition of a checkpoint's ``state_digest``: the
    snapshot's fields, with ``state`` (when there is one) standing as
    its state root."""
    if "state" not in snapshot:
        return digest(snapshot)
    return digest({**snapshot, "state": snapshot["state"].root})


@dataclass(frozen=True)
class Checkpoint:
    """A state snapshot at an execution watermark.

    ``watermark`` counts final-executed commands; ``state_digest`` commits
    to the snapshot contents.
    """

    watermark: int
    state_digest: str
    snapshot: dict

    @classmethod
    def capture(cls, watermark: int, snapshot: dict) -> "Checkpoint":
        return cls(watermark=watermark,
                   state_digest=_snapshot_digest(snapshot),
                   snapshot=snapshot)


def received_checkpoint(watermark: int, snapshot: Any) -> Checkpoint:
    """The checkpoint a shipped snapshot stands for, its state leaves
    checked and its root recomputed from them
    (:meth:`StateSnapshot.checked`).  Raises ``SerializationError`` for
    a snapshot that is not a dict holding well-formed state leaves."""
    if not isinstance(snapshot, dict) or "state" not in snapshot:
        raise SerializationError("checkpoint snapshot carries no state")
    return Checkpoint.capture(watermark, {
        **snapshot, "state": StateSnapshot.checked(snapshot["state"])})


class CheckpointStore:
    """Tracks local checkpoints and the attestations voting for them.

    A checkpoint becomes *stable* once ``quorum`` distinct replicas
    (including ourselves) have attested to the same (watermark, digest).
    Only the latest stable checkpoint is retained, with the attestations
    that made it stable as its ``stable_proof`` -- the 2f+1 signed votes
    a state transfer ships, as in Castro and Liskov's PBFT.
    """

    #: Local snapshots retained while waiting for stability.  Bounds
    #: memory if checkpoints stop stabilizing (e.g. a partitioned
    #: minority): a late quorum on a pruned watermark simply waits for
    #: the next boundary.
    MAX_LOCAL = 8
    #: Live votes retained per replica, each with the attestation that
    #: cast it.  A byzantine replica attesting ever-higher watermarks
    #: would otherwise grow the vote and attestation maps without bound
    #: (nothing below them ever stabilizes, so ``_gc`` never prunes
    #: them); evicting its oldest vote caps the damage at a constant per
    #: replica.
    MAX_VOTES_PER_REPLICA = 16

    def __init__(self, quorum: int, interval: int = 128) -> None:
        self.quorum = quorum
        self.interval = interval
        self._local: Dict[int, Checkpoint] = {}
        #: (watermark, digest) -> voter -> the attestation it cast.
        self._attestations: Dict[tuple, Dict[str, Any]] = {}
        #: (replica, watermark) -> digest it attested; one live vote per
        #: replica per watermark, first vote wins (a byzantine replica
        #: could otherwise flood arbitrarily many digests per watermark).
        self._votes: Dict[Tuple[str, int], str] = {}
        #: Highest watermark we have captured locally.  ``due`` keys off
        #: this, not ``stable``: stability needs a quorum round-trip, and
        #: measuring from ``stable`` would re-capture a full O(state)
        #: snapshot on every execution until the first quorum forms.
        self.last_captured = 0
        self.stable: Optional[Checkpoint] = None
        #: The attestations behind ``stable``: its voters' when it
        #: became stable here, the shipped ones when it was installed,
        #: none when it was read back from disk.
        self.stable_proof: Tuple[Any, ...] = ()

    def due(self, executed_count: int) -> bool:
        """True when ``executed_count`` has crossed a checkpoint boundary."""
        if executed_count == 0 or self.interval <= 0:
            return False
        last = self.last_captured
        if self.stable is not None:
            last = max(last, self.stable.watermark)
        return executed_count - last >= self.interval

    def record_local(self, checkpoint: Checkpoint, replica_id: str,
                     attestation: Any = None) -> bool:
        """Keep our own capture and cast our vote for it; returns True if
        it became stable (peers' votes had reached quorum first)."""
        self._local[checkpoint.watermark] = checkpoint
        self.last_captured = max(self.last_captured, checkpoint.watermark)
        if len(self._local) > self.MAX_LOCAL:
            for watermark in sorted(self._local)[:-self.MAX_LOCAL]:
                del self._local[watermark]
        return self.attest(checkpoint.watermark, checkpoint.state_digest,
                           replica_id, attestation)

    def attest(self, watermark: int, state_digest: str,
               replica_id: str, attestation: Any = None) -> bool:
        """Record ``replica_id``'s vote, and the ``attestation`` that
        cast it; returns True if the checkpoint became stable.

        At most one vote per (replica, watermark) is ever live: the
        first digest a replica attests at a watermark wins, and
        conflicting re-votes are dropped.  Our capture becomes stable
        only under the digest its quorum attested: one that differs
        from the cluster's is never declared stable here.
        """
        vote_key = (replica_id, watermark)
        prior = self._votes.get(vote_key)
        if prior is not None and prior != state_digest:
            return False  # equivocating re-vote; first vote stands
        if prior is None:
            self._evict_excess_votes(replica_id)
        self._votes[vote_key] = state_digest
        key = (watermark, state_digest)
        voters = self._attestations.setdefault(key, {})
        voters.setdefault(replica_id, attestation)
        candidate = self._local.get(watermark)
        if len(voters) >= self.quorum and candidate is not None and \
                candidate.state_digest == state_digest:
            if self.stable is None or \
                    candidate.watermark > self.stable.watermark:
                self.stable = candidate
                self.stable_proof = tuple(
                    a for a in voters.values() if a is not None)
                self._gc(watermark)
                return True
        return False

    def has_quorum(self, watermark: int, state_digest: str) -> bool:
        """True when ``quorum`` replicas attested (watermark, digest) --
        proof the checkpoint is stable cluster-wide even if we never
        captured it locally (the lagging-replica signal)."""
        voters = self._attestations.get((watermark, state_digest), ())
        return len(voters) >= self.quorum

    def attestation_count(self, watermark: int, state_digest: str) -> int:
        return len(self._attestations.get((watermark, state_digest), ()))

    def vote_of(self, replica_id: str, watermark: int) -> Optional[str]:
        """The digest ``replica_id``'s live vote backs at ``watermark``."""
        return self._votes.get((replica_id, watermark))

    def install_stable(self, checkpoint: Checkpoint,
                       proof: Tuple[Any, ...] = ()) -> None:
        """Adopt an externally proven stable checkpoint (state transfer,
        with its ``proof``, or a restart from disk, without one).
        ``last_captured`` moves with it: the next capture is due one
        interval after the adopted watermark, not one after zero --
        re-capturing from scratch would put a fresh, lower stable
        watermark under the ``base_slot`` of owner-change payloads."""
        if self.stable is not None and \
                checkpoint.watermark <= self.stable.watermark:
            return
        self._local[checkpoint.watermark] = checkpoint
        self.last_captured = max(self.last_captured, checkpoint.watermark)
        self.stable = checkpoint
        self.stable_proof = tuple(proof)
        self._gc(checkpoint.watermark)

    def _evict_excess_votes(self, replica_id: str) -> None:
        """Keep at most ``MAX_VOTES_PER_REPLICA`` live votes for one
        replica, dropping its lowest watermarks first."""
        watermarks = sorted(w for (rid, w) in self._votes
                            if rid == replica_id)
        while len(watermarks) >= self.MAX_VOTES_PER_REPLICA:
            oldest = watermarks.pop(0)
            digest_voted = self._votes.pop((replica_id, oldest))
            voters = self._attestations.get((oldest, digest_voted))
            if voters is not None:
                voters.pop(replica_id, None)
                if not voters:
                    del self._attestations[(oldest, digest_voted)]

    def _gc(self, stable_watermark: int) -> None:
        self._local = {w: c for w, c in self._local.items()
                       if w >= stable_watermark}
        self._attestations = {
            key: voters for key, voters in self._attestations.items()
            if key[0] >= stable_watermark
        }
        self._votes = {
            key: d for key, d in self._votes.items()
            if key[1] >= stable_watermark
        }
