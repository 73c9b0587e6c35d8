"""ezBFT durability: persisting stable checkpoints, restart-from-disk.

The replica appends evidence to its attached
:class:`repro.storage.ReplicaStorage` as it accepts it.  This module
makes a stable checkpoint durable (snapshot file, fresh WAL segment,
retained suffix re-logged) and rebuilds a replica after a crash: the
newest valid snapshot is adopted exactly as a state transfer's is
(:mod:`repro.core.checkpointing`), with the WAL replayed in between.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.cluster.node import NodeContext
from repro.core.instance import EntryStatus
from repro.errors import ProtocolError, SerializationError
from repro.messages.base import decode
from repro.messages.ezbft import CommitFast
from repro.statemachine.checkpoint import Checkpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replica import EzBFTReplica


class RecoveryManager:
    """Per-replica durability: stable-checkpoint persistence and
    restart-from-disk over ``replica.storage``."""

    def __init__(self, replica: "EzBFTReplica") -> None:
        self.replica = replica

    def persist_stable(self, checkpoint: Checkpoint) -> None:
        """Make a stable checkpoint durable: atomic snapshot file, then
        a fresh WAL segment re-logging the retained suffix (so every
        segment head is self-contained from its watermark on), then
        prune history beyond the retention window.  Nothing to do
        without a store attached."""
        storage = self.replica.storage
        if storage is None:
            return
        storage.save_snapshot(checkpoint.watermark,
                              checkpoint.state_digest,
                              checkpoint.snapshot)
        storage.rotate(checkpoint.watermark)
        self._relog_retained()
        storage.prune()

    def _relog_retained(self) -> None:
        """Re-append the evidence for everything above the stable
        frontier -- retained log entries, their strongest commit proof,
        and still-buffered out-of-order orders -- into the fresh
        segment, so recovery never needs pruned history."""
        replica = self.replica
        storage = replica.storage
        seen: set = set()
        pinned: list = []  # id() is only unique while the object lives

        def relog(sender: str, message: Any) -> None:
            if message is None or id(message) in seen:
                return  # a batch envelope covers several entries
            seen.add(id(message))
            pinned.append(message)
            storage.append_entry(sender, message)

        for space in replica.spaces.values():
            for entry in space.entries():
                if entry.spec_order is not None:
                    relog(entry.spec_order.signer, entry.spec_order)
                proof = entry.commit_proof
                if proof is None or \
                        not entry.status.at_least(EntryStatus.COMMITTED):
                    continue
                relog(replica.node_id if isinstance(proof, CommitFast)
                      else proof.signer, proof)
        for _, envelope in replica._pending_spec_orders.values():
            if envelope is not None:  # not a slot marked filled
                relog(envelope.signer, envelope)

    def recover(self) -> Any:
        """Rebuild the replica from its attached store: adopt the
        newest digest-valid snapshot, replay the retained WAL segments
        through the ordinary message handlers, resume.  While replaying
        the store is detached (the records are already on disk) and the
        context sends nothing (the cluster saw those messages before
        the crash; re-sending would duplicate protocol traffic).
        Anything past what disk retains is rejoined through state
        transfer once live traffic resumes.  Returns a
        :class:`repro.storage.RecoverySummary`."""
        from repro.storage.store import RecoverySummary

        replica = self.replica
        storage = replica.storage
        if storage is None:
            raise ProtocolError("recover_from_storage: no storage "
                                "attached")
        summary = RecoverySummary()
        payload = storage.load_snapshot(summary)
        # Materialize before mutating anything: persisting a stable
        # checkpoint rotates and prunes segments, which must not race
        # the read side.
        records = list(storage.replay_records(summary))
        executed_above: set = set()
        if payload is not None:
            executed_above = replica.checkpointing.adopt(Checkpoint(
                watermark=int(payload["watermark"]),
                state_digest=payload["state_digest"],
                snapshot=payload["snapshot"]))
        live = replica.ctx
        replica.ctx = NodeContext(live.node_id, lambda src, dst, msg: None,
                                  live.set_timer, lambda: live.now)
        replica.storage = None
        try:
            for record in records:
                if not isinstance(record, dict):
                    continue
                wire = record.get("wire")
                if wire is None:
                    continue
                try:
                    message = decode(wire)
                except SerializationError as exc:
                    # A record this build cannot read (e.g. written
                    # before SPECORDERs moved out of the signed
                    # SPECREPLY): skipping it would silently drop the
                    # commit proofs it holds, so name the file.
                    raise SerializationError(
                        f"{record.get('segment')}: unusable WAL record "
                        f"from {record.get('sender')!r}: {exc}") from exc
                except (ProtocolError, KeyError, TypeError, ValueError):
                    continue  # malformed record: skip, stay live
                replica.on_message(str(record.get("sender", "")), message)
        finally:
            replica.storage = storage
            replica.ctx = live
        replica.checkpointing.resume(executed_above)
        stable = replica.checkpoints.stable
        if stable is not None and \
                stable.watermark != (summary.snapshot_watermark or 0):
            # Replay advanced stability past the on-disk snapshot; sync
            # the store so the next restart starts from the newer point.
            self.persist_stable(stable)
        return summary
