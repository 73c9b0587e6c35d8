"""ReplicaStorage: the per-replica durability facade.

Layout (one directory per replica under the deployment's data dir)::

    <data_dir>/<replica_id>/
        wal-<watermark>.log       # segment opened at that stable point
        snapshot-<watermark>.json # atomic snapshot per stable checkpoint

Lifecycle: protocol evidence (signed SPECORDER/BATCHSPECORDER/COMMIT
envelopes, fast-commit certificates, peer checkpoint attestations)
appends to the current WAL segment as it is accepted.  When a
checkpoint becomes stable, the snapshot is written atomically, the WAL
rotates to a fresh ``wal-<watermark>.log`` segment (the replica then
re-logs its retained suffix into it, making every segment head
self-contained), and everything older than the second-newest snapshot
is pruned.  Recovery loads the newest digest-valid snapshot (falling
back to the previous one on corruption) and replays all retained
segments in watermark order; replay tolerates a torn final record.

A snapshot file holds the whole checkpoint snapshot, its state as the
list of its leaves: O(store) per stable checkpoint, written atomically.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import SerializationError
from repro.statemachine.checkpoint import Checkpoint, received_checkpoint
from repro.storage.atomic import atomic_write_json
from repro.storage.wal import WriteAheadLog, replay_wal

#: 2: the state is a list of leaves and ``state_digest`` covers their
#: root (1 held one flat state dict, digested whole).
SNAPSHOT_VERSION = 2

_SEGMENT_RE = re.compile(r"^wal-(\d+)\.log$")
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d+)\.json$")


@dataclass
class RecoverySummary:
    """What a restart actually read back from disk."""

    snapshot_watermark: Optional[int] = None
    records_replayed: int = 0
    segments: Tuple[int, ...] = ()
    invalid_snapshots: List[int] = field(default_factory=list)


class ReplicaStorage:
    """WAL segments + checkpoint snapshots for one replica.

    Opening the store reopens the newest segment for append (truncating
    any torn tail first, so new records never land behind unreachable
    garbage); a fresh directory starts at ``wal-0.log``.
    """

    def __init__(self, data_dir: str, replica_id: str,
                 retain: int = 2) -> None:
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.replica_id = replica_id
        self.retain = retain
        self.root = os.path.join(data_dir, replica_id)
        os.makedirs(self.root, exist_ok=True)
        segments = self._segment_watermarks()
        current = segments[-1] if segments else 0
        self._wal = WriteAheadLog(self._segment_path(current))
        self._current_segment = current

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def append_entry(self, sender: str, message: Any) -> None:
        """Log-entry evidence: a signed order/commit envelope (or a
        fast-commit certificate message) exactly as it arrived."""
        self._append("entry", sender, message)

    def append_attest(self, sender: str, message: Any) -> None:
        """A peer's signed checkpoint attestation."""
        self._append("attest", sender, message)

    def _append(self, kind: str, sender: str, message: Any) -> None:
        wire = message.to_wire() if callable(
            getattr(message, "to_wire", None)) else message
        self._wal.append({"kind": kind, "sender": sender, "wire": wire})

    # ------------------------------------------------------------------
    # Stable-checkpoint lifecycle
    # ------------------------------------------------------------------
    def save_snapshot(self, watermark: int, state_digest: str,
                      snapshot: Dict[str, Any]) -> None:
        atomic_write_json(
            self._snapshot_path(watermark),
            {"version": SNAPSHOT_VERSION, "replica": self.replica_id,
             "watermark": watermark, "state_digest": state_digest,
             "snapshot": snapshot},
            sort_keys=True)

    def rotate(self, watermark: int) -> None:
        """Open a fresh (truncated) segment for the new stable point.

        The caller re-logs its retained log suffix into it immediately
        after, so the segment is self-contained from its watermark on.
        """
        self._wal.close()
        self._wal = WriteAheadLog(self._segment_path(watermark),
                                  fresh=True)
        self._current_segment = watermark

    def prune(self) -> None:
        """Drop snapshots beyond ``retain`` and segments older than the
        oldest retained snapshot (the current segment always stays)."""
        snapshots = self._snapshot_watermarks()
        keep = snapshots[-self.retain:]
        for watermark in snapshots[:-self.retain]:
            self._unlink(self._snapshot_path(watermark))
        floor = keep[0] if keep else 0
        for watermark in self._segment_watermarks():
            if watermark < floor and watermark != self._current_segment:
                self._unlink(self._segment_path(watermark))

    # ------------------------------------------------------------------
    # Recovery reads
    # ------------------------------------------------------------------
    def load_snapshot(self, summary: Optional[RecoverySummary] = None
                      ) -> Optional[Dict[str, Any]]:
        """The newest digest-valid snapshot payload, or ``None``; its
        ``snapshot`` is the checked one (:func:`received_checkpoint`),
        ready to adopt.

        A snapshot whose JSON fails to parse, whose state leaves are
        malformed, or whose recomputed state digest disagrees with the
        recorded one is skipped (never deleted -- operators may want
        the forensic evidence) and the next-older one is tried.  A
        snapshot of another format version stops recovery with a
        ``SerializationError`` naming the file: skipping it would
        silently restart from older state.
        """
        import json

        for watermark in reversed(self._snapshot_watermarks()):
            path = self._snapshot_path(watermark)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (OSError, ValueError):
                payload = None
            if isinstance(payload, dict) and \
                    payload.get("version") != SNAPSHOT_VERSION:
                raise SerializationError(
                    f"{path}: snapshot format version "
                    f"{payload.get('version')!r}, this build reads "
                    f"version {SNAPSHOT_VERSION}; discard the data "
                    f"directory")
            checkpoint = _checked(payload, watermark)
            if checkpoint is not None:
                if summary is not None:
                    summary.snapshot_watermark = watermark
                return {**payload, "snapshot": checkpoint.snapshot}
            if summary is not None:
                summary.invalid_snapshots.append(watermark)
        return None

    def replay_records(self, summary: Optional[RecoverySummary] = None
                       ) -> Iterator[Dict[str, Any]]:
        """Every whole record across retained segments, oldest segment
        first (replay naturally skips duplicates below the restored
        frontier, so replaying a too-old segment is safe).  Each record
        read gains a ``segment`` key naming its file, so a record
        recovery cannot use can say where it sits."""
        segments = self._segment_watermarks()
        if summary is not None:
            summary.segments = tuple(segments)
        for watermark in segments:
            path = self._segment_path(watermark)
            for record in replay_wal(path):
                if summary is not None:
                    summary.records_replayed += 1
                if isinstance(record, dict):
                    record["segment"] = path
                yield record

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._wal.close()

    # ------------------------------------------------------------------
    def _segment_path(self, watermark: int) -> str:
        return os.path.join(self.root, f"wal-{watermark}.log")

    def _snapshot_path(self, watermark: int) -> str:
        return os.path.join(self.root, f"snapshot-{watermark}.json")

    def _segment_watermarks(self) -> List[int]:
        return self._scan(_SEGMENT_RE)

    def _snapshot_watermarks(self) -> List[int]:
        return self._scan(_SNAPSHOT_RE)

    def _scan(self, pattern: "re.Pattern") -> List[int]:
        found = []
        for name in os.listdir(self.root):
            match = pattern.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    @staticmethod
    def _unlink(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass


def _checked(payload: Any, watermark: int) -> Optional[Checkpoint]:
    """The checkpoint a snapshot file's payload stands for, if its
    watermark matches the file name and its state digest recomputes."""
    if not isinstance(payload, dict) or \
            payload.get("watermark") != watermark:
        return None
    try:
        checkpoint = received_checkpoint(watermark, payload.get("snapshot"))
    except SerializationError:
        return None
    if checkpoint.state_digest != payload.get("state_digest"):
        return None
    return checkpoint
