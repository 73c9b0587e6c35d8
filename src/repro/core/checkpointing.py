"""ezBFT catch-up and state transfer.

Every ``checkpoint_interval`` final executions a replica broadcasts a
signed EZCHECKPOINT over a snapshot; 2f+1 matching attestations make
the checkpoint *stable* and the log below its per-space frontier is
garbage-collected (:class:`~repro.protocols.base.Replica`, with the
snapshot and the cut ``EzBFTReplica``'s).  Adopting a checkpoint
(:meth:`CheckpointManager.adopt`, then ``resume``) is the one routine
both state transfer and restart-from-disk (:mod:`repro.core.recovery`)
go through.

A replica catches up in one way, a catch-up round: it asks one peer
at a time, in ring order, what it missed (a STATETRANSFERREQ with its
per-space frontier), and the next one on a refused answer or a retry
timeout of silence.  The peer answers with its stable checkpoint if
that is newer and it holds the 2f+1 attestations that made it stable,
its log above the frontier and the NEWOWNERs it installed, each part
with its own proof, the way Castro and Liskov's recovering replica
fetches only what it lacks and checks each part.  Three things open a
round: a return from a crash or a restart (``EzBFTReplica.rejoin``,
which leads nothing until an answer installs), a SPECORDER still
missing after an install, and a checkpoint the cluster proves a whole
interval past us -- whose watermark becomes the round's target, so an
answer that leaves us short of it asks the next peer.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    AbstractSet,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.cluster.node import Timer
from repro.core.instance import EntryStatus, InstanceSpace, LogEntry
from repro.core.owner_change import summarize_entry
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.errors import SerializationError
from repro.messages.base import SignedPayload, authentic_payload
from repro.messages.batching import BatchSpecOrder
from repro.messages.ezbft import (
    Commit,
    CommitFast,
    EzCheckpoint,
    LogEntrySummary,
    NewOwner,
    Request,
    SpecOrder,
    SpecReply,
    StateTransferReply,
    StateTransferRequest,
)
from repro.statemachine.checkpoint import Checkpoint, received_checkpoint
from repro.types import InstanceID

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replica import EzBFTReplica

#: A catch-up answer's checked log part: its entries, rebuilt from
#: their proofs, and the NEWOWNERs in it that move one of our spaces on.
_Log = Tuple[List[LogEntry], List[Tuple[NewOwner, SignedPayload]]]


class CheckpointManager:
    """Per-replica catch-up and state transfer, over
    ``replica.checkpoints``; capture, attestation and GC are the
    replica's (:class:`~repro.protocols.base.Replica`)."""

    def __init__(self, replica: "EzBFTReplica") -> None:
        self.replica = replica
        #: True from :meth:`catch_up` on a return until an answer is
        #: installed (or every peer was asked): the replica leads
        #: nothing meanwhile.
        self.rejoining = False
        #: The open catch-up round (``_target`` is ``None`` when none
        #: is): the execution count an answer must leave us at to close
        #: it, the peers it asked whose answer is still unread (only
        #: those answers are read), the peers left to ask, and the
        #: timer that moves on to the next one.
        self._target: Optional[int] = None
        self._asked: Set[str] = set()
        self._round_queue: List[str] = []
        self._round_timer: Optional[Timer] = None
        #: The unfilled slots that opened the last gap-repair round; a
        #: gap that survives a round unchanged opens no other.
        self._last_gap: FrozenSet[Tuple[str, int]] = frozenset()

    # ------------------------------------------------------------------
    # Catch-up: asking
    # ------------------------------------------------------------------
    def catch_up(self, target: int = 0, rejoining: bool = False) -> None:
        """Open a catch-up round: ask the next replica in ring order
        what we missed, and each further one in turn if an answer is
        refused, does not come within the retry timeout, or leaves our
        execution short of ``target``.  With a round already open,
        ``target`` raises that round's instead.  ``rejoining`` (back
        from a crash or a restart) always opens a fresh round, and
        holds everything we would lead until it closes."""
        if self._target is not None and not rejoining:
            self._target = max(self._target, target)
            return
        config = self.replica.config
        at = config.index_of(self.replica.node_id)
        self.rejoining = rejoining
        self._target = target
        self._asked = set()
        self._round_queue = [config.replica_at(at + step)
                             for step in range(1, config.n)]
        self._ask_next()

    def _ask_next(self) -> None:
        """Ask the next peer of the open round; with every peer asked,
        give up (live traffic and later rounds take it from here)."""
        self._cancel_round_timer()
        if not self._round_queue:
            self._close_round()
            return
        replica = self.replica
        peer = self._round_queue.pop(0)
        self._asked.add(peer)
        replica.ctx.send(peer, StateTransferRequest(
            replica=replica.node_id,
            have_watermark=replica.executor.executed_count,
            frontier=tuple((owner, self._committed_frontier(space))
                           for owner, space in replica.spaces.items())))
        self._round_timer = replica.ctx.set_timer(
            replica.config.retry_timeout, self._on_round_timeout)

    def _on_round_timeout(self) -> None:
        self._round_timer = None
        self._ask_next()

    def _cancel_round_timer(self) -> None:
        if self._round_timer is not None:
            self._round_timer.cancel()
            self._round_timer = None

    def _close_round(self) -> None:
        self._cancel_round_timer()
        self._target = None
        self._asked = set()
        self._round_queue = []
        if self.rejoining:
            self.rejoining = False
            self.replica._release_held_requests()

    def _committed_frontier(self, space: InstanceSpace) -> int:
        """First slot of ``space`` not held at least committed: a peer
        answers with its log from there."""
        slot = self.replica._executed_frontier(space)
        while True:
            entry = space.get(slot)
            if entry is None or entry.status == EntryStatus.SPEC_ORDERED:
                return slot
            slot += 1

    # ------------------------------------------------------------------
    # Catch-up: serving
    # ------------------------------------------------------------------
    def on_state_transfer_request(self, sender: str,
                                  request: StateTransferRequest) -> None:
        """Answer with what the requester is missing: our stable
        checkpoint if it is newer than the requester's execution and we
        hold its 2f+1 attestations (not after a restart from disk), our
        retained log above the requester's frontier (above the
        checkpoint's, when we ship one) with each entry's proof, and
        every NEWOWNER we installed."""
        replica = self.replica
        try:
            floors = {str(owner): int(slot)
                      for owner, slot in request.frontier}
        except (TypeError, ValueError):
            floors = None
        if request.replica != sender or floors is None or \
                request.replica not in replica.config.replica_ids:
            # Snapshot replies are expensive; an unsigned request with a
            # spoofed reply target would be a cheap reflection vector.
            replica.stats["invalid_messages"] += 1
            return
        store = replica.checkpoints
        stable = store.stable
        shipped = None
        if stable is not None and \
                stable.watermark > request.have_watermark and \
                len(store.stable_proof) >= replica.config.slow_quorum_size:
            shipped = stable
            for owner, slot in stable.snapshot.get("frontier",
                                                   {}).items():
                floors[owner] = max(floors.get(owner, 0), int(slot))
        reply = StateTransferReply(
            replica=replica.node_id,
            watermark=shipped.watermark if shipped else 0,
            snapshot=shipped.snapshot if shipped else None,
            proof=store.stable_proof if shipped else (),
            entries=tuple(
                summarize_entry(entry)
                for owner, space in replica.spaces.items()
                for entry in space.entries()
                if entry.instance.slot >= floors.get(owner, 0)
                and _has_proof(entry)),
            new_owners=tuple(replica.owner_changes.installed.values()),
        )
        replica.ctx.send(request.replica, reply)
        replica.stats["state_transfers_served"] += 1

    # ------------------------------------------------------------------
    # Catch-up: checking and installing
    # ------------------------------------------------------------------
    def on_state_transfer_reply(self, sender: str,
                                reply: StateTransferReply) -> None:
        """Read an answer the open round asked for; any other is dropped
        uncounted.  Everything in it is checked before anything is
        installed: a checkpoint without its 2f+1 proof rejects the
        whole answer; a forged entry or NEWOWNER rejects the log part,
        while a proven checkpoint, which stands on its own proof, still
        installs.  A rejected answer, or one that leaves us short of
        the round's target, moves the round on to the next peer."""
        if sender not in self._asked:
            return
        self._asked.discard(sender)
        replica = self.replica
        checkpoint = None
        if reply.snapshot is not None and \
                reply.watermark > replica.executor.executed_count:
            checkpoint = self._proven_checkpoint(reply)
            if checkpoint is None:
                self._refuse()
                return
        log = self._checked_log(reply)
        if checkpoint is not None:
            self._install_transfer(reply, checkpoint, log)
        elif log is not None:
            self._install_log(log)
        if log is None:
            self._refuse()
            return
        replica.stats["catch_ups_installed"] += 1
        if replica.executor.executed_count < self._target:
            self._ask_next()
            return
        self._close_round()
        spaces = replica.spaces
        gap = frozenset(
            (owner, spaces[owner].expected_slot)
            for owner, slot in replica._pending_spec_orders
            if slot > spaces[owner].expected_slot
            and not spaces[owner].frozen)
        if gap and gap != self._last_gap:
            # A SPECORDER below one we hold is still missing: the
            # server had not seen it yet when it answered.
            self._last_gap = gap
            self.catch_up()

    def _refuse(self) -> None:
        """Count a forged answer and move the round on to the next
        peer."""
        self.replica.stats["invalid_messages"] += 1
        self._ask_next()

    def _proven_checkpoint(self, reply: StateTransferReply
                           ) -> Optional[Checkpoint]:
        """The reply's checkpoint, its state recomputed from the shipped
        leaves and bound by 2f+1 attestations; ``None`` otherwise."""
        try:
            checkpoint = received_checkpoint(reply.watermark,
                                             reply.snapshot)
        except SerializationError:
            return None  # malformed leaves: nothing to prove
        replica = self.replica
        if checkpoint is None or checkpoint_proof(
                reply.proof, replica.registry,
                replica.config.slow_quorum_size) != (
                    reply.watermark, checkpoint.state_digest):
            return None
        return checkpoint

    def _checked_log(self, reply: StateTransferReply) -> Optional[_Log]:
        """The reply's entries, each rebuilt from its verified proof,
        and the NEWOWNERs in it that would move one of our spaces on,
        each signed by its new owner with its proof holding; ``None``
        if any entry or NEWOWNER fails its check."""
        replica = self.replica
        entries = []
        for summary in reply.entries:
            entry = self._entry_from_summary(summary)
            if entry is None:
                return None
            entries.append(entry)
        owners = []
        for envelope in reply.new_owners:
            msg = authentic_payload(envelope, NewOwner, replica.registry)
            if msg is None or msg.suspect not in replica.spaces:
                return None
            if msg.new_owner_number <= \
                    replica.spaces[msg.suspect].owner_number:
                continue  # nothing we do not already hold
            if not replica.owner_changes.new_owner_valid(msg):
                return None
            owners.append((msg, envelope))
        return entries, owners

    def _install_log(self, log: Optional[_Log],
                     executed_above: AbstractSet[InstanceID] = frozenset()
                     ) -> None:
        """Install a checked log part (``None``: nothing) and resume.
        Committed entries and NEWOWNERs go in first; an uncommitted
        entry then arrives as its SPECORDER would have, accepted in
        slot order or buffered, so we vote on it and its command can
        still commit on the fast path."""
        entries, owners = log if log is not None else ((), ())
        for entry in entries:
            if entry.status != EntryStatus.SPEC_ORDERED:
                self._install_transferred_entry(entry)
        for msg, envelope in owners:
            self.replica.owner_changes.install_new_owner(msg, envelope)
        self.resume(executed_above)
        for entry in entries:
            if entry.status == EntryStatus.SPEC_ORDERED and \
                    entry.instance not in self.replica._log_index:
                envelope = entry.spec_order
                proposal = envelope.payload
                order = proposal.order_for(entry.instance) \
                    if isinstance(proposal, BatchSpecOrder) else proposal
                self.replica._accept_proposal(
                    envelope.signer, entry.instance.owner, (order,),
                    envelope)

    def _install_transfer(self, reply: StateTransferReply,
                          checkpoint: Checkpoint,
                          log: Optional[_Log]) -> None:
        """Adopt a proven stable checkpoint wholesale, install the
        checked log part (if it passed), and resume normal
        execution."""
        replica = self.replica
        executed_above = self.adopt(checkpoint, reply.proof)
        # Entries we executed locally but that are NOT inside the
        # snapshot's first ``watermark`` executions lost their effects
        # with the restore; demote them so they re-apply.
        for iid, entry in replica._log_index.items():
            if entry.status == EntryStatus.EXECUTED and \
                    iid not in executed_above:
                entry.status = EntryStatus.COMMITTED
                entry.applied = False
        replica.stats["state_transfers_installed"] += 1
        self._install_log(log, executed_above)
        replica.recovery.persist_stable(replica.checkpoints.stable)

    def adopt(self, checkpoint: Checkpoint,
              proof: Tuple[SignedPayload, ...] = ()) -> Set[InstanceID]:
        """Make a stable checkpoint (proven by a state transfer's
        ``proof``, or read back from our own disk; its state checked by
        :func:`received_checkpoint`) this replica's state: application,
        spaces and indexes cut to its frontier, executor and checkpoint
        store fast-forwarded onto its watermark.  Returns the instances
        above the frontier already executed inside the snapshot, for
        :meth:`resume` once the caller has put that part of the log
        back (transferred suffix, WAL replay)."""
        replica = self.replica
        watermark, snapshot = checkpoint.watermark, checkpoint.snapshot
        frontier = {owner: int(slot) for owner, slot in
                    snapshot.get("frontier", {}).items()}
        executed_above = {
            InstanceID(owner, slot)
            for owner, slot in snapshot.get("executed_above", ())
        }
        replica.statemachine.rollback_speculative()
        replica.statemachine.restore(snapshot["state"])
        replica.statemachine.record.restart(watermark)
        for owner, space in replica.spaces.items():
            replica._truncate_space(space, frontier.get(owner, 0))
        # Forget cached frontier cursors: entries above the cut that we
        # had executed locally get demoted (their effects died with the
        # restore), so the contiguous-executed scan must resume from
        # the adopted frontier, not our old progress.
        replica._frontier_cursor = dict(frontier)
        floors = {client: int(t) for client, t in
                  snapshot.get("client_floors", {}).items()}
        replica.executor.install(
            watermark, frontier, floors,
            snapshot.get("client_sparse", {}), executed_above,
            client_results=snapshot.get("client_results", {}))
        # The snapshot executed every timestamp up to a client's floor;
        # the exactly-once watermark must not sit below it.
        client_ts = replica._client_ts
        for client, floor in floors.items():
            if floor > client_ts.get(client, -1):
                client_ts[client] = floor
        replica.checkpoints.install_stable(checkpoint, proof)
        replica.checkpoint_log.append((watermark, checkpoint.state_digest))
        return executed_above

    def resume(self, executed_above: Set[InstanceID]) -> None:
        """Second half of :meth:`adopt`: mark what the snapshot already
        executed, re-anchor the slot cursors, and let ordering and
        execution run on."""
        replica = self.replica
        for iid in executed_above:
            entry = replica._log_index.get(iid)
            if entry is not None:
                # Its effect is inside the snapshot state already; mark
                # executed so it is never re-applied.
                entry.status = EntryStatus.EXECUTED
        own = replica.spaces[replica.node_id]
        own.next_slot = max(own.next_slot, own.max_occupied_slot + 1)
        for space in replica.spaces.values():
            replica._step_over_filled(space)
        replica._advance_execution()

    def _entry_from_summary(self, summary: LogEntrySummary
                            ) -> Optional[LogEntry]:
        """A transferred entry, trusting only verifiable evidence.

        The log is not covered by any snapshot digest, so every entry's
        command/deps/seq are adopted from its *verified* proof (a commit
        certificate or the owner's signed SPECORDER), never from the
        unverified summary; ``None`` when the proof does not hold."""
        if summary.command is None or \
                summary.instance.owner not in self.replica.spaces:
            return None
        if summary.proof_kind == "commit":
            return self._entry_from_commit_proof(summary)
        return self._entry_from_spec_order_proof(summary)

    def _install_transferred_entry(self, entry: LogEntry) -> None:
        """Install one checked committed entry unless the slot is
        garbage-collected here or we already hold it committed."""
        replica = self.replica
        space = replica.spaces[entry.instance.owner]
        if entry.instance.slot < space.low_slot:
            return
        existing = replica._log_index.get(entry.instance)
        if existing is not None and \
                existing.status.at_least(EntryStatus.COMMITTED):
            return  # never downgrade what we already hold
        replica._put_filled(space, entry)

    def _entry_from_commit_proof(self, summary: LogEntrySummary
                                 ) -> Optional[LogEntry]:
        """A committed suffix entry backed by either the 3f+1 SPECREPLY
        headers of a fast certificate (checked as the COMMITFAST they
        make) or the client's signed COMMIT (slow path evidence);
        metadata comes from the certificate."""
        replica = self.replica
        proof = summary.proof
        if not proof or not all(isinstance(p, SignedPayload)
                                for p in proof):
            return None
        payloads = [p.payload for p in proof]
        if all(isinstance(p, SpecReply) for p in payloads):
            sample: SpecReply = payloads[0]
            try:
                fast = CommitFast.from_headers(
                    sample.client_id, summary.instance, proof)
            except SerializationError:
                return None
            if not replica._validate_fast_certificate(fast):
                return None
            command = summary.command
            # The headers name the command only by ident and request
            # digest: both must be the shipped command's, as its leader
            # received it (a request names no recipient, or its leader).
            if command.ident != (sample.client_id, sample.timestamp) or \
                    sample.request_digest not in (
                        digest(Request(command=command)),
                        digest(Request(command=command,
                                       original_replica=(
                                           summary.instance.owner)))):
                return None
            return LogEntry(
                instance=summary.instance,
                owner_number=sample.owner_number,
                command=command, deps=sample.deps, seq=sample.seq,
                status=EntryStatus.COMMITTED,
                commit_proof=fast)
        if len(proof) == 1 and isinstance(payloads[0], Commit):
            envelope, commit = proof[0], payloads[0]
            if not envelope.authentic(replica.registry):
                return None
            if commit.instance != summary.instance or \
                    not replica._validate_slow_certificate(commit):
                return None
            return LogEntry(
                instance=summary.instance,
                owner_number=summary.owner_number,
                command=commit.command, deps=commit.deps,
                seq=commit.seq, status=EntryStatus.COMMITTED,
                commit_proof=envelope)
        return None

    def _entry_from_spec_order_proof(self, summary: LogEntrySummary
                                     ) -> Optional[LogEntry]:
        """An uncommitted suffix entry: only the owner's own signed
        SPECORDER (or a batch covering the instance) is evidence."""
        replica = self.replica
        if len(summary.proof) != 1:
            return None
        envelope = summary.proof[0]
        payload = authentic_payload(envelope, (SpecOrder, BatchSpecOrder),
                                    replica.registry)
        if isinstance(payload, BatchSpecOrder):
            inner = payload.order_for(summary.instance)
        elif payload is not None and payload.instance == summary.instance:
            inner = payload
        else:
            return None
        if inner is None or inner.leader != payload.leader or \
                inner.owner_number != payload.owner_number:
            return None
        return LogEntry(
            instance=summary.instance,
            owner_number=inner.owner_number,
            command=inner.command, deps=inner.deps, seq=inner.seq,
            status=EntryStatus.SPEC_ORDERED, spec_order=envelope)


def checkpoint_proof(proof: Tuple[SignedPayload, ...],
                     registry: KeyRegistry,
                     quorum: int) -> Optional[Tuple[int, str]]:
    """The (watermark, state digest) that ``proof`` makes stable: at
    least ``quorum`` authentic EZCHECKPOINTs from distinct replicas, all
    naming that one pair; ``None`` if it proves none.  A state transfer
    (:meth:`CheckpointManager.on_state_transfer_reply`) and a baseline's
    VIEW-CHANGE (``repro.protocols.base``) are checked by it."""
    named = set()
    signers = set()
    for envelope in proof:
        payload = authentic_payload(envelope, EzCheckpoint, registry)
        if payload is None:
            return None
        named.add((payload.watermark, payload.state_digest))
        signers.add(payload.replica)
    if len(named) != 1 or len(signers) < quorum:
        return None
    return named.pop()


def _has_proof(entry: LogEntry) -> bool:
    """Whether a catching-up peer could check ``entry``: a commit
    certificate, or the signed SPECORDER of an uncommitted one.  Slots a
    NEWOWNER finalized carry neither; the NEWOWNER itself is shipped."""
    if entry.status == EntryStatus.SPEC_ORDERED:
        return entry.spec_order is not None
    return entry.commit_proof is not None
