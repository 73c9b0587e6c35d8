"""ezBFT owner-change protocol (paper Sections IV-D and IV-E).

An instance space whose owner is suspected byzantine is handed to the next
replica in owner-number order.  The flow:

1. A replica *suspects* the owner (suspicion timeout after relaying a
   RESENDREQ, or a verified proof of misbehavior) and broadcasts a signed
   STARTOWNERCHANGE carrying the space's current owner number O.
2. On f+1 STARTOWNERCHANGE messages for (space, O) a replica *commits* to
   the change: it freezes the space (stops acting on the old owner's
   SPECORDERs), computes O' = O+1 and the new owner ``replicas[O' mod N]``,
   and sends the new owner a signed OWNERCHANGE with its view of the
   space: every instance it holds, with the strongest proof it has
   (a commit certificate, or the signed SPECORDER).
3. The new owner collects f+1 OWNERCHANGEs and finalizes the history:
   per slot it picks (Condition 1) any entry backed by a commit
   certificate with the highest owner number, else (Condition 2) an entry
   whose signed SPECORDER is reported by at least f+1 distinct replicas;
   unresolvable slots below the highest safe slot become no-ops.  It
   broadcasts NEWOWNER with the safe history G and the OWNERCHANGE set as
   proof.
4. Replicas validate NEWOWNER (its ``ROLE``: the sender O' rotates to),
   install G as
   committed, roll back speculation, and leave the space frozen -- the
   paper: "No new commands are ordered in the instance space."

Deviation note (documented per DESIGN.md): the paper selects the single
longest sequence P_i satisfying Condition 1/2 and then admits extensions;
we resolve per-slot with the same two conditions, which accepts exactly
the union of the paper's P_i and its valid extensions while being simpler
to verify.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.instance import EntryStatus, LogEntry
from repro.crypto.digest import digest
from repro.messages.base import SignedPayload, authentic_payload
from repro.messages.batching import BatchSpecOrder
from repro.messages.ezbft import (
    CommitFast,
    LogEntrySummary,
    NewOwner,
    OwnerChange,
    ProofOfMisbehavior,
    SpecOrder,
    StartOwnerChange,
)
from repro.statemachine.base import Command
from repro.types import InstanceID

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replica import EzBFTReplica


def summarize_entry(entry: LogEntry) -> LogEntrySummary:
    """One log entry with the strongest evidence held for it -- shared
    by owner-change recovery payloads and state-transfer log suffixes."""
    if entry.status.at_least(EntryStatus.COMMITTED):
        kind = "commit"
        held = entry.commit_proof
        if isinstance(held, CommitFast):
            proof = held.certificate  # its 3f+1 headers, derived here
        else:  # the client's signed COMMIT, if any
            proof = (held,) if held is not None else ()
    else:
        kind = "spec-order"
        proof = ((entry.spec_order,)
                 if entry.spec_order is not None else ())
    return LogEntrySummary(
        instance=entry.instance, command=entry.command,
        deps=entry.deps, seq=entry.seq,
        status=entry.status.value,
        owner_number=entry.owner_number,
        proof_kind=kind, proof=proof)


def evidence_orders(envelope: SignedPayload, suspect: str
                    ) -> Optional[Tuple[SpecOrder, ...]]:
    """The SPECORDERs a piece of POM evidence attributes to
    ``suspect`` -- the payload itself, or a batch's inner orders.
    ``None`` when the payload is no proposal of the suspect's.  Shared
    by the client assembling a POM and the replicas validating it."""
    payload = envelope.payload
    if isinstance(payload, SpecOrder):
        orders: Tuple[SpecOrder, ...] = (payload,)
    elif isinstance(payload, BatchSpecOrder):
        if payload.leader != suspect:
            return None
        orders = payload.orders
    else:
        return None
    for order in orders:
        if order.leader != suspect:
            return None
    return orders


class OwnerChangeManager:
    """Per-replica owner-change state machine."""

    def __init__(self, replica: "EzBFTReplica") -> None:
        self.replica = replica
        #: (suspect, owner_number) -> voters who sent STARTOWNERCHANGE.
        self._votes: Dict[Tuple[str, int], Set[str]] = {}
        #: (suspect, owner_number) we already voted for.
        self._voted: Set[Tuple[str, int]] = set()
        #: (suspect, new_owner_number) we already committed to.
        self._committed: Set[Tuple[str, int]] = set()
        #: new-owner side: (suspect, new_owner_number) -> sender -> msg.
        self._collected: Dict[Tuple[str, int],
                              Dict[str, Tuple[OwnerChange,
                                              SignedPayload]]] = {}
        #: (suspect, new_owner_number) already finalized by us as new owner.
        self._finalized: Set[Tuple[str, int]] = set()
        #: suspect -> the signed NEWOWNER whose history this replica
        #: installed last for that space; served to catching-up peers.
        self.installed: Dict[str, SignedPayload] = {}

    # ------------------------------------------------------------------
    # Suspicion entry points
    # ------------------------------------------------------------------
    def suspect(self, suspect: str) -> None:
        """Vote to change the owner of ``suspect``'s instance space."""
        replica = self.replica
        if suspect == replica.node_id:
            return
        space = replica.spaces.get(suspect)
        if space is None or space.frozen:
            return
        key = (suspect, space.owner_number)
        if key in self._voted:
            return
        self._voted.add(key)
        replica.stats["owner_changes_started"] += 1
        msg = StartOwnerChange(sender=replica.node_id, suspect=suspect,
                               owner_number=space.owner_number)
        self._record_vote(msg)
        replica.broadcast_others(replica.sign(msg))

    def on_pom(self, pom: ProofOfMisbehavior) -> None:
        """Validate a client-supplied proof of misbehavior (step 4.4)."""
        if self._pom_valid(pom):
            self.suspect(pom.suspect)

    def _pom_valid(self, pom: ProofOfMisbehavior) -> bool:
        replica = self.replica
        a, b = pom.evidence
        orders_a = evidence_orders(a, pom.suspect)
        orders_b = evidence_orders(b, pom.suspect)
        if orders_a is None or orders_b is None:
            return False
        # Authentic evidence is signed by its leader: the suspect.
        if not (a.authentic(replica.registry) and
                b.authentic(replica.registry)):
            return False
        # Conflict: same slot ordered twice with different content, or the
        # same request placed at two different instances.  Batched
        # evidence conflicts when any inner pair does.
        for pa in orders_a:
            for pb in orders_b:
                same_slot_diff_payload = (
                    pa.instance == pb.instance
                    and digest(pa) != digest(pb))
                same_request_diff_instance = (
                    pa.request_digest == pb.request_digest
                    and pa.instance != pb.instance)
                if same_slot_diff_payload or same_request_diff_instance:
                    return True
        return False

    # ------------------------------------------------------------------
    # STARTOWNERCHANGE
    # ------------------------------------------------------------------
    def on_start_owner_change(self, msg: StartOwnerChange) -> None:
        replica = self.replica
        space = replica.spaces.get(msg.suspect)
        if space is None or msg.owner_number != space.owner_number:
            return
        self._record_vote(msg)
        key = (msg.suspect, msg.owner_number)
        votes = self._votes.get(key, set())
        weak = replica.config.weak_quorum_size
        if len(votes) >= weak and key not in self._voted:
            # Amplify: join the change once f+1 replicas demand it (at
            # least one of them is correct).
            self._voted.add(key)
            own = StartOwnerChange(sender=replica.node_id,
                                   suspect=msg.suspect,
                                   owner_number=msg.owner_number)
            self._record_vote(own)
            replica.broadcast_others(replica.sign(own))
            votes = self._votes[key]
        if len(votes) >= weak:
            self._commit_to_change(msg.suspect, msg.owner_number)

    def _record_vote(self, msg: StartOwnerChange) -> None:
        key = (msg.suspect, msg.owner_number)
        self._votes.setdefault(key, set()).add(msg.sender)

    def _commit_to_change(self, suspect: str, owner_number: int) -> None:
        replica = self.replica
        new_number = owner_number + 1
        key = (suspect, new_number)
        if key in self._committed:
            return
        self._committed.add(key)
        space = replica.spaces[suspect]
        space.frozen = True
        new_owner = replica.config.replica_at(new_number)
        base_slot = replica.checkpoint_base_slot(suspect)
        entries = self._summarize_space(suspect, base_slot)
        msg = OwnerChange(sender=replica.node_id, suspect=suspect,
                          new_owner_number=new_number, entries=entries,
                          base_slot=base_slot)
        signed = replica.sign(msg)
        if new_owner == replica.node_id:
            self.on_owner_change(msg, signed)
        else:
            replica.ctx.send(new_owner, signed)

    def _summarize_space(self, suspect: str, base_slot: int = 0
                         ) -> Tuple[LogEntrySummary, ...]:
        """The paper's recovery info: "instances executed or committed
        since the last checkpoint" -- slots below ``base_slot`` are
        durably executed at a quorum and omitted."""
        replica = self.replica
        space = replica.spaces[suspect]
        return tuple(summarize_entry(entry) for entry in space.entries()
                     if entry.instance.slot >= base_slot)

    # ------------------------------------------------------------------
    # OWNERCHANGE (new-owner side)
    # ------------------------------------------------------------------
    def on_owner_change(self, msg: OwnerChange,
                        envelope: SignedPayload) -> None:
        replica = self.replica
        if replica.config.replica_at(msg.new_owner_number) != replica.node_id:
            return
        key = (msg.suspect, msg.new_owner_number)
        if key in self._finalized:
            return
        bucket = self._collected.setdefault(key, {})
        bucket[msg.sender] = (msg, envelope)
        if len(bucket) >= replica.config.weak_quorum_size:
            self._finalize(msg.suspect, msg.new_owner_number)

    def _finalize(self, suspect: str, new_number: int) -> None:
        replica = self.replica
        key = (suspect, new_number)
        self._finalized.add(key)
        bucket = self._collected[key]
        messages = [m for m, _ in bucket.values()]
        # Slots below every reporter's checkpoint base are durably
        # executed at a quorum: the finalized history starts above them.
        base_slot = min((m.base_slot for m in messages), default=0)
        safe = self._select_safe_history(messages, base_slot)
        proof = tuple(envelope for _, envelope in bucket.values())
        msg = NewOwner(new_owner=replica.node_id, suspect=suspect,
                       new_owner_number=new_number,
                       safe_entries=safe, proof=proof,
                       base_slot=base_slot)
        signed = replica.sign(msg)
        replica.broadcast_others(signed)
        self.install_new_owner(msg, signed)  # our own: nothing to check

    def _select_safe_history(self, messages: List[OwnerChange],
                             base_slot: int = 0
                             ) -> Tuple[LogEntrySummary, ...]:
        """Per-slot resolution using the paper's Conditions 1 and 2,
        over the slots at or above ``base_slot`` (every reporter only
        ships entries above its own checkpoint base, so all candidates
        are above the minimum base).

        Gap slots are finalized as no-ops only at or above the *highest*
        reported base: below it, some reporter's stable checkpoint
        proves the slot durably executed at a quorum -- its real command
        simply got garbage-collected out of that reporter's payload, and
        finalizing a no-op over it would overwrite the executed command
        at any replica still holding it un-executed.  Such slots are
        omitted (left to checkpoint/state-transfer repair) instead."""
        replica = self.replica
        weak = replica.config.weak_quorum_size
        by_slot: Dict[int, List[LogEntrySummary]] = {}
        for msg in messages:
            for summary in msg.entries:
                by_slot.setdefault(summary.instance.slot,
                                   []).append(summary)

        chosen: Dict[int, LogEntrySummary] = {}
        for slot, candidates in by_slot.items():
            # Condition 1: a commit certificate wins outright; among
            # several, highest owner number.
            committed = [c for c in candidates if c.proof_kind == "commit"]
            if committed:
                chosen[slot] = max(committed,
                                   key=lambda c: c.owner_number)
                continue
            # Condition 2: f+1 distinct replicas report the same signed
            # SPECORDER (same command, same owner number).
            groups: Dict[Tuple, List[LogEntrySummary]] = {}
            for cand in candidates:
                if cand.command is None:
                    continue
                group_key = (tuple(sorted(cand.command.to_wire().items(),
                                          key=lambda kv: kv[0])),
                             cand.owner_number)
                groups.setdefault(group_key, []).append(cand)
            best: Optional[LogEntrySummary] = None
            for group in groups.values():
                if len(group) >= min(weak, len(messages)):
                    cand = group[0]
                    if best is None or cand.owner_number > \
                            best.owner_number:
                        best = cand
            if best is not None:
                chosen[slot] = best

        if not chosen:
            return ()
        fill_floor = max((m.base_slot for m in messages), default=0)
        max_slot = max(chosen)
        safe: List[LogEntrySummary] = []
        suspect = messages[0].suspect
        for slot in range(base_slot, max_slot + 1):
            if slot in chosen:
                safe.append(chosen[slot])
            elif slot >= fill_floor:
                # Unresolvable gap below a safe slot: finalize as no-op.
                safe.append(LogEntrySummary(
                    instance=InstanceID(suspect, slot),
                    command=Command.noop(), deps=(), seq=0,
                    status="committed", owner_number=0,
                    proof_kind="commit", proof=()))
            # else: checkpoint-covered at some reporter; never no-op it.
        return tuple(safe)

    # ------------------------------------------------------------------
    # NEWOWNER (all replicas)
    # ------------------------------------------------------------------
    def on_new_owner(self, msg: NewOwner, envelope: SignedPayload) -> None:
        """A NEWOWNER from its signer (``envelope``, already authentic):
        installed when it moves the space to a higher owner number and
        its proof holds (:meth:`new_owner_valid`)."""
        replica = self.replica
        space = replica.spaces.get(msg.suspect)
        if space is None or msg.new_owner_number <= space.owner_number:
            return
        if not self.new_owner_valid(msg):
            replica.stats["invalid_messages"] += 1
            return
        self.install_new_owner(msg, envelope)

    def new_owner_valid(self, msg: NewOwner) -> bool:
        """Whether ``msg`` (authentic: its ``ROLE`` names its signer) is
        what its new owner had to send: its proof holds f+1 validly
        signed OWNERCHANGEs from distinct replicas, all for its
        ``(suspect, new_owner_number)``, and its base slot and finalized
        history are exactly what :meth:`_finalize` derives from them.
        Without these checks one byzantine replica could sign a NEWOWNER
        for any owner number that maps to itself and overwrite any
        unexecuted slot of any space."""
        replica = self.replica
        config = replica.config
        messages: List[OwnerChange] = []
        senders: Set[str] = set()
        for envelope in msg.proof:
            change = authentic_payload(envelope, OwnerChange,
                                       replica.registry)
            if change is None or change.sender in senders:
                return False
            if (change.suspect, change.new_owner_number) != \
                    (msg.suspect, msg.new_owner_number):
                return False
            senders.add(change.sender)
            messages.append(change)
        if len(messages) < config.weak_quorum_size:
            return False
        base_slot = min(change.base_slot for change in messages)
        return msg.base_slot == base_slot and msg.safe_entries == \
            self._select_safe_history(messages, base_slot)

    def install_new_owner(self, msg: NewOwner,
                          envelope: SignedPayload) -> None:
        """Adopt a checked NEWOWNER's finalized history and freeze the
        space at its owner number."""
        replica = self.replica
        space = replica.spaces[msg.suspect]
        if msg.new_owner_number <= space.owner_number:
            return
        self.installed[msg.suspect] = envelope
        # Adopt the finalized history.
        replica.statemachine.rollback_speculative()
        for summary in msg.safe_entries:
            if summary.instance.slot < space.low_slot:
                # Below our stable checkpoint: durably executed and
                # already garbage-collected here.
                continue
            existing = replica._log_index.get(summary.instance)
            if existing is not None and \
                    existing.status == EntryStatus.EXECUTED:
                continue
            entry = LogEntry(
                instance=summary.instance,
                owner_number=msg.new_owner_number,
                command=summary.command
                if summary.command is not None else Command.noop(),
                deps=summary.deps,
                seq=summary.seq,
                status=EntryStatus.COMMITTED,
            )
            if existing is not None:
                entry.reply_to = existing.reply_to
            space.force_put(entry)
            # Key chains included, so duplicate detection and dependency
            # collection find recovered commands -- also when recovery
            # replaces a slot's command with a different one.
            replica._index_entry(entry)
        space.owner_number = msg.new_owner_number
        space.frozen = True  # the space stays frozen per the paper
        top = max((s.instance.slot for s in msg.safe_entries),
                  default=msg.base_slot - 1)
        space.expected_slot = max(space.expected_slot, top + 1,
                                  msg.base_slot)
        replica._advance_execution()
