"""ezBFT wire messages (paper Section IV).

Field naming follows the paper: ``owner_number`` is O, ``instance`` is I,
``deps`` is D, ``seq`` is S, ``request_digest`` is d = H(m),
``log_digest`` is h.

Bracket placement follows the paper too.  A replica's answer is
``<<SPECREPLY, O, I, D', S', d, c, t>_sigma_Rj, R_j, rep, SO>``: the
signature closes *before* the SPECORDER ``SO``.  :class:`SpecReply` is
the signed header, :class:`SpecReplyBundle` the unsigned carrier that
puts ``SO`` beside one or more headers on the way to the client, and
everything built from replies afterwards -- :class:`CommitFast`,
:class:`Commit`, ``LogEntry.commit_proof``, :class:`LogEntrySummary`
proofs, relogged WAL records -- holds headers only.

The fast certificate closes its brackets the same way.  The 3f+1
headers of ``<COMMITFAST, c, I, CC>`` are one statement signed by
3f+1 replicas -- their signed bytes differ in the signer's own id and
in no other byte (:func:`statement_of`) -- so on the wire ``CC`` is
``<<SPECREPLY, O, I, D', S', d, c, t, rep, R_0>, [(R_j, sigma_Rj),
...]>``: the first header's signed bytes verbatim and 3f+1 signatures
(see :class:`CommitFast`).  In memory it stays a tuple of
signed :class:`SpecReply` envelopes, and a client that certifies
several commands in one step sends their COMMITFASTs as one
:class:`BatchCommitFast` frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from repro.crypto.digest import canonical_bytes, respell_replica
from repro.crypto.signatures import Signature
from repro.errors import SerializationError
from repro.messages.base import (
    SignedPayload,
    register_message,
    wire_struct,
)
from repro.statemachine.base import Command
from repro.types import InstanceID, deps_from_wire

Deps = Tuple[InstanceID, ...]


@register_message
@dataclass(frozen=True)
class Request:
    """<REQUEST, L, t, c> -- client ``c`` asks for command ``L`` at
    client-timestamp ``t`` (carried inside the command)."""

    MSG_TYPE = "ez-request"
    #: Client-facing messages are expensive: the replica terminates the
    #: client connection and verifies an ECDSA signature (~1.5ms on the
    #: paper's m4.2xlarge), whereas replica-to-replica traffic is MAC
    #: authenticated.  This asymmetry is what lets a leaderless protocol
    #: spread the dominant cost over all replicas (paper Figures 6, 7).
    cpu_cost_units = 20

    command: Command
    #: Replica the request was originally sent to; set on retries so other
    #: replicas know whom to suspect (paper step 4.3).
    original_replica: Optional[str] = None

    @property
    def client_id(self) -> str:
        return self.command.client_id

    @property
    def timestamp(self) -> int:
        return self.command.timestamp


@register_message
@dataclass(frozen=True)
class SpecOrder:
    """<SPECORDER, O, I, D, S, h, d> -- the command-leader's proposal."""

    MSG_TYPE = "ez-spec-order"
    cpu_cost_units = 1

    leader: str
    owner_number: int
    instance: InstanceID
    command: Command
    deps: Deps
    seq: int
    log_digest: str
    request_digest: str


@register_message
@dataclass(frozen=True)
class SpecReply:
    """<SPECREPLY, O, I, D', S', d, c, t> -- the signed reply *header*
    (see the module docstring for the paper's bracket placement).

    ``rep`` stays under the signature so fast-path matching is bound
    to it; the SPECORDER the replica acted on travels beside the header
    in a :class:`SpecReplyBundle`.  A commit certificate is 3f+1 (fast)
    or 2f+1 (slow) of these headers, so it carries the leader's
    proposal zero times instead of once per signer.  Fast-path matching
    compares signed headers' bytes (:func:`statement_of`).
    """

    MSG_TYPE = "ez-spec-reply"
    cpu_cost_units = 1

    replica: str
    owner_number: int
    instance: InstanceID
    deps: Deps
    seq: int
    request_digest: str
    client_id: str
    timestamp: int
    result: Any

    @classmethod
    def from_wire(cls, wire: dict) -> "SpecReply":
        if "spec_order" in wire:
            # Bytes from before the header/attachment split: the
            # proposal sat inside the signed tuple, so the signature
            # covers bytes this class no longer produces and can never
            # verify.  Name the key instead of failing as a bad MAC.
            raise SerializationError(
                "SpecReply wire form carries the retired 'spec_order' "
                "key (written before SPECORDERs moved beside the signed "
                "header); its signature cannot be verified")
        return cls(
            replica=wire["replica"],
            # int(), as InstanceID.from_wire does its slot: a header
            # signed with ``5.0`` decodes to the same int at every node
            # (and, spelled apart, never matches a canonical header).
            owner_number=int(wire["owner_number"]),
            instance=InstanceID.from_wire(wire["instance"]),
            deps=deps_from_wire(wire["deps"]),
            seq=int(wire["seq"]),
            request_digest=wire["request_digest"],
            client_id=wire["client_id"],
            timestamp=int(wire["timestamp"]),
            result=wire["result"],
        )


def _orders_covered(spec_order: Optional[SignedPayload]) -> int:
    """How many instances an attached proposal proposes: the inner
    order count of a BATCHSPECORDER, else one."""
    if spec_order is None:
        return 1
    return len(getattr(spec_order.payload, "orders", ())) or 1


@register_message
@dataclass(frozen=True)
class SpecReplyBundle:
    """<[<SPECREPLY ...>_sigma_Rj, ...], SO> -- what a replica actually
    sends a client: its signed :class:`SpecReply` headers with the
    signed SPECORDER they answer carried once, unsigned, beside them.

    Unbatched, ``replies`` holds one header.  For a BATCHSPECORDER the
    replica sends one bundle per client with all of that client's
    headers and the signed batch once.  The bundle itself is unsigned:
    every header is individually signed by the replica and
    ``spec_order`` by the command-leader, and the client verifies
    each.  ``spec_order`` only feeds the client's equivocation check
    (paper step 4.4); certificates are built from the headers alone.
    """

    MSG_TYPE = "ez-spec-reply-bundle"

    replies: Tuple[SignedPayload, ...]
    spec_order: Optional[SignedPayload] = None

    def __post_init__(self) -> None:
        if not self.replies:
            raise SerializationError(
                "SpecReplyBundle must carry replies")
        covered = _orders_covered(self.spec_order)
        if len(self.replies) > covered:
            raise SerializationError(
                f"SpecReplyBundle carries {len(self.replies)} replies "
                f"for a proposal covering {covered} instance(s)")

    @property
    def cpu_cost_units(self) -> int:
        """One signature check per header (see ``batch_cost`` in
        :mod:`repro.messages.batching` for the other batch shapes):
        the single-header bundle costs exactly what the bare signed
        SPECREPLY it replaced did."""
        return max(1, len(self.replies))


def statement_of(signed: SignedPayload) -> Optional[bytes]:
    """What a signed SPECREPLY header states, less who states it: its
    signed bytes respelled with an empty ``replica``.

    Fast-path matching (paper step 4.1: identical O, I, D', S', d, c,
    t and rep) is equality of these -- a comparison of signed bytes,
    so headers that agree only under Python's ``==`` (``5`` and
    ``5.0``) are two statements, and matching headers differ in the
    signer's id and in no other byte, which is what lets
    :class:`CommitFast` ship one header for all of them.  ``None``
    (matches nothing) for an envelope that is not a SPECREPLY header,
    or whose spelling :func:`~repro.crypto.digest.respell_replica`
    derives no siblings from."""
    header = signed.payload
    if not isinstance(header, SpecReply):
        return None
    return respell_replica(signed.body, header, "")


def _spelled_apart(a: SignedPayload, b: SignedPayload) -> str:
    """The signed fields two headers spell differently, for an error
    message: their bytes parsed, compared field by field as encoded."""
    wa, wb = json.loads(a.body), json.loads(b.body)
    names = [repr(name) for name in sorted(set(wa) | set(wb))
             if name != "replica" and canonical_bytes(wa.get(name))
             != canonical_bytes(wb.get(name))]
    return ", ".join(names) or "spelling alone"


def _fast_statement(certificate: Tuple[SignedPayload, ...]) -> str:
    """The one SPECREPLY statement ``certificate`` signs 3f+1 times, as
    its first header's signed bytes.  Raises
    :class:`SerializationError` unless every envelope is a SPECREPLY
    header signed by the replica it names and all state one statement
    (:func:`statement_of`)."""
    if not certificate:
        raise SerializationError("CommitFast carries no SPECREPLY headers")
    first = certificate[0]
    statement = None
    for signed in certificate:
        header = signed.payload
        if not isinstance(header, SpecReply):
            raise SerializationError(
                f"CommitFast certificate holds a "
                f"{type(header).__name__}, not a SPECREPLY header")
        if signed.signer != header.replica:
            raise SerializationError(
                f"CommitFast header signed by {signed.signer!r} names "
                f"'replica' {header.replica!r}")
        said = statement_of(signed)
        if statement is None:
            statement = said
        if said is None or said != statement:
            raise SerializationError(
                f"CommitFast headers of {first.payload.replica!r} and "
                f"{header.replica!r} differ in "
                f"{_spelled_apart(first, signed)}: not a fast "
                f"certificate")
    return first.body.decode("ascii")


@register_message
@dataclass(frozen=True)
class CommitFast:
    """<COMMITFAST, c, I, CC> -- asynchronous fast-path commit certificate
    of 3f+1 matching signed SPECREPLY headers (no SPECORDER inside: see
    :class:`SpecReply`).

    Matching headers are one statement signed 3f+1 times, so the wire
    form is ``CC = <<SPECREPLY, O, I, D', S', d, c, t, rep, R_0>,
    [(R_j, sigma_Rj), ...]>``: the first header's signed bytes
    verbatim, then who signed the statement and their tags.  The
    signer's id is the one byte range in which matching headers
    differ, and it is never free: a header counts only when its
    ``replica`` is its signer, which the signature list names.
    ``from_wire`` parses the statement once and rebuilds header j's
    bytes by respelling its ``replica`` as ``R_j``
    (:func:`~repro.crypto.digest.respell_replica`); every header is
    still MAC-checked over those bytes by ``SignedPayload.verify``
    wherever the certificate is validated, so a statement respelled
    for a correct signer verifies only if it is what that signer
    signed.

    ``certificate`` itself stays a tuple of signed envelopes, so a
    certificate that is *not* 3f+1 siblings can be built in process (and
    is refused by the replica's validation); it has no wire form and
    ``to_wire`` raises :class:`SerializationError` naming why.
    """

    MSG_TYPE = "ez-commit-fast"

    #: One simulated MAC check, although ``_on_commit_fast`` MAC-checks
    #: all 3f+1 signatures on arrival (a slow-path COMMIT is charged
    #: per signer).  The model under-counts here on purpose: every
    #: pinned sim figure was recorded under this value.
    cpu_cost_units = 1

    client_id: str
    instance: InstanceID
    certificate: Tuple[SignedPayload, ...]

    def to_wire(self) -> dict:
        return {
            "type": self.MSG_TYPE,
            "client_id": self.client_id,
            "instance": self.instance.to_wire(),
            "statement": _fast_statement(self.certificate),
            "signatures": [[signed.signer, signed.signature.tag]
                           for signed in self.certificate],
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "CommitFast":
        if "certificate" in wire:
            # Bytes from before the statement/signature split: 3f+1
            # whole envelopes.  Name the key instead of a KeyError.
            raise SerializationError(
                "CommitFast wire form carries the retired 'certificate' "
                "key (written before fast certificates shipped one "
                "statement and 3f+1 signatures)")
        statement = wire["statement"]
        if not isinstance(statement, str):
            raise SerializationError(
                "CommitFast 'statement' is not a header's signed bytes "
                "(written before the statement became the first "
                "header as signed)")
        signatures = [Signature(signer=signer, tag=tag)
                      for signer, tag in wire["signatures"]]
        if not signatures:
            raise SerializationError(
                "CommitFast carries no SPECREPLY headers")
        # One parse; the siblings share its fields and respell its
        # bytes.
        head = SignedPayload.from_wire({"body": statement,
                                        "signature": signatures[0]})
        first = head.payload
        if not isinstance(first, SpecReply):
            raise SerializationError(
                f"CommitFast statement is a {type(first).__name__}, "
                f"not a SPECREPLY header")
        certificate = [head]
        for signature in signatures[1:]:
            body = respell_replica(head.body, first, signature.signer)
            if body is None:
                raise SerializationError(
                    f"CommitFast statement of {first.replica!r} cannot "
                    f"be respelled for {signature.signer!r}")
            certificate.append(
                SignedPayload(body=body, signature=signature)
                .bind(replace(first, replica=signature.signer)))
        return cls(
            client_id=wire["client_id"],
            instance=InstanceID.from_wire(wire["instance"]),
            certificate=tuple(certificate),
        )


@register_message
@dataclass(frozen=True)
class BatchCommitFast:
    """<[<COMMITFAST, c, I, CC>, ...]> -- the COMMITFASTs a client
    certified in one step (one :class:`SpecReplyBundle` of a batch
    completing k fast quorums at once), in one frame.

    Unsigned, as a COMMITFAST is: each inner certificate proves itself,
    and a replica runs each inner commit exactly as if it had arrived
    alone, so a forged certificate among k costs only itself.  A single
    commit is never wrapped -- it travels as the plain
    :class:`CommitFast`.
    """

    MSG_TYPE = "ez-batch-commit-fast"

    commits: Tuple[CommitFast, ...]

    def __post_init__(self) -> None:
        if not self.commits:
            raise SerializationError("BatchCommitFast must carry commits")

    @property
    def cpu_cost_units(self) -> int:
        """What the k singleton COMMITFASTs it replaces cost (see
        ``batch_cost`` in :mod:`repro.messages.batching` for the other
        batch shapes): nothing about verifying them is shared."""
        return len(self.commits)


@register_message
@dataclass(frozen=True)
class Commit:
    """<COMMIT, c, I, D', S', CC> -- slow-path commit with the client's
    combined dependency set and sequence number."""

    MSG_TYPE = "ez-commit"

    client_id: str
    instance: InstanceID
    command: Command
    deps: Deps
    seq: int
    certificate: Tuple[SignedPayload, ...]

    @property
    def cpu_cost_units(self) -> int:
        return max(1, len(self.certificate))


@register_message
@dataclass(frozen=True)
class CommitReply:
    """<COMMITREPLY, L, rep> -- final-execution result after a slow-path
    commit."""

    MSG_TYPE = "ez-commit-reply"
    cpu_cost_units = 1

    replica: str
    instance: InstanceID
    client_id: str
    timestamp: int
    result: Any


@register_message
@dataclass(frozen=True)
class ResendRequest:
    """<RESENDREQ, m, R_j> -- replica R_j relays a retried client request
    to the original recipient R_i and starts a suspicion timer."""

    MSG_TYPE = "ez-resend-request"
    cpu_cost_units = 1

    request: Request
    forwarder: str


@register_message
@dataclass(frozen=True)
class ProofOfMisbehavior:
    """<POM, O, POM> -- a pair of signed, conflicting SPECORDERs proving
    the command-leader equivocated (different instances / payloads for the
    same slot)."""

    MSG_TYPE = "ez-pom"
    cpu_cost_units = 2

    suspect: str
    owner_number: int
    evidence: Tuple[SignedPayload, SignedPayload]


@register_message
@dataclass(frozen=True)
class StartOwnerChange:
    """<STARTOWNERCHANGE, R_i, O> -- sender commits to replacing the owner
    of R_i's instance space."""

    MSG_TYPE = "ez-start-owner-change"
    cpu_cost_units = 1

    sender: str
    suspect: str
    owner_number: int


@wire_struct
@dataclass(frozen=True)
class LogEntrySummary:
    """One instance of the suspect's space as seen by a replica, with the
    strongest evidence the replica holds for it."""

    instance: InstanceID
    command: Optional[Command]
    deps: Deps
    seq: int
    status: str
    owner_number: int
    #: "commit" when backed by a COMMIT/COMMITFAST certificate,
    #: "spec-order" when backed by the signed SPECORDER only.
    proof_kind: str
    proof: Tuple[SignedPayload, ...] = ()


@register_message
@dataclass(frozen=True)
class OwnerChange:
    """<OWNERCHANGE> -- a replica's view of the suspect's instance space,
    sent to the prospective new owner.

    ``base_slot`` is the first slot above the sender's last stable
    checkpoint: the paper's recovery payload carries only "instances
    executed or committed since the last checkpoint", so everything
    below ``base_slot`` is omitted (it is durably executed at a quorum).
    """

    MSG_TYPE = "ez-owner-change"

    sender: str
    suspect: str
    new_owner_number: int
    entries: Tuple[LogEntrySummary, ...]
    base_slot: int = 0

    @property
    def cpu_cost_units(self) -> int:
        return max(1, len(self.entries))


@register_message
@dataclass(frozen=True)
class NewOwner:
    """<NEWOWNER> -- the new owner's finalized history G for the frozen
    instance space, plus the OWNERCHANGE set P that justifies it."""

    MSG_TYPE = "ez-new-owner"

    new_owner: str
    suspect: str
    new_owner_number: int
    safe_entries: Tuple[LogEntrySummary, ...]
    proof: Tuple[SignedPayload, ...] = ()
    #: First slot the finalized history covers; slots below it are
    #: protected by a stable checkpoint and are not re-finalized.
    base_slot: int = 0

    @property
    def cpu_cost_units(self) -> int:
        return max(1, len(self.safe_entries) + len(self.proof))


@register_message
@dataclass(frozen=True)
class EzCheckpoint:
    """<EZCHECKPOINT, W, d, R> -- replica R attests that after executing
    its first W commands its application state digests to ``d``.

    2f+1 matching attestations make the checkpoint *stable*: the prefix
    below W is durable at a quorum, so the log below the checkpoint's
    per-space frontier can be garbage-collected and owner-change
    payloads can start above it."""

    MSG_TYPE = "ez-checkpoint"
    cpu_cost_units = 1

    replica: str
    watermark: int
    state_digest: str


@register_message
@dataclass(frozen=True)
class StateTransferRequest:
    """<STATEXFERREQ, R, W> -- replica R is behind (its execution
    watermark is W) and asks a peer for its latest stable checkpoint, so
    it can catch up past log prefixes the cluster already truncated."""

    MSG_TYPE = "ez-state-transfer-request"
    cpu_cost_units = 1

    replica: str
    have_watermark: int


@register_message
@dataclass(frozen=True)
class StateTransferReply:
    """<STATEXFERREPLY, W, snapshot, proof> -- a stable checkpoint's full
    snapshot plus the 2f+1 signed EZCHECKPOINT attestations proving it.

    The reply is self-certifying: the receiver verifies the proof set
    against the snapshot digest, so it can be served by any single
    (possibly faulty) peer without trusting it."""

    MSG_TYPE = "ez-state-transfer-reply"

    replica: str
    watermark: int
    snapshot: dict
    proof: Tuple[SignedPayload, ...] = ()
    #: Retained log above the snapshot's frontier (each entry carries
    #: its own verifiable evidence; not covered by the state digest).
    entries: Tuple[LogEntrySummary, ...] = ()

    @property
    def cpu_cost_units(self) -> int:
        return max(1, len(self.proof) + len(self.entries))
