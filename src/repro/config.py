"""Protocol-wide configuration: replica membership, quorums, timeouts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.errors import ConfigurationError


def replica_at(replica_ids: Sequence[str], number: int) -> str:
    """The replica at ``number`` round the ring: the owner under owner
    number O (paper Section IV-D/E), the primary of view v."""
    return replica_ids[number % len(replica_ids)]


@dataclass(frozen=True)
class ProtocolConfig:
    """Membership and quorum parameters shared by every protocol here.

    ``replica_ids`` is the ordered membership; index order determines
    the one rotation (:meth:`replica_at`) of ezBFT owner numbers,
    PBFT/Zyzzyva/FaB views and every walk round the ring.

    Timeouts are in milliseconds of (simulated) time:

    - ``slow_path_timeout``: how long an ezBFT/Zyzzyva client waits for a
      full fast quorum before falling back to the slow path,
    - ``retry_timeout``: how long a client waits for *any* 2f+1 responses
      before re-broadcasting its request to all replicas,
    - ``suspicion_timeout``: how long a replica relaying a RESENDREQ waits
      for the command-leader's SPECORDER before voting to change owners,
    - ``view_change_timeout``: PBFT/Zyzzyva request-progress timer.

    Batching knobs (consumed by :mod:`repro.core.batching`):

    - ``batch_size``: how many requests an amortizing point (the ezBFT
      owner, the PBFT primary, a batching client driver) accumulates
      before flushing one batched message.  ``1`` disables batching --
      every path degrades to the classic per-request protocol.
    - ``batch_timeout_ms``: upper bound on how long a partial batch may
      wait before being flushed anyway, so batching trades bounded
      latency for throughput.
    """

    replica_ids: Tuple[str, ...]
    slow_path_timeout: float = 400.0
    retry_timeout: float = 1200.0
    suspicion_timeout: float = 600.0
    view_change_timeout: float = 1500.0
    checkpoint_interval: int = 128
    batch_size: int = 1
    batch_timeout_ms: float = 10.0

    def __post_init__(self) -> None:
        n = len(self.replica_ids)
        if n < 4 or (n - 1) % 3:
            # With any other n two 2f+1 quorums may share only f
            # replicas (n=5: 3 of 5 and 3 of 5 share one).
            raise ConfigurationError(
                f"BFT needs 3f+1 replicas with f >= 1; got {n}")
        if len(set(self.replica_ids)) != n:
            raise ConfigurationError("replica ids must be unique")
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.batch_timeout_ms <= 0:
            raise ConfigurationError(
                f"batch_timeout_ms must be positive, "
                f"got {self.batch_timeout_ms}")
        if self.checkpoint_interval < 0:
            raise ConfigurationError(
                f"checkpoint_interval must be >= 0 (0 disables "
                f"checkpointing), got {self.checkpoint_interval}")

    @property
    def n(self) -> int:
        """Total number of replicas."""
        return len(self.replica_ids)

    @property
    def f(self) -> int:
        """Maximum number of byzantine replicas tolerated."""
        return (self.n - 1) // 3

    @property
    def fast_quorum_size(self) -> int:
        """ezBFT/Zyzzyva fast path: all 3f+1 replicas."""
        return 3 * self.f + 1

    @property
    def slow_quorum_size(self) -> int:
        """ezBFT/Zyzzyva slow path and PBFT quorums: 2f+1."""
        return 2 * self.f + 1

    @property
    def weak_quorum_size(self) -> int:
        """f+1 -- enough to contain one correct replica."""
        return self.f + 1

    def index_of(self, replica_id: str) -> int:
        try:
            return self.replica_ids.index(replica_id)
        except ValueError:
            raise ConfigurationError(
                f"unknown replica {replica_id!r}") from None

    def initial_owner_number(self, space_owner: str) -> int:
        """ezBFT: space R_i starts with owner number i."""
        return self.index_of(space_owner)

    def replica_at(self, number: int) -> str:
        """The owner under owner number ``number`` (ezBFT), the primary
        of view ``number`` (PBFT/Zyzzyva/FaB), ``number`` round the ring."""
        return replica_at(self.replica_ids, number)

    def slow_quorum_for(self, leader_id: str) -> Tuple[str, ...]:
        """ezBFT: the designated 2f+1 slow-quorum for a command-leader.

        The paper has each command-leader announce a known set of 2f+1
        replicas used by clients to combine dependencies.  We use the
        deterministic choice "the 2f+1 replicas starting at the leader's
        index", which every node can compute locally.
        """
        start = self.index_of(leader_id)
        return tuple(self.replica_at(start + k)
                     for k in range(self.slow_quorum_size))

    def others(self, replica_id: str) -> Tuple[str, ...]:
        return tuple(r for r in self.replica_ids if r != replica_id)
