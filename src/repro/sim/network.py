"""Simulated WAN: latency, jitter, per-node CPU queues, drops, partitions.

The network model charges two costs per message:

1. **Propagation** -- one-way latency drawn from a :class:`LatencyMatrix`
   (plus optional jitter) between the source and destination *regions*.
2. **Processing** -- CPU time at the destination, modeled as a single-server
   FIFO queue per node.  This is what makes a single-primary protocol
   saturate as client count grows (Figure 6) and caps per-node throughput
   (Figure 7); without it every protocol would scale indefinitely.

Byzantine *network* behaviour (drops, partitions) is injected here;
byzantine *node* behaviour lives in :mod:`repro.byzantine`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.errors import ConfigurationError, TransportError
from repro.sim.events import Simulator
from repro.sim.latency import LatencyMatrix
from repro.trace.tracer import NULL_TRACER


@dataclass
class CpuModel:
    """Per-message CPU cost model (all values in milliseconds).

    ``base_ms`` is charged for every message; ``per_unit_ms`` is multiplied
    by the message's ``cpu_cost_units`` attribute (defaults to 1) so that
    expensive messages -- e.g. a commit certificate carrying 3f+1 signatures
    to verify -- can be made proportionally costlier.

    The defaults approximate the paper's testbed: an m4.2xlarge verifies an
    HMAC in ~2us and an ECDSA signature in ~100us; protocol messages carry
    one signature plus MAC authenticators, so ~0.1ms/message is the right
    order of magnitude.
    """

    base_ms: float = 0.02
    per_unit_ms: float = 0.08

    def cost(self, message: Any) -> float:
        units = getattr(message, "cpu_cost_units", 1)
        return self.base_ms + self.per_unit_ms * units

    @classmethod
    def free(cls) -> "CpuModel":
        """A zero-cost model; useful for pure latency-shape tests."""
        return cls(base_ms=0.0, per_unit_ms=0.0)


@dataclass
class NetworkConditions:
    """Tunable adverse conditions.

    ``drop_probability`` applies to every message independently.
    ``partitions`` is a set of directed ``(src, dst)`` node-id pairs whose
    messages are silently dropped; use :meth:`SimNetwork.isolate` to cut a
    node off entirely.
    """

    jitter_fraction: float = 0.0
    drop_probability: float = 0.0
    partitions: Set[Tuple[str, str]] = field(default_factory=set)


@dataclass
class _NodeRecord:
    region: str
    handler: Callable[[str, Any], None]
    busy_until: float = 0.0
    messages_received: int = 0
    messages_dropped: int = 0
    cpu_busy_ms: float = 0.0


class SimNetwork:
    """Message fabric connecting simulated nodes.

    Nodes register with a region and a handler ``handler(sender_id, msg)``.
    ``send`` schedules delivery after propagation + queueing + processing.
    The network is *quasi-reliable* exactly as the paper's model: between
    correct nodes each sent message is delivered exactly once (unless drops
    or partitions are explicitly injected).
    """

    def __init__(self, sim: Simulator, latency: LatencyMatrix,
                 cpu: Optional[CpuModel] = None,
                 conditions: Optional[NetworkConditions] = None,
                 seed: int = 0,
                 shaper: Optional[Any] = None) -> None:
        self.sim = sim
        self.latency = latency
        self.cpu = cpu if cpu is not None else CpuModel()
        self.conditions = conditions if conditions is not None \
            else NetworkConditions()
        self._rng = random.Random(seed)
        self._nodes: Dict[str, _NodeRecord] = {}
        #: Optional :class:`repro.netem.LinkShaper`: the link-level
        #: emulation seam (loss / jitter / reorder / duplication /
        #: bandwidth), applied on top of the latency matrix.  Fault
        #: injectors may attach one mid-run.
        self.shaper = shaper
        #: Tracing seam (no-op by default): when live, each send
        #: captures the tracer's current causal context and the fabric
        #: restores it around the destination handler -- the sim
        #: analogue of the TCP codec's TRACED frames.
        self.tracer = NULL_TRACER
        self.messages_sent = 0
        self.messages_delivered = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Registration and topology control
    # ------------------------------------------------------------------
    def register(self, node_id: str, region: str,
                 handler: Callable[[str, Any], None]) -> None:
        """Attach a node to the fabric.  ``region`` must be in the matrix."""
        if node_id in self._nodes:
            raise ConfigurationError(f"duplicate node id {node_id!r}")
        if region not in self.latency.regions:
            raise ConfigurationError(
                f"region {region!r} not in latency matrix "
                f"{self.latency.name!r}")
        self._nodes[node_id] = _NodeRecord(region=region, handler=handler)

    def region_of(self, node_id: str) -> str:
        return self._record(node_id).region

    def handler_of(self, node_id: str) -> Callable[[str, Any], None]:
        """A node's current message handler (so a caller can wrap it
        and interpose on deliveries with :meth:`set_handler`)."""
        return self._record(node_id).handler

    def set_handler(self, node_id: str,
                    handler: Callable[[str, Any], None]) -> None:
        """Replace a node's message handler.

        Used by :mod:`repro.byzantine` to swap a correct replica for a
        faulty one, and by tests that interpose on deliveries.
        """
        self._record(node_id).handler = handler

    def node_ids(self) -> Tuple[str, ...]:
        return tuple(self._nodes)

    def isolate(self, node_id: str) -> None:
        """Partition ``node_id`` from every other registered node."""
        for other in self._nodes:
            if other != node_id:
                self.conditions.partitions.add((node_id, other))
                self.conditions.partitions.add((other, node_id))

    def heal(self, node_id: str) -> None:
        """Undo :meth:`isolate` for ``node_id``."""
        self.conditions.partitions = {
            (a, b) for (a, b) in self.conditions.partitions
            if a != node_id and b != node_id
        }

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, message: Any,
             size_bytes: int = 0) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        Unknown destinations raise :class:`TransportError` -- a correct
        protocol never addresses a nonexistent node, so this surfaces bugs
        early instead of silently losing messages.
        """
        src_rec = self._record(src)
        dst_rec = self._record(dst)
        self.messages_sent += 1
        self.bytes_sent += size_bytes

        if (src, dst) in self.conditions.partitions:
            dst_rec.messages_dropped += 1
            return
        if self.conditions.drop_probability > 0.0 and \
                self._rng.random() < self.conditions.drop_probability:
            dst_rec.messages_dropped += 1
            return

        tracer = self.tracer
        tctx = tracer.current() if tracer.enabled else None
        propagation = self.latency.sample_one_way(
            src_rec.region, dst_rec.region, self._rng,
            self.conditions.jitter_fraction)
        if self.shaper is not None:
            # Link-level emulation: the shaper turns one send into
            # zero (lost), one, or two (duplicated) deliveries, each
            # with an extra delay on top of propagation.  All its
            # randomness is a seeded stream, so the run stays
            # deterministic.
            plan = self.shaper.plan(src, dst, size_bytes, self.sim.now)
            if not plan:
                dst_rec.messages_dropped += 1
                return
            for extra in plan:
                self.sim.schedule(propagation + extra, self._arrive,
                                  src, dst, message, tctx)
            return
        # CPU queueing is decided when the message *arrives*, not when it
        # is sent -- otherwise a distant message sent earlier would
        # reserve the CPU ahead of a nearby message that physically
        # arrives first.
        self.sim.schedule(propagation, self._arrive, src, dst, message,
                          tctx)

    def _arrive(self, src: str, dst: str, message: Any,
                tctx: Any = None) -> None:
        """Message hits the destination NIC: enter the CPU FIFO queue."""
        rec = self._nodes.get(dst)
        if rec is None:  # node deregistered mid-flight; drop silently
            return
        proc = self.cpu.cost(message)
        start = max(self.sim.now, rec.busy_until)
        finish = start + proc
        rec.busy_until = finish
        rec.cpu_busy_ms += proc
        self.sim.schedule_at(finish, self._deliver, src, dst, message,
                             tctx)

    def broadcast(self, src: str, dsts: Tuple[str, ...], message: Any,
                  size_bytes: int = 0) -> None:
        """Send the same message to several destinations."""
        for dst in dsts:
            self.send(src, dst, message, size_bytes=size_bytes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self, node_id: str) -> Dict[str, float]:
        rec = self._record(node_id)
        return {
            "messages_received": rec.messages_received,
            "messages_dropped": rec.messages_dropped,
            "cpu_busy_ms": rec.cpu_busy_ms,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _record(self, node_id: str) -> _NodeRecord:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TransportError(f"unknown node {node_id!r}") from None

    def _deliver(self, src: str, dst: str, message: Any,
                 tctx: Any = None) -> None:
        rec = self._nodes.get(dst)
        if rec is None:  # node deregistered mid-flight; drop silently
            return
        rec.messages_received += 1
        self.messages_delivered += 1
        tracer = self.tracer
        if tctx is not None and tracer.enabled:
            # Restore the sender's causal context around delivery (the
            # sim fabric's analogue of a TRACED frame).
            prev = tracer.set_current(tctx)
            try:
                rec.handler(src, message)
            finally:
                tracer.set_current(prev)
        else:
            rec.handler(src, message)
