"""Client drivers: closed-loop (latency experiments), open-loop
(throughput experiment, mirroring the paper's Section V methodology),
and a batching-aware open-loop variant for the batching ablations."""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.batching import RequestBatcher
from repro.statemachine.base import Command
from repro.workload.generator import KVWorkload


class ClosedLoopDriver:
    """Closed loop: "a client will wait for a reply to its previous
    request before sending another one" (Section V).

    ``num_requests`` bounds the run.  Warmup exclusion is first-class
    and recorder-side: construct the cluster's
    :class:`~repro.cluster.metrics.LatencyRecorder` with
    ``discard_first=N`` (or set the attribute before the run) and the
    first N samples of every group are dropped from all statistics --
    no hand-filtering in benchmarks.  Phase tagging
    (:meth:`~repro.cluster.metrics.LatencyRecorder.begin_phase`) slices
    the remaining samples along the scenario timeline.
    """

    def __init__(self, client: Any, workload: KVWorkload,
                 num_requests: int, think_time_ms: float = 0.0) -> None:
        self.client = client
        self.workload = workload
        self.num_requests = num_requests
        self.think_time_ms = think_time_ms
        self.completed = 0
        self._issued = 0
        self._prev_delivery = client.on_delivery
        client.on_delivery = self._on_delivery

    def start(self) -> None:
        self._submit_next()

    def _submit_next(self) -> None:
        if self._issued >= self.num_requests:
            return
        self._issued += 1
        command = self.workload.next_op(self.client)
        self.client.submit(command)

    def _on_delivery(self, command, result, latency, path) -> None:
        self.completed += 1
        if self._prev_delivery is not None:
            self._prev_delivery(command, result, latency, path)
        if self.completed >= self.num_requests:
            return
        if self.think_time_ms > 0:
            self.client.ctx.set_timer(self.think_time_ms,
                                      self._submit_next)
        else:
            self._submit_next()

    @property
    def done(self) -> bool:
        return self.completed >= self.num_requests

    def stop(self) -> None:
        """Stop issuing new requests (in-flight ones still complete)."""
        self.num_requests = min(self.num_requests, self._issued)


class _IssuePacer:
    """Token-bucket pacing for open-loop issue loops.

    The naive loop -- issue one request, ``set_timer(interval)``,
    repeat -- is exact on the discrete-event simulator (timers fire at
    precisely the scheduled instant) but *drifts* on the TCP backend:
    every late ``call_later`` under load pushes all subsequent issues
    back, so the achieved rate sags below the configured one.

    The pacer instead accrues credit on an absolute schedule: each
    request is due at ``start + k * interval``, and a tick that fires
    late issues every request whose due-time has passed (a catch-up
    burst, bounded by the driver's ``max_outstanding`` window) before
    sleeping until the next due-time.  On the simulator each tick
    lands exactly on its due-time, so behaviour (and seeded results)
    are identical to the naive loop; on TCP the long-run arrival rate
    now matches the simulator's exactly.
    """

    def __init__(self, interval_ms: float) -> None:
        self.interval_ms = interval_ms
        self._next_due_ms: Optional[float] = None

    def start(self, now_ms: float) -> None:
        self._next_due_ms = now_ms

    def due(self, now_ms: float) -> bool:
        """One credit available? Consuming advances the schedule."""
        return self._next_due_ms is not None and \
            self._next_due_ms <= now_ms

    def consume(self) -> None:
        assert self._next_due_ms is not None
        self._next_due_ms += self.interval_ms

    def delay_until_next(self, now_ms: float) -> float:
        """How long to sleep until the next credit accrues."""
        if self._next_due_ms is None:
            return self.interval_ms
        return max(0.0, self._next_due_ms - now_ms)


class OpenLoopDriver:
    """Open loop: "clients continuously and asynchronously send requests
    before receiving replies" (Section V).

    Issues requests at a fixed rate for ``duration_ms`` of simulated
    time, paced by a token-bucket schedule (see :class:`_IssuePacer`)
    so wall-clock timer drift on the TCP backend does not sag the
    arrival rate.  ``max_outstanding`` caps the in-flight window so a
    saturated system queues at the replicas (where the CPU model
    meters it) rather than accumulating unbounded client state.
    """

    def __init__(self, client: Any, workload: KVWorkload,
                 rate_per_sec: float, duration_ms: float,
                 max_outstanding: int = 10_000) -> None:
        if rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be positive")
        self.client = client
        self.workload = workload
        self.interval_ms = 1000.0 / rate_per_sec
        self.duration_ms = duration_ms
        self.max_outstanding = max_outstanding
        self.issued = 0
        self.skipped = 0
        self._deadline: Optional[float] = None
        self._pacer = _IssuePacer(self.interval_ms)

    def start(self) -> None:
        now = self.client.ctx.now
        self._deadline = now + self.duration_ms
        self._pacer.start(now)
        self._tick()

    def _tick(self) -> None:
        now = self.client.ctx.now
        if self._deadline is None or now >= self._deadline:
            return
        while self._pacer.due(now):
            self._pacer.consume()
            if self.client.in_flight < self.max_outstanding:
                self.issued += 1
                command = self.workload.next_op(self.client)
                self.client.submit(command)
            else:
                self.skipped += 1
        self.client.ctx.set_timer(
            self._pacer.delay_until_next(now), self._tick)

    def stop(self) -> None:
        """Stop issuing new requests (the next tick sees the deadline
        in the past and returns)."""
        self._deadline = self.client.ctx.now


class BatchingOpenLoopDriver:
    """Open loop with client-side request batching.

    Generates commands at a fixed rate like :class:`OpenLoopDriver`, but
    accumulates them in a :class:`~repro.core.batching.RequestBatcher`
    and submits each flush through the client's ``submit_batch`` (one
    signature for the whole batch).  Clients of protocols without a
    batched request message answer ``submit_batch`` with one
    :meth:`submit` per command, and every client submits a single-item
    flush as a plain request, so a ``batch_size`` of 1 reproduces
    :class:`OpenLoopDriver` behaviour exactly.
    """

    def __init__(self, client: Any, workload: KVWorkload,
                 rate_per_sec: float, duration_ms: float,
                 batch_size: int = 1, batch_timeout_ms: float = 10.0,
                 max_outstanding: int = 10_000) -> None:
        if rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be positive")
        self.client = client
        self.workload = workload
        self.interval_ms = 1000.0 / rate_per_sec
        self.duration_ms = duration_ms
        self.max_outstanding = max_outstanding
        self.issued = 0
        self.skipped = 0
        self.batches_sent = 0
        self._deadline: Optional[float] = None
        self._pacer = _IssuePacer(self.interval_ms)
        self._batcher = RequestBatcher(
            batch_size=batch_size,
            batch_timeout_ms=batch_timeout_ms,
            flush_fn=self._submit_commands,
            set_timer_fn=client.ctx.set_timer)

    def start(self) -> None:
        now = self.client.ctx.now
        self._deadline = now + self.duration_ms
        self._pacer.start(now)
        self._tick()

    def _tick(self) -> None:
        now = self.client.ctx.now
        if self._deadline is None or now >= self._deadline:
            self._batcher.flush()  # don't strand a partial batch
            return
        while self._pacer.due(now):
            self._pacer.consume()
            if self.client.in_flight + self._batcher.pending < \
                    self.max_outstanding:
                self.issued += 1
                self._batcher.add(self.workload.next_op(self.client))
            else:
                self.skipped += 1
        self.client.ctx.set_timer(
            self._pacer.delay_until_next(now), self._tick)

    def stop(self) -> None:
        """Stop issuing and flush any partial batch."""
        self._deadline = self.client.ctx.now
        self._batcher.flush()

    def _submit_commands(self, commands: List[Command]) -> None:
        self.batches_sent += 1
        self.client.submit_batch(commands)
