"""The amortizing request batcher shared by every batching point.

One engine, three call sites:

- the **ezBFT owner** accumulates client requests and flushes them as a
  single :class:`~repro.messages.batching.BatchSpecOrder`,
- the **PBFT primary** accumulates requests and flushes them as a single
  :class:`~repro.messages.batching.BatchPrePrepare`,
- the **batching open-loop driver**
  (:class:`repro.workload.drivers.BatchingOpenLoopDriver`) accumulates a
  client's own commands and flushes them as a single
  :class:`~repro.messages.batching.BatchRequest`.

Flush policy (the classic size-or-timeout rule):

- the batch flushes as soon as it holds ``batch_size`` items, and
- a timer flushes any partial batch ``batch_timeout_ms`` after its first
  item arrived, bounding the latency cost of waiting for a full batch.

``batch_size <= 1`` disables accumulation entirely: every item is
flushed immediately, and a flush of one is proposed as the classic
unbatched message, so a batching deployment with size 1 is
indistinguishable from a non-batching one.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.errors import ConfigurationError

#: Receives the accumulated items; never called with an empty list.
FlushFn = Callable[[List[Any]], None]
#: ``set_timer(delay_ms, callback) -> Timer`` (a
#: :class:`repro.cluster.node.NodeContext.set_timer` works verbatim).
SetTimerFn = Callable[..., Any]


class RequestBatcher:
    """Size/timeout-driven accumulator feeding a flush callback.

    The batcher never reorders items and never drops them: every added
    item appears in exactly one flush, in arrival order.  Callers that
    need deduplication (e.g. a client retry landing while its original
    is still queued) perform it in their flush callback, where the full
    batch is visible.
    """

    def __init__(self, batch_size: int, batch_timeout_ms: float,
                 flush_fn: FlushFn,
                 set_timer_fn: Optional[SetTimerFn] = None) -> None:
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}")
        if batch_timeout_ms <= 0:
            raise ConfigurationError(
                f"batch_timeout_ms must be positive, "
                f"got {batch_timeout_ms}")
        self.batch_size = batch_size
        self.batch_timeout_ms = batch_timeout_ms
        self._flush_fn = flush_fn
        self._set_timer = set_timer_fn
        self._items: List[Any] = []
        self._timer: Optional[Any] = None
        # Metrics.
        self.items_added = 0
        self.batches_flushed = 0
        self.size_flushes = 0
        self.timeout_flushes = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """False when ``batch_size <= 1`` (pass-through mode)."""
        return self.batch_size > 1

    @property
    def pending(self) -> int:
        """Items accumulated but not yet flushed."""
        return len(self._items)

    def add(self, item: Any) -> None:
        """Accumulate ``item``; may flush synchronously (size reached or
        pass-through mode)."""
        self.items_added += 1
        if not self.enabled:
            self.batches_flushed += 1
            self.size_flushes += 1
            self._flush_fn([item])
            return
        self._items.append(item)
        if len(self._items) >= self.batch_size:
            self.size_flushes += 1
            self.flush()
        elif self._timer is None and self._set_timer is not None:
            self._timer = self._set_timer(self.batch_timeout_ms,
                                          self._on_timeout)

    def flush(self) -> None:
        """Flush whatever is pending (no-op when empty)."""
        self._cancel_timer()
        if not self._items:
            return
        items, self._items = self._items, []
        self.batches_flushed += 1
        self._flush_fn(items)

    # ------------------------------------------------------------------
    def _on_timeout(self) -> None:
        self._timer = None
        if self._items:
            self.timeout_flushes += 1
        self.flush()

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
