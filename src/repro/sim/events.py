"""Discrete-event simulation kernel.

The kernel is a binary heap (:mod:`heapq`) of callbacks scheduled at
absolute virtual times.  Events run in ``(time, seq)`` order: ``seq`` is
the insertion counter, so ties break FIFO and runs are fully
deterministic.  Virtual time is a ``float`` in **milliseconds**
throughout the library, matching the unit the paper reports latencies
in.

Heap entries are ``(time, seq, handle)`` tuples.  ``seq`` is unique, so
``heapq`` orders entries by comparing a float and an int in C and never
reaches the handle; a handle with its own ``__lt__`` would cost one
Python call per comparison, about twenty per push on a saturated run.

Cancellation is lazy: a cancelled entry stays in the heap and is dropped
when it reaches the front.  Protocol timers are cancelled far more often
than they fire (each request arms a slow-path and a retry timer and
almost always cancels both), so the kernel counts cancelled entries and,
once they exceed both half the heap and :data:`COMPACT_FLOOR`, rebuilds
the heap in place from its live entries.  This is asyncio's rule
(``_MIN_CANCELLED_TIMER_HANDLES_FRACTION`` in ``asyncio/base_events.py``).
A rebuild costs O(n) and needs n/2 cancellations to trigger, so it is
O(1) amortised per cancel; since ``seq`` totally orders entries, it
never changes which event runs next.

One loop, :meth:`Simulator._dispatch`, runs every event: :meth:`run`,
:meth:`step` and :meth:`run_until_idle` differ only in its budget.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from sys import maxsize
from typing import Any, Callable, Optional

from repro.errors import SimulationError

#: Compaction needs more cancelled entries than this, as well as more
#: than half the heap, so small heaps are never rebuilt.
COMPACT_FLOOR = 512

_FOREVER = float("inf")


class EventHandle:
    """A cancellable reference to a scheduled event.

    ``callback is None`` is the kernel's single liveness predicate: it
    holds exactly when the event has fired or been cancelled.
    """

    __slots__ = ("callback", "args", "_sim")

    def __init__(self, sim: "Simulator", callback: Callable[..., None],
                 args: tuple):
        self._sim = sim
        self.callback: Optional[Callable[..., None]] = callback
        self.args = args

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent, and a no-op once
        the event has fired."""
        if self.callback is None:
            return
        # Drop references so cancelled timers do not pin large closures.
        self.callback = None
        self.args = ()
        sim = self._sim
        sim._cancelled += 1
        if sim._cancelled > COMPACT_FLOOR and \
                2 * sim._cancelled > len(sim._queue):
            sim._compact()

    @property
    def pending(self) -> bool:
        """True until the event has fired or been cancelled."""
        return self.callback is not None


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = count()
        self._cancelled = 0
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of heap entries: every live event, plus the cancelled
        ones no compaction or dispatch has dropped yet."""
        return len(self._queue)

    def _push(self, time: float, callback: Callable[..., None],
              args: tuple) -> EventHandle:
        """The one push path.  :meth:`schedule`, :meth:`schedule_at` and
        :class:`~repro.sim.network.SimNetwork`'s two hops land here with
        the args tuple intact; ``time`` must not be before :attr:`now`."""
        handle = EventHandle(self, callback, args)
        heappush(self._queue, (time, next(self._seq), handle))
        return handle

    def _compact(self) -> None:
        """Drop every cancelled entry and restore the heap in place (the
        dispatch loop holds the list, so it must stay the same object)."""
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if entry[2].callback is not None]
        heapify(queue)
        self._cancelled = 0

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current instant (FIFO within a
        timestamp).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        return self._push(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self._now})")
        return self._push(time, callback, args)

    def _dispatch(self, until: float, budget: int) -> int:
        """Run live events in ``(time, seq)`` order while the next one is
        due at or before ``until`` and fewer than ``budget`` have run;
        return how many ran.

        Cancelled entries at the front are dropped first and never
        count, so on return the front entry, if any, is live.
        """
        queue = self._queue
        executed = 0
        while queue:
            time, _, handle = queue[0]
            callback = handle.callback
            if callback is None:  # cancelled: not an event
                heappop(queue)
                self._cancelled -= 1
                continue
            if time > until or executed >= budget:
                break
            heappop(queue)
            self._now = time
            handle.callback = None  # mark as fired
            self._events_processed += 1
            executed += 1
            callback(*handle.args)
        return executed

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns ``False`` when the queue holds no live events.
        """
        return self._dispatch(_FOREVER, 1) == 1

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been executed in this call.

        When ``until`` is given and no live event is due at or before
        it, the clock advances to exactly ``until``, so back-to-back
        ``run`` calls observe a consistent timeline.  A call cut short
        by ``max_events`` (or by a callback's exception) leaves the
        clock at the last event it ran, so it never moves backwards.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        try:
            self._dispatch(_FOREVER if until is None else until,
                           maxsize if max_events is None else max_events)
        finally:
            self._running = False
        if until is not None and self._now < until:
            queue = self._queue
            if not queue or queue[0][0] > until:
                self._now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely; returns the number of events run.

        ``max_events`` guards against livelock in buggy protocols: exceeding
        it raises :class:`SimulationError` instead of spinning forever.
        """
        executed = self._dispatch(_FOREVER, max_events + 1)
        if executed > max_events:
            raise SimulationError(
                f"simulation did not converge within {max_events} events")
        return executed
