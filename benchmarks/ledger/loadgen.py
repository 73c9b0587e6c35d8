"""The ledger's load generator.

Three drivers, all running on the protocol client's own context
(``client.ctx``), so the same code drives the simulator (simulated
milliseconds, timers fire exactly when due) and the asyncio transport
(``loop.time()`` milliseconds, timers fire when the loop gets to them):

- :class:`ClosedLoop` -- a client keeps ``window`` single requests
  outstanding (callers that wait for their reply),
- :class:`ClosedBatchLoop` -- a client keeps one ``batch``-command
  ``submit_batch`` outstanding,
- :class:`OpenLoop` -- independent users: requests are due on an
  absolute schedule, each is timed *from when it was due*, and how late
  the generator itself ran is recorded beside it.

Commands come from a :class:`CommandSource` seeded from ``--seed``; the
program under test only ever sees the generated commands.
"""

from __future__ import annotations

import random
import string
from typing import Any, Callable, Dict, List, Optional

HOT_KEY = "ledger/hot"
#: Bytes in every put's value.
VALUE_SIZE = 16
_ALPHABET = string.ascii_lowercase + string.digits

#: A timer that fires within this many ms of its due time is on time
#: (absorbs float rounding of ``now + (due - now)`` on the simulator).
_DUE_SLACK_MS = 1e-6


class CommandSource:
    """One client's seeded stream of puts.

    ``hot_share`` is the probability a put targets the single shared
    key (the paper's contention knob); every other put goes to a fresh
    key private to the client.  The source remembers what was
    acknowledged so the correctness gate can look for it afterwards.
    """

    def __init__(self, seed: int, index: int,
                 hot_share: float = 0.0) -> None:
        self._rng = random.Random(seed * 1000 + index)
        self.hot_share = hot_share
        self._count = 0
        #: key -> value of every acknowledged put to a private key.
        self.acked: Dict[str, str] = {}
        #: values written to the hot key (acknowledged or not).
        self.hot_values: set = set()

    def next(self, client: Any) -> Any:
        self._count += 1
        value = "".join(self._rng.choices(_ALPHABET, k=VALUE_SIZE))
        if self.hot_share and self._rng.random() < self.hot_share:
            self.hot_values.add(value)
            return client.next_command("put", HOT_KEY, value)
        return client.next_command(
            "put", f"{client.client_id}/k{self._count}", value)


class Tally:
    """What the clients of one measured phase achieved."""

    def __init__(self) -> None:
        self.attempted = 0
        self.committed = 0
        self.wrong = 0
        #: request -> committed-reply latency (ms), in commit order;
        #: open-loop requests are timed from their due time.
        self.latencies_ms: List[float] = []
        #: when each commit landed (context clock, ms), same order.
        self.commit_times_ms: List[float] = []
        #: when each committed request was due/issued, same order.
        self.due_times_ms: List[float] = []
        #: open loop only: issue time minus due time, per request.
        self.late_ms: List[float] = []

    @property
    def failed(self) -> int:
        """Attempted and not committed with the correct reply."""
        return self.attempted - self.committed + self.wrong


class _Driver:
    """Shared plumbing: issue stamping and delivery accounting."""

    def __init__(self, client: Any, source: CommandSource,
                 tally: Tally,
                 wrap: Optional[Callable[[str, Callable],
                                         Callable]] = None) -> None:
        self.client = client
        self.source = source
        self.tally = tally
        self.stopped = False
        self._due: Dict[Any, float] = {}
        if wrap is not None:
            # Traced pass: the generator's own time is a layer too.
            self._on_delivery = wrap("loadgen.on_delivery",
                                     self._on_delivery)
            self._refill = wrap("loadgen.issue", self._refill)
        client.on_delivery = self._on_delivery

    def stop(self) -> None:
        """Stop issuing; requests in flight still complete."""
        self.stopped = True

    @property
    def in_flight(self) -> int:
        return len(self._due)

    def _submit_one(self, due_ms: float) -> None:
        command = self.source.next(self.client)
        self._due[command.ident] = due_ms
        self.tally.attempted += 1
        self.client.submit(command)

    def _on_delivery(self, command: Any, result: Any, latency: float,
                     path: str) -> None:
        due = self._due.pop(command.ident, None)
        if due is None:
            return
        now = self.client.ctx.now
        tally = self.tally
        tally.committed += 1
        if result != "OK":
            tally.wrong += 1
        elif command.key != HOT_KEY:
            self.source.acked[command.key] = command.value
        tally.latencies_ms.append(now - due)
        tally.commit_times_ms.append(now)
        tally.due_times_ms.append(due)
        self._refill()

    def _refill(self) -> None:
        raise NotImplementedError


class ClosedLoop(_Driver):
    """Keep ``window`` single requests outstanding."""

    def __init__(self, client: Any, source: CommandSource,
                 tally: Tally, window: int = 1,
                 limit: Optional[int] = None, **kwargs: Any) -> None:
        super().__init__(client, source, tally, **kwargs)
        self.window = window
        #: Stop after issuing this many requests (``None``: until
        #: :meth:`stop`).
        self.limit = limit
        self.issued = 0

    def start(self) -> None:
        for _ in range(self.window):
            self._refill()

    def _refill(self) -> None:
        if self.stopped or len(self._due) >= self.window:
            return
        if self.limit is not None and self.issued >= self.limit:
            return
        self.issued += 1
        self._submit_one(self.client.ctx.now)


class ClosedBatchLoop(_Driver):
    """Keep one ``batch``-command ``submit_batch`` outstanding."""

    def __init__(self, client: Any, source: CommandSource,
                 tally: Tally, batch: int = 8, **kwargs: Any) -> None:
        super().__init__(client, source, tally, **kwargs)
        self.batch = batch

    def start(self) -> None:
        self._refill()

    def _refill(self) -> None:
        if self.stopped or self._due:
            return
        now = self.client.ctx.now
        commands = [self.source.next(self.client)
                    for _ in range(self.batch)]
        for command in commands:
            self._due[command.ident] = now
        self.tally.attempted += len(commands)
        self.client.submit_batch(commands)


class OpenLoop(_Driver):
    """Issue ``total`` requests on an absolute schedule.

    Request *k* is due at ``start + offset_ms + k * interval_ms``.  A
    tick that fires late issues every request whose due time has
    passed, so a stall shows up as latency of the requests it delayed
    (and as generator lateness), never as a lower offered rate.
    """

    def __init__(self, client: Any, source: CommandSource,
                 tally: Tally, rate_per_s: float, total: int,
                 offset_ms: float = 0.0,
                 wrap: Optional[Callable[[str, Callable],
                                         Callable]] = None) -> None:
        super().__init__(client, source, tally, wrap=wrap)
        self.interval_ms = 1000.0 / rate_per_s
        self.total = total
        self.offset_ms = offset_ms
        self.issued = 0
        self._start_ms = 0.0
        if wrap is not None:
            self._tick = wrap("loadgen.issue", self._tick)

    def start(self) -> None:
        self._start_ms = self.client.ctx.now + self.offset_ms
        self.client.ctx.set_timer(self.offset_ms, self._tick)

    @property
    def done(self) -> bool:
        return self.issued >= self.total or self.stopped

    def _tick(self) -> None:
        now = self.client.ctx.now
        while not self.done:
            due = self._start_ms + self.issued * self.interval_ms
            if due > now + _DUE_SLACK_MS:
                self.client.ctx.set_timer(due - now, self._tick)
                return
            self.issued += 1
            self.tally.late_ms.append(max(0.0, now - due))
            self._submit_one(due)

    def _refill(self) -> None:
        """Open loop: a reply never triggers the next request."""
