"""The node contract: how a protocol node meets its environment.

Protocol replicas and clients never touch the simulator or network
directly; they receive a :class:`NodeContext` exposing send/broadcast,
cancellable timers, and the clock.  This keeps protocol logic
transport-agnostic -- the same replica class runs on the discrete-event
simulator (benchmarks/tests) and on the asyncio TCP transport (examples).

Messages come back one way: every replica and client of every protocol
receives through :class:`Node`'s ``on_message``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Protocol

from repro.messages.base import SignedPayload

#: The slot of a client's ``accepted`` list for a command it has not
#: delivered (yet).
UNANSWERED = object()


def note_accepted(accepted: List[Any], timestamp: int,
                  result: Any) -> None:
    """File a client's delivered ``result`` at ``accepted[timestamp -
    1]``: a client numbers its commands 1, 2, 3, ..., so a list indexed
    by timestamp holds its outcomes without a key per command."""
    missing = timestamp - len(accepted)
    if missing > 0:
        accepted.extend([UNANSWERED] * missing)
    accepted[timestamp - 1] = result


class Timer(Protocol):
    """Cancellable timer handle."""

    def cancel(self) -> None: ...

    @property
    def pending(self) -> bool: ...


class NodeContext:
    """Environment handle bound to one node.

    Parameters are callables so the context can wrap any substrate:

    - ``send_fn(src, dst, message)``,
    - ``schedule_fn(delay_ms, callback, *args) -> Timer``,
    - ``now_fn() -> float`` (milliseconds).
    """

    def __init__(self, node_id: str,
                 send_fn: Callable[[str, str, Any], None],
                 schedule_fn: Callable[..., Timer],
                 now_fn: Callable[[], float]) -> None:
        self.node_id = node_id
        self._send = send_fn
        self._schedule = schedule_fn
        self._now = now_fn

    @property
    def now(self) -> float:
        """Current time in milliseconds."""
        return self._now()

    def send(self, dst: str, message: Any) -> None:
        """Send ``message`` to node ``dst``."""
        self._send(self.node_id, dst, message)

    def broadcast(self, dsts: Iterable[str], message: Any) -> None:
        """Send ``message`` to every node in ``dsts``."""
        for dst in dsts:
            self._send(self.node_id, dst, message)

    def set_timer(self, delay_ms: float, callback: Callable[..., None],
                  *args: Any) -> Timer:
        """Run ``callback(*args)`` after ``delay_ms``; returns a handle."""
        return self._schedule(delay_ms, callback, *args)


def dispatcher() -> Callable[[Any, str, Any], None]:
    """A new ``on_message``: each call returns a distinct function with
    the same code, for a class that must hold the dispatcher in its own
    body (the bench ledger wraps ``EzBFTReplica.on_message`` and
    ``EzBFTClient.on_message`` apart, by identity)."""
    def on_message(self: Any, sender: str, message: Any) -> None:
        """Route a signed envelope by its payload's ``MSG_TYPE`` through
        ``_SIGNED_HANDLERS`` if it is authentic, an unsigned message
        through ``_PLAIN_HANDLERS``; reject anything else.  ``sender``
        is the transport's say-so and proves nothing."""
        if isinstance(message, SignedPayload):
            payload = message.payload
            handler = self._SIGNED_HANDLERS.get(type(payload).MSG_TYPE)
            if handler is not None and message.authentic(self.registry):
                handler(self, sender, payload, message)
                return
        else:
            handler = self._PLAIN_HANDLERS.get(type(message).MSG_TYPE)
            if handler is not None:
                handler(self, sender, message, None)
                return
        if self.counts_invalid:
            self.stats["invalid_messages"] += 1
    return on_message


class Node:
    """A replica or client: a subclass sets ``registry`` and files its
    handlers -- functions ``(self, sender, payload, envelope)`` -- by
    ``MSG_TYPE`` in ``_SIGNED_HANDLERS`` (``envelope`` is the authentic
    envelope) and ``_PLAIN_HANDLERS`` (``envelope`` is ``None``)."""

    _SIGNED_HANDLERS: Dict[str, Callable[..., None]] = {}
    _PLAIN_HANDLERS: Dict[str, Callable[..., None]] = {}
    #: Replicas count what they reject in ``stats["invalid_messages"]``;
    #: clients drop it silently (their stats feed the report).
    counts_invalid = False

    on_message = dispatcher()
