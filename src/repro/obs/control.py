"""The signed ``/control`` channel: fault events for remote replicas.

Multi-process deployments used to reject any replica-targeted fault
naming a replica hosted in another process -- its handler lived out of
reach.  The control channel closes that gap: the scenario process
serializes the fault event (the same dict form spec files use), signs
the envelope, and POSTs it to the serving process's obs endpoint,
whose :class:`ControlChannel` verifies and applies it through the
local :class:`~repro.scenario.faults.FaultInjector`.

Authentication rides the deployment's existing deterministic key
derivation: both processes derive the same HMAC key for the reserved
``obs-control`` identity from the shared cluster seed, exactly like
replica/client keys.  Envelopes carry a random nonce; replays are
rejected (409), bad signatures are rejected (403), and events that
fail validation are rejected (422) -- each with the offending
detail named, mirroring the spec loader's error discipline.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Optional, Tuple

from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError

#: Envelope format version.
CONTROL_SCHEMA_VERSION = 1

#: The reserved node identity whose derived key signs control traffic.
CONTROL_IDENTITY = "obs-control"

#: The deterministic key-derivation seed TCP deployments share.
DEFAULT_CONTROL_SEED = b"tcp-demo"


def control_keypair(seed: bytes = DEFAULT_CONTROL_SEED) -> KeyPair:
    """The control-channel signing key for a deployment seed.  Every
    process of one deployment derives the same key, so the serving
    side can verify without any key exchange."""
    return KeyPair.generate(CONTROL_IDENTITY, seed=seed)


def _canonical(envelope: Dict[str, Any]) -> bytes:
    """The byte string the MAC covers: everything but the mac itself,
    canonically encoded."""
    unsigned = {k: v for k, v in envelope.items() if k != "mac"}
    return json.dumps(unsigned, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def sign_event(event: Any, keypair: KeyPair,
               nonce: Optional[str] = None) -> bytes:
    """Serialize + sign one fault event into a POST body."""
    from repro.scenario.loader import fault_to_dict

    envelope: Dict[str, Any] = {
        "v": CONTROL_SCHEMA_VERSION,
        "nonce": nonce if nonce is not None else os.urandom(16).hex(),
        "event": fault_to_dict(event),
    }
    envelope["mac"] = keypair.mac(_canonical(envelope))
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


class ControlChannel:
    """Server side: verify an envelope and apply its event locally.

    ``apply`` is the local fault sink -- normally the serve-side
    :meth:`FaultInjector.apply`.  ``on_applied`` (if given) fires
    after a successful apply, e.g. to bump the control-event counter.
    """

    #: Replay-protection window: how many recent nonces are remembered.
    #: A long-lived serve process must not leak one set entry per signed
    #: request forever; evicting insertion-order keeps memory constant
    #: while still 409-ing any replay within the last
    #: ``MAX_SEEN_NONCES`` requests (a replay older than that also has
    #: to beat the 16-byte-random-nonce birthday odds to matter).
    MAX_SEEN_NONCES = 4096

    def __init__(self, apply: Callable[[Any], None],
                 replica_ids: Tuple[str, ...],
                 keypair: Optional[KeyPair] = None,
                 on_applied: Optional[Callable[[str], None]] = None
                 ) -> None:
        from collections import OrderedDict

        self._apply = apply
        self._replica_ids = tuple(replica_ids)
        self._keypair = keypair or control_keypair()
        self._on_applied = on_applied
        self._seen_nonces: "OrderedDict[str, None]" = OrderedDict()

    def handle(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        """Process one POST body; returns ``(http_status, payload)``."""
        try:
            envelope = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"invalid control envelope: {exc}"}
        if not isinstance(envelope, dict):
            return 400, {"error": "control envelope must be an object"}
        missing = [k for k in ("v", "nonce", "event", "mac")
                   if k not in envelope]
        if missing:
            return 400, {"error": f"control envelope is missing "
                                  f"{missing}"}
        if envelope["v"] != CONTROL_SCHEMA_VERSION:
            return 400, {"error": f"unsupported control schema "
                                  f"version {envelope['v']!r} "
                                  f"(speak {CONTROL_SCHEMA_VERSION})"}
        expected = self._keypair.mac(_canonical(envelope))
        import hmac as _hmac
        if not isinstance(envelope["mac"], str) or \
                not _hmac.compare_digest(expected, envelope["mac"]):
            return 403, {"error": "control envelope signature does "
                                  "not verify"}
        nonce = envelope["nonce"]
        if nonce in self._seen_nonces:
            return 409, {"error": f"control nonce {nonce!r} was "
                                  f"already used (replay?)"}
        self._seen_nonces[nonce] = None
        while len(self._seen_nonces) > self.MAX_SEEN_NONCES:
            self._seen_nonces.popitem(last=False)

        from repro.scenario.loader import fault_from_dict
        try:
            event = fault_from_dict(envelope["event"], "control.event")
            event.validate(self._replica_ids)
        except ConfigurationError as exc:
            return 422, {"error": str(exc)}
        try:
            self._apply(event)
        except Exception as exc:  # surfaced to the caller, not raised
            return 500, {"error": f"applying "
                                  f"{type(event).__name__}: {exc}"}
        name = type(event).__name__
        if self._on_applied is not None:
            self._on_applied(name)
        return 200, {"applied": True, "event": name,
                     "detail": event.describe()}


class ControlClient:
    """Scenario-process side: sign and deliver events to an endpoint."""

    def __init__(self, seed: bytes = DEFAULT_CONTROL_SEED) -> None:
        self._keypair = control_keypair(seed)

    async def send(self, host: str, port: int, event: Any,
                   timeout: float = 5.0) -> Dict[str, Any]:
        """POST one signed event; raises on any non-200 answer.

        Every failure mode -- refused connection, timeout, malformed
        response -- names the target endpoint, so a forwarded fault
        that never landed is attributable from the error alone.
        """
        import asyncio

        from repro.errors import TransportError
        from repro.obs.http import http_request

        body = sign_event(event, self._keypair)
        try:
            status, raw = await http_request(host, port, "/control",
                                             method="POST", body=body,
                                             timeout=timeout)
        except (OSError, asyncio.TimeoutError, TransportError) as exc:
            detail = str(exc) or type(exc).__name__
            raise TransportError(
                f"POST /control on {host}:{port} "
                f"({type(event).__name__}) failed: {detail}") from exc
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:
            payload = {"error": raw[:200].decode("latin-1")}
        if status != 200:
            raise ConfigurationError(
                f"control endpoint {host}:{port} rejected "
                f"{type(event).__name__} ({status}): "
                f"{payload.get('error', payload)}")
        return payload
