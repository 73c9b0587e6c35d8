"""LinkShaper: the one seam both backends push traffic through.

``plan(src, dst, size_bytes, now_ms)`` resolves the directed pair's
:class:`~repro.netem.model.LinkModel` (profile rules + runtime patches
+ the LatencyShift delay scale) and turns one send into a tuple of
extra delivery delays:

- ``()``       -- the frame was lost;
- ``(d,)``     -- one delivery, ``d`` ms later than unshaped;
- ``(d, d)``   -- the frame was duplicated.

The simulator schedules each entry as a discrete event on top of the
latency-matrix propagation, so a seeded run is byte-identical across
repeats; the asyncio transport sleeps ``d`` before writing the frame.
All randomness comes from one private ``random.Random`` seeded from
the scenario seed, kept separate from the jitter/drop stream of
:class:`~repro.sim.network.SimNetwork` so enabling netem does not
perturb unrelated draws.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.instruments import NULL
from repro.netem.model import (
    LINK_MODEL_FIELDS,
    LinkModel,
    NetemProfile,
    token_matches,
)

#: The shaper's answer for an untouched frame.
_PASSTHROUGH: Tuple[float, ...] = (0.0,)


class TokenBucket:
    """Classic token bucket with borrowing: consuming past the burst
    credit drives the balance negative, and the debt (divided by the
    refill rate) is the transmission queueing delay.  Successive
    frames therefore queue behind each other exactly like a serialized
    link."""

    def __init__(self, rate_kbps: float, burst_bytes: int) -> None:
        if rate_kbps <= 0:
            raise ConfigurationError(
                f"TokenBucket rate must be positive, got {rate_kbps}")
        self.rate_kbps = rate_kbps
        #: Refill rate in bytes per millisecond (kbit/s / 8 = kB/s).
        self.rate_bytes_per_ms = rate_kbps / 8.0
        self.burst_bytes = burst_bytes
        self._tokens = float(burst_bytes)
        self._last_ms: Optional[float] = None

    def consume(self, size_bytes: float, now_ms: float) -> float:
        """Take ``size_bytes`` out of the bucket at ``now_ms`` and
        return how long the frame must wait for its bytes (0 while
        burst credit lasts)."""
        if self._last_ms is not None and now_ms > self._last_ms:
            self._tokens = min(
                float(self.burst_bytes),
                self._tokens +
                (now_ms - self._last_ms) * self.rate_bytes_per_ms)
        self._last_ms = max(now_ms, self._last_ms or now_ms)
        self._tokens -= size_bytes
        if self._tokens >= 0.0:
            return 0.0
        return -self._tokens / self.rate_bytes_per_ms


class LinkShaper:
    """Applies a :class:`NetemProfile` (plus runtime chaos patches) to
    every directed send.

    One shaper instance is shared by a whole deployment: the simulator
    hangs it on :class:`~repro.sim.network.SimNetwork`, the TCP
    backend hands the same instance to every
    :class:`~repro.transport.asyncio_tcp.AsyncioNode`.  Fault
    injectors mutate it mid-run through :meth:`patch` (PacketLoss /
    Jitter / BandwidthCap / Reorder) and :meth:`set_delay_scale`
    (LatencyShift on TCP).
    """

    #: Observability seam: per-link drop/delay series under ``repro
    #: serve``; guarded on ``enabled`` so disabled runs pay one test.
    instruments = NULL

    def __init__(self, profile: Optional[NetemProfile] = None,
                 seed: int = 0,
                 region_of: Optional[
                     Callable[[str], Optional[str]]] = None,
                 default_frame_bytes: int = 512) -> None:
        self.profile = profile if profile is not None else NetemProfile()
        self.profile.validate()
        # String seeding hashes with sha512 (stable across processes,
        # unaffected by PYTHONHASHSEED), and the prefix decorrelates
        # this stream from SimNetwork's Random(seed).
        self._rng = random.Random(f"netem-{seed}")
        self._region_of = region_of if region_of is not None \
            else (lambda node_id: None)
        #: Fallback frame size when the caller has no byte count (the
        #: simulator mostly sends size_bytes=0); only the bandwidth
        #: cap consumes it.
        self.default_frame_bytes = default_frame_bytes
        #: Runtime patches from chaos fault events, applied field-wise
        #: after the profile rules, in insertion order.
        self._patches: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self._delay_scale = 1.0
        self._cache: Dict[Tuple[str, str], LinkModel] = {}
        self._buckets: Dict[Tuple[str, str], TokenBucket] = {}
        # Introspection counters (the report's network section).
        self.frames_shaped = 0
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.frames_reordered = 0

    # ------------------------------------------------------------------
    # Runtime mutation (fault injectors)
    # ------------------------------------------------------------------
    def set_delay_scale(self, factor: float) -> None:
        """Scale every resolved model's ``delay_ms`` (LatencyShift's
        TCP-side lever; 1.0 restores the base profile)."""
        if factor <= 0:
            raise ConfigurationError(
                f"delay scale must be positive, got {factor}")
        self._delay_scale = factor
        self._cache.clear()

    def patch(self, src: str, dst: str, **fields: Any) -> None:
        """Override model fields for every pair matching ``(src,
        dst)`` tokens (node id / region / ``"*"``), merging with any
        earlier patch on the same token pair."""
        for name in fields:
            if name not in LINK_MODEL_FIELDS:
                raise ConfigurationError(
                    f"unknown link model field {name!r} "
                    f"(have {LINK_MODEL_FIELDS})")
        merged = self._patches.setdefault((src, dst), {})
        merged.update(fields)
        # Probe the merged overlay so a bad patch fails at apply time
        # with ranges checked, not deep inside plan().
        replace(LinkModel(), **merged).validate("netem.patch")
        self._cache.clear()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, src: str, dst: str) -> LinkModel:
        """The effective model for one directed pair (cached until the
        next patch / scale change)."""
        pair = (src, dst)
        model = self._cache.get(pair)
        if model is not None:
            return model
        model = self.profile.resolve(src, dst, self._region_of)
        if self._patches:
            src_region = self._region_of(src)
            dst_region = self._region_of(dst)
            for (ps, pd), fields in self._patches.items():
                if token_matches(ps, src, src_region) and \
                        token_matches(pd, dst, dst_region):
                    model = replace(model, **fields)
        if self._delay_scale != 1.0 and model.delay_ms:
            model = replace(model,
                            delay_ms=model.delay_ms * self._delay_scale)
        self._cache[pair] = model
        return model

    # ------------------------------------------------------------------
    # The seam
    # ------------------------------------------------------------------
    def plan(self, src: str, dst: str, size_bytes: int,
             now_ms: float) -> Tuple[float, ...]:
        """Extra delivery delays for one frame (see module docstring)."""
        model = self.resolve(src, dst)
        if model.is_noop:
            return _PASSTHROUGH
        self.frames_shaped += 1
        rng = self._rng
        if model.loss > 0.0 and rng.random() < model.loss:
            self.frames_dropped += 1
            if self.instruments.enabled:
                self.instruments.netem_dropped(src, dst)
            return ()
        delay = model.delay_ms
        if model.jitter_ms > 0.0:
            delay += rng.uniform(-model.jitter_ms, model.jitter_ms)
            if delay < 0.0:
                delay = 0.0
        if model.reorder > 0.0 and rng.random() < model.reorder:
            self.frames_reordered += 1
            delay += model.reorder_extra_ms
        if model.rate_kbps > 0.0:
            delay += self._bucket_for(src, dst, model).consume(
                size_bytes if size_bytes > 0
                else self.default_frame_bytes,
                now_ms)
        if model.duplicate > 0.0 and rng.random() < model.duplicate:
            self.frames_duplicated += 1
            if self.instruments.enabled and delay > 0.0:
                self.instruments.netem_delayed(src, dst, delay)
            return (delay, delay)
        if self.instruments.enabled and delay > 0.0:
            self.instruments.netem_delayed(src, dst, delay)
        return (delay,)

    def _bucket_for(self, src: str, dst: str,
                    model: LinkModel) -> TokenBucket:
        pair = (src, dst)
        bucket = self._buckets.get(pair)
        if bucket is None or bucket.rate_kbps != model.rate_kbps or \
                bucket.burst_bytes != model.burst_bytes:
            bucket = TokenBucket(model.rate_kbps, model.burst_bytes)
            self._buckets[pair] = bucket
        return bucket

    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        return {
            "netem_frames_shaped": self.frames_shaped,
            "netem_frames_dropped": self.frames_dropped,
            "netem_frames_duplicated": self.frames_duplicated,
            "netem_frames_reordered": self.frames_reordered,
        }
