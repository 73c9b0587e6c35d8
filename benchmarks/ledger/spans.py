"""Outside-in span recording for the traced pass.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
each layer's *public* callables from outside: every ``repro.*`` module
global or class attribute that ``is`` one of the originals listed in
:data:`TARGETS` is rebound to a timing wrapper, and :func:`restore`
puts the very same objects back.  Wrappers must be installed *before* a
cluster is built: node contexts and transport handlers capture bound
methods at construction time.

A span is (layer, function, start, end, parent span, dispatch id,
request id).  The recorder keeps a call stack, so a layer's **self
time** is its span's duration minus the part its child spans cover.
Aggregates (calls, self seconds, total seconds) are kept for every
call; raw spans only for one *dispatch* (a top-level span and
everything beneath it) in :data:`SAMPLE_EVERY`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans are kept for one dispatch in this many.
SAMPLE_EVERY = 50

#: (layer, module, dotted attribute) of every wrapped boundary.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("crypto", "repro.crypto.digest", "canonical_bytes"),
    ("crypto", "repro.crypto.digest", "digest"),
    ("crypto", "repro.crypto.signatures", "sign"),
    ("crypto", "repro.crypto.signatures", "verify"),
    ("crypto", "repro.crypto.signatures", "is_valid"),
    ("crypto", "repro.crypto.authenticator", "make_authenticator"),
    ("crypto", "repro.crypto.authenticator", "verify_authenticator"),
    ("crypto", "repro.crypto.authenticator",
     "verify_authenticator_batch"),
    ("messages", "repro.messages.base", "decode"),
    ("transport.codec", "repro.transport.codec", "encode_frame"),
    ("transport.codec", "repro.transport.codec", "decode_frame"),
    ("transport.codec", "repro.transport.codec", "decode_frame_traced"),
    ("transport.asyncio_tcp", "repro.transport.asyncio_tcp",
     "AsyncioNode.send"),
    ("sim", "repro.sim.events", "Simulator.run"),
    ("sim", "repro.sim.events", "Simulator.run_until_idle"),
    ("sim", "repro.sim.events", "Simulator.step"),
    ("sim", "repro.sim.network", "SimNetwork.send"),
    ("core.replica", "repro.core.replica", "EzBFTReplica.on_message"),
    ("core.client", "repro.core.client", "EzBFTClient.submit"),
    ("core.client", "repro.core.client", "EzBFTClient.submit_batch"),
    ("core.client", "repro.core.client", "EzBFTClient.on_message"),
    ("core.executor", "repro.core.executor",
     "DependencyExecutor.try_execute"),
    ("core.executor", "repro.graph.scc", "tarjan_scc"),
    ("statemachine", "repro.statemachine.kvstore", "KVStore.apply"),
    ("statemachine", "repro.statemachine.kvstore",
     "KVStore.apply_speculative"),
    ("statemachine", "repro.statemachine.kvstore", "KVStore.snapshot"),
    ("storage", "repro.storage.store", "ReplicaStorage.append_entry"),
    ("storage", "repro.storage.store", "ReplicaStorage.append_attest"),
    ("storage", "repro.storage.store", "ReplicaStorage.save_snapshot"),
    ("storage", "repro.storage.store", "ReplicaStorage.rotate"),
    ("storage", "repro.storage.store", "ReplicaStorage.prune"),
    ("storage", "repro.storage.store", "ReplicaStorage.replay_records"),
    ("storage", "repro.storage.wal", "WriteAheadLog.append"),
    ("storage", "repro.storage.wal", "encode_record"),
)

#: Functions whose individual durations are kept (for medians).
KEEP_DURATIONS = frozenset({
    ("storage", "WriteAheadLog.append"),
    ("storage", "ReplicaStorage.save_snapshot"),
})

#: Functions whose result sizes (``len``) are summed.
SIZED_RESULTS = frozenset({
    ("transport.codec", "encode_frame"),
    ("storage", "encode_record"),
})

#: Event loops: each span directly beneath one starts a new dispatch,
#: as a top-level span does (the simulator delivers every message
#: from inside one long ``run``).
DISPATCH_LOOPS = frozenset({
    ("sim", "Simulator.run"),
    ("sim", "Simulator.run_until_idle"),
    ("sim", "Simulator.step"),
})

#: Message-delivery entry points: the second positional argument after
#: ``self`` is the delivered message, whose public fields may name the
#: request it belongs to.
DELIVERIES = frozenset({
    ("core.replica", "EzBFTReplica.on_message"),
    ("core.client", "EzBFTClient.on_message"),
})


def request_id_of(message: Any) -> Optional[str]:
    """``"client:timestamp"`` when the message (or the payload of its
    signed envelope) exposes both as public fields, else ``None``."""
    payload = getattr(message, "payload", message)
    client = getattr(payload, "client_id", None)
    timestamp = getattr(payload, "timestamp", None)
    if client is None or timestamp is None:
        return None
    return f"{client}:{timestamp}"


class Recorder:
    """Call-stack span recorder with per-function aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 sample_every: int = SAMPLE_EVERY) -> None:
        self.clock = clock
        self.sample_every = sample_every
        #: Open frames, innermost last:
        #: [start, child seconds, span id, is an event loop].
        self.stack: List[List[Any]] = []
        #: (layer, function) -> [calls, self seconds, total seconds].
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        self.durations: Dict[Tuple[str, str], List[float]] = {}
        self.sizes: Dict[Tuple[str, str], int] = {}
        self.raw: List[Dict[str, Any]] = []
        self.dispatches = 0
        self.fsyncs = 0
        #: Largest blocked-on-dependencies frontier any executor held
        #: on return from ``try_execute``.
        self.deferred_peak = 0
        self._sampled = False
        self._span_ids = 0

    # ------------------------------------------------------------------
    def wrap(self, layer: str, name: str, fn: Callable,
             after: Optional[Callable[[tuple], None]] = None
             ) -> Callable:
        """A wrapper around ``fn`` that records one span per call.
        ``after(args)`` runs inside the span once ``fn`` returned."""
        key = (layer, name)
        total = self.totals.setdefault(key, [0, 0.0, 0.0])
        kept = self.durations.setdefault(key, []) \
            if key in KEEP_DURATIONS else None
        sized = key in SIZED_RESULTS
        delivery = key in DELIVERIES
        loop = key in DISPATCH_LOOPS
        if sized:
            self.sizes.setdefault(key, 0)
        original = fn
        if inspect.isgeneratorfunction(original):
            # Span the whole iteration, not just generator creation.
            def fn(*args: Any, **kwargs: Any) -> Any:
                return iter(list(original(*args, **kwargs)))

        rec, stack, clock = self, self.stack, self.clock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            if parent is None or parent[3]:
                rec.dispatches += 1
                rec._sampled = rec.dispatches % rec.sample_every == 0
            span_id = None
            if rec._sampled:
                rec._span_ids += 1
                span_id = rec._span_ids
            frame = [clock(), 0.0, span_id, loop]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if sized:
                    rec.sizes[key] += len(result)
                if after is not None:
                    after(args)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[0]
                total[0] += 1
                total[1] += elapsed - frame[1]
                total[2] += elapsed
                if parent is not None:
                    parent[1] += elapsed
                if kept is not None:
                    kept.append(elapsed)
                if span_id is not None:
                    rec.raw.append({
                        "span": span_id,
                        "parent": parent[2] if parent else None,
                        "dispatch": rec.dispatches,
                        "layer": layer, "function": name,
                        "start_s": frame[0], "end_s": end,
                        "request": request_id_of(args[2])
                        if delivery and len(args) > 2 else None,
                    })

        return functools.update_wrapper(wrapper, original)

    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, self seconds), summed over its functions."""
        out: Dict[str, List[float]] = {}
        for (layer, _), (calls, self_s, _) in self.totals.items():
            acc = out.setdefault(layer, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        return {layer: (int(c), s) for layer, (c, s) in out.items()}

    def calls(self, layer: str, name: str) -> int:
        return int(self.totals.get((layer, name), (0,))[0])

    def total_s(self, layer: str, name: str) -> float:
        return float(self.totals.get((layer, name), (0, 0, 0.0))[2])

    def reset(self) -> None:
        """Zero every aggregate in place (wrappers keep their bound
        accumulators), e.g. after warm-up."""
        for total in self.totals.values():
            total[0], total[1], total[2] = 0, 0.0, 0.0
        for kept in self.durations.values():
            kept.clear()
        for key in self.sizes:
            self.sizes[key] = 0
        self.raw.clear()
        self.dispatches = 0
        self.fsyncs = 0
        self.deferred_peak = 0

    def write_spans(self, path: str) -> None:
        """Write the sampled raw spans as one JSON document."""
        os.makedirs(os.path.dirname(os.path.abspath(path)),
                    exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"sample_every": self.sample_every,
                       "clock": "perf_counter_s",
                       "spans": self.raw}, fh)


# ----------------------------------------------------------------------
# Installing and restoring wrappers
# ----------------------------------------------------------------------
Patch = Tuple[Any, str, Any]


def _resolve(module_name: str, dotted: str) -> Any:
    """A target's raw attribute, read from its namespace ``__dict__``
    so a function stored on a class is the function, not a bound
    method."""
    owner = sys.modules[module_name]
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def _namespaces() -> List[Any]:
    """Every ``repro`` module and every class one of them holds."""
    spaces: List[Any] = []
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or
                                  name.startswith("repro.")):
            continue
        spaces.append(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and id(value) not in seen:
                seen.add(id(value))
                spaces.append(value)
    return spaces


def _note_deferred(recorder: Recorder) -> Callable[[tuple], None]:
    """Track the executor's blocked frontier.  ``_deferred`` is private
    but has no public reader cheap enough to call per commit
    (``repro.cluster.metrics.replica_footprint`` reads it the same
    way)."""
    def after(args: tuple) -> None:
        size = len(args[0]._deferred)
        if size > recorder.deferred_peak:
            recorder.deferred_peak = size
    return after


def install(recorder: Recorder) -> List[Patch]:
    """Wrap every :data:`TARGETS` boundary; returns the undo list.

    The modules are imported first, so aliases created by
    ``from x import f`` anywhere under ``repro`` are found and rebound
    too.  ``os.fsync`` gets a counting wrapper (the WAL never calls it
    today; the count is the durability caveat as a number).
    """
    import importlib
    for _, module_name, _ in TARGETS:
        importlib.import_module(module_name)
    importlib.import_module("repro.transport.asyncio_tcp")
    importlib.import_module("repro.scenario.runner")
    importlib.import_module("repro.bench")

    spaces = _namespaces()
    patches: List[Patch] = []
    for layer, module_name, dotted in TARGETS:
        original = _resolve(module_name, dotted)
        after = _note_deferred(recorder) \
            if dotted == "DependencyExecutor.try_execute" else None
        wrapper = recorder.wrap(layer, dotted, original, after)
        for space in spaces:
            for key, value in list(vars(space).items()):
                if value is original:
                    setattr(space, key, wrapper)
                    patches.append((space, key, original))

    real_fsync = os.fsync

    def counting_fsync(fd: int) -> None:
        recorder.fsyncs += 1
        real_fsync(fd)

    os.fsync = counting_fsync
    patches.append((os, "fsync", real_fsync))
    return patches


def restore(patches: List[Patch]) -> None:
    """Put every original object back where :func:`install` found it."""
    for space, key, original in reversed(patches):
        setattr(space, key, original)
    patches.clear()
