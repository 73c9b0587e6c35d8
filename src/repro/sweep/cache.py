"""On-disk sweep cell cache.

A sweep cell on the sim backend is a pure function of its scenario spec
(the sim is deterministic per seed), so re-running a grid after adding
one axis value, or re-plotting with different series axes, repeats work
whose outcome is already known byte-for-byte.  The cache stores each
cell's :meth:`~repro.scenario.report.ExperimentReport.to_dict` under a
key derived from the *serialized* scenario -- exactly the
``(spec hash, backend, seed)`` identity (the seed is part of the spec
document) -- and replays it through
:meth:`~repro.scenario.report.ExperimentReport.from_dict`, which round
trips ``to_dict``/``to_rows`` output exactly.

Only spec-serializable scenarios are cacheable: one holding live Python
objects (a custom state machine, CPU model, interference, or anonymous
latency matrix) has no stable document form, so those cells silently
run fresh.  TCP cells are never cached by the runner -- their metrics
are wall-clock measurements, and a cached measurement is not a
measurement.

The cache is advisory: corrupt or unreadable entries are treated as
misses, and writes are atomic (tmp file + rename) so a killed run never
leaves a half-written entry.  A digest of the ``repro`` package's own
source is part of every key: a change to any module the run could
execute (report schema, protocol, simulator) moves every key, so a
stale entry is never replayed as a fresh result.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.storage import atomic_write_json
from repro.scenario.report import ExperimentReport
from repro.scenario.spec import Scenario

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = os.path.join(".repro-cache", "sweep-cells")


class SweepCellCache:
    """Content-addressed store of finished sweep cell reports."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        #: Cells whose scenario has no serializable spec form.
        self.uncacheable = 0

    # ------------------------------------------------------------------
    def cell_key(self, scenario: Scenario, backend: str,
                 max_events: int) -> Optional[str]:
        """Hex digest identifying one cell run, or ``None`` when the
        scenario cannot be serialized (uncacheable)."""
        from repro.scenario.loader import scenario_to_dict
        try:
            spec = scenario_to_dict(scenario)
        except ConfigurationError:
            self.uncacheable += 1
            return None
        blob = json.dumps(
            {"source": source_digest(), "backend": backend,
             "max_events": max_events, "spec": spec},
            sort_keys=True, separators=(",", ":"))
        # repro: allow[digest-outside-crypto] -- content-address of a
        # spec blob for cache keying, not a protocol digest.
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    # ------------------------------------------------------------------
    def get(self, key: Optional[str]) -> Optional[ExperimentReport]:
        """The cached report for ``key``, or ``None`` on a miss.

        Anything unreadable -- missing file, truncated JSON, a schema
        the current code cannot reconstruct -- is a miss.
        """
        if key is None:
            return None
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            report = ExperimentReport.from_dict(entry["report"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return report

    def put(self, key: Optional[str], report: ExperimentReport) -> None:
        """Store ``report`` under ``key`` (no-op for uncacheable cells).

        Write failures are swallowed: a read-only or full disk degrades
        to an uncached sweep, it does not fail the run.
        """
        if key is None:
            return
        path = self._path(key)
        entry: Dict[str, Any] = {
            "source": source_digest(),
            "report": report.to_dict(),
        }
        try:
            atomic_write_json(path, entry)
        except (OSError, ValueError):
            pass

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "uncacheable": self.uncacheable}


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over the path and bytes of every ``.py`` file of the
    installed ``repro`` package, in path order; read once per process."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # repro: allow[digest-outside-crypto] -- content-address of the
    # package source for cache keying, not a protocol digest.
    h = hashlib.sha256()
    for folder, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()
