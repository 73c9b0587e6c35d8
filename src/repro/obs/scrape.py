"""Scraping live obs endpoints into report-shaped stats.

Multi-process runs leave the scenario process blind to remote
replicas' internals: their ``replica_stats`` used to be reported
empty.  With each served process exposing ``/metrics.json``, the
runner (and the sweep runner above it) can pull the same
``repro_replica_stat`` gauge samples the serve loop refreshes per
scrape, and fold them into the report exactly where locally-hosted
replica stats go.

:class:`ScrapeConfig` + :func:`scrape_replica_stats` are the periodic
flavour: the sweep runner ships a (picklable) config into each cell's
worker process, the scenario runner samples every ``interval_s``
during the run, and the time series folds into the sweep report --
dashboards over sweep time without in-process recorders.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

logger = logging.getLogger("repro.obs.scrape")

#: The pull-gauge family the serve loop maintains per hosted replica.
REPLICA_STAT_FAMILY = "repro_replica_stat"


@dataclass(frozen=True)
class ScrapeConfig:
    """Periodic ``/metrics.json`` sampling during a run.

    Plain frozen floats so sweep workers can unpickle it; endpoints
    are *not* part of the config -- each cell scrapes whatever its
    scenario's ``obs`` table pins, so one config serves a whole grid.
    """

    #: Seconds between samples.
    interval_s: float = 1.0
    #: Per-endpoint fetch timeout; a slow endpoint must not stall the
    #: sampler past the next tick.
    timeout_s: float = 2.0


def replica_stats_from_snapshot(snapshot: Mapping[str, Any],
                                replica_id: str) -> Dict[str, int]:
    """Extract one replica's stat dict from a metrics snapshot.

    Returns ``{}`` when the snapshot carries no samples for that
    replica (e.g. the endpoint hosts different replicas).
    """
    stats: Dict[str, int] = {}
    for family in snapshot.get("metrics", ()):
        if family.get("name") != REPLICA_STAT_FAMILY:
            continue
        for sample in family.get("samples", ()):
            labels = sample.get("labels", {})
            if labels.get("replica") != replica_id:
                continue
            stat = labels.get("stat")
            if stat:
                stats[stat] = int(sample.get("value", 0))
    return stats


async def scrape_replica_stats(
        endpoints: Mapping[str, Tuple[str, int]],
        timeout: float = 5.0,
        errors: Optional[List[str]] = None,
) -> Dict[str, Optional[Dict[str, int]]]:
    """Fetch ``/metrics.json`` from each replica's obs endpoint.

    ``endpoints`` maps replica id to ``(host, port)``.  Unreachable
    endpoints yield ``None`` for that replica rather than failing the
    whole scrape -- a dead node is a finding, not an error -- but each
    failure is logged (and appended to ``errors`` when given) naming
    the endpoint it came from, so "which node went dark" never has to
    be reverse-engineered from a bare counter.
    """
    import asyncio

    from repro.obs.http import fetch_json

    async def _one(rid: str, host: str, port: int
                   ) -> Tuple[str, Optional[Dict[str, int]]]:
        try:
            snapshot = await fetch_json(host, port, "/metrics.json",
                                        timeout=timeout)
        except Exception as exc:
            detail = (f"scraping {rid}: GET /metrics.json on "
                      f"{host}:{port} failed: {exc}")
            logger.warning(detail)
            if errors is not None:
                errors.append(detail)
            return rid, None
        return rid, replica_stats_from_snapshot(snapshot, rid)

    results = await asyncio.gather(
        *(_one(rid, host, port)
          for rid, (host, port) in sorted(endpoints.items())))
    return dict(results)

