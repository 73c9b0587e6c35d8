"""repro.obs: golden-signal observability for live deployments.

Stdlib-only metrics (:mod:`repro.obs.metrics`), the no-op/live
instrument seam for timing, netem and control signals plus the
scrape-time collector that reads each replica's and transport node's
own counters (:mod:`repro.obs.instruments`), protocol health
(:mod:`repro.obs.health`), the asyncio HTTP endpoint
(:mod:`repro.obs.http`), the signed fault control channel
(:mod:`repro.obs.control`), structured JSON logging
(:mod:`repro.obs.logging`), live-endpoint scraping
(:mod:`repro.obs.scrape`), and the serve session tying them together
(:mod:`repro.obs.serve`).

This layer may read the wall clock (it observes real deployments);
the analysis layer map whitelists it alongside transport/bench/sweep.
"""

from repro.obs.control import (
    CONTROL_SCHEMA_VERSION,
    ControlChannel,
    ControlClient,
    control_keypair,
    sign_event,
)
from repro.obs.health import HEALTH_SCHEMA_VERSION, HealthMonitor
from repro.obs.http import ObsServer, fetch_json, http_request
from repro.obs.instruments import NULL, Instruments, LiveInstruments
from repro.obs.logging import JsonFormatter, configure_json_logging
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    SNAPSHOT_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.scrape import (
    ScrapeConfig,
    replica_stats_from_snapshot,
    scrape_replica_stats,
)
from repro.obs.serve import ServeSession

__all__ = [
    "CONTROL_SCHEMA_VERSION",
    "ControlChannel",
    "ControlClient",
    "control_keypair",
    "sign_event",
    "HEALTH_SCHEMA_VERSION",
    "HealthMonitor",
    "ObsServer",
    "fetch_json",
    "http_request",
    "NULL",
    "Instruments",
    "LiveInstruments",
    "JsonFormatter",
    "configure_json_logging",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "SNAPSHOT_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ScrapeConfig",
    "replica_stats_from_snapshot",
    "scrape_replica_stats",
    "ServeSession",
]
