"""Shared cluster builders and fixtures for the test suite."""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.builder import Cluster, build_cluster
from repro.crypto.digest import leaf_digest
from repro.sim.latency import EXPERIMENT1, LOCAL, uniform_matrix
from repro.sim.network import CpuModel
from repro.statemachine.base import StateSnapshot, leaf_index
from repro.statemachine.checkpoint import Checkpoint

#: The paper's Experiment-1 deployment.
GEO_REGIONS = ["virginia", "tokyo", "mumbai", "sydney"]
#: A 4-replica single-region deployment for fast unit-ish tests.
LAN_REGIONS = ["local"] * 4


def lan_cluster(protocol: str = "ezbft", **kwargs) -> Cluster:
    """4 replicas in one region, zero CPU cost, tight timeouts."""
    kwargs.setdefault("cpu", CpuModel.free())
    kwargs.setdefault("slow_path_timeout", 50.0)
    kwargs.setdefault("retry_timeout", 200.0)
    kwargs.setdefault("suspicion_timeout", 100.0)
    kwargs.setdefault("view_change_timeout", 150.0)
    return build_cluster(protocol, LAN_REGIONS, LOCAL, **kwargs)


def geo_cluster(protocol: str = "ezbft", **kwargs) -> Cluster:
    """The Experiment-1 WAN deployment."""
    kwargs.setdefault("slow_path_timeout", 400.0)
    kwargs.setdefault("retry_timeout", 1500.0)
    return build_cluster(protocol, GEO_REGIONS, EXPERIMENT1, **kwargs)


class DeliveryLog:
    """Collects (client_id, result, latency, path) delivery records."""

    def __init__(self) -> None:
        self.records: List[Tuple[str, object, float, str]] = []

    def hook(self, client_id: str):
        def _on_delivery(command, result, latency, path):
            self.records.append((client_id, result, latency, path))
        return _on_delivery

    @property
    def paths(self) -> List[str]:
        return [r[3] for r in self.records]

    @property
    def results(self) -> List[object]:
        return [r[1] for r in self.records]

    def latencies(self) -> List[float]:
        return [r[2] for r in self.records]


def faults(event: str, *replicas: str) -> List[dict]:
    """Fault-log entries, one per replica in ``replicas``, each hit by
    ``event`` at time 0: what a run that faulted replicas by hand
    (``install_byzantine`` with a behaviour name or a policy,
    ``silence_node``) tells
    :func:`repro.check.observe`."""
    return [{"at_ms": 0.0, "applied_ms": 0.0, "event": event,
             "replica": rid, "detail": f"{event} {rid}"}
            for rid in replicas]


def defective_leaves(leaves, defect: str) -> list:
    """Copies of state ``leaves`` broken one way, digests aside:
    ``"misplaced key"`` moves one key to the next leaf;
    ``"three leaves"`` puts every key in 3 leaves where
    ``crc32(key) & (3 - 1)`` places it, so only the leaf count is
    wrong."""
    if defect == "three leaves":
        out = [{}, {}, {}]
        for leaf in leaves:
            for key, value in leaf.items():
                out[leaf_index(key, 3)][key] = value
        return out
    assert defect == "misplaced key", defect
    out = [dict(leaf) for leaf in leaves]
    home = next(i for i, leaf in enumerate(out) if leaf)
    key = next(iter(out[home]))
    out[(home + 1) % len(out)][key] = out[home].pop(key)
    return out


def unchecked_state_digest(watermark: int, snapshot: dict) -> str:
    """The checkpoint digest ``snapshot``'s leaves hash to, with no
    placement check: what a signer of a defective snapshot attests."""
    leaves = snapshot["state"]
    unchecked = StateSnapshot.of(
        leaves, b"".join(leaf_digest(leaf) for leaf in leaves))
    return Checkpoint.capture(
        watermark, {**snapshot, "state": unchecked}).state_digest
