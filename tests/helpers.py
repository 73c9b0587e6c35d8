"""Shared cluster builders and assertion helpers for the test suite."""

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


def assert_replicas_consistent(cluster: Cluster,
                               exclude: Tuple[str, ...] = ()) -> dict:
    """All (non-excluded) replicas hold identical final KV state."""
    states = {rid: kv.final_items()
              for rid, kv in cluster.statemachines().items()
              if rid not in exclude}
    reference = next(iter(states.values()))
    for rid, state in states.items():
        assert state == reference, (
            f"replica {rid} diverged: {state} != {reference}")
    return reference


def assert_histories_consistent(cluster: Cluster,
                                exclude: Tuple[str, ...] = ()) -> None:
    """ezBFT's consistency property: every pair of *interfering*
    commands executes in the same relative order at every correct
    replica.  Non-interfering commands are explicitly allowed to execute
    "in parallel, in any order" (paper Section III), so their relative
    order is not compared."""
    replicas = {
        rid: replica for rid, replica in cluster.replicas.items()
        if rid not in exclude and hasattr(replica, "executor")
    }
    histories = {rid: replica.executor.history
                 for rid, replica in replicas.items()}
    common = None
    for history in histories.values():
        idents = {ident for _, ident in history}
        common = idents if common is None else (common & idents)
    if not common:
        return
    # Gather command objects (any replica's log serves).
    reference_rid = next(iter(replicas))
    reference_replica = replicas[reference_rid]
    commands = {}
    for entry in reference_replica._log_index.values():
        commands[entry.command.ident] = entry.command
    relation = reference_replica.interference
    positions = {
        rid: {ident: pos for pos, (_, ident) in enumerate(history)
              if ident in common}
        for rid, history in histories.items()
    }
    idents = sorted(common)
    for i, a in enumerate(idents):
        for b in idents[i + 1:]:
            cmd_a, cmd_b = commands.get(a), commands.get(b)
            if cmd_a is None or cmd_b is None:
                continue
            if not relation.interferes(cmd_a, cmd_b):
                continue
            orders = {rid: positions[rid][a] < positions[rid][b]
                      for rid in positions}
            assert len(set(orders.values())) == 1, (
                f"interfering commands {a} and {b} executed in "
                f"different orders: {orders}")


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
