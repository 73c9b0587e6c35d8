"""Memory bound: checkpoint GC keeps resident log size O(interval).

Not a paper figure -- the paper's runs are short enough to keep the
whole log -- but its owner-change protocol explicitly assumes
checkpointing ("instances executed or committed since the last
checkpoint"), and the ROADMAP's production north star needs sustained
runs: without GC every structure (instance spaces, executor history,
result cache, recovery payloads) grows linearly with history.

Methodology: a saturated single-region open-loop run (offered load
above the ordering replica's service rate, bounded per-client in-flight
window), sampled every 200ms of simulated time for the largest resident
footprint across replicas.  For ezBFT that is the declared
``footprint()`` total, and the same run with ``checkpoint_interval=0``
is the unbounded baseline.  For PBFT, FaB and Zyzzyva it is the slot
table plus the executed record (``len(_slots)`` and
``len(statemachine.record.entries)``), read directly.

Claims asserted:

1. With checkpointing, the peak resident footprint is a small constant
   (O(interval + in-flight window)) -- an order of magnitude below the
   unbounded baseline's final size, and flat between the first and
   second half of the run.
2. Throughput is within noise of the unbounded baseline (GC is not on
   the hot path).
3. Owner-change recovery payloads stay flat (entries above the last
   stable checkpoint) instead of growing with history.
4. A replica partitioned past log truncation catches up via state
   transfer and converges to identical state.
5. Each baseline's slot table and executed record are O(interval +
   in-flight window), and flat while load is on: the second half of the
   loaded window holds at most 1.5x the first half's peak.

``MEMBOUND_PROFILE=smoke`` shrinks the run for CI (same assertions,
smaller constants); there Zyzzyva's case is a strict xfail, for the
reason its marker gives.
"""

import os

import pytest

from bench_util import print_table
from repro.cluster.builder import build_cluster
from repro.sim.latency import LOCAL
from repro.sim.network import CpuModel
from repro.workload.drivers import OpenLoopDriver
from repro.workload.generator import KVWorkload

SMOKE = os.environ.get("MEMBOUND_PROFILE", "full") == "smoke"

#: Saturated run: ~590 req/s service rate at the ordering replica
#: (20 cpu units/request), offered 800 req/s.
CLIENTS = 10
RATE_PER_CLIENT = 80.0
MAX_OUTSTANDING = 32  # per client; bounds in-flight, keeps pipe full
DURATION_MS = 2_500.0 if SMOKE else 18_000.0
INTERVAL = 32 if SMOKE else 128
MIN_DELIVERED = 1_200 if SMOKE else 10_000
SAMPLE_MS = 200.0


def resident(cluster) -> int:
    """Largest resident log footprint across ``cluster``'s replicas."""
    if cluster.protocol == "ezbft":
        return max(f["total"] for f in cluster.log_footprint().values())
    return max(len(r._slots) + len(r.statemachine.record.entries)
               for r in cluster.replicas.values())


def run_saturated(checkpoint_interval: int, protocol: str = "ezbft"):
    cluster = build_cluster(
        protocol, ["local"] * 4, LOCAL,
        checkpoint_interval=checkpoint_interval,
        # Saturation must not look like a fault (see run_open_loop).
        slow_path_timeout=8_000.0, retry_timeout=600_000.0,
        suspicion_timeout=600_000.0, view_change_timeout=600_000.0)
    drivers = []
    for i in range(CLIENTS):
        client = cluster.add_client(f"c{i}", "local")
        workload = KVWorkload(f"c{i}", contention=0.0, seed=i)
        drivers.append(OpenLoopDriver(
            client, workload, rate_per_sec=RATE_PER_CLIENT,
            duration_ms=DURATION_MS, max_outstanding=MAX_OUTSTANDING))
    for driver in drivers:
        driver.start()
    samples = []
    horizon = int(DURATION_MS * 2)
    for t in range(int(SAMPLE_MS), horizon + 1, int(SAMPLE_MS)):
        cluster.run(until=float(t))
        samples.append(resident(cluster))
    cluster.run_until_idle(max_events=40_000_000)
    samples.append(resident(cluster))
    return cluster, samples


def owner_change_payload(cluster, space_owner="r0",
                         observer="r1") -> int:
    """Entries an owner-change for ``space_owner`` would ship."""
    replica = cluster.replicas[observer]
    base = replica.checkpoint_base_slot(space_owner)
    return len(replica.owner_changes._summarize_space(space_owner, base))


def run_rejoin_demo():
    """A replica rejoins after the cluster truncated past it."""
    cluster = build_cluster(
        "ezbft", ["local"] * 4, LOCAL, cpu=CpuModel.free(),
        checkpoint_interval=16,
        slow_path_timeout=50.0, retry_timeout=200.0,
        suspicion_timeout=100_000.0, view_change_timeout=100_000.0)
    client = cluster.add_client("c0", "local", target_replica="r0")
    cluster.network.isolate("r3")
    for i in range(96):
        client.submit(client.next_command("put", f"k{i % 8}", i))
        cluster.run_until_idle()
    cluster.network.heal("r3")
    for i in range(96, 144):
        client.submit(client.next_command("put", f"k{i % 8}", i))
        cluster.run_until_idle()
    return cluster


def run_all():
    bounded, bounded_samples = run_saturated(INTERVAL)
    unbounded, unbounded_samples = run_saturated(0)
    rejoin = run_rejoin_demo()
    return (bounded, bounded_samples, unbounded, unbounded_samples,
            rejoin)


@pytest.mark.benchmark(group="memory_bound")
def test_memory_bound(benchmark):
    (bounded, bounded_samples, unbounded, unbounded_samples,
     rejoin) = benchmark.pedantic(run_all, rounds=1, iterations=1)

    bounded_tput = bounded.recorder.throughput_per_sec()
    unbounded_tput = unbounded.recorder.throughput_per_sec()
    rows = []
    for label, cluster, samples, tput in (
            (f"interval={INTERVAL}", bounded, bounded_samples,
             bounded_tput),
            ("unbounded", unbounded, unbounded_samples,
             unbounded_tput)):
        rows.append([
            label,
            cluster.recorder.total_delivered,
            f"{tput:7.0f}",
            max(samples),
            samples[-1],
            owner_change_payload(cluster),
        ])
    print_table(
        "Memory bound: saturated ezBFT, resident footprint "
        "(log+executor structure sizes, max across replicas)",
        ["config", "delivered", "req/s", "peak resident",
         "final resident", "oc payload"], rows)

    delivered = bounded.recorder.total_delivered
    assert delivered >= MIN_DELIVERED, (
        f"run too short to be meaningful: {delivered}")
    assert unbounded.recorder.total_delivered >= MIN_DELIVERED

    # 1. Bounded: peak footprint is O(interval + in-flight), an order
    # of magnitude below the unbounded baseline's final size...
    peak = max(bounded_samples)
    in_flight = CLIENTS * MAX_OUTSTANDING
    assert peak <= 10 * INTERVAL + 10 * in_flight, (
        f"resident footprint {peak} not O(interval)")
    assert peak <= max(unbounded_samples) / 5
    # ...and flat: the second half of the run grows nothing.
    half = len(bounded_samples) // 2
    warmed = max(bounded_samples[4:half])
    assert max(bounded_samples[half:]) <= 1.5 * warmed, (
        "footprint still growing in the second half of the run")
    # The unbounded baseline really does grow with history.
    assert unbounded_samples[-1] >= 4 * delivered

    # 2. Throughput within noise of the unbounded baseline.
    assert bounded_tput >= 0.9 * unbounded_tput, (
        f"checkpointing cost throughput: {bounded_tput:.0f} vs "
        f"{unbounded_tput:.0f}")

    # 3. Owner-change payloads stay flat vs growing with history.
    assert owner_change_payload(bounded) <= 4 * INTERVAL + in_flight
    assert owner_change_payload(unbounded) >= 0.9 * \
        unbounded.recorder.total_delivered

    # 4. The partitioned replica caught up via state transfer.
    lagging = rejoin.replicas["r3"]
    assert lagging.stats["state_transfers_installed"] >= 1
    assert lagging.executor.executed_count == 144
    states = {rid: r.statemachine.final_items()
              for rid, r in rejoin.replicas.items()}
    assert all(s == states["r0"] for s in states.values())


@pytest.mark.benchmark(group="memory_bound")
@pytest.mark.parametrize("protocol", [
    "pbft", "fab",
    pytest.param("zyzzyva", marks=pytest.mark.xfail(
        SMOKE, strict=True, raises=AssertionError,
        reason="Zyzzyva's primary executes as it orders, so it takes "
               "the backups' attestations of watermark W from behind "
               "its queue of in-flight requests (320 here, 10 smoke "
               "intervals); by then CheckpointStore.MAX_LOCAL (8) has "
               "pruned its capture of W, and nothing becomes stable "
               "there while load is on")),
])
def test_baseline_memory_bound(benchmark, protocol):
    cluster, samples = benchmark.pedantic(
        run_saturated, args=(INTERVAL, protocol), rounds=1, iterations=1)
    delivered = cluster.recorder.total_delivered
    print_table(
        f"Memory bound: saturated {protocol}, slots + executed record "
        f"(max across replicas)",
        ["config", "delivered", "req/s", "peak resident",
         "final resident"],
        [[f"interval={INTERVAL}", delivered,
          f"{cluster.recorder.throughput_per_sec():7.0f}",
          max(samples), samples[-1]]])
    # The run spans many intervals (a baseline's primary serves fewer
    # requests per second than ezBFT's four owners: PBFT delivers
    # ~8.5k in the full profile), each checkpoint stable everywhere.
    assert min(r.stats["checkpoints_stable"]
               for r in cluster.replicas.values()) >= 30
    # 5. Slots and executed record are O(interval + in-flight) and
    # flat while load is on.
    assert max(samples) <= 10 * INTERVAL + 10 * CLIENTS * MAX_OUTSTANDING
    loaded = samples[:int(DURATION_MS // SAMPLE_MS)]
    half = len(loaded) // 2
    assert max(loaded[half:]) <= 1.5 * max(loaded[:half]), (
        f"{protocol}: slots + record still growing under load: {loaded}")
