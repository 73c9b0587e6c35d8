#!/usr/bin/env python3
"""Quickstart: declare a scenario, run it, read the report.

The Scenario API is the one entrypoint for experiments: pick a protocol
and topology, describe the workload, and the runner wires the cluster,
drives the clients, and hands back a structured report.  This is the
paper's Experiment-1 deployment (four AWS regions, latencies calibrated
against Table I) under a small closed-loop load.

Run:  python examples/quickstart.py
"""

from repro import Scenario, ScenarioRunner, WorkloadSpec


def main() -> None:
    scenario = Scenario(
        name="quickstart",
        protocol="ezbft",
        replica_regions=("virginia", "tokyo", "mumbai", "sydney"),
        latency="experiment1",
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=8,
                              warmup_requests=1),
        seed=42,
    )

    # The same scenario compiles onto the deterministic WAN simulator
    # (here) or real TCP sockets (ScenarioRunner(backend="tcp")).
    report, cluster = ScenarioRunner().run_with_cluster(scenario)
    print(report.format_text())

    print("\nper-region mean latency (ms):")
    for phase in report.phases:
        for region, summary in sorted(phase.per_region.items()):
            print(f"  {region:10s} {summary.mean:7.1f}  "
                  f"(p99 {summary.p99:.1f})")

    # Every report carries its safety verdict (repro.check): no
    # command applied twice or in a different order at two replicas,
    # equal state wherever the same commands ran, and every client
    # holding the result the replicas applied.
    assert report.violations == [], report.violations
    print(f"\nall {len(cluster.replicas)} replicas consistent; "
          f"{cluster.network.messages_delivered} messages simulated in "
          f"{cluster.sim.now:.0f}ms of virtual time")

    # ezBFT is leaderless: everything committed on the 3-step fast path.
    assert report.fast_path_ratio == 1.0
    print(f"fast-path ratio: {report.fast_path_ratio:.0%}")


if __name__ == "__main__":
    main()
