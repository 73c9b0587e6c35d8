#!/usr/bin/env python3
"""Byzantine-failure walkthrough as declarative fault schedules
(paper Sections IV-D / IV-E).

Scenario 1 -- an equivocating command-leader: the Virginia replica
sends conflicting SPECORDERs for the same request.  The client catches it
red-handed (the signed SPECORDERs become the proof of misbehavior), the
correct replicas freeze its instance space and hand it to the next
owner, and the client's commands still commit.

Scenario 2 -- a crash and recovery: the Tokyo replica fail-stops under
its own client's load, the retry -> RESENDREQ -> suspicion-timeout path
triggers an owner change, and the replica later rejoins.

Both are presets: the fault schedule is data (`SwapByzantine`,
`CrashReplica`, `RecoverReplica` events on a timeline), not bespoke
wiring, so the same specs run from the CLI:

    python -m repro run --preset equivocation
    python -m repro run --preset crash-recovery

Run:  python examples/byzantine_recovery.py
"""

from repro import ScenarioRunner, preset


def banner(text: str) -> None:
    print("\n" + "=" * 64)
    print(text)
    print("=" * 64)


def main() -> None:
    runner = ScenarioRunner()

    banner("Scenario 1: equivocating command-leader (r0, Virginia)")
    report = runner.run(preset("equivocation"))
    print(report.format_text())
    print(f"\nproofs of misbehavior sent: "
          f"{report.client_stats['poms_sent']}")
    print(f"owner changes: {report.owner_changes}")
    assert report.delivered == 4          # every command still commits
    assert report.client_stats["poms_sent"] >= 1
    assert report.owner_changes >= 1      # r0's space changed hands

    banner("Scenario 2: crash (r1) -> owner change -> recover")
    report = runner.run(preset("crash-recovery"))
    print(report.format_text())
    assert report.delivered == 6
    assert report.owner_changes >= 1
    assert report.client_stats["retries"] >= 1
    # With one replica dead the 3f+1 fast quorum is unreachable: ezBFT
    # degrades gracefully to the 2f+1 slow path, like Zyzzyva.
    assert report.fast_path_ratio < 1.0

    print("\nboth fault schedules recovered with f=1 faulty replica, "
          "as the protocol guarantees for N=4.")


if __name__ == "__main__":
    main()
