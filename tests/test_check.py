"""The safety oracle, :func:`repro.check.check`: one synthetic run per
named check, who counts as correct, the bug replays under
``tests/data/check/``, and the verdict the report and the CLI carry."""

import json
import os

import pytest

from repro.__main__ import main
from repro.check import Run, check, observe
from repro.cluster.builder import build_cluster
from repro.cluster.node import UNANSWERED, note_accepted
from repro.messages.base import SignedPayload
from repro.messages.ezbft import LogEntrySummary, NewOwner
from repro.protocols.registry import get_protocol
from repro.scenario.report import ExperimentReport
from repro.scenario.runner import ScenarioRunner
from repro.scenario.presets import preset
from repro.sim.latency import EXPERIMENT1, scaled_matrix
from repro.statemachine.base import Command, ExecutedLog
from repro.statemachine.counter import CounterMachine
from repro.statemachine.interference import KVInterference
from repro.statemachine.kvstore import KVStore
from repro.types import InstanceID

from helpers import GEO_REGIONS, faults, lan_cluster

DATA = os.path.join(os.path.dirname(__file__), "data", "check")

A1 = Command("a", 1, "put", "k", 1)
B1 = Command("b", 1, "put", "k", 2)
C1 = Command("c", 1, "put", "other", 3)


def synthetic(records=None, roots=None, accepted=None, pending=None,
              fault_log=(), protocol="ezbft", now_ms=1000.0):
    """Three replicas that applied A1, B1, C1 alike; a client accepted
    A1's result.  Each argument replaces one part."""
    if records is None:
        records = {rid: [(A1, "OK"), (B1, "OK"), (C1, "OK")]
                   for rid in ("r0", "r1", "r2")}
    return Run(
        spec=get_protocol(protocol),
        interference=KVInterference(),
        records={rid: ExecutedLog(entries)
                 for rid, entries in records.items()},
        roots=roots or dict.fromkeys(records, "root"),
        accepted=accepted if accepted is not None
        else {"a": ["OK"]},
        pending=pending or {},
        fault_log=list(fault_log),
        retry_timeout=100.0,
        now_ms=now_ms,
    )


def names(run):
    return sorted({violation["check"] for violation in check(run)})


def test_a_consistent_run_has_no_violations():
    assert check(synthetic()) == []


def swapped(rid="r1"):
    records = {r: [(A1, "OK"), (B1, "OK"), (C1, "OK")]
               for r in ("r0", "r1", "r2")}
    records[rid] = [(B1, "OK"), (A1, "OK"), (C1, "OK")]
    return records


BROKEN = {
    "exactly_once": lambda: synthetic(records={
        "r0": [(A1, "OK"), (B1, "OK"), (C1, "OK")],
        "r1": [(A1, "OK"), (B1, "OK"), (A1, "OK"), (C1, "OK")],
        "r2": [(A1, "OK"), (B1, "OK"), (C1, "OK")]}),
    "order": lambda: synthetic(records=swapped()),
    "state": lambda: synthetic(roots={"r0": "root", "r1": "root",
                                      "r2": "forked"}),
    "reply": lambda: synthetic(accepted={"a": ["ERROR: no"]}),
    "liveness": lambda: synthetic(pending={("d", 1): 600.0}),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_each_check_fires_alone_on_the_property_it_guards(name):
    assert names(BROKEN[name]()) == [name]


def test_client_outcomes_are_filed_by_timestamp():
    accepted = []
    note_accepted(accepted, 3, None)
    note_accepted(accepted, 1, "OK")
    assert accepted == ["OK", UNANSWERED, None]
    assert check(synthetic(accepted={"a": [UNANSWERED]})) == []
    assert names(synthetic(accepted={"a": [None]})) == ["reply"]


def test_non_interfering_reorders_are_allowed_only_when_leaderless():
    """A1 and C1 touch different keys: ezBFT may apply them in either
    order, a primary-based protocol orders every pair."""
    records = {"r0": [(A1, "OK"), (C1, "OK")],
               "r1": [(C1, "OK"), (A1, "OK")]}
    assert check(synthetic(records=records)) == []
    assert names(synthetic(records=records, protocol="pbft")) == ["order"]


def test_a_crashed_or_byzantine_replica_is_not_judged():
    run = synthetic(records=swapped("r2"))
    assert names(run) == ["order"]
    for event in ("CrashReplica", "KillProcess", "SwapByzantine"):
        assert check(synthetic(records=swapped("r2"),
                               fault_log=faults(event, "r2"))) == []


def test_a_recovered_replica_is_judged_again():
    log = faults("CrashReplica", "r2") + faults("RecoverReplica", "r2")
    assert names(synthetic(records=swapped("r2"), fault_log=log)) == \
        ["order"]
    log = faults("SwapByzantine", "r2") + faults("RecoverReplica", "r2")
    assert check(synthetic(records=swapped("r2"), fault_log=log)) == []


def test_a_silenced_client_is_not_owed_progress():
    run = synthetic(pending={("d", 1): 600.0},
                    fault_log=faults("CrashReplica", "d"))
    assert check(run) == []


def test_liveness_counts_from_the_last_fault():
    """Pending 800 ms, but the last fault was 100 ms ago: inside the
    bound of three 100 ms retry timeouts."""
    log = faults("CrashReplica", "r2")
    log[0]["applied_ms"] = 900.0
    run = synthetic(pending={("d", 1): 200.0}, fault_log=log)
    assert check(run) == []
    log[0]["applied_ms"] = 600.0
    assert names(synthetic(pending={("d", 1): 200.0},
                           fault_log=log)) == ["liveness"]


def test_replicas_after_different_checkpoints_are_not_compared_on_state():
    """A log cut at watermark 8 holds a different suffix: its root is
    not comparable with an uncut log's, however alike the entries."""
    run = synthetic(roots={"r0": "root", "r1": "root", "r2": "other"})
    run.records["r2"].watermark = 8
    assert check(run) == []


def test_a_run_round_trips_through_its_json_form():
    run = BROKEN["exactly_once"]()
    data = json.loads(json.dumps(run.to_dict()))
    assert Run.from_dict(data).to_dict() == run.to_dict()
    assert check(Run.from_dict(data)) == check(run)


# ----------------------------------------------------------------------
# The record
# ----------------------------------------------------------------------
def test_the_record_is_cut_at_the_length_a_capture_noted():
    record = ExecutedLog([(A1, "OK"), (B1, "OK")])
    record.mark(10)
    record.entries.append((C1, "OK"))
    record.mark(20)
    assert record.cut(10) == [(A1, "OK"), (B1, "OK")]
    assert (record.entries, record.watermark) == ([(C1, "OK")], 10)
    assert record.cut(15) == []  # never captured here: nothing to cut
    assert record.cut(20) == [(C1, "OK")]
    assert (record.entries, record.watermark) == ([], 20)


def test_speculation_is_not_recorded():
    sm = KVStore()
    sm.apply_speculative(A1)
    sm.rollback_speculative()
    sm.apply(C1)
    assert sm.record.entries == [(C1, "OK")]


# ----------------------------------------------------------------------
# Bug replays (tests/data/check/README.md)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fixture, expected", [
    ("6fce19c_pbft_slow_wan_incr.json", ["exactly_once"]),
    ("6fce19c_fab_slow_wan_incr.json", ["exactly_once"]),
    ("2aa6c3f_proofless_new_owner.json", ["state"]),
])
def test_replays_of_old_bugs_are_flagged(fixture, expected):
    with open(os.path.join(DATA, fixture), encoding="utf-8") as fh:
        data = json.load(fh)
    assert names(Run.from_dict(data)) == expected


@pytest.mark.parametrize("protocol", ["pbft", "fab"])
def test_the_slow_wan_retry_replay_is_safe_now(protocol):
    cluster = build_cluster(protocol, GEO_REGIONS,
                            scaled_matrix(EXPERIMENT1, 8),
                            statemachine_factory=CounterMachine)
    client = cluster.add_client("c0", region="sydney")
    client.submit(client.next_command("incr", "k", 1))
    cluster.run(until=60_000.0)
    assert client.accepted == ["OK"]
    assert check(observe(cluster)) == []


def test_the_proofless_new_owner_replay_is_safe_now():
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local", target_replica="r0")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    evil = LogEntrySummary(
        instance=InstanceID("r0", 1),
        command=Command("cx", 1, "put", "pwned", "yes"), deps=(), seq=1,
        status="committed", owner_number=3, proof_kind="commit")
    cluster.replicas["r1"].on_message("r3", SignedPayload.create(
        NewOwner(new_owner="r3", suspect="r0", new_owner_number=3,
                 safe_entries=(evil,), proof=()),
        cluster.replicas["r3"].keypair))
    cluster.run_until_idle()
    cx = cluster.add_client("cx", "local", target_replica="r0")
    cx.submit(cx.next_command("put", "pwned", "no"))
    cluster.run_until_idle()
    assert check(observe(cluster, faults("SwapByzantine", "r3"))) == []
    assert cluster.replicas["r1"].statemachine.get_final("pwned") == "no"


# ----------------------------------------------------------------------
# The verdict in the report and the CLI
# ----------------------------------------------------------------------
def test_every_report_carries_the_verdict_and_needs_it_back():
    report = ScenarioRunner("sim").run(preset("crash-recovery"))
    assert report.violations == []
    data = report.to_dict()
    assert data["violations"] == []
    del data["violations"]
    with pytest.raises(KeyError):
        ExperimentReport.from_dict(data)


def test_run_prints_each_violation_and_exits_1(monkeypatch, capsys):
    found = [{"check": "order", "detail": "r0 and r1 disagree"}]
    monkeypatch.setattr("repro.scenario.runner.check", lambda run: found)
    assert main(["run", "--preset", "smoke", "--backend", "sim",
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "violation [sim] order: r0 and r1 disagree" in err
