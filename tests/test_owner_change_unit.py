"""Unit tests for owner-change internals: safe-history selection
(Conditions 1 and 2) and vote accounting."""

import pytest

from repro.core.instance import EntryStatus
from repro.messages.base import SignedPayload
from repro.messages.ezbft import (
    LogEntrySummary,
    OwnerChange,
    SpecOrder,
    StartOwnerChange,
)
from repro.statemachine.base import Command
from repro.types import InstanceID

from helpers import lan_cluster


def summary(slot, command, owner_number=1, kind="spec-order",
            status="spec-ordered"):
    return LogEntrySummary(
        instance=InstanceID("r1", slot), command=command, deps=(),
        seq=1, status=status, owner_number=owner_number,
        proof_kind=kind)


def owner_change_msg(sender, entries):
    return OwnerChange(sender=sender, suspect="r1", new_owner_number=2,
                       entries=tuple(entries))


CMD_A = Command(client_id="ca", timestamp=1, op="put", key="k",
                value="a")
CMD_B = Command(client_id="cb", timestamp=1, op="put", key="k",
                value="b")


@pytest.fixture()
def manager():
    cluster = lan_cluster()
    return cluster.replicas["r2"].owner_changes


def test_condition1_commit_certificate_wins(manager):
    messages = [
        owner_change_msg("r0", [summary(0, CMD_A, kind="commit",
                                        status="committed")]),
        owner_change_msg("r3", [summary(0, CMD_B)]),  # spec-order only
    ]
    safe = manager._select_safe_history(messages)
    assert len(safe) == 1
    assert safe[0].command == CMD_A


def test_condition1_highest_owner_number_among_commits(manager):
    messages = [
        owner_change_msg("r0", [summary(0, CMD_A, owner_number=1,
                                        kind="commit")]),
        owner_change_msg("r3", [summary(0, CMD_B, owner_number=3,
                                        kind="commit")]),
    ]
    safe = manager._select_safe_history(messages)
    assert safe[0].command == CMD_B


def test_condition2_requires_weak_quorum_of_matching_specorders(
        manager):
    # f+1 = 2 matching reports -> safe.
    messages = [
        owner_change_msg("r0", [summary(0, CMD_A)]),
        owner_change_msg("r3", [summary(0, CMD_A)]),
    ]
    safe = manager._select_safe_history(messages)
    assert len(safe) == 1
    assert safe[0].command == CMD_A


def test_condition2_disagreement_yields_noop(manager):
    # Two reports that disagree; a later slot IS safe, so slot 0 must be
    # finalized as a no-op to keep the history contiguous.
    messages = [
        owner_change_msg("r0", [summary(0, CMD_A), summary(1, CMD_B)]),
        owner_change_msg("r3", [summary(0, CMD_B), summary(1, CMD_B)]),
    ]
    safe = manager._select_safe_history(messages)
    assert len(safe) == 2
    assert safe[0].command.is_noop
    assert safe[1].command == CMD_B


def test_empty_views_give_empty_history(manager):
    messages = [owner_change_msg("r0", []),
                owner_change_msg("r3", [])]
    assert manager._select_safe_history(messages) == ()


def test_gap_below_safe_slot_filled_with_noop(manager):
    messages = [
        owner_change_msg("r0", [summary(2, CMD_A)]),
        owner_change_msg("r3", [summary(2, CMD_A)]),
    ]
    safe = manager._select_safe_history(messages)
    assert [s.instance.slot for s in safe] == [0, 1, 2]
    assert safe[0].command.is_noop and safe[1].command.is_noop
    assert safe[2].command == CMD_A


def test_duplicate_votes_counted_once():
    cluster = lan_cluster()
    replica = cluster.replicas["r2"]
    msg = StartOwnerChange(sender="r0", suspect="r1", owner_number=1)
    replica.owner_changes.on_start_owner_change(msg)
    replica.owner_changes.on_start_owner_change(msg)  # duplicate
    cluster.run_until_idle()
    # One distinct voter < f+1: no commitment to the change.
    assert not replica.spaces["r1"].frozen


def test_stale_owner_number_vote_ignored():
    cluster = lan_cluster()
    replica = cluster.replicas["r2"]
    stale = StartOwnerChange(sender="r0", suspect="r1",
                             owner_number=99)  # space is at 1
    replica.owner_changes.on_start_owner_change(stale)
    assert ("r1", 99) not in replica.owner_changes._votes


def test_self_suspicion_is_refused():
    cluster = lan_cluster()
    replica = cluster.replicas["r1"]
    replica.owner_changes.suspect("r1")
    cluster.run_until_idle()
    assert replica.stats["owner_changes_started"] == 0


def test_new_owner_message_from_wrong_replica_rejected():
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local", target_replica="r1")
    client.submit(client.next_command("put", "k", "v"))
    cluster.run_until_idle()
    from repro.messages.ezbft import NewOwner

    replica = cluster.replicas["r0"]
    # Owner number 2 maps to r2; r3 claiming it must be ignored.
    bogus = NewOwner(new_owner="r3", suspect="r1", new_owner_number=2,
                     safe_entries=())
    before = replica.stats["invalid_messages"]
    replica.on_message("r3", SignedPayload.create(
        bogus, cluster.replicas["r3"].keypair))
    assert replica.stats["invalid_messages"] == before + 1
    assert not replica.spaces["r1"].frozen
    assert replica.spaces["r1"].owner_number == 1
