"""Pluggable state machines: CounterMachine/BankMachine units plus the
``statemachine_factory`` extension point of ``build_cluster``."""

import pytest

from helpers import GEO_REGIONS, DeliveryLog, lan_cluster

from repro.cluster.builder import build_cluster
from repro.protocols.registry import available_protocols
from repro.sim.latency import EXPERIMENT1, scaled_matrix
from repro.sim.network import CpuModel
from repro.statemachine.bank import BankMachine
from repro.statemachine.base import Command
from repro.statemachine.counter import CounterMachine
from repro.statemachine.kvstore import KVStore


def cmd(op, key="k", value=None, ts=1):
    return Command(client_id="c0", timestamp=ts, op=op, key=key,
                   value=value)


# ----------------------------------------------------------------------
# CounterMachine
# ----------------------------------------------------------------------
def test_counter_incr_and_get():
    sm = CounterMachine()
    assert sm.apply(cmd("incr", value=3)) == "OK"
    assert sm.apply(cmd("incr")) == "OK"  # default delta 1
    assert sm.apply(cmd("get")) == 4
    assert sm.get_final("k") == 4
    assert sm.get_final("missing") == 0


def test_counter_speculative_overlay_and_rollback():
    sm = CounterMachine()
    sm.apply(cmd("incr", value=10))
    assert sm.apply_speculative(cmd("incr", value=5)) == "OK"
    assert sm.get_speculative("k") == 15
    assert sm.get_final("k") == 10  # final state untouched
    sm.rollback_speculative()
    assert sm.get_speculative("k") == 10
    assert sm.rollbacks == 1


def test_counter_snapshot_restore():
    sm = CounterMachine()
    sm.apply(cmd("incr", value=7))
    snap = sm.snapshot()
    sm.apply(cmd("incr", value=1))
    sm.apply_speculative(cmd("incr", value=99))
    sm.restore(snap)
    assert sm.final_items() == {"k": 7}
    assert sm.speculative_items() == {"k": 7}


def test_counter_rejects_unknown_ops_and_bad_deltas():
    sm = CounterMachine()
    sm.apply(cmd("incr", value=3))
    assert sm.apply(cmd("put", value="x")) == \
        "ERROR: CounterMachine does not support op 'put'"
    assert sm.apply(cmd("incr", value="not-an-int")) == \
        "ERROR: incr delta must be int, got 'not-an-int'"
    assert sm.apply(cmd("noop")) is None
    assert sm.final_items() == {"k": 3}


# ----------------------------------------------------------------------
# BankMachine
# ----------------------------------------------------------------------
def test_bank_deposit_withdraw_balance():
    sm = BankMachine()
    assert sm.apply(cmd("deposit", key="acct", value=100)) == "OK"
    assert sm.apply(cmd("withdraw", key="acct", value=30)) == "OK"
    assert sm.apply(cmd("balance", key="acct")) == 70
    assert sm.get_final("acct") == 70


def test_bank_rejects_overdraft_without_state_change():
    sm = BankMachine()
    sm.apply(cmd("deposit", key="acct", value=10))
    assert sm.apply(cmd("withdraw", key="acct", value=11)) == \
        "INSUFFICIENT"
    assert sm.get_final("acct") == 10
    assert sm.rejected_withdrawals == 1


def test_bank_speculative_overlay():
    sm = BankMachine()
    sm.apply(cmd("deposit", key="a", value=50))
    assert sm.apply_speculative(cmd("withdraw", key="a", value=20)) == \
        "OK"
    assert sm.get_speculative("a") == 30
    assert sm.get_final("a") == 50
    sm.rollback_speculative()
    assert sm.get_speculative("a") == 50


def test_bank_validates_amounts():
    sm = BankMachine()
    sm.apply(cmd("deposit", key="a", value=5))
    assert sm.apply(cmd("deposit", key="a", value=-5)) == \
        "ERROR: amount must be a non-negative int, got -5"
    assert sm.apply(cmd("deposit", key="a", value="ten")) == \
        "ERROR: amount must be a non-negative int, got 'ten'"
    assert sm.apply(cmd("put", key="a", value=1)) == \
        "ERROR: BankMachine does not support op 'put'"
    assert sm.final_items() == {"a": 5}


# ----------------------------------------------------------------------
# statemachine_factory plumbing
# ----------------------------------------------------------------------
def test_build_cluster_with_counter_machine():
    """The acceptance-criteria scenario: a counter service on ezBFT with
    zero builder edits."""
    cluster = lan_cluster("ezbft", cpu=CpuModel.free(),
                          statemachine_factory=CounterMachine)
    log = DeliveryLog()
    client = cluster.add_client("c0", region="local",
                                on_delivery=log.hook("c0"))
    for _ in range(3):
        client.submit(client.next_command("incr", "hits", 2))
    cluster.run_until_idle()
    assert log.results == ["OK"] * 3
    for sm in cluster.statemachines().values():
        assert isinstance(sm, CounterMachine)
        assert sm.get_speculative("hits") == 6


@pytest.mark.parametrize("protocol", available_protocols())
def test_bank_machine_on_every_protocol(protocol):
    cluster = lan_cluster(protocol, cpu=CpuModel.free(),
                          statemachine_factory=BankMachine)
    log = DeliveryLog()
    client = cluster.add_client("c0", region="local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("deposit", "acct", 100))
    cluster.run_until_idle()
    client.submit(client.next_command("withdraw", "acct", 40))
    cluster.run_until_idle()
    assert log.results == ["OK", "OK"]
    balances = {
        rid: sm.get_speculative("acct")
        for rid, sm in cluster.statemachines().items()
    }
    agreeing = [b for b in balances.values() if b == 60]
    assert len(agreeing) >= cluster.config.slow_quorum_size, balances


# ----------------------------------------------------------------------
# A command the application rejects
# ----------------------------------------------------------------------
@pytest.mark.parametrize("machine, bad, good", [
    (KVStore, ("incr", "k", "five"), ("put", "k", 1)),
    (KVStore, ("frobnicate", "k", None), ("put", "k", 1)),
    (CounterMachine, ("put", "k", 1), ("incr", "k", 1)),
], ids=["non-int-delta", "unknown-op", "op-outside-counter"])
@pytest.mark.parametrize("protocol", available_protocols())
def test_rejected_command_is_an_error_result(protocol, machine, bad,
                                             good):
    """Every replica answers a command its application rejects with the
    same ``"ERROR: ..."`` result, so the client gets an f+1/fast quorum
    of it and the replicas keep serving."""
    cluster = lan_cluster(protocol, cpu=CpuModel.free(),
                          statemachine_factory=machine)
    log = DeliveryLog()
    first = cluster.add_client("c0", region="local",
                               on_delivery=log.hook("c0"))
    second = cluster.add_client("c1", region="local",
                                on_delivery=log.hook("c1"))
    first.submit(first.next_command(*bad))
    cluster.run_until_idle()
    second.submit(second.next_command(*good))
    cluster.run_until_idle()
    assert len(log.results) == 2
    assert log.results[0].startswith("ERROR: ")
    assert log.results[1] == "OK"
    assert first.stats["retries"] == second.stats["retries"] == 0


# ----------------------------------------------------------------------
# Exactly-once across protocols
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factor", [6, 8, 12])
@pytest.mark.parametrize("protocol", available_protocols())
def test_retried_command_applies_once_on_slow_wan(protocol, factor):
    """Under a WAN slowed ×6–×12 (what a ``LatencyShift`` produces) the
    client's retry reaches the primary before the original executes and
    is ordered a second time; the second slot must not apply it again.
    ezBFT's speculative overlay reads through to final state, so every
    protocol is read through ``get_speculative``."""
    cluster = build_cluster(protocol, GEO_REGIONS,
                            scaled_matrix(EXPERIMENT1, factor),
                            statemachine_factory=CounterMachine)
    log = DeliveryLog()
    client = cluster.add_client("c0", region="sydney",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("incr", "k", 1))
    cluster.run(until=60_000.0)
    assert log.results == ["OK"]
    for rid, sm in cluster.statemachines().items():
        assert sm.get_speculative("k") == 1, (rid, factor)


@pytest.mark.parametrize("protocol", available_protocols())
def test_older_pipelined_request_is_not_dropped(protocol):
    """A pipelining client's older request arriving after a newer one
    executed is unseen, not stale: it is ordered and delivered without
    a retry."""
    cluster = lan_cluster(protocol)
    log = DeliveryLog()
    client = cluster.add_client("c0", region="local",
                                on_delivery=log.hook("c0"))
    t1 = client.next_command("put", "a", 1)
    t2 = client.next_command("put", "b", 2)
    client.submit(t2)
    cluster.run(until=50.0)
    client.submit(t1)  # as if its first send had been lost
    cluster.run(until=5_000.0)
    assert sorted(log.results) == ["OK", "OK"]
    assert client.stats["retries"] == 0
    assert client.in_flight == 0
