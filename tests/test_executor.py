"""Unit tests for the dependency-graph final-execution engine."""

import pytest

from repro.core.executor import DependencyExecutor
from repro.core.instance import EntryStatus, LogEntry
from repro.statemachine.base import Command, StateSnapshot
from repro.statemachine.kvstore import KVStore
from repro.types import InstanceID


def committed(owner, slot, seq, deps=(), key="k", value="v", client=None,
              ts=None, op="put"):
    client = client or f"c-{owner}-{slot}"
    ts = ts if ts is not None else 1
    return LogEntry(
        instance=InstanceID(owner, slot), owner_number=0,
        command=Command(client_id=client, timestamp=ts, op=op, key=key,
                        value=value),
        deps=tuple(deps), seq=seq, status=EntryStatus.COMMITTED)


def index_of(*entries):
    return {e.instance: e for e in entries}


def test_executes_committed_entry():
    kv = KVStore()
    executor = DependencyExecutor(kv)
    e = committed("r0", 0, 1)
    done = executor.try_execute(index_of(e))
    assert [d.instance for d in done] == [e.instance]
    assert e.status == EntryStatus.EXECUTED
    assert e.final_result == "OK"
    assert kv.get_final("k") == "v"


def test_waits_for_uncommitted_dependency():
    kv = KVStore()
    executor = DependencyExecutor(kv)
    dep_iid = InstanceID("r1", 0)
    e = committed("r0", 0, 2, deps=[dep_iid])
    assert executor.try_execute(index_of(e)) == []
    assert e.status == EntryStatus.COMMITTED
    # Dependency commits later; both run.
    dep = committed("r1", 0, 1)
    done = executor.try_execute(index_of(e, dep))
    assert {d.instance for d in done} == {e.instance, dep.instance}


def test_dependency_executes_first():
    kv = KVStore()
    executor = DependencyExecutor(kv)
    dep = committed("r1", 0, 1, value="first")
    e = committed("r0", 0, 2, deps=[dep.instance], value="second")
    executor.try_execute(index_of(e, dep))
    order = [command for command, _ in kv.record.entries]
    assert order == [dep.command, e.command]
    assert kv.get_final("k") == "second"


def test_cycle_broken_by_seq_then_replica_id():
    kv = KVStore()
    executor = DependencyExecutor(kv)
    a = committed("r0", 0, 2, deps=[InstanceID("r1", 0)], value="a")
    b = committed("r1", 0, 2, deps=[InstanceID("r0", 0)], value="b")
    executor.try_execute(index_of(a, b))
    order = [command for command, _ in kv.record.entries]
    # Equal seq -> replica id r0 before r1; so "b" (later) wins the key.
    assert order == [a.command, b.command]
    assert kv.get_final("k") == "b"


def test_cycle_lower_seq_first():
    kv = KVStore()
    executor = DependencyExecutor(kv)
    a = committed("r9", 0, 1, deps=[InstanceID("r1", 0)], value="low")
    b = committed("r1", 0, 2, deps=[InstanceID("r9", 0)], value="high")
    executor.try_execute(index_of(a, b))
    order = [command for command, _ in kv.record.entries]
    assert order == [a.command, b.command]


def test_executed_dependency_satisfies():
    kv = KVStore()
    executor = DependencyExecutor(kv)
    dep = committed("r1", 0, 1)
    executor.try_execute(index_of(dep))
    e = committed("r0", 0, 2, deps=[dep.instance])
    done = executor.try_execute(index_of(e, dep))
    assert [d.instance for d in done] == [e.instance]


def test_duplicate_command_not_reapplied():
    """Same logical command committed in two instances executes once."""
    kv = KVStore()
    executor = DependencyExecutor(kv)
    first = committed("r0", 0, 1, client="cx", ts=1, op="incr", key="n",
                      value=1)
    executor.try_execute(index_of(first))
    assert kv.get_final("n") == 1
    dup = committed("r1", 0, 1, client="cx", ts=1, op="incr", key="n",
                    value=1)
    executor.try_execute(index_of(first, dup))
    assert kv.get_final("n") == 1  # not double-applied
    assert dup.status == EntryStatus.EXECUTED
    assert dup.final_result == first.final_result


def test_noop_fills_slot_without_state_change():
    kv = KVStore()
    executor = DependencyExecutor(kv)
    noop = LogEntry(instance=InstanceID("r0", 0), owner_number=1,
                    command=Command.noop(), deps=(), seq=0,
                    status=EntryStatus.COMMITTED)
    done = executor.try_execute(index_of(noop))
    assert len(done) == 1
    assert kv.final_items() == {}


def test_transitive_block():
    """c depends on b depends on (uncommitted) a: neither b nor c runs."""
    kv = KVStore()
    executor = DependencyExecutor(kv)
    b = committed("r1", 0, 2, deps=[InstanceID("r0", 0)])
    c = committed("r2", 0, 3, deps=[b.instance])
    assert executor.try_execute(index_of(b, c)) == []


def test_identical_runs_produce_identical_histories():
    def run():
        kv = KVStore()
        executor = DependencyExecutor(kv)
        a = committed("r0", 0, 2, deps=[InstanceID("r1", 0)], value="a")
        b = committed("r1", 0, 2, deps=[InstanceID("r0", 0)], value="b")
        c = committed("r2", 0, 5, deps=[a.instance, b.instance],
                      value="c")
        executor.try_execute(index_of(a, b, c))
        return kv.record.entries, kv.final_items()

    assert run() == run()


def test_result_of_and_has_executed():
    kv = KVStore()
    executor = DependencyExecutor(kv)
    e = committed("r0", 0, 1, client="cq", ts=3)
    executor.try_execute(index_of(e))
    assert executor.has_executed(("cq", 3))
    assert executor.result_of(("cq", 3)) == "OK"
    assert not executor.has_executed(("cq", 4))


# ----------------------------------------------------------------------
# Checkpoint truncation and state-transfer install
# ----------------------------------------------------------------------
def test_truncate_gcs_bookkeeping_but_keeps_dedup():
    kv = KVStore()
    executor = DependencyExecutor(kv)
    entries = [committed("r0", slot, slot + 1, client="cq", ts=slot + 1,
                         key=f"k{slot}")
               for slot in range(6)]
    executor.try_execute(index_of(*entries[:4]))
    kv.record.mark(4)  # a checkpoint captured after four executions
    executor.try_execute(index_of(*entries))
    assert executor.executed_count == 6
    executor.truncate({"r0": 4}, kv.record.cut(4))
    # Absolute accounting is preserved; resident structures shrink.
    assert executor.executed_count == 6
    assert kv.record.watermark == 4
    assert [c.timestamp for c, _ in kv.record.entries] == [5, 6]
    assert executor.executed == {InstanceID("r0", 4), InstanceID("r0", 5)}
    # Exactly-once dedup still covers truncated commands.
    for ts in range(1, 7):
        assert executor.has_executed(("cq", ts))
    assert not executor.has_executed(("cq", 7))
    # The latest result per client is retained (reply-cache contract).
    assert executor.result_of(("cq", 6)) == "OK"


def test_truncated_instances_count_as_executed_dependencies():
    kv = KVStore()
    executor = DependencyExecutor(kv)
    executor.truncate({"r0": 3}, [])
    # An entry depending on a GC'd (durably executed) instance runs.
    e = committed("r1", 0, 5, deps=[InstanceID("r0", 1)])
    done = executor.try_execute(index_of(e))
    assert [d.instance for d in done] == [e.instance]


def test_install_fast_forwards_past_snapshot():
    kv = KVStore()
    executor = DependencyExecutor(kv)
    kv.restore(StateSnapshot.checked([{"k0": "transferred"}]))
    executor.install(
        10, {"r0": 4},
        client_floors={"cq": 8}, client_sparse={"cq": [10]},
        executed_above=[InstanceID("r0", 5)],
        client_results={"cq": "OK"})
    # The latest result per client survives the transfer, so a
    # duplicate commit of the client's newest command replies with the
    # real result, not None.
    assert executor.result_of(("cq", 10)) == "OK"
    assert executor.executed_count == 10
    assert executor.has_executed(("cq", 8))
    assert not executor.has_executed(("cq", 9))
    assert executor.has_executed(("cq", 10))
    assert executor.is_executed_instance(InstanceID("r0", 2))
    assert executor.is_executed_instance(InstanceID("r0", 5))
    assert not executor.is_executed_instance(InstanceID("r0", 6))
    # The floor advances contiguously as the gap fills.
    e = committed("r1", 0, 1, client="cq", ts=9)
    executor.try_execute(index_of(e))
    assert executor.has_executed(("cq", 9))
    floors, sparse = executor.client_progress()
    assert floors["cq"] == 10
    assert "cq" not in sparse
