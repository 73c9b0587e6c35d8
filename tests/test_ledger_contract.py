"""The names the bench ledger resolves in ``src/``, pinned in tier-1.

``benchmarks/ledger/`` is frozen (BENCHMARK.json lists it under
``paths``) and reaches into the program by name:
``benchmarks/ledger/spans.py::TARGETS`` wraps functions it finds with
``vars(cls)[name]`` -- so a method must be defined *in that class's
body*, not inherited or delegated away -- and
``benchmarks/ledger/workloads.py`` attaches the seams and reads the
counters below.  A refactor that moves one of them fails here, in
tier-1, instead of in the benchmark driver.  Nothing from
``benchmarks/`` is imported: this is the program's half of the
contract.
"""

import pytest

from repro.core.client import EzBFTClient
from repro.core.executor import DependencyExecutor
from repro.core.replica import EzBFTReplica
from repro.storage.store import RecoverySummary, ReplicaStorage

from helpers import lan_cluster


@pytest.mark.parametrize("cls, names", [
    (EzBFTReplica, ["on_message"]),
    (EzBFTClient, ["submit", "submit_batch", "on_message"]),
    (DependencyExecutor, ["try_execute"]),
    (ReplicaStorage, ["append_entry", "append_attest", "save_snapshot",
                      "rotate", "prune", "replay_records"]),
])
def test_span_targets_are_defined_in_the_class_body(cls, names):
    for name in names:
        assert callable(vars(cls).get(name)), f"{cls.__name__}.{name}"


def test_replica_seams_and_counters_the_workloads_use(tmp_path):
    replica = lan_cluster().replicas["r0"]
    # Seams: attached by name on the replica object.
    for method in ("attach_storage", "recover_from_storage",
                   "attach_tracer"):
        assert callable(getattr(replica, method))
    assert "instruments" in vars(EzBFTReplica)  # plain assignment swaps it
    # Counters read after a run.
    assert replica.batcher.items_added == 0
    assert replica.batcher.batches_flushed == 0
    assert replica.stats["owner_changes_started"] == 0
    assert replica.executor.executed_count == 0
    assert replica.executor._deferred == {}
    # The timed restart: attach, recover, read ``records_replayed``.
    storage = ReplicaStorage(str(tmp_path), "r0")
    replica.attach_storage(storage)
    summary = replica.recover_from_storage()
    storage.close()
    assert isinstance(summary, RecoverySummary)
    assert summary.records_replayed == 0
