"""The final state as copy-on-write leaves with cached digests.

Two claims are pinned here.  The cache is the definition: a captured
root always equals one recomputed from scratch, whatever mix of
execution, speculation, rollback, capture and restore led there.  And
a capture costs what changed: with 100k keys preloaded, a capture
rehashes about as much as it does over an empty store.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.statemachine import base
from repro.statemachine.bank import BankMachine
from repro.statemachine.base import (
    KEYS_PER_LEAF,
    Command,
    StateSnapshot,
    leaf_count,
    leaf_index,
)
from repro.statemachine.counter import CounterMachine
from repro.statemachine.kvstore import KVStore

#: (machine, its ops, the op that writes a fresh key).
MACHINES = [
    pytest.param(KVStore, ("put", "get", "incr"), "put", id="KVStore"),
    pytest.param(CounterMachine, ("incr", "get"), "incr",
                 id="CounterMachine"),
    pytest.param(BankMachine, ("deposit", "withdraw", "balance"),
                 "deposit", id="BankMachine"),
]

#: Keys drawn from a pool larger than a few leaves hold.
KEYS = st.integers(min_value=0, max_value=47).map(lambda i: f"k{i}")

#: What happens at a point of a history, before its command applies.
EVENTS = ("none", "none", "capture", "speculate", "restore_own",
          "rewind", "transfer")


def commands_over(ops):
    return st.builds(Command, client_id=st.just("c"),
                     timestamp=st.integers(min_value=1, max_value=9),
                     op=st.sampled_from(ops), key=KEYS,
                     value=st.integers(min_value=0, max_value=5))


def root_from_scratch(items):
    """The state root of ``items`` by the definition alone: partition
    into ``leaf_count`` leaves by ``leaf_index`` and digest them all."""
    count = leaf_count(len(items))
    leaves = [{} for _ in range(count)]
    for key, value in items.items():
        leaves[leaf_index(key, count)][key] = value
    return StateSnapshot.checked(leaves).root


def shipped(snapshot):
    """``snapshot`` as a peer or the disk hands it back: its leaves
    through JSON, then checked."""
    return StateSnapshot.checked(json.loads(json.dumps(list(snapshot))))


def run_history(machine, commands, history, speculation):
    """Apply ``commands`` to a fresh ``machine``, doing ``history[i]``
    before command ``i`` (and at the end); returns point -> root of
    every capture, each checked against the definition."""
    sm = machine()
    captured = {}  # point -> snapshot

    def capture(point):
        snap = sm.snapshot()
        assert len(snap) == leaf_count(len(sm.final_items()))
        assert snap.root == StateSnapshot.checked(list(snap)).root
        assert snap.root == root_from_scratch(sm.final_items())
        captured[point] = snap
        return snap

    for point, event in enumerate(history):
        if event == "capture":
            capture(point)
        elif event == "speculate":
            for command in speculation:
                sm.apply_speculative(command)
            sm.rollback_speculative()
        elif event == "restore_own":
            # Adopt our own state back, as a restart from disk would.
            sm.restore(shipped(capture(point)))
        elif event == "rewind" and captured:
            # Go back to an earlier capture and execute forward again.
            earlier = max(captured)
            sm.restore(captured[earlier])
            for command in commands[earlier:point]:
                sm.apply(command)
        elif event == "transfer":
            # Install the same point from a peer that got there alone.
            peer = machine()
            for command in commands[:point]:
                peer.apply(command)
            sm.restore(shipped(peer.snapshot()))
        if point < len(commands):
            sm.apply(commands[point])
    capture(len(commands))
    return {point: snap.root for point, snap in captured.items()}


@pytest.mark.parametrize("machine, ops, writer", MACHINES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cached_root_is_the_definition(machine, ops, writer, data):
    # A fill of fresh keys first, so every history crosses a growth of
    # the leaf count (1 -> 2 -> 4 leaves) somewhere in the middle.
    fill = [Command(client_id="c", timestamp=1, op=writer,
                    key=f"fill{i}", value=1)
            for i in range(2 * KEYS_PER_LEAF + 1)]
    drawn = data.draw(st.lists(commands_over(ops), max_size=40))
    commands = drawn[:len(drawn) // 2] + fill + drawn[len(drawn) // 2:]
    speculation = data.draw(st.lists(commands_over(ops), max_size=6))
    events = st.lists(st.sampled_from(EVENTS), min_size=len(commands) + 1,
                      max_size=len(commands) + 1)
    first = run_history(machine, commands, data.draw(events), speculation)
    second = run_history(machine, commands, data.draw(events),
                         speculation)
    for point in first.keys() & second.keys():
        assert first[point] == second[point], point


# ----------------------------------------------------------------------
# What one capture costs
# ----------------------------------------------------------------------
def put(key, value):
    return Command(client_id="c", timestamp=1, op="put", key=key,
                   value=value)


def capture_costs(monkeypatch, preload, intervals=64, per_interval=10):
    """Per capture: leaf digests recomputed, entries encoded for them,
    whether the capture re-partitioned, and the store's size.  The
    first capture is of the ``preload`` keys; ``per_interval`` fresh
    keys are written before each of the others."""
    counted = []
    real = base.leaf_digest

    def counting(leaf):
        counted.append(len(leaf))
        return real(leaf)

    monkeypatch.setattr(base, "leaf_digest", counting)
    kv = KVStore()
    for i in range(preload):
        kv.apply(put(f"pre{i}", i))
    costs = []
    leaves = 1
    for interval in range(intervals + 1):
        if interval:
            for j in range(per_interval):
                kv.apply(put(f"w{interval}-{j}", j))
        counted.clear()
        snap = kv.snapshot()
        costs.append({"leaves": len(counted), "entries": sum(counted),
                      "repartitioned": len(snap) != leaves,
                      "size": preload + per_interval * interval})
        leaves = len(snap)
    monkeypatch.undo()
    return costs


def test_capture_costs_the_written_leaves_not_the_store(monkeypatch):
    """The ROADMAP's deterministic criterion: 100k keys preloaded, 10
    keys written per interval.  Per capture, leaf digests recomputed
    and entries encoded are within 2x of the same run over an empty
    store.  The worst single capture is the one that re-partitions; it
    is reported apart, and it costs the store once per doubling."""
    loaded = capture_costs(monkeypatch, preload=100_000)
    empty = capture_costs(monkeypatch, preload=0)

    def steady(costs, field):
        kept = [c[field] for c in costs if not c["repartitioned"]]
        return sum(kept) / len(kept)

    # Measured: 10.00 leaves / 76.2 entries per capture over 100k keys,
    # 9.67 / 58.6 over the empty store.
    for field in ("leaves", "entries"):
        assert steady(loaded, field) <= 2 * steady(empty, field), (
            field, steady(loaded, field), steady(empty, field))
    assert max(c["leaves"] for c in loaded[1:]) <= 10
    assert max(c["entries"] for c in loaded[1:]) < 200  # of 100,640 keys
    # Reported apart: the worst single capture of each run is one that
    # re-partitions, and it digests the store once -- every entry, in
    # its new leaf count -- once per doubling of the store.
    for costs in (loaded, empty):
        worst = max(costs, key=lambda c: c["entries"])
        assert worst["repartitioned"]
        assert worst["entries"] == worst["size"]
        assert worst["leaves"] == leaf_count(worst["size"])
    assert loaded[0]["entries"] == 100_000
    assert sum(c["repartitioned"] for c in loaded) == 1
    assert sum(c["repartitioned"] for c in empty) == \
        leaf_count(empty[-1]["size"]).bit_length() - 1
