"""Unit tests for the discrete-event simulation kernel."""

import bisect
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import events
from repro.sim.events import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_ties_break_in_insertion_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    sim.schedule(2.5, lambda: None)
    sim.run()
    assert sim.now == pytest.approx(2.5)


def test_zero_delay_runs_after_current_instant_events():
    sim = Simulator()
    fired = []
    sim.schedule(0.0, fired.append, "first")
    sim.schedule(0.0, fired.append, "second")
    sim.run()
    assert fired == ["first", "second"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(4.0, fired.append, "x")
    sim.run()
    assert sim.now == pytest.approx(4.0)
    assert fired == ["x"]


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.pending


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == pytest.approx(4.0)


def test_run_until_stops_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run(until=5.0)
    assert fired == ["a"]
    assert sim.now == pytest.approx(5.0)
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_even_when_queue_empty():
    sim = Simulator()
    sim.run(until=100.0)
    assert sim.now == pytest.approx(100.0)


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_run_until_idle_returns_count():
    sim = Simulator()
    for i in range(7):
        sim.schedule(float(i), lambda: None)
    assert sim.run_until_idle() == 7


def test_run_until_idle_detects_livelock():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_step_skips_cancelled():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "live")
    handle.cancel()
    assert sim.step() is True
    assert fired == ["live"]
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_determinism_same_schedule_same_order():
    def run_once():
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(1.0, fired.append, "b")
        sim.schedule(0.5, fired.append, "c")
        sim.run()
        return fired

    assert run_once() == run_once()


def test_run_max_events_skips_cancelled_entries():
    # Cancelled entries interleaved with live ones must not count
    # against the max_events budget (satellite of the perf overhaul:
    # the outer run() loop and step() share one skip path).
    sim = Simulator()
    fired = []
    handles = []
    for i in range(6):
        handles.append(sim.schedule(float(i + 1), fired.append, i))
    for i in (0, 2, 4):
        handles[i].cancel()
    sim.run(max_events=2)
    assert fired == [1, 3]
    assert sim.events_processed == 2


def test_run_counter_lockstep_with_cancelled_entries():
    sim = Simulator()
    fired = []
    keep = [sim.schedule(float(i + 1), fired.append, i)
            for i in range(8)]
    for i in (1, 2, 5):
        keep[i].cancel()
    sim.run()
    assert fired == [0, 3, 4, 6, 7]
    assert sim.events_processed == len(fired)


def test_run_until_idle_skips_cancelled_entries():
    sim = Simulator()
    fired = []
    dead = sim.schedule(1.0, fired.append, "dead")
    sim.schedule(2.0, fired.append, "live")
    dead.cancel()
    assert sim.run_until_idle() == 1
    assert fired == ["live"]


def test_cancelled_head_does_not_stall_run_until():
    sim = Simulator()
    fired = []
    head = sim.schedule(1.0, fired.append, "head")
    sim.schedule(5.0, fired.append, "tail")
    head.cancel()
    sim.run(until=10.0)
    assert fired == ["tail"]
    assert sim.now == pytest.approx(10.0)


def test_run_cut_by_max_events_does_not_rewind_clock():
    # A run stopped by its event budget must not jump to ``until``:
    # the next run would then move the clock back to the next event.
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule_at(t, lambda: seen.append(sim.now))
    sim.run(until=10.0, max_events=1)
    assert sim.now == 1.0
    sim.run()
    assert seen == [1.0, 2.0, 3.0]
    assert sim.now == 3.0


def test_cancel_heavy_heap_compacts():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(float(i % 97), fired.append, i)
               for i in range(10_000)]
    rng = random.Random(7)
    dead = set(rng.sample(range(10_000), 9_000))
    for i in dead:
        handles[i].cancel()
    live = 10_000 - len(dead)
    assert sim.pending_events < live + events.COMPACT_FLOOR
    sim.run()
    expected = sorted(set(range(10_000)) - dead,
                      key=lambda i: (float(i % 97), i))
    assert fired == expected
    assert sim.events_processed == live
    assert sim.pending_events == 0


def test_cancel_after_fire_does_not_count_as_dead():
    sim = Simulator()
    handles = [sim.schedule(1.0, lambda: None) for _ in range(3)]
    sim.run()
    for handle in handles:
        handle.cancel()
    assert sim._cancelled == 0
    sim.schedule(1.0, lambda: None)
    assert sim.run_until_idle() == 1


# ----------------------------------------------------------------------
# Model-based check: the kernel against a sorted-list reference
# ----------------------------------------------------------------------
class _Reference:
    """The kernel's contract, written the slow way: live events in a
    sorted list of ``(time, seq, id)``, cancellation removes the entry."""

    def __init__(self) -> None:
        self.now = 0.0
        self.entries = []
        self.specs = []
        self.fired = []
        self.processed = 0
        self._seq = 0

    def add(self, time, spec):
        bisect.insort(self.entries, (time, self._seq, len(self.specs)))
        self._seq += 1
        self.specs.append(spec)

    def cancel(self, ident):
        self.entries = [e for e in self.entries if e[2] != ident]

    def dispatch(self, until, budget):
        executed = 0
        while self.entries and self.entries[0][0] <= until \
                and executed < budget:
            time, _, ident = self.entries.pop(0)
            self.now = time
            self.processed += 1
            executed += 1
            self.fired.append(ident)
            target, child = self.specs[ident]
            if target is not None and target < len(self.specs):
                self.cancel(target)
            if child is not None:
                self.add(self.now + child, (None, None))
        return executed

    def run(self, until, max_events):
        self.dispatch(math.inf if until is None else until,
                      math.inf if max_events is None else max_events)
        if until is not None and self.now < until and not (
                self.entries and self.entries[0][0] <= until):
            self.now = until


class _Driven:
    """The real kernel, fed the same program as :class:`_Reference`."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.handles = []
        self.fired = []
        self.clock = []

    def add(self, handle_of, spec):
        ident = len(self.handles)
        self.handles.append(handle_of(self._fire, ident, spec))

    def _fire(self, ident, spec):
        self.clock.append(self.sim.now)
        self.fired.append(ident)
        target, child = spec
        if target is not None and target < len(self.handles):
            self.handles[target].cancel()  # cancel inside a callback
        if child is not None:
            self.add(lambda *a: self.sim.schedule(child, *a), (None, None))


_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 7.0])
_SPECS = st.tuples(st.none() | st.integers(0, 40), st.none() | _DELAYS)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, _SPECS),
    st.tuples(st.just("schedule_at"), _DELAYS, _SPECS),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.none() | _DELAYS | st.just(-1.0),
              st.none() | st.integers(0, 4)),
    st.tuples(st.just("run_until_idle")),
), max_size=80)


def _check_against_reference(ops):
    real, ref = _Driven(), _Reference()
    sim = real.sim
    for op in ops:
        kind = op[0]
        if kind == "schedule":
            _, delay, spec = op
            real.add(lambda *a: sim.schedule(delay, *a), spec)
            ref.add(ref.now + delay, spec)
        elif kind == "schedule_at":
            _, offset, spec = op
            at = sim.now + offset
            real.add(lambda *a: sim.schedule_at(at, *a), spec)
            ref.add(at, spec)
        elif kind == "cancel":
            if op[1] < len(real.handles):  # fired ones too
                real.handles[op[1]].cancel()
                ref.cancel(op[1])
        elif kind == "step":
            assert sim.step() == (ref.dispatch(math.inf, 1) == 1)
        elif kind == "run":
            _, offset, max_events = op
            until = None if offset is None else sim.now + offset
            before = sim.now
            sim.run(until=until, max_events=max_events)
            ref.run(until, max_events)
            assert sim.now >= before
        else:
            assert sim.run_until_idle() == ref.dispatch(math.inf, math.inf)
        assert real.fired == ref.fired
        assert sim.events_processed == ref.processed
        assert sim.now == ref.now
        live = len(ref.entries)
        dead = sim.pending_events - live
        assert 0 <= dead <= max(events.COMPACT_FLOOR, live)
    assert real.clock == sorted(real.clock)


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_kernel_matches_sorted_list_reference(ops):
    _check_against_reference(ops)


@settings(max_examples=100, deadline=None)
@given(_OPS)
def test_kernel_matches_reference_while_compacting(ops):
    # The same check with a floor small enough that these short
    # programs compact the heap, mid-run included.
    with mock.patch.object(events, "COMPACT_FLOOR", 1):
        _check_against_reference(ops)
