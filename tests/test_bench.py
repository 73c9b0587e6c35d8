"""The ``repro bench`` grid definition and baseline comparison gate."""

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BenchCell,
    PINNED_GRID,
    compare,
    current_rev,
    grid_cells,
    newest_baseline,
)
from repro.errors import ConfigurationError


def _artifact(cells):
    return {"schema": BENCH_SCHEMA, "rev": "abc1234", "grid": "full",
            "cells": cells}


def _sim_cell(throughput=100.0, delivered=1200, p50=250.0, p99=900.0,
              scenario_thr=1200.0):
    return {"backend": "sim", "protocol": "ezbft", "batch_size": 1,
            "delivered": delivered, "throughput": throughput,
            "p50_ms": p50, "p99_ms": p99,
            "scenario_throughput_per_sec": scenario_thr}


# ----------------------------------------------------------------------
# Grid definition
# ----------------------------------------------------------------------
def test_pinned_grid_covers_protocols_and_batches():
    sim = [c for c in PINNED_GRID if c.backend == "sim"]
    assert {(c.protocol, c.batch_size) for c in sim} == {
        (p, b) for p in ("ezbft", "pbft", "zyzzyva", "fab")
        for b in (1, 8)}
    assert [c for c in PINNED_GRID if c.backend == "tcp"]
    assert len(PINNED_GRID) == 10


def test_contended_cell_is_full_grid_only_and_interleaves_leaders():
    hot = [c for c in PINNED_GRID if c.contention]
    assert [c.name for c in hot] == ["sim-ezbft-b1-hot"]
    cell = hot[0]
    assert cell.contention == 1.0 and not cell.smoke
    assert cell not in grid_cells("smoke")
    scenario = cell.scenario()
    # Every request hits the hot key, from clients next to each of the
    # four leaders, so their SPECORDERs cross on the WAN.
    assert scenario.workload.contention == 1.0
    assert set(scenario.workload.client_regions) == \
        set(scenario.replica_regions)
    # Closed loop: a hot key has no open-loop steady state to pin.
    assert scenario.workload.mode == "closed"
    assert all(c.scenario().workload.contention == 0.0
               for c in PINNED_GRID if c is not cell)


def test_grid_names_unique():
    names = [c.name for c in PINNED_GRID]
    assert len(names) == len(set(names))


def test_smoke_grid_is_proper_subset():
    smoke = grid_cells("smoke")
    assert 0 < len(smoke) < len(grid_cells("full"))
    assert set(smoke) <= set(PINNED_GRID)


def test_unknown_grid_rejected():
    with pytest.raises(ConfigurationError, match="unknown bench grid"):
        grid_cells("nope")


def test_sim_cells_pin_recovery_timers_past_horizon():
    # Saturation methodology: backlog must never look like a fault.
    for cell in PINNED_GRID:
        if cell.backend != "sim":
            continue
        scenario = cell.scenario()
        assert scenario.retry_timeout > scenario.duration_ms
        assert scenario.suspicion_timeout > scenario.duration_ms
        assert scenario.view_change_timeout > scenario.duration_ms
        assert scenario.workload.mode == \
            ("closed" if cell.contention else "open")
        assert scenario.workload.batch_size == cell.batch_size


def test_current_rev_is_short_hex_or_unknown():
    rev = current_rev()
    assert rev == "unknown" or (4 <= len(rev) <= 16)


# ----------------------------------------------------------------------
# Baseline comparison gate
# ----------------------------------------------------------------------
def test_identical_artifacts_pass():
    art = _artifact({"cell": _sim_cell()})
    assert compare(art, art) == []


def test_throughput_within_tolerance_passes():
    base = _artifact({"cell": _sim_cell(throughput=100.0)})
    new = _artifact({"cell": _sim_cell(throughput=70.0)})
    assert compare(new, base, tolerance=0.35) == []


def test_throughput_below_tolerance_fails():
    base = _artifact({"cell": _sim_cell(throughput=100.0)})
    new = _artifact({"cell": _sim_cell(throughput=50.0)})
    problems = compare(new, base, tolerance=0.35)
    assert len(problems) == 1
    assert "throughput" in problems[0]


def test_faster_run_always_passes():
    base = _artifact({"cell": _sim_cell(throughput=100.0)})
    new = _artifact({"cell": _sim_cell(throughput=400.0)})
    assert compare(new, base) == []


def test_deterministic_sim_field_drift_fails():
    base = _artifact({"cell": _sim_cell(delivered=1200)})
    new = _artifact({"cell": _sim_cell(delivered=1199)})
    problems = compare(new, base)
    assert any("delivered" in p and "regenerate" in p
               for p in problems)


def test_p99_drift_fails_even_when_throughput_holds():
    base = _artifact({"cell": _sim_cell(p99=900.0)})
    new = _artifact({"cell": _sim_cell(p99=901.0)})
    assert any("p99_ms" in p for p in compare(new, base))


def test_event_count_drift_fails():
    """The simulator's event count is as deterministic as the latency
    percentiles, and moves when message flow changes at all."""
    base = _artifact({"cell": dict(_sim_cell(), events=161200)})
    new = _artifact({"cell": dict(_sim_cell(), events=161204)})
    assert any("events" in p for p in compare(new, base))


def test_missing_cell_in_new_run_fails():
    base = _artifact({"a": _sim_cell(), "b": _sim_cell()})
    new = _artifact({"a": _sim_cell()})
    problems = compare(new, base)
    assert any("grid shrank" in p for p in problems)


def test_reduced_grid_run_gates_only_its_own_cells():
    # CI runs --grid smoke against the committed full-grid baseline:
    # cells absent from the smoke run must not read as a shrunk grid,
    # but the cells it did run are still gated.
    base = _artifact({"a": _sim_cell(), "b": _sim_cell()})
    smoke = dict(_artifact({"a": _sim_cell()}), grid="smoke")
    assert compare(smoke, base) == []
    slow = dict(_artifact({"a": _sim_cell(throughput=10.0)}),
                grid="smoke")
    assert any("throughput" in p for p in compare(slow, base))


def test_smoke_grid_includes_tcp_cell():
    assert any(c.backend == "tcp" for c in grid_cells("smoke"))


def test_new_cell_without_baseline_passes():
    base = _artifact({"a": _sim_cell()})
    new = _artifact({"a": _sim_cell(), "b": _sim_cell()})
    assert compare(new, base) == []


def test_tcp_cells_skip_exact_field_gate():
    base_cell = dict(_sim_cell(), backend="tcp")
    new_cell = dict(_sim_cell(delivered=7), backend="tcp")
    base = _artifact({"tcp": base_cell})
    new = _artifact({"tcp": new_cell})
    assert compare(new, base) == []


def test_newest_baseline_picks_latest_recorded_file(tmp_path):
    """Baselines are kept as history; the gate reads the newest.  The
    first one predates the ``recorded`` stamp and sorts oldest."""
    import json

    def write(name, **extra):
        path = tmp_path / name
        path.write_text(json.dumps(dict(_artifact({}), **extra)))
        return str(path)

    unstamped = write("BENCH_zzzzzzz.json")
    assert newest_baseline(str(tmp_path)) == unstamped
    older = write("BENCH_bbbbbbb.json", recorded="2026-01-01T00:00:00Z")
    newer = write("BENCH_aaaaaaa.json", recorded="2026-09-27T00:00:00Z")
    (tmp_path / "notes.json").write_text("{}")
    assert newest_baseline(str(tmp_path)) == newer
    assert newest_baseline(older) == older  # a file names itself
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ConfigurationError):
        newest_baseline(str(empty))


def test_bad_tolerance_rejected():
    art = _artifact({"cell": _sim_cell()})
    with pytest.raises(ConfigurationError):
        compare(art, art, tolerance=1.0)
    with pytest.raises(ConfigurationError):
        compare(art, art, tolerance=-0.1)


def test_cells_have_valid_scenarios():
    for cell in PINNED_GRID:
        scenario = cell.scenario()  # validates on construction
        assert scenario.protocol == cell.protocol


def test_bench_cell_is_pinned():
    assert BenchCell(name="x", backend="sim",
                     protocol="ezbft").scenario().seed == \
        BenchCell(name="x", backend="sim",
                  protocol="ezbft").scenario().seed
