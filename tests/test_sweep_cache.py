"""The sweep cell cache and the report round trip it relies on."""

import json
import os

from repro.scenario import Scenario, WorkloadSpec, preset
from repro.scenario.report import ExperimentReport
from repro.scenario.runner import ScenarioRunner
from repro.sweep import SweepCellCache, SweepRunner, sweep
from repro.sweep import cache as cache_module
from repro.sweep.cache import source_digest


def _tiny_base() -> Scenario:
    return preset("smoke").with_overrides(
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=2))


def _tiny_sweep():
    return sweep(_tiny_base(), name="cache-test", clients=(1, 2))


# ----------------------------------------------------------------------
# ExperimentReport.from_dict round trip (what the cache persists)
# ----------------------------------------------------------------------
def test_report_round_trips_through_dict():
    report = ScenarioRunner().run(_tiny_base())
    clone = ExperimentReport.from_dict(report.to_dict())
    assert clone.to_dict() == report.to_dict()
    assert clone.to_rows() == report.to_rows()
    assert clone.delivered == report.delivered


def test_report_round_trips_through_json():
    report = ScenarioRunner().run(_tiny_base())
    clone = ExperimentReport.from_dict(
        json.loads(json.dumps(report.to_dict())))
    assert clone.to_dict() == report.to_dict()


# ----------------------------------------------------------------------
# Cache behavior
# ----------------------------------------------------------------------
def test_second_run_hits_cache_and_matches(tmp_path):
    cache_dir = str(tmp_path / "cells")
    first = SweepRunner(cache=cache_dir).run(_tiny_sweep())
    runner = SweepRunner(cache=cache_dir)
    second = runner.run(_tiny_sweep())
    assert runner.cache.stats()["hits"] == len(first.cells)
    assert runner.cache.stats()["misses"] == 0
    assert second.to_csv() == first.to_csv()


def test_cache_key_distinguishes_specs(tmp_path):
    cache = SweepCellCache(str(tmp_path))
    base = _tiny_base()
    k1 = cache.cell_key(base, "sim", 1000)
    k2 = cache.cell_key(base.with_overrides(seed=99), "sim", 1000)
    k3 = cache.cell_key(base, "sim", 2000)
    k4 = cache.cell_key(base, "tcp", 1000)
    assert len({k1, k2, k3, k4}) == 4


def test_cache_key_follows_the_package_source(tmp_path, monkeypatch):
    """A key holds a digest of the ``repro`` sources, so an edit to any
    module invalidates every cell instead of a hand-bumped version."""
    cache = SweepCellCache(str(tmp_path))
    before = cache.cell_key(_tiny_base(), "sim", 1000)
    assert len(source_digest()) == 64
    monkeypatch.setattr(cache_module, "source_digest", lambda: "edited")
    assert cache.cell_key(_tiny_base(), "sim", 1000) != before


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache_dir = str(tmp_path / "cells")
    SweepRunner(cache=cache_dir).run(_tiny_sweep())
    # Corrupt every entry on disk; the cache is advisory, so the next
    # run must fall back to recomputing rather than crash.
    for dirpath, _, files in os.walk(cache_dir):
        for name in files:
            with open(os.path.join(dirpath, name), "w") as fh:
                fh.write("{not json")
    runner = SweepRunner(cache=cache_dir)
    report = runner.run(_tiny_sweep())
    assert runner.cache.stats()["hits"] == 0
    assert len(report.cells) == 2


def test_no_cache_runner_recomputes(tmp_path):
    report = SweepRunner().run(_tiny_sweep())  # cache=None
    assert len(report.cells) == 2
    assert not (tmp_path / "cells").exists()


def test_tcp_backend_never_consults_cache(tmp_path):
    runner = SweepRunner(backend="tcp", cache=str(tmp_path))
    assert runner._cell_key(_tiny_base()) is None


def test_uncacheable_scenario_counts_and_runs(tmp_path):
    cache = SweepCellCache(str(tmp_path))
    bad = _tiny_base().with_overrides(
        statemachine=lambda: None)  # live object: not serializable
    assert cache.cell_key(bad, "sim", 1000) is None
    assert cache.stats()["uncacheable"] == 1


def test_get_and_put_accept_none_key(tmp_path):
    cache = SweepCellCache(str(tmp_path))
    assert cache.get(None) is None
    report = ScenarioRunner().run(_tiny_base())
    cache.put(None, report)  # no-op, no crash
