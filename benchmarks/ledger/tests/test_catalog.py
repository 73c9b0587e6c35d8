"""Statistics rules, naming, and BENCHMARK.json <-> catalogue parity."""

import json
import os
import re

import pytest

import catalog
import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))


@pytest.mark.parametrize("count, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_600, 99.0), (1_000, 99.0),
    (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, 50.0),
    (1, 50.0),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert catalog.supported_percentile(count) == expected


def test_tail_reports_the_supported_percentile_capped_at_p99():
    samples = list(range(1, 1601))
    assert catalog.tail(samples) == (99.0, 1584)
    assert catalog.tail(list(range(1, 20_001))) == (99.0, 19_800)
    assert catalog.tail(list(range(1, 151))) == (90.0, 135)


def test_percentile_is_nearest_rank_like_the_library():
    from repro.cluster.metrics import _percentile
    samples = [float(x * x % 97) for x in range(333)]
    for pct in (50.0, 90.0, 95.0, 99.0):
        assert catalog.percentile(samples, pct) == \
            _percentile(sorted(samples), pct / 100.0)


def test_summary_is_median_and_statistics_quartiles():
    summary = catalog.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (summary.median, summary.q1, summary.q3, summary.count) == \
        (3.0, 1.5, 4.5, 5)
    assert catalog.summarize([7.0]) == catalog.Summary(7.0, 7.0, 7.0, 1)


def test_worse_by_follows_the_metric_direction():
    lower = catalog.Metric("x", "ms", "lower", 0.1)
    higher = catalog.Metric("y", "1/s", "higher", 0.1)
    assert catalog.worse_by(lower, 10.0, 11.0) == pytest.approx(0.1)
    assert catalog.worse_by(higher, 10.0, 9.0) == pytest.approx(0.1)
    assert catalog.worse_by(higher, 10.0, 12.0) < 0


def test_every_name_is_well_formed_and_unique():
    names = (list(catalog.WORKLOADS)
             + [m.name for m in catalog.END_TO_END]
             + [m.name for m in catalog.PER_LAYER])
    for name in names + [m.name for m in catalog.LEDGER_ONLY]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    assert len(names) == len(set(names))
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric.unit)
        assert metric.better in ("lower", "higher")
    for why in catalog.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why


def test_benchmark_json_restates_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        document = json.load(fh)
    assert document == catalog.benchmark_json(
        ["python3", "benchmarks/ledger/run.py"], ["benchmarks/ledger"],
        run.RUN_SECONDS)
    assert set(document) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    setup = [m for m in document["end_to_end"]
             if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s",
                      "better": "lower", "bound": 0.25}]
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    assert 1 <= len(document["per_layer"]) <= 128


def test_sim_saturated_pins_match_the_committed_bench_baseline():
    import workloads
    path = os.path.join(ROOT, "benchmarks", "baselines",
                        "BENCH_5ff976e.json")
    if not os.path.exists(path):
        pytest.skip("repro.bench baseline retired")
    with open(path, encoding="utf-8") as fh:
        cell = json.load(fh)["cells"]["sim-ezbft-b1"]
    assert workloads.PINS == {key: cell[key]
                              for key in workloads.PINS}
