"""The sweep engine: grid expansion, execution, aggregation, export."""

import builtins
import sys

import pytest

from repro.errors import ConfigurationError
from repro.scenario import Scenario, WorkloadSpec, preset
from repro.sweep import (
    SweepRunner,
    SweepSpec,
    apply_params,
    resolve_param,
    run_sweep,
    sweep,
)


def _tiny_base() -> Scenario:
    return preset("smoke").with_overrides(
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=2))


# ----------------------------------------------------------------------
# Axis resolution + expansion
# ----------------------------------------------------------------------
def test_resolve_param_aliases_and_fields():
    assert resolve_param("clients") == "workload.clients_per_region"
    assert resolve_param("contention") == "workload.contention"
    assert resolve_param("batch_size") == "workload.batch_size"
    assert resolve_param("seed") == "seed"
    assert resolve_param("protocol") == "protocol"
    assert resolve_param("requests_per_client") == \
        "workload.requests_per_client"
    assert resolve_param("workload.value_size") == "workload.value_size"
    assert resolve_param("slow_path_timeout") == "slow_path_timeout"


def test_resolve_param_unknown_names_axis():
    with pytest.raises(ConfigurationError, match="knobs"):
        resolve_param("knobs")
    with pytest.raises(ConfigurationError, match="workload.nope"):
        resolve_param("workload.nope")


def test_apply_params_touches_scenario_and_workload():
    base = _tiny_base()
    out = apply_params(base, {"clients": 7, "seed": 42,
                              "contention": 0.5})
    assert out.workload.clients_per_region == 7
    assert out.workload.contention == 0.5
    assert out.seed == 42
    # untouched fields survive
    assert out.protocol == base.protocol
    assert out.workload.requests_per_client == \
        base.workload.requests_per_client


def test_cartesian_expansion_order_and_names():
    spec = SweepSpec(base=_tiny_base(),
                     grid={"clients": (1, 2), "seed": (10, 20)})
    cells = list(spec.cells())
    assert spec.size() == len(cells) == 4
    # itertools.product order: last axis fastest.
    assert [c.param_dict for c in cells] == [
        {"clients": 1, "seed": 10}, {"clients": 1, "seed": 20},
        {"clients": 2, "seed": 10}, {"clients": 2, "seed": 20}]
    assert cells[0].scenario.name == "smoke-ezbft[clients=1,seed=10]"
    assert cells[3].scenario.seed == 20
    assert cells[3].scenario.workload.clients_per_region == 2


def test_zipped_axes_travel_together():
    spec = SweepSpec(
        base=_tiny_base(),
        grid={"seed": (1, 2)},
        zipped={"protocol": ("ezbft", "pbft"),
                "contention": (0.5, 0.0)})
    cells = list(spec.cells())
    assert spec.size() == len(cells) == 4
    combos = {(c.param_dict["seed"], c.param_dict["protocol"],
               c.param_dict["contention"]) for c in cells}
    assert combos == {(1, "ezbft", 0.5), (1, "pbft", 0.0),
                      (2, "ezbft", 0.5), (2, "pbft", 0.0)}


def test_zipped_length_mismatch_rejected():
    spec = SweepSpec(base=_tiny_base(),
                     zipped={"protocol": ("ezbft", "pbft"),
                             "seed": (1, 2, 3)})
    with pytest.raises(ConfigurationError, match="same length"):
        list(spec.cells())


def test_grid_zip_overlap_rejected():
    spec = SweepSpec(base=_tiny_base(), grid={"seed": (1,)},
                     zipped={"seed": (2,)})
    with pytest.raises(ConfigurationError, match="both grid and zip"):
        spec.axes()


def test_aliased_axes_setting_same_field_rejected():
    # 'clients' and 'workload.clients_per_region' are the same knob:
    # one would silently win while the export reported both values.
    spec = SweepSpec(base=_tiny_base(),
                     grid={"clients": (5,)},
                     zipped={"workload.clients_per_region": (9,)})
    with pytest.raises(ConfigurationError,
                       match="'clients'.*'workload.clients_per_region'"):
        spec.axes()
    spec = SweepSpec(base=_tiny_base(),
                     grid={"contention": (0.1,),
                           "workload.contention": (0.9,)})
    with pytest.raises(ConfigurationError, match="both set"):
        list(spec.cells())


def test_scalar_axis_value_is_pinned():
    spec = SweepSpec(base=_tiny_base(),
                     grid={"clients": 3, "seed": (1, 2)})
    cells = list(spec.cells())
    assert len(cells) == 2
    assert all(c.param_dict["clients"] == 3 for c in cells)


def test_preset_name_base_and_bad_cell_fails_eagerly():
    spec = SweepSpec(base="smoke", grid={"contention": (2.0,)})
    with pytest.raises(ConfigurationError, match="contention"):
        list(spec.cells())


def test_mistyped_axis_value_fails_eagerly_naming_axis():
    # float into an int field, string into a numeric field, float
    # seed: each must fail at expansion with the axis named, not
    # mid-run with a raw TypeError.
    for grid in ({"clients": (1.5,)}, {"clients": ("two",)},
                 {"seed": (1.5,)}, {"slow_path_timeout": ("fast",)}):
        spec = SweepSpec(base="smoke", grid=grid)
        axis = next(iter(grid))
        with pytest.raises(ConfigurationError, match=axis):
            list(spec.cells())
    # ints stay welcome in float fields
    assert list(SweepSpec(base="smoke",
                          grid={"slow_path_timeout": (200,)}).cells())


def test_sweep_keyword_constructor():
    spec = sweep("smoke", clients=(2, 4), seed=range(1, 3))
    assert spec.size() == 4


def test_plain_import_repro_keeps_sweep_submodule_accessible():
    # `from repro.sweep import sweep` at package top level would
    # shadow the submodule attribute; pin the module access path.
    import repro
    assert repro.sweep.SweepSpec is SweepSpec
    assert callable(repro.sweep.sweep)


# ----------------------------------------------------------------------
# Execution + aggregation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_sweep_report():
    spec = SweepSpec(base=_tiny_base(),
                     grid={"clients": (1, 2), "seed": (1, 2)})
    return SweepRunner().run(spec)


def test_runner_runs_every_cell(smoke_sweep_report):
    report = smoke_sweep_report
    assert report.backend == "sim"
    assert len(report.cells) == 4
    for cell in report.cells:
        clients = cell.param_dict["clients"]
        assert cell.report.delivered == clients * 2
        assert cell.report.seed == cell.param_dict["seed"]


def test_series_collapses_seeds(smoke_sweep_report):
    series = smoke_sweep_report.series("clients", y="delivered")
    assert set(series) == {None}
    points = series[None]
    assert [p.x for p in points] == [1, 2]
    assert [p.count for p in points] == [2, 2]
    assert points[0].mean == 2.0
    assert points[1].mean == 4.0


def test_series_stddev_and_ci(smoke_sweep_report):
    import math

    # delivered is deterministic per clients value: spread must be 0.
    points = smoke_sweep_report.series("clients", y="delivered")[None]
    for point in points:
        assert point.count == 2
        assert point.stddev == 0.0
        assert point.ci95 == 0.0
    # throughput varies across seeds: sample stddev and the t-based
    # 95% CI half-width must agree with a hand computation.
    points = smoke_sweep_report.series(
        "clients", y="throughput_per_sec")[None]
    for x in (1, 2):
        samples = [
            cell.report.throughput_per_sec
            for cell in smoke_sweep_report.cells
            if cell.param_dict["clients"] == x]
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
        point = next(p for p in points if p.x == x)
        assert point.stddev == pytest.approx(math.sqrt(var))
        # df=1 -> t=12.706
        assert point.ci95 == pytest.approx(
            12.706 * math.sqrt(var) / math.sqrt(2))


def test_series_single_sample_has_no_spread():
    spec = SweepSpec(base=_tiny_base(), grid={"clients": (1, 2)})
    points = SweepRunner().run(spec).series("clients",
                                            y="delivered")[None]
    for point in points:
        assert point.count == 1
        assert point.stddev is None
        assert point.ci95 is None


def test_series_csv_export(smoke_sweep_report, tmp_path):
    import csv

    from repro.sweep import SERIES_CSV_COLUMNS

    path = tmp_path / "series.csv"
    text = smoke_sweep_report.series_to_csv(
        "clients", y="throughput_per_sec", path=str(path))
    assert path.read_text() == text
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(SERIES_CSV_COLUMNS)
    assert [row["x"] for row in rows] == ["1", "2"]
    for row in rows:
        assert row["metric"] == "throughput_per_sec"
        assert row["count"] == "2"
        assert float(row["stddev"]) >= 0.0
        assert float(row["ci95"]) >= float(row["stddev"])
    # grouped: one row per (group, x)
    grouped = smoke_sweep_report.series_to_rows(
        "seed", y="delivered", group_by="clients")
    assert {(r["group"], r["x"]) for r in grouped} == \
        {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_series_dedupes_repeated_zipped_axis_values():
    # Fig4 shape: protocol zipped over repeated contention values must
    # yield one point per distinct x, not one per zip row.
    spec = SweepSpec(
        base=_tiny_base(),
        zipped={"protocol": ("ezbft", "ezbft", "pbft"),
                "contention": (0.0, 0.5, 0.0)})
    report = SweepRunner().run(spec)
    series = report.series("contention", y="delivered",
                           group_by="protocol")
    assert list(series) == ["ezbft", "pbft"]  # groups deduped too
    assert [p.x for p in series["ezbft"]] == [0.0, 0.5]
    assert [(p.x, p.count) for p in series["pbft"]] == [(0.0, 1)]


def test_series_group_by_and_unknown_axis(smoke_sweep_report):
    grouped = smoke_sweep_report.series("seed", y="throughput_per_sec",
                                        group_by="clients")
    assert set(grouped) == {1, 2}
    with pytest.raises(ConfigurationError, match="nope"):
        smoke_sweep_report.series("nope")


def test_cell_lookup(smoke_sweep_report):
    report = smoke_sweep_report.cell(clients=2, seed=1)
    assert report.delivered == 4
    with pytest.raises(ConfigurationError, match="2 sweep cells"):
        smoke_sweep_report.cell(clients=2)
    # a typo'd axis is named, not reported as "0 cells match"
    with pytest.raises(ConfigurationError, match="cleints"):
        smoke_sweep_report.cell(cleints=2)


def test_csv_one_row_per_cell_phase(smoke_sweep_report):
    text = smoke_sweep_report.to_csv()
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    # axis columns lead; 'seed' folds into the report's own column
    # (same value) instead of duplicating
    assert header[0] == "clients"
    assert header.count("seed") == 1
    assert "latency_p50_ms" in header
    assert "wall" not in text  # wall-clock never leaks into CSV
    assert len(lines) == 1 + 4  # header + one phase per cell


def test_to_json_round_trips_strict(smoke_sweep_report):
    import json
    data = json.loads(smoke_sweep_report.to_json())
    assert data["sweep"] == "smoke-ezbft-sweep"
    assert data["axes"] == {"clients": [1, 2], "seed": [1, 2]}
    assert len(data["cells"]) == 4
    assert data["cells"][0]["report"]["backend"] == "sim"


def test_parallel_workers_match_serial():
    spec = SweepSpec(base=_tiny_base(),
                     grid={"clients": (1, 2), "seed": (1, 2)})
    serial = SweepRunner(workers=1).run(spec)
    parallel = SweepRunner(workers=2).run(spec)
    assert serial.to_csv() == parallel.to_csv()


def test_run_sweep_convenience():
    report = run_sweep(sweep(_tiny_base(), clients=(1,)))
    assert len(report.cells) == 1


def test_format_text_lists_cells(smoke_sweep_report):
    text = smoke_sweep_report.format_text()
    assert "4 cells" in text
    assert "clients" in text and "seed" in text


# ----------------------------------------------------------------------
# matplotlib is optional: the package imports and sweeps run without
# it; only the plot helper demands it, with an actionable error.
# ----------------------------------------------------------------------
def test_sweep_package_importable_without_matplotlib(monkeypatch):
    real_import = builtins.__import__

    def no_mpl(name, *args, **kwargs):
        if name == "matplotlib" or name.startswith("matplotlib."):
            raise ImportError(f"No module named {name!r}")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", no_mpl)
    for mod in [m for m in list(sys.modules)
                if m == "repro.sweep" or m.startswith("repro.sweep.")]:
        monkeypatch.delitem(sys.modules, mod)
    import repro.sweep  # noqa: F401  (re-import under the block)
    assert repro.sweep.SweepSpec is not None


def test_plot_without_matplotlib_raises_install_hint(
        smoke_sweep_report, monkeypatch):
    if "matplotlib" not in sys.modules:
        real_import = builtins.__import__

        def no_mpl(name, *args, **kwargs):
            if name == "matplotlib" or name.startswith("matplotlib."):
                raise ImportError(f"No module named {name!r}")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_mpl)
    else:
        pytest.skip("matplotlib installed: the hint path is "
                    "exercised on minimal environments")
    from repro.sweep import plot_series
    with pytest.raises(ConfigurationError,
                       match="pip install matplotlib"):
        plot_series(smoke_sweep_report, "clients")


def test_nan_metrics_dropped_from_series():
    # A bucket whose samples are all NaN (e.g. latency of a phase that
    # delivered nothing) is omitted, not propagated, so one starved
    # cell can't poison a whole curve.
    from repro.cluster.metrics import summarize
    from repro.scenario.report import ExperimentReport
    from repro.sweep.report import SweepCellResult, SweepReport

    def report_for(seed, samples):
        summary = summarize(samples)
        return ExperimentReport(
            scenario="synthetic", protocol="ezbft", backend="sim",
            seed=seed, replica_regions=["local"] * 4,
            duration_ms=10.0, phases=[], delivered=len(samples),
            throughput_per_sec=0.0, latency=summary,
            fast_path_ratio=float("nan"), warmup_discarded=0,
            owner_changes=0, view_changes=0, checkpoints_stable=0,
            log_footprint_total=0, client_stats={}, network={},
            violations=[])

    sweep_report = SweepReport(
        name="synthetic", backend="sim", axes={"seed": (1, 2)},
        cells=[
            SweepCellResult(params=(("seed", 1),),
                            report=report_for(1, [5.0])),
            SweepCellResult(params=(("seed", 2),),
                            report=report_for(2, [])),  # NaN latency
        ])
    points = sweep_report.series("seed", y="latency_p50_ms")[None]
    assert [p.x for p in points] == [1]  # starved cell dropped
    assert sweep_report.series("seed", y="fast_path_ratio") == {}


# ----------------------------------------------------------------------
# Periodic scraping (ScrapeConfig)
# ----------------------------------------------------------------------
def test_periodic_scrape_requires_tcp_backend():
    from repro.obs import ScrapeConfig

    with pytest.raises(ConfigurationError, match="tcp"):
        SweepRunner(scrape=ScrapeConfig())


def test_scrape_config_pickles_for_worker_processes():
    import pickle

    from repro.obs import ScrapeConfig

    config = ScrapeConfig(interval_s=0.5, timeout_s=1.0)
    assert pickle.loads(pickle.dumps(config)) == config


def test_cell_dict_gains_scrape_key_only_when_sampled():
    from repro.sweep.report import SweepCellResult, SweepReport

    report = run_sweep(sweep("smoke", clients=(1,), seed=(1,)))
    cell = report.cells[0]
    assert cell.scrape is None
    assert sorted(report.to_dict()["cells"][0]) == \
        ["params", "report"]  # the golden-pinned two-key shape

    samples = [{"t_ms": 500.0, "replicas": {"r3": {"executed": 4}}}]
    sampled = SweepReport(
        name=report.name, backend="tcp", axes=report.axes,
        cells=[SweepCellResult(params=cell.params,
                               report=cell.report,
                               scrape=samples)])
    data = sampled.to_dict()["cells"][0]
    assert sorted(data) == ["params", "report", "scrape"]
    assert data["scrape"] == samples
