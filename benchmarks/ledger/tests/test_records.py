"""From worker records to named metrics: the emitted names are exactly
the ones BENCHMARK.json declares."""

import pytest

import calibrate
import catalog
import run
import spans
import worker
import workloads

RATIOS = {"obs.on_ratio": 0.9, "trace.on_ratio": 0.8,
          "storage.on_ratio": 0.0, "bench.trace_overhead_ratio": 0.6,
          "bench.machine_speed": 1.0}
COUNTERS = {"frames_sent": 1200, "frames_dropped": 0,
            "owner_changes": 0, "batched_items": 100, "batches": 100,
            "fast": 90, "slow": 10, "retries": 0, "events": 0}


def _traced(recorder):
    clock = recorder.clock
    work = recorder.wrap("crypto", "digest", lambda: clock.advance(3.0))
    recorder.wrap("core.replica", "EzBFTReplica.on_message",
                  lambda: (clock.advance(1.0), work()))()
    outcome = workloads.Outcome(commits_total=100, busy_s=5.0,
                                busy_wall_s=5.0,
                                counters=dict(COUNTERS))
    outcome.latencies_ms = [float(i) for i in range(1, 1001)]
    return outcome


class Clock:
    now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_traced_pass_emits_exactly_the_per_layer_names():
    recorder = spans.Recorder(clock=Clock())
    layers = worker.layer_metrics(recorder, _traced(recorder), RATIOS)
    assert set(layers) == {m.name for m in catalog.PER_LAYER}
    assert layers["crypto.self_share"] == 3.0 / 5.0
    assert layers["core.replica.self_us_per_commit"] == 1e6 / 100
    assert layers["bench.untraced_share"] == 1.0 - 4.0 / 5.0
    assert layers["core.client.fast_path_share"] == 0.9
    assert layers["bench.commit_p99_ms"] == 990.0
    assert layers["storage.fsyncs_per_commit"] == 0.0


def test_structural_predictions_are_checked():
    recorder = spans.Recorder(clock=Clock())
    layers = worker.layer_metrics(recorder, _traced(recorder), RATIOS)
    assert worker.structure_violations("tcp_steady", recorder,
                                       layers) == []
    recorder.wrap("storage", "WriteAheadLog.append", lambda: None)()
    recorder.wrap("sim", "Simulator.run", lambda: None)()
    problems = worker.structure_violations("tcp_steady", recorder,
                                           layers)
    assert len(problems) == 2 and "storage" in problems[0] + problems[1]
    assert worker.structure_violations("tcp_durable", recorder,
                                       layers)[0].startswith("layer sim")


def test_an_unwrapped_layer_shows_as_too_much_untraced_time():
    # crypto (3 of 5 busy seconds) left unwrapped: its time lands in
    # its caller's self time if it has one, in no span if it has none.
    recorder = spans.Recorder(clock=Clock())
    clock = recorder.clock
    recorder.wrap("core.replica", "EzBFTReplica.on_message",
                  lambda: clock.advance(1.0))()
    outcome = workloads.Outcome(commits_total=100, busy_s=5.0,
                                busy_wall_s=5.0,
                                counters=dict(COUNTERS))
    layers = worker.layer_metrics(recorder, outcome, RATIOS)
    assert layers["bench.untraced_share"] == 1.0 - 1.0 / 5.0
    problems = worker.structure_violations("tcp_steady", recorder,
                                           layers)
    assert len(problems) == 1 and "in no span" in problems[0]


def test_layers_claiming_more_than_the_busy_time_are_flagged():
    recorder = spans.Recorder(clock=Clock())
    outcome = _traced(recorder)   # 4 s of spans
    outcome.busy_s = 3.5
    layers = worker.layer_metrics(recorder, outcome, RATIOS)
    assert layers["bench.untraced_share"] == 0.0   # clamped residual
    problems = worker.structure_violations("tcp_steady", recorder,
                                           layers)
    assert len(problems) == 1 and "add up to 1.143" in problems[0]
    outcome.busy_s = 3.9   # within the 5 % the clocks may differ by
    layers = worker.layer_metrics(recorder, outcome, RATIOS)
    assert worker.structure_violations("tcp_steady", recorder,
                                       layers) == []


def _record(**overrides):
    raw = {"setup_s": [1.0], "commits_per_s": [100.0, 80.0],
           "cpu_ms_per_commit": [8.0, 10.0], "commit_p50_ms": [3.0],
           "peak_rss_mb": [50.0]}
    record = {"valid": True, "invalid": None, "seed": 42,
              "attempted": 100, "failed": 0, "violations": [],
              "measured_s": 5.0, "speed": 1.0, "raw": raw,
              "ref": dict(raw), "exact": {}}
    record.update(overrides)
    return record


def _with(kind_values):
    return dict(_record()["raw"], **kind_values)


def test_every_workload_reports_every_contract_metric():
    records = [_record(), _record(ref=_with({"setup_s": [2.0]})),
               _record(ref=_with({"setup_s": [3.0]}))]
    for workload in catalog.WORKLOADS:
        table = run.end_to_end(workload, records)
        assert [m.name for m in catalog.END_TO_END] == \
            list(table)[:len(catalog.END_TO_END)]
        assert table["setup_s"][1].median == 2.0
        assert table["commits_per_s"][1].count == 6
        assert table["cpu_ms_per_commit"][1].median == 9.0
        assert table["failed_share"][1].median == 0.0
        assert run.end_to_end(workload, records,
                              "raw")["setup_s"][1].median == 1.0
    # Workload-specific metrics only where they apply.
    extra = _with({"outage_ms": [4000.0], "wan_p50_vs_pbft": [0.6],
                   "recover_s": [0.4, 0.5]})
    records = [_record(ref=extra)]
    assert "outage_ms" in run.end_to_end("sim_wan_crash", records)
    assert "outage_ms" not in run.end_to_end("tcp_steady", records)
    assert run.end_to_end("tcp_durable",
                          records)["recover_s"][1].count == 2


def _window(commits, slowdown, latencies_ms):
    """Half a second of wall, 0.4 s of CPU, the kernel running
    ``slowdown`` times slower than nominal on either side."""
    window = workloads.Window(commits, latencies_ms=latencies_ms)
    window.add(0.5, 0.4, [slowdown * calibrate.NOMINAL_S] * 2)
    return window


def test_a_window_sums_its_slices_each_at_its_own_speed():
    window = workloads.Window(10)
    window.add(1.0, 0.5, [calibrate.NOMINAL_S])
    window.add(1.0, 0.5, [2 * calibrate.NOMINAL_S,
                          4 * calibrate.NOMINAL_S,
                          2 * calibrate.NOMINAL_S])
    assert (window.wall_s, window.cpu_s) == (2.0, 1.0)
    assert (window.ref_wall_s, window.ref_cpu_s) == (1.5, 0.75)


def test_a_slice_timer_runs_the_kernel_between_slices():
    outcome = workloads.Outcome()
    timer = workloads.SliceTimer(outcome)
    timer.cut()
    timer.cut()
    first = timer.close_window(7)
    timer.cut()
    assert len(outcome.bursts) == 4
    assert outcome.windows == [first] and first.commits == 7
    assert 0 < first.wall_s and 0 < first.ref_wall_s
    assert 0 < timer.window.wall_s < timer.slice_s + first.wall_s


def test_a_record_holds_its_samples_raw_and_at_reference_speed():
    outcome = workloads.Outcome(
        attempted=90, first_timed_at=12.0,
        windows=[_window(50, 2.0, [5.0, 6.0, 7.0]),
                 _window(40, 4.0, [8.0, 8.0])],
        bursts=[2 * calibrate.NOMINAL_S] * 3,
        extra={"recover_s": [1.0], "recover_speed": 0.25,
               "outage_ms": 4000.0})
    record = worker.record_of("tcp_durable", outcome, spawned_at=11.0)
    assert record["speed"] == 0.5
    raw, ref = record["raw"], record["ref"]
    # Set-up is scaled by the run's median kernel timing ...
    assert (raw["setup_s"], ref["setup_s"]) == ([1.0], [0.5])
    # ... the windows each by the timings next to *it*, then summed:
    # one sample per repetition.
    assert raw["commits_per_s"] == [90 / 1.0]
    assert ref["commits_per_s"] == [90 / (0.25 + 0.125)]
    assert raw["cpu_ms_per_commit"] == [800 / 90]
    assert ref["cpu_ms_per_commit"] == pytest.approx([300 / 90])
    # Closed-loop latency: every request at its window's speed.
    assert raw["commit_p50_ms"] == [7.0]
    assert ref["commit_p50_ms"] == [2.5]  # of 2.5, 3, 3.5, 2, 2
    # Recoveries run later and bring their own kernel timings.
    assert (raw["recover_s"], ref["recover_s"]) == ([1.0], [0.25])
    # Memory and simulated-clock figures are not times of this machine.
    assert raw["peak_rss_mb"] == ref["peak_rss_mb"]
    assert raw["outage_ms"] == ref["outage_ms"] == [4000.0]
    # Paced latency is left as measured.
    outcome.latencies_ms = [5.0, 7.0, 9.0]
    paced = worker.record_of("tcp_steady", outcome, spawned_at=11.0)
    assert paced["raw"]["commit_p50_ms"] == [7.0]
    assert paced["ref"]["commit_p50_ms"] == [7.0]
    # Repetitions pool their samples.
    assert run.samples_of([paced, record])["commit_p50_ms"] == \
        [7.0, 2.5]


def test_gate_flags_failures_violations_and_inexact_repeats():
    assert run.violations_of("sim_wan_crash", [_record()]) == []
    problems = run.violations_of("sim_wan_crash", [
        _record(failed=2, violations=["digests differ"]),
        _record(exact={"events": 1}), _record(exact={"events": 2})])
    assert len(problems) == 3
    assert "differ between repetitions" in problems[-1]
