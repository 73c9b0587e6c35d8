"""repro.trace: determinism, schema pin, critical path, wire codec,
sampling, ring buffer, and the report fold.

The headline guarantee under test: a seeded sim run's trace export is
a *regression artifact* -- two invocations serialize to identical
bytes -- and the critical-path summary tells fast-path commits from
slow-path ones.  The export's key sets are pinned by the golden file
``tests/data/trace_schema.json``; regenerate a deliberate change
with::

    python tests/test_trace.py --regen
"""

import asyncio
import json
import os

import pytest

from repro.messages.trace import (
    trace_context_from_bytes,
    trace_context_to_bytes,
)
from repro.scenario import (
    CrashReplica,
    Scenario,
    ScenarioRunner,
    WorkloadSpec,
    preset,
)
from repro.trace import (
    SPAN_CLIENT_REQUEST,
    SPAN_CLIENT_SLOW_PATH,
    SPAN_NAMES,
    ActiveTracer,
    Span,
    TraceCollector,
    TraceContext,
    chrome_trace,
    critical_path,
    export_json,
    export_spans,
    summarize_traces,
)
from repro.transport.codec import (
    TRACED,
    decode_frame,
    decode_frame_traced,
    encode_frame,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "trace_schema.json")


def _traced_run(scenario, sample_rate: float = 1.0):
    """One traced sim run: ``(report, runner)``."""
    runner = ScenarioRunner(trace=True, trace_sample_rate=sample_rate)
    report = runner.run(scenario)
    return report, runner


def _slow_path_scenario() -> Scenario:
    # Four replicas with one crashed from t=0: the 3f+1 fast quorum
    # is unreachable, the 2f+1 slow quorum is not -- every command
    # commits via the client-combined slow path.
    return Scenario(
        name="slow-trace",
        protocol="ezbft",
        replica_regions=("local",) * 4,
        latency="local",
        workload=WorkloadSpec(mode="closed", clients_per_region=1,
                              requests_per_client=4),
        faults=(CrashReplica(at_ms=0.0, replica="r3"),),
        slow_path_timeout=50.0,
        retry_timeout=400.0,
        suspicion_timeout=30_000.0,
        view_change_timeout=30_000.0,
        seed=3,
    )


# ----------------------------------------------------------------------
# Determinism (the trace-as-regression-artifact guarantee)
# ----------------------------------------------------------------------
def test_seeded_sim_trace_is_byte_identical():
    scenario = preset("smoke")
    _, first = _traced_run(scenario)
    _, second = _traced_run(scenario)
    a = export_json(first.last_trace_spans,
                    dropped=first.last_trace["dropped_spans"])
    b = export_json(second.last_trace_spans,
                    dropped=second.last_trace["dropped_spans"])
    assert a == b
    assert first.last_trace["span_count"] > 0


def test_traced_report_summary_is_deterministic():
    scenario = preset("smoke")
    first, _ = _traced_run(scenario)
    second, _ = _traced_run(scenario)
    assert first.trace == second.trace


def test_tracing_does_not_perturb_the_run():
    # The traced run must deliver the same results as the untraced
    # one: tracing observes the protocol, it must not steer it.
    scenario = preset("smoke")
    untraced = ScenarioRunner().run(scenario).to_dict()
    traced, _ = _traced_run(scenario)
    traced = traced.to_dict()
    assert untraced.pop("wall_seconds") >= 0.0
    assert traced.pop("wall_seconds") >= 0.0
    assert traced.pop("trace")["traces"] > 0
    assert untraced == traced


# ----------------------------------------------------------------------
# Report fold
# ----------------------------------------------------------------------
def test_untraced_report_has_no_trace_key():
    runner = ScenarioRunner()
    report = runner.run(preset("smoke"))
    assert "trace" not in report.to_dict()
    assert runner.last_trace is None


def test_fast_path_commits_bucketed_fast():
    report, runner = _traced_run(preset("smoke"))
    by_path = report.trace["by_path"]
    assert set(by_path) == {"fast"}
    assert by_path["fast"]["count"] == report.delivered
    assert SPAN_CLIENT_REQUEST in by_path["fast"]["phase_ms"]
    names = {s.name for s in runner.last_trace_spans}
    # Every pipeline stage except the slow-path fallback shows up.
    assert names == set(SPAN_NAMES) - {SPAN_CLIENT_SLOW_PATH}


def test_protocol_without_the_tracing_seam_still_runs_traced():
    # PBFT's registry entry does not declare supports_tracing: the run
    # is unaffected and simply contributes no spans.
    report, runner = _traced_run(preset("smoke-pbft"))
    assert report.delivered == 12
    assert runner.last_trace["span_count"] == 0


def test_folded_commit_frame_marks_only_its_own_requests_trace():
    """A ``BatchCommitFast`` rides one request's root context; each
    replica records a ``replica.commit`` event for that request's inner
    commit and for no other (never into another request's trace)."""
    from repro.trace import SPAN_REPLICA_COMMIT
    from repro.trace.context import trace_id_for

    from helpers import lan_cluster

    cluster = lan_cluster(batch_size=8, batch_timeout_ms=5.0)
    tracer = ActiveTracer(clock=lambda: cluster.sim.now)
    cluster.network.tracer = tracer
    for replica in cluster.replicas.values():
        replica.attach_tracer(tracer)
    client = cluster.add_client("c0", "local", target_replica="r0")
    client.tracer = tracer
    client.submit_batch([client.next_command("put", f"k{i}", i)
                         for i in range(8)])
    cluster.run_until_idle()
    assert client.stats["delivered_fast"] == 8
    commits = [span for span in tracer.collector.spans()
               if span.name == SPAN_REPLICA_COMMIT]
    assert {span.trace_id for span in commits} == {trace_id_for("c0", 1)}
    assert sorted(span.node for span in commits) == \
        ["r0", "r1", "r2", "r3"]


def test_slow_path_commits_bucketed_slow():
    report, runner = _traced_run(_slow_path_scenario())
    by_path = report.trace["by_path"]
    assert set(by_path) == {"slow"}
    assert by_path["slow"]["count"] == report.delivered == 4
    names = {s.name for s in runner.last_trace_spans}
    assert SPAN_CLIENT_SLOW_PATH in names


# ----------------------------------------------------------------------
# Sampling + ring buffer
# ----------------------------------------------------------------------
def test_sample_rate_zero_collects_nothing():
    report, runner = _traced_run(preset("smoke"), sample_rate=0.0)
    assert runner.last_trace["span_count"] == 0
    assert report.trace["traces"] == 0
    assert report.delivered > 0  # the run itself is unaffected


def test_sampling_is_deterministic_per_trace_id():
    tracer = ActiveTracer(lambda: 0.0, collector=TraceCollector(),
                          sample_rate=0.5)
    decisions = [tracer.sampled(f"c{i}:{i}") for i in range(64)]
    again = [tracer.sampled(f"c{i}:{i}") for i in range(64)]
    assert decisions == again
    assert 0 < sum(decisions) < 64  # rate actually partitions ids


def test_collector_ring_bounds_memory_and_counts_drops():
    collector = TraceCollector(max_spans=2)
    tracer = ActiveTracer(lambda: 0.0, collector=collector)
    for i in range(3):
        span = tracer.start_span(SPAN_CLIENT_REQUEST, f"c{i}",
                                 trace_id=f"c{i}:{i}")
        tracer.end_span(span)
    assert len(collector.spans()) == 2
    assert collector.dropped == 1


# ----------------------------------------------------------------------
# Wire codec: TRACED frames are additive
# ----------------------------------------------------------------------
class _Hello:
    """Minimal message stand-in with a stable wire dict."""

    def to_wire(self):
        return {"type": "x", "n": 1}


def test_traced_frame_round_trips_context():
    ctx = TraceContext(trace_id="c0:1", span_id="c0:2")
    body = encode_frame("c0", ("127.0.0.1", 9), message=_Hello(),
                        trace=trace_context_to_bytes(ctx))
    assert body[0] == TRACED
    sender, addr, wire, trace = decode_frame_traced(body)
    assert (sender, addr) == ("c0", ("127.0.0.1", 9))
    assert wire == {"type": "x", "n": 1}
    assert trace_context_from_bytes(trace) == ctx


def test_plain_frames_still_decode_without_trace():
    body = encode_frame("r1", ("127.0.0.1", 9), message=_Hello())
    assert body[0] != TRACED
    sender, addr, wire, trace = decode_frame_traced(body)
    assert trace is None and wire == {"type": "x", "n": 1}
    # The 3-tuple decoder drops any trace context but keeps working.
    assert decode_frame(body) == (sender, addr, wire)


def test_hello_frames_ignore_trace_argument():
    ctx = trace_context_to_bytes(TraceContext("t", "s"))
    with_trace = encode_frame("r1", ("127.0.0.1", 9), trace=ctx)
    without = encode_frame("r1", ("127.0.0.1", 9))
    assert with_trace == without


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
def _span(span_id, name, node, start, end, trace_id="t1",
          parent=None, **attrs):
    span = Span(trace_id=trace_id, span_id=span_id, name=name,
                node=node, start_ms=start, parent_id=parent)
    span.end_ms = end
    span.attrs.update(attrs)
    return span


def test_critical_path_walks_latest_finishing_chain():
    root = _span("s1", "client.request", "c0", 0.0, 10.0, path="fast")
    early = _span("s2", "owner.lead", "r0", 1.0, 3.0, parent="s1")
    late = _span("s3", "replica.vote", "r1", 2.0, 8.0, parent="s1")
    chain = critical_path([root, early, late])
    assert [s.span_id for s, _ in chain] == ["s1", "s3"]
    self_times = {s.span_id: ms for s, ms in chain}
    # Root keeps only the time its chosen child does not cover.
    assert self_times == {"s1": 4.0, "s3": 6.0}


def test_post_completion_work_is_off_the_critical_path():
    # Fast-path COMMITFAST fan-out lands after the client delivered;
    # children finishing past the root's end are housekeeping, not
    # delivery latency.
    root = _span("s1", "client.request", "c0", 0.0, 10.0, path="fast")
    on_path = _span("s2", "owner.lead", "r0", 1.0, 9.0, parent="s1")
    after = _span("s3", "replica.commit", "r0", 9.5, 20.0,
                  parent="s1")
    chain = critical_path([root, on_path, after])
    assert [s.span_id for s, _ in chain] == ["s1", "s2"]


def test_summarize_buckets_by_root_path_tag():
    fast_root = _span("s1", "client.request", "c0", 0.0, 4.0,
                      trace_id="a", path="fast")
    slow_root = _span("s2", "client.request", "c1", 0.0, 9.0,
                      trace_id="b", path="slow")
    untagged = _span("s3", "client.request", "c2", 0.0, 1.0,
                     trace_id="c")
    summary = summarize_traces([fast_root, slow_root, untagged])
    assert set(summary["by_path"]) == {"fast", "slow", "untagged"}
    assert summary["by_path"]["fast"]["total_ms"] == 4.0
    assert summary["by_path"]["slow"]["total_ms"] == 9.0
    assert summary["traces"] == 3 and summary["spans"] == 3


# ----------------------------------------------------------------------
# /trace endpoint
# ----------------------------------------------------------------------
def test_obs_server_serves_ring_buffered_trace():
    from repro.obs import MetricsRegistry, ObsServer, fetch_json

    collector = TraceCollector()
    tracer = ActiveTracer(lambda: 5.0, collector=collector)
    span = tracer.start_span(SPAN_CLIENT_REQUEST, "c0",
                             trace_id="c0:1")
    tracer.end_span(span, attrs={"path": "fast"})

    async def scenario():
        server = ObsServer(
            MetricsRegistry(),
            trace=lambda: export_spans(collector.spans(),
                                       dropped=collector.dropped))
        await server.start()
        try:
            host, port = server.address
            return await fetch_json(host, port, "/trace")
        finally:
            await server.stop()

    body = asyncio.run(scenario())
    assert body["span_count"] == 1
    assert body["spans"][0]["name"] == SPAN_CLIENT_REQUEST
    assert body["spans"][0]["attrs"]["path"] == "fast"


def test_obs_server_trace_404_when_not_enabled():
    from repro.errors import TransportError
    from repro.obs import MetricsRegistry, ObsServer, fetch_json

    async def scenario():
        server = ObsServer(MetricsRegistry())
        await server.start()
        try:
            host, port = server.address
            with pytest.raises(TransportError, match="404"):
                await fetch_json(host, port, "/trace")
        finally:
            await server.stop()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Golden schema pin
# ----------------------------------------------------------------------
def current_schema():
    report, runner = _traced_run(preset("smoke"))
    export = export_spans(runner.last_trace_spans)
    chrome = chrome_trace(runner.last_trace_spans)
    bucket = report.trace["by_path"]["fast"]
    return {
        "export_keys": sorted(export),
        "span_keys": sorted(export["spans"][0]),
        "span_names": sorted(SPAN_NAMES),
        "chrome_event_keys": sorted(chrome["traceEvents"][0]),
        "report_trace_keys": sorted(report.trace),
        "report_trace_bucket_keys": sorted(bucket),
    }


def golden_schema():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_trace_schema_matches_golden_file():
    current = current_schema()
    golden = golden_schema()
    assert set(current) == set(golden), \
        "trace schema sections changed; regenerate the golden file " \
        "deliberately (see module docstring)"
    for section in golden:
        assert current[section] == golden[section], (
            f"trace schema drifted in {section!r}: the export is a "
            f"regression artifact consumed by CI and Perfetto "
            f"tooling.  If intentional, regenerate "
            f"tests/data/trace_schema.json (module docstring).")


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(current_schema(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print("pass --regen to rewrite the golden schema file")
