"""The bench ledger: one command for every number the repo reports.

Two ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, the way the benchmark driver calls it.  ``S`` seconds
    of measurement are split over :data:`REPS` fresh subprocesses
    (``--trace 1``: one subprocess, wrappers on); the last line of
    standard output is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics``.

``run.py [--reps R] [--layers] [--spans-out DIR] [--aa] [--quick] [--out F]``
    The whole ledger: every workload, repetitions interleaved
    (A B C ... A B C ...), each a fresh subprocess; medians with
    quartiles and sample counts; non-zero exit when the correctness gate
    fails.  ``--layers`` adds the traced pass, ``--aa`` runs two sets
    and fails if they disagree by more than a metric's bound.

Nothing under ``src/`` is edited or imported here: every repetition
runs ``worker.py``, which drives the library from outside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
from catalog import Metric, Summary, summarize, worse_by  # noqa: E402

#: Fresh subprocesses one run of a workload is split over.
REPS = 3
#: ``run_seconds`` of ``BENCHMARK.json``: what one run measures.
RUN_SECONDS = 12
#: No repetition may take longer than this, set-up included.
REP_TIMEOUT_S = 170
DEFAULT_SEED = 42

Record = Dict[str, Any]


class LedgerError(Exception):
    """A repetition could not be used: crashed, timed out, or invalid
    twice in a row."""


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: float, trace: int,
          spans_out: Optional[str] = None) -> Record:
    """One repetition in a fresh subprocess; returns its record."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:.3f}", "--trace", str(trace),
               "--spawned-at", repr(time.time())]
    if spans_out:
        command += ["--spans-out", spans_out]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise LedgerError(f"{workload}: repetition exceeded "
                          f"{REP_TIMEOUT_S} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise LedgerError(
            f"{workload}: repetition exited {done.returncode}\n"
            f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def repetition(workload: str, seed: int, seconds: float) -> Record:
    """An untraced repetition; an invalid one (the paced generator ran
    late) is rerun once, then fails."""
    record = spawn(workload, seed, seconds, trace=0)
    if not record["valid"]:
        print(f"# {workload}: {record['invalid']}; rerunning once",
              flush=True)
        record = spawn(workload, seed, seconds, trace=0)
        if not record["valid"]:
            raise LedgerError(f"{workload}: {record['invalid']} "
                              f"(twice)")
    return record


def run_workload(workload: str, seed: int, seconds: float
                 ) -> List[Record]:
    """Repetitions back to back, each asked for a :data:`REPS`-th of
    ``seconds``, until they have measured ``seconds`` between them: at
    least two, and :data:`REPS` unless a repetition runs over its share
    (``sim_saturated`` measures a fixed scenario, however long that
    takes: three passes on a quiet host, two on a slow one)."""
    records: List[Record] = []
    measured = 0.0
    while len(records) < 2 or measured < seconds * 0.95:
        records.append(repetition(workload, seed, seconds / REPS))
        measured += records[-1]["measured_s"]
    return records


# ----------------------------------------------------------------------
# From records to metrics
# ----------------------------------------------------------------------
def samples_of(records: Sequence[Record], kind: str = "ref"
               ) -> Dict[str, List[float]]:
    """Every end-to-end metric's samples over a workload's repetitions:
    one per timed window for rates and TCP latency, one per repetition
    otherwise.  ``kind`` is ``"ref"`` (wall-clock and CPU figures at
    reference speed, see ``calibrate.py``) or ``"raw"`` (as measured).
    """
    samples: Dict[str, List[float]] = {
        "failed_share": [sum(r["failed"] for r in records) /
                         sum(r["attempted"] for r in records)]}
    for record in records:
        for name, values in record[kind].items():
            samples.setdefault(name, []).extend(values)
    return samples


def violations_of(workload: str, records: Sequence[Record]
                  ) -> List[str]:
    """The correctness gate over a workload's repetitions."""
    problems = [f"{workload}: {v}" for r in records
                for v in r["violations"]]
    failed = sum(r["failed"] for r in records)
    if failed:
        problems.append(f"{workload}: {failed} requests not committed "
                        f"with the correct reply")
    seeds = {r["seed"] for r in records}
    exact = [r["exact"] for r in records if r.get("exact")]
    if len(seeds) == 1 and any(e != exact[0] for e in exact):
        problems.append(f"{workload}: counts or simulated-clock values "
                        f"differ between repetitions: {exact}")
    return problems


def end_to_end(workload: str, records: Sequence[Record],
               kind: str = "ref") -> Dict[str, Tuple[Metric, Summary]]:
    """name -> (metric, summary) for every end-to-end metric the
    workload reports, the contract's five first."""
    samples = samples_of(records, kind)
    out = {}
    for metric in catalog.END_TO_END + catalog.LEDGER_ONLY:
        if metric.reported_on(workload) and metric.name in samples:
            out[metric.name] = (metric, summarize(samples[metric.name]))
    return out


def machine_speed(records: Sequence[Record]) -> float:
    """Median over repetitions of how fast the machine ran relative to
    nominal: divide a time by it to get the raw measurement back."""
    return statistics.median(r["speed"] for r in records)


def show(workload: str, records: Sequence[Record]
         ) -> Dict[str, Tuple[Metric, Summary]]:
    """Print a workload's end-to-end metrics; returns the table."""
    table = end_to_end(workload, records)
    raw = end_to_end(workload, records, "raw")
    print(f"# {workload}: machine speed "
          f"{machine_speed(records):.3f} of nominal; times are at "
          f"reference speed, 'raw' as measured", flush=True)
    for name, (metric, s) in table.items():
        print(f"{workload:14s} {name:18s} {s.median:12.4f} "
              f"{metric.unit:5s} [q1 {s.q1:.4f}, q3 {s.q3:.4f}] "
              f"n={s.count}  raw {raw[name][1].median:.4f}", flush=True)
    return table


def show_layers(workload: str, layers: Dict[str, float]) -> None:
    units = {m.name: m.unit for m in catalog.PER_LAYER}
    for name, value in layers.items():
        print(f"{workload:14s} {name:42s} {value:14.4f} "
              f"{units[name]}", flush=True)


# ----------------------------------------------------------------------
# The driver's way in: one workload
# ----------------------------------------------------------------------
def spans_path(directory: Optional[str], workload: str
               ) -> Optional[str]:
    return os.path.join(directory, f"{workload}.spans.json") \
        if directory else None


def contract_run(workload: str, seed: int, seconds: float, trace: int,
                 spans_out: Optional[str]) -> int:
    if trace:
        record = spawn(workload, seed, seconds, trace=1,
                       spans_out=spans_path(spans_out, workload))
        show_layers(workload, record["layers"])
        problems = [f"{workload}: {v}" for v in record["violations"]]
        units = {m.name: m.unit for m in catalog.PER_LAYER}
        metrics = {name: {"value": record["layers"][name],
                          "unit": units[name]} for name in units}
        attempted, failed = record["attempted"], record["failed"]
    else:
        records = run_workload(workload, seed, seconds)
        table = show(workload, records)
        problems = violations_of(workload, records)
        metrics = {m.name: {"value": table[m.name][1].median,
                            "unit": m.unit}
                   for m in catalog.END_TO_END}
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
    for problem in problems:
        print(f"VIOLATION {problem}", flush=True)
    print(json.dumps({"correct": not problems and not failed,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems or failed else 0


# ----------------------------------------------------------------------
# The whole ledger
# ----------------------------------------------------------------------
def ledger_set(names: Sequence[str], seed: int, seconds: float,
               reps: int) -> Dict[str, List[Record]]:
    """One full set: ``reps`` passes over the workloads, interleaved."""
    records: Dict[str, List[Record]] = {name: [] for name in names}
    for rep in range(reps):
        for name in names:
            print(f"# rep {rep + 1}/{reps} {name}", flush=True)
            records[name].append(repetition(name, seed, seconds / reps))
    return records


def compare_sets(first: Dict[str, List[Record]],
                 second: Dict[str, List[Record]],
                 enforce: bool) -> List[str]:
    """Print both sets side by side; returns the pairs whose gap
    exceeds the metric's bound (exact metrics: any gap at all).  The
    gap between the raw medians is shown beside the gated one, so what
    reference speed buys can be read off."""
    problems = []
    for workload in first:
        raw_a = end_to_end(workload, first[workload], "raw")
        raw_b = end_to_end(workload, second[workload], "raw")
        table_b = end_to_end(workload, second[workload])
        for name, (metric, a) in end_to_end(workload,
                                            first[workload]).items():
            b = table_b[name][1]
            gap = worse_by(metric, a.median, b.median)
            raw_gap = worse_by(metric, raw_a[name][1].median,
                               raw_b[name][1].median)
            exact = workload in metric.exact_on
            bound = 0.0 if exact else metric.bound
            print(f"{workload:14s} {name:18s} "
                  f"A {a.median:11.4f} [{a.q1:.4f}, {a.q3:.4f}]  "
                  f"B {b.median:11.4f} [{b.q1:.4f}, {b.q3:.4f}]  "
                  f"gap {gap:+.4f} (raw {raw_gap:+.4f})  "
                  f"bound {bound:.2f}{' exact' if exact else ''}",
                  flush=True)
            over = a.median != b.median if exact else abs(gap) > bound
            if enforce and over:
                problems.append(
                    f"{workload} {name}: A {a.median:.6g} vs "
                    f"B {b.median:.6g} (gap {gap:+.4f}, bound "
                    f"{bound:.2f})")
    return problems


def environment() -> Dict[str, Any]:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform()}


def summaries(table: Dict[str, Tuple[Metric, Summary]]
              ) -> Dict[str, Dict[str, Any]]:
    return {name: {"median": s.median, "q1": s.q1, "q3": s.q3,
                   "n": s.count, "unit": metric.unit}
            for name, (metric, s) in table.items()}


def ledger_run(args: argparse.Namespace) -> int:
    names = list(catalog.WORKLOADS)
    reps = 1 if args.quick else args.reps
    seconds = args.seconds / 3 if args.quick else args.seconds
    problems: List[str] = []
    sets: List[Dict[str, List[Record]]] = []
    for label in ("A", "B") if args.aa else ("A",):
        if args.aa:
            print(f"# set {label}", flush=True)
        sets.append(ledger_set(names, args.seed, seconds, reps))
        for name in names:
            show(name, sets[-1][name])
            problems += violations_of(name, sets[-1][name])
    if args.aa:
        problems += compare_sets(sets[0], sets[1],
                                 enforce=not args.quick)
    layers: Dict[str, Dict[str, float]] = {}
    if args.layers:
        for name in names:
            print(f"# traced pass {name}", flush=True)
            # One repetition of twice the time: the seam and overhead
            # ratios each come from a slice of it.
            record = spawn(name, args.seed, 2 * seconds, trace=1,
                           spans_out=spans_path(args.spans_out, name))
            layers[name] = record["layers"]
            show_layers(name, record["layers"])
            problems += [f"{name} (traced): {v}"
                         for v in record["violations"]]
    if args.out:
        # Both sets of an --aa run, each with its raw figures: what two
        # runs of the same code disagree by, with and without the
        # reference-speed correction, can be read off the file.
        document = {
            "schema": 2, "seed": args.seed, "seconds": seconds,
            "reps": reps, **environment(),
            "sets": [{
                "machine_speed": {name: machine_speed(records[name])
                                  for name in names},
                "end_to_end": {name: summaries(end_to_end(
                    name, records[name])) for name in names},
                "end_to_end_raw": {name: summaries(end_to_end(
                    name, records[name], "raw")) for name in names},
            } for records in sets],
            "per_layer": layers,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for problem in problems:
        print(f"VIOLATION {problem}", flush=True)
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS),
                        help="run one workload the driver's way")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured seconds per workload "
                             "(default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=REPS,
                        help="repetitions per workload (fresh "
                             "subprocess each, default %(default)s)")
    parser.add_argument("--layers", action="store_true",
                        help="add the traced per-layer pass")
    parser.add_argument("--spans-out", metavar="DIR",
                        help="traced pass (--layers or --trace 1): "
                             "write DIR/<workload>.spans.json")
    parser.add_argument("--aa", action="store_true",
                        help="run two sets; fail if they disagree")
    parser.add_argument("--quick", action="store_true",
                        help="1 rep, a third of the time, bounds not "
                             "enforced")
    parser.add_argument("--out", metavar="FILE",
                        help="write the result as LEDGER_<rev>.json")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("the ledger measures the library under src/repro, which "
              "this checkout does not have", file=sys.stderr)
        return 2
    try:
        if args.workload:
            return contract_run(args.workload, args.seed, args.seconds,
                                args.trace, args.spans_out)
        return ledger_run(args)
    except LedgerError as error:
        print(f"FAILED {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
