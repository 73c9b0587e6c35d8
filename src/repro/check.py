"""The safety verdict of a finished run: one pure function, :func:`check`.

A run is judged from what it left behind (:class:`Run`): each replica's
executed log (:class:`~repro.statemachine.base.ExecutedLog`, one
``(command, result)`` per command its state machine applied), each
replica's state root, what the clients accepted and what they still
wait for, the protocol's registry entry and the fault log.
:func:`observe` reads them off a deployment; tests, the scenario report
and the CLI all judge through :func:`check`.

Only *correct* nodes are judged: a node the fault log leaves crashed
(or its process killed) at the end, or swapped for a byzantine
behaviour at any point, is not.  The named checks:

- ``exactly_once``: one replica applied one command ident twice.
- ``order``: two correct replicas applied two interfering commands in
  opposite orders.  Commands interfere under the relation the protocol
  orders by -- the deployment's relation for a leaderless protocol,
  every pair for a primary-based one.  Each replica pair is compared
  in one pass, per key when the relation is ``key_based`` (commands on
  different keys never interfere); pairs are tested only inside a key
  whose orders differ.
- ``state``: two correct replicas applied the same commands after the
  same checkpoint but hold different state roots.
- ``reply``: a client accepted a result other than the one a correct
  replica applied for that command.
- ``liveness``: a correct client's request has been pending for more than
  :data:`LIVENESS_TIMEOUTS` retry timeouts, counted from the later of
  its submission and the last fault.

Logs are cut at stable checkpoints, so a command below a replica's
last stable checkpoint is judged no more.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.node import UNANSWERED, note_accepted
from repro.protocols.registry import ProtocolSpec, get_protocol
from repro.statemachine.base import Command, ExecutedLog
from repro.statemachine.interference import (
    AlwaysInterfere,
    InterferenceRelation,
    KVInterference,
    NeverInterfere,
    ReadWriteInterference,
)

CommandIdent = Tuple[str, int]
Violation = Dict[str, str]

#: A request may stay pending this many retry timeouts past the later
#: of its submission and the last fault before it counts as stuck.
LIVENESS_TIMEOUTS = 3

#: Fault-log events after which a node is down, and back up.
_DOWN = frozenset({"CrashReplica", "KillProcess"})
_UP = frozenset({"RecoverReplica", "RestartProcess"})

#: The relations a serialized :class:`Run` can name.
RELATIONS = {cls.__name__: cls for cls in (
    KVInterference, ReadWriteInterference, AlwaysInterfere,
    NeverInterfere)}


@dataclass
class Run:
    """A finished run, as :func:`check` reads it.

    ``accepted`` maps a client id to its ``accepted`` list (the result
    of each command at index timestamp - 1); ``pending`` maps each
    still-pending request's ident to its submission time.  Times are on
    the deployment's clock, the one ``fault_log``'s ``applied_ms`` and
    ``now_ms`` read.
    """

    spec: ProtocolSpec
    interference: InterferenceRelation
    records: Dict[str, ExecutedLog]
    roots: Dict[str, str]
    accepted: Dict[str, List[Any]]
    pending: Dict[CommandIdent, float]
    fault_log: List[Dict[str, Any]]
    retry_timeout: float
    now_ms: float

    def to_dict(self) -> Dict[str, Any]:
        """The JSON form of the run (the format of the replay fixtures
        under ``tests/data/check/``)."""
        return {
            "protocol": self.spec.name,
            "interference": type(self.interference).__name__,
            "records": {
                rid: {"watermark": record.watermark,
                      "entries": [[dataclasses.asdict(command), result]
                                  for command, result in record.entries]}
                for rid, record in sorted(self.records.items())},
            "roots": dict(sorted(self.roots.items())),
            "accepted": {
                client: [[timestamp, result] for timestamp, result
                         in enumerate(outcomes, start=1)
                         if result is not UNANSWERED]
                for client, outcomes in sorted(self.accepted.items())},
            "pending": [[client, timestamp, submitted]
                        for (client, timestamp), submitted
                        in sorted(self.pending.items())],
            "fault_log": list(self.fault_log),
            "retry_timeout": self.retry_timeout,
            "now_ms": self.now_ms,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Run":
        return cls(
            spec=get_protocol(data["protocol"]),
            interference=RELATIONS[data["interference"]](),
            records={
                rid: ExecutedLog(
                    [(Command(**command), result)
                     for command, result in record["entries"]],
                    watermark=record["watermark"])
                for rid, record in data["records"].items()},
            roots=dict(data["roots"]),
            accepted={client: _accepted(outcomes)
                      for client, outcomes in data["accepted"].items()},
            pending={(client, timestamp): submitted
                     for client, timestamp, submitted in data["pending"]},
            fault_log=list(data["fault_log"]),
            retry_timeout=data["retry_timeout"],
            now_ms=data["now_ms"],
        )


def _accepted(outcomes: List[Tuple[int, Any]]) -> List[Any]:
    accepted: List[Any] = []
    for timestamp, result in outcomes:
        note_accepted(accepted, timestamp, result)
    return accepted


def observe(cluster: Any,
            fault_log: Sequence[Dict[str, Any]] = ()) -> Run:
    """The run a deployment (either backend's cluster) has left so far:
    the replicas and clients this process hosts, judged against
    ``fault_log`` (a :class:`~repro.scenario.faults.FaultInjector`
    log, on the cluster's clock)."""
    clients = cluster.clients
    return Run(
        spec=cluster.spec,
        interference=cluster.interference,
        records={rid: replica.statemachine.record
                 for rid, replica in cluster.replicas.items()},
        roots={rid: replica.statemachine.snapshot().root
               for rid, replica in cluster.replicas.items()},
        accepted={cid: client.accepted for cid, client in clients.items()},
        pending={ident: pending.start_time
                 for client in clients.values()
                 for ident, pending in client._pending.items()},
        fault_log=list(fault_log),
        retry_timeout=cluster.config.retry_timeout,
        now_ms=cluster.now_ms(),
    )


def check(run: Run) -> List[Violation]:
    """Every violation ``run`` shows, as ``{"check", "detail"}`` dicts
    (module docstring); empty for a safe run."""
    faulty = _faulty(run.fault_log)
    correct = sorted(set(run.records) - faulty)
    relation = run.interference if run.spec.leaderless \
        else AlwaysInterfere()
    violations: List[Violation] = []
    for i, rid in enumerate(correct):
        entries = run.records[rid].entries
        first = _first_positions(entries)
        if len(first) < len(entries):
            violations.extend(_repeats(rid, entries, first))
        for other in correct[i + 1:]:
            violations.extend(_order(rid, first, other,
                                     run.records[other].entries,
                                     relation))
    violations.extend(_state(run, correct))
    violations.extend(_replies(run, correct))
    violations.extend(_liveness(run, faulty))
    return violations


def _violation(name: str, detail: str) -> Violation:
    return {"check": name, "detail": detail}


def _faulty(fault_log: List[Dict[str, Any]]) -> Set[str]:
    """The nodes ``fault_log`` leaves down, or ever swapped for a
    byzantine behaviour."""
    down, byzantine = set(), set()
    for entry in fault_log:
        event, node = entry["event"], entry["replica"]
        if event in _DOWN:
            down.add(node)
        elif event in _UP:
            down.discard(node)
        elif event == "SwapByzantine":
            byzantine.add(node)
    return down | byzantine


def _first_positions(entries: List[Tuple[Command, Any]]
                     ) -> Dict[CommandIdent, int]:
    first: Dict[CommandIdent, int] = {}
    for position, (command, _) in enumerate(entries):
        first.setdefault(command.ident, position)
    return first


def _repeats(rid: str, entries: List[Tuple[Command, Any]],
             first: Dict[CommandIdent, int]) -> List[Violation]:
    return [_violation("exactly_once",
                       f"{rid} applied {command.ident} again at "
                       f"{position} (first at {first[command.ident]})")
            for position, (command, _) in enumerate(entries)
            if first[command.ident] != position]


def _order(a: str, first_a: Dict[CommandIdent, int], b: str,
           entries_b: List[Tuple[Command, Any]],
           relation: InterferenceRelation) -> List[Violation]:
    """Interfering pairs ``a`` and ``b`` applied in opposite orders,
    one per bucket.  Walking ``b``'s log, the positions in ``a`` of
    their common commands rise within every bucket where the two
    orders agree; only a bucket where one falls is tested pairwise."""
    def bucket(command: Command) -> str:
        return command.key if relation.key_based else ""

    last: Dict[str, int] = {}
    differing = set()
    for command, _ in entries_b:
        position = first_a.get(command.ident)
        if position is None:
            continue
        key = bucket(command)
        if position < last.get(key, -1):
            differing.add(key)
        last[key] = position
    if not differing:
        return []
    # Each differing bucket's common commands in b's order, first
    # occurrences only.
    sequences: Dict[str, List[Command]] = {key: [] for key in differing}
    seen = set()
    for command, _ in entries_b:
        ident = command.ident
        key = bucket(command)
        if key in sequences and ident in first_a and ident not in seen:
            seen.add(ident)
            sequences[key].append(command)
    violations = []
    for key in sorted(differing):
        found = _inversion(sequences[key], first_a, relation)
        if found is not None:
            x, y = found
            violations.append(_violation(
                "order", f"{a} applied {y.ident} before {x.ident}, "
                f"{b} after"))
    return violations


def _inversion(sequence: List[Command], first_a: Dict[CommandIdent, int],
               relation: InterferenceRelation
               ) -> Optional[Tuple[Command, Command]]:
    """The first interfering pair ``sequence`` holds in the opposite
    order to ``first_a``'s, if any."""
    for i, x in enumerate(sequence):
        at = first_a[x.ident]
        for y in sequence[i + 1:]:
            if first_a[y.ident] < at and relation.interferes(x, y):
                return x, y
    return None


def _state(run: Run, correct: List[str]) -> List[Violation]:
    """Replicas whose logs start after the same checkpoint and hold the
    same commands must hold the same root.  Roots are compared first,
    so the command sets are built only where roots differ."""
    groups: Dict[Tuple[int, int], List[str]] = {}
    for rid in correct:
        record = run.records[rid]
        groups.setdefault((record.watermark, len(record.entries)),
                          []).append(rid)
    violations = []
    for members in groups.values():
        if len({run.roots[rid] for rid in members}) < 2:
            continue
        applied: Dict[frozenset, str] = {}
        for rid in members:
            idents = frozenset(command.ident for command, _
                               in run.records[rid].entries)
            twin = applied.setdefault(idents, rid)
            if run.roots[twin] != run.roots[rid]:
                violations.append(_violation(
                    "state", f"{twin} and {rid} applied the same "
                    f"commands but hold roots {run.roots[twin][:12]} "
                    f"and {run.roots[rid][:12]}"))
    return violations


def _replies(run: Run, correct: List[str]) -> List[Violation]:
    violations = []
    for rid in correct:
        for command, result in run.records[rid].entries:
            outcomes = run.accepted.get(command.client_id, ())
            if not 0 < command.timestamp <= len(outcomes):
                continue
            accepted = outcomes[command.timestamp - 1]
            if accepted is not UNANSWERED and accepted != result:
                violations.append(_violation(
                    "reply", f"{command.client_id} accepted {accepted!r} "
                    f"for {command.ident}; {rid} applied {result!r}"))
    return violations


def _liveness(run: Run, faulty: Set[str]) -> List[Violation]:
    last_fault = max((entry["applied_ms"] for entry in run.fault_log),
                     default=float("-inf"))
    bound = LIVENESS_TIMEOUTS * run.retry_timeout
    violations = []
    for ident, submitted in sorted(run.pending.items()):
        if ident[0] in faulty:
            continue
        waited = run.now_ms - max(submitted, last_fault)
        if waited > bound:
            violations.append(_violation(
                "liveness", f"{ident} pending for {waited:.1f} ms, "
                f"more than {bound:.1f} ms"))
    return violations
