"""Final-execution engine: dependency graph -> deterministic application.

Paper Section IV-B: a committed command is executed once all its
dependencies are committed; the committed subgraph is condensed into
strongly connected components, components run in inverse topological
order, and commands inside a component run in sequence-number order with
replica-id tie-breaks.

Exactly-once: the same logical command can end up committed in two
instances (the original leader's slot recovered by an owner change *and*
the client's retry through another leader).  The executor therefore
de-duplicates by command identity -- the second occurrence is treated as
a no-op but still marked executed so the graph makes progress, and the
original result is preserved for the client.

Checkpoint garbage collection: :meth:`truncate` drops the execution
bookkeeping below a stable checkpoint's per-space frontier, and
:meth:`install` fast-forwards a lagging replica onto a transferred
snapshot.  Executed-command identities are tracked as a per-client
contiguous floor plus a sparse out-of-order window (clients assign
consecutive timestamps), so exactly-once bookkeeping stays bounded by
the in-flight window instead of growing with history.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.instance import EntryStatus, LogEntry
from repro.graph import execution_batches
from repro.statemachine.base import Command, StateMachine
from repro.trace.span import SPAN_EXEC_APPLY
from repro.trace.tracer import NULL_TRACER
from repro.types import InstanceID

CommandIdent = Tuple[str, int]


class ExecutedIdents:
    """Which ``(client, timestamp)`` idents have executed: per client,
    every timestamp up to a contiguous floor plus a sparse set above it.
    Clients number commands 1, 2, 3, ... but pipeline them, so the set
    holds out-of-order executions until the floor absorbs them."""

    def __init__(self, floors: Optional[Dict[str, int]] = None,
                 sparse: Optional[Dict[str, Iterable[int]]] = None
                 ) -> None:
        self._floor: Dict[str, int] = dict(floors or {})
        self._sparse: Dict[str, Set[int]] = {
            client: set(ts_list)
            for client, ts_list in (sparse or {}).items() if ts_list
        }

    def __contains__(self, ident: CommandIdent) -> bool:
        client, timestamp = ident
        if timestamp <= self._floor.get(client, 0):
            return True
        return timestamp in self._sparse.get(client, ())

    def record(self, ident: CommandIdent) -> None:
        client, timestamp = ident
        floor = self._floor.get(client, 0)
        if timestamp <= floor:
            return
        sparse = self._sparse.setdefault(client, set())
        sparse.add(timestamp)
        while floor + 1 in sparse:
            floor += 1
            sparse.discard(floor)
        self._floor[client] = floor
        if not sparse:
            self._sparse.pop(client, None)

    def latest(self) -> Dict[str, int]:
        """Per-client highest executed timestamp."""
        latest = dict(self._floor)
        for client, sparse in self._sparse.items():
            latest[client] = max(latest.get(client, 0), max(sparse))
        return latest

    def progress(self) -> Tuple[Dict[str, int], Dict[str, List[int]]]:
        """Deterministic form for checkpoint snapshots: (contiguous
        floors, sorted executed timestamps above each floor)."""
        return dict(self._floor), {
            client: sorted(ts_set)
            for client, ts_set in self._sparse.items()}


class DependencyExecutor:
    """Tracks final-execution progress over a replica's whole log."""

    #: Tracing seam (no-op by default).  When live, the replica also
    #: sets :attr:`trace_parent` so each final application is recorded
    #: as an ``exec.apply`` span under the request's dependency-wait
    #: span; the disabled path is one attribute test per execution.
    tracer = NULL_TRACER
    #: ``trace_parent(entry) -> Optional[TraceContext]``, set by the
    #: replica when tracing is on (it owns the commit-time context
    #: bookkeeping the executor has no business knowing about).
    trace_parent = None
    #: Node id stamped on this executor's spans.
    trace_node = ""

    def __init__(self, statemachine: StateMachine) -> None:
        self.statemachine = statemachine
        #: Called after every single entry executes (checkpoint capture
        #: hook).  Captures must happen exactly at interval boundaries:
        #: one try_execute call can execute a whole dependency wave, so
        #: checking only between calls would capture at stray watermarks
        #: that never match other replicas' attestations.
        self.on_execute = None
        #: Optional escape hatch for dependencies on *duplicate*
        #: instances: ``dep_waiver(iid) -> bool`` may declare a dep
        #: satisfied even though the instance never committed.  The
        #: replica wires this to "the instance's command already
        #: executed via another instance" -- safe because execution is
        #: exactly-once by command identity, so any later commit of
        #: the duplicate applies as a cache hit, and every replica
        #: still applies the command before anything that depended on
        #: it.
        self.dep_waiver = None
        self.executed: Set[InstanceID] = set()
        self._results: Dict[CommandIdent, Any] = {}
        #: Committed entries from earlier calls still blocked on
        #: uncommitted dependencies (the incremental-frontier cache).
        self._deferred: Dict[InstanceID, LogEntry] = {}
        #: Entries executed (noops and duplicates too), the count a
        #: checkpoint's watermark is taken at.
        self.executed_count = 0
        #: Per-space first retained slot; instances below are durably
        #: executed (stable checkpoint) and treated as executed deps.
        self._low_slots: Dict[str, int] = {}
        self.idents = ExecutedIdents()

    def try_execute(self, log_index: Dict[InstanceID, LogEntry],
                    candidates: Any = None) -> List[LogEntry]:
        """Execute every committed entry whose dependency closure is
        committed.  Returns the entries executed by this call, in order.

        ``candidates`` (an iterable of newly committed entries) keeps
        the hot path incremental: only those entries plus the blocked
        frontier from earlier calls are considered, instead of
        re-scanning the whole log on every commit.  Without it, the
        full ``log_index`` is scanned (the original semantics)."""
        if candidates is None:
            pool = {
                iid: entry for iid, entry in log_index.items()
                if entry.status == EntryStatus.COMMITTED
            }
        else:
            pool = dict(self._deferred)
            for entry in candidates:
                if entry.status == EntryStatus.COMMITTED and \
                        entry.instance not in self.executed:
                    pool[entry.instance] = entry
        executed_now: List[LogEntry] = []
        # Executing a wave can newly satisfy a dep_waiver for entries
        # deferred in the same call (the duplicate's command just
        # executed), so iterate to the fixpoint instead of waiting for
        # the next commit to re-trigger us.
        while pool:
            ready = self._ready_set(pool)
            self._deferred = {
                iid: entry for iid, entry in pool.items()
                if iid not in ready
            }
            if not ready:
                break
            graph = {
                iid: [d for d in entry.deps if d in ready]
                for iid, entry in ready.items()
            }
            for batch in execution_batches(
                    graph, sort_key=lambda iid: ready[iid].sort_key):
                for iid in batch:
                    entry = ready[iid]
                    self._execute_entry(entry)
                    executed_now.append(entry)
            pool = dict(self._deferred)
        return executed_now

    def result_of(self, ident: CommandIdent) -> Any:
        """Final result of an already-executed command."""
        return self._results.get(ident)

    def has_executed(self, ident: CommandIdent) -> bool:
        return ident in self.idents

    def is_executed_instance(self, iid: InstanceID) -> bool:
        """Executed here, or durably executed below a checkpoint."""
        return iid in self.executed or \
            iid.slot < self._low_slots.get(iid.owner, 0)

    def latest_executed_ts(self) -> Dict[str, int]:
        """Per-client highest executed timestamp."""
        return self.idents.latest()

    def client_progress(self) -> Tuple[Dict[str, int],
                                       Dict[str, List[int]]]:
        """Deterministic exactly-once state for checkpoint snapshots:
        (contiguous floors, sorted executed timestamps above floor)."""
        return self.idents.progress()

    def latest_results(self) -> Dict[str, Any]:
        """Per-client result of the latest executed command, where still
        retained -- the reply-cache portion of a checkpoint snapshot."""
        out: Dict[str, Any] = {}
        for client, timestamp in self.latest_executed_ts().items():
            ident = (client, timestamp)
            if ident in self._results:
                out[client] = self._results[ident]
        return out

    # ------------------------------------------------------------------
    # Checkpoint GC and state transfer
    # ------------------------------------------------------------------
    def truncate(self, low_slots: Dict[str, int],
                 dropped: Iterable[Tuple[Command, Any]]) -> None:
        """Garbage-collect bookkeeping below a stable checkpoint.

        ``low_slots`` maps each space to its first retained slot;
        ``dropped`` is what the state machine's record cut below the
        checkpoint.  Results are retained for each client's latest
        executed command (the reply-cache contract); everything older
        is durable in the checkpoint and can go."""
        for owner, slot in low_slots.items():
            if slot > self._low_slots.get(owner, 0):
                self._low_slots[owner] = slot
        self.executed = {
            iid for iid in self.executed
            if iid.slot >= self._low_slots.get(iid.owner, 0)
        }
        latest = self.latest_executed_ts()
        for command, _ in dropped:
            if command.timestamp != latest.get(command.client_id):
                self._results.pop(command.ident, None)

    def install(self, watermark: int, low_slots: Dict[str, int],
                client_floors: Dict[str, int],
                client_sparse: Dict[str, Iterable[int]],
                executed_above: Iterable[InstanceID],
                client_results: Optional[Dict[str, Any]] = None) -> None:
        """Fast-forward onto a transferred stable checkpoint.

        The snapshot's state already reflects the first ``watermark``
        executions; ``executed_above`` lists the instances among them
        that sit above the GC frontier (they must be marked executed
        without re-applying their commands).  ``client_results`` seeds
        the latest-result-per-client cache so duplicate commits keep
        answering with the real result after the transfer."""
        for owner, slot in low_slots.items():
            if slot > self._low_slots.get(owner, 0):
                self._low_slots[owner] = slot
        self.executed_count = watermark
        self.executed = set(executed_above)
        self.idents = ExecutedIdents(client_floors, client_sparse)
        self._results = {}
        if client_results:
            latest = self.latest_executed_ts()
            for client, result in client_results.items():
                if client in latest:
                    self._results[(client, latest[client])] = result
        self._deferred = {}

    # ------------------------------------------------------------------
    def _ready_set(self, pool: Dict[InstanceID, LogEntry]
                   ) -> Dict[InstanceID, LogEntry]:
        """Committed-but-unexecuted entries whose dependencies are all
        either executed or also in the returned set (fixpoint)."""
        candidates = dict(pool)
        changed = True
        while changed:
            changed = False
            for iid in list(candidates):
                entry = candidates[iid]
                for dep in entry.deps:
                    if dep in candidates or \
                            self.is_executed_instance(dep) or \
                            (self.dep_waiver is not None and
                             self.dep_waiver(dep)):
                        continue
                    del candidates[iid]
                    changed = True
                    break
        return candidates

    def _execute_entry(self, entry: LogEntry) -> None:
        ident = entry.command.ident
        span = None
        tracer = self.tracer
        if tracer.enabled and self.trace_parent is not None:
            span = tracer.start_span(SPAN_EXEC_APPLY, self.trace_node,
                                     parent=self.trace_parent(entry))
        if entry.command.is_noop:
            entry.final_result = None
        elif self.has_executed(ident):
            entry.final_result = self._results.get(ident)
        else:
            entry.final_result = self.statemachine.apply(entry.command)
            entry.applied = True
            self._results[ident] = entry.final_result
        if span is not None:
            tracer.end_span(span)
        if not entry.command.is_noop:
            self.idents.record(ident)
        entry.status = EntryStatus.EXECUTED
        self.executed.add(entry.instance)
        self.executed_count += 1
        if self.on_execute is not None:
            self.on_execute(entry)
