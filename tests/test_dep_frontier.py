"""Dependency collection ships the transitive frontier of the paper's
dependency set D, not the set (``EzBFTReplica._collect_deps``).

An older instance is left out only when a later instance of the same
space is in the result, interferes with it, and was finally executed
here by really applying its command.  These tests pin the rule and each
thing that may never stand in for an older instance; the reference --
the full set -- is computed here, never by the replica.
"""

import collections
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.byzantine import (
    install_byzantine,
    silence_node,
)
from repro.check import check, observe
from repro.core.instance import EntryStatus, LogEntry
from repro.errors import SimulationError
from repro.messages.base import SignedPayload
from repro.messages.ezbft import Commit, Request, SpecReplyBundle
from repro.sim.network import NetworkConditions
from repro.statemachine.base import Command
from repro.statemachine.interference import (
    AlwaysInterfere,
    KVInterference,
    NeverInterfere,
    ReadWriteInterference,
)
from repro.storage import ReplicaStorage
from repro.types import InstanceID
from repro.workload.drivers import ClosedLoopDriver

from helpers import (
    DeliveryLog,
    faults,
    geo_cluster,
    lan_cluster,
)

HOT = "hot"


def full_deps(replica, command):
    """The paper's D: every logged instance that interferes."""
    return tuple(sorted(
        iid for iid, entry in replica._log_index.items()
        if replica.interference.interferes(entry.command, command)))


def probe(op, value=None):
    return Command(client_id="probe", timestamp=1, op=op, key=HOT,
                   value=value)


def deps_for(replica, command):
    return replica._collect_deps(command, exclude=InstanceID("none", 0))


def commit_one(cluster, client, op, value=None):
    """One command through ``client``, run to quiescence: committed,
    executed and applied at every replica."""
    command = client.next_command(op, HOT, value)
    client.submit(command)
    cluster.run_until_idle()
    return command


def stall(cluster, client, op, value=None, key=HOT):
    """Propose a command whose client then goes deaf and silent: the
    instance stays spec-ordered at every replica for the whole test."""
    silence_node(cluster, client.client_id)
    command = client.next_command(op, key, value)
    client.submit(command)
    client._pending[command.ident].cancel_timers()
    cluster.run_until_idle()
    return command


def instance_of(replica, command):
    return replica._find_entry_for_command(command).instance


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------
def test_applied_get_covers_older_put_for_a_put_but_not_for_a_get():
    """The relation is not transitive: get/get do not interfere, so an
    applied ``get`` stands in for the older ``put`` only where the
    ``get`` itself is a dependency."""
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local", target_replica="r1")
    put = commit_one(cluster, client, "put", "a")
    get = commit_one(cluster, client, "get")
    for replica in cluster.replicas.values():
        alpha = instance_of(replica, put)
        gamma = instance_of(replica, get)
        assert alpha.owner == gamma.owner == "r1"
        assert replica._log_index[gamma].applied
        assert full_deps(replica, probe("put")) == (alpha, gamma)
        assert deps_for(replica, probe("put", "b")) == (gamma,)
        # gamma is not in a get's result, so it cannot cover there.
        assert deps_for(replica, probe("get")) == (alpha,)
        assert full_deps(replica, probe("get")) == (alpha,)


def test_cover_is_per_instance_space():
    """An applied instance stands in for older ones of its own space
    only: the argument runs through slot order, which spaces do not
    share."""
    cluster = lan_cluster()
    via_r1 = cluster.add_client("c1", "local", target_replica="r1")
    via_r2 = cluster.add_client("c2", "local", target_replica="r2")
    first = commit_one(cluster, via_r1, "put", 1)
    second = commit_one(cluster, via_r2, "put", 2)
    third = commit_one(cluster, via_r2, "put", 3)
    replica = cluster.replicas["r0"]
    assert full_deps(replica, probe("put")) == tuple(sorted(
        instance_of(replica, c) for c in (first, second, third)))
    assert deps_for(replica, probe("put")) == tuple(sorted(
        instance_of(replica, c) for c in (first, third)))


def test_spec_ordered_and_committed_unexecuted_entries_never_cover():
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local", target_replica="r1")
    deaf = cluster.add_client("cx", "local", target_replica="r2")
    commit_one(cluster, client, "put", "a")              # applied
    stalled = stall(cluster, deaf, "put", "x")           # spec-ordered
    blocked = commit_one(cluster, client, "put", "b")    # waits on it
    stalled_again = stall(cluster, deaf, "put", "y")     # spec-ordered
    for replica in cluster.replicas.values():
        log = replica._log_index
        assert log[instance_of(replica, stalled)].status == \
            EntryStatus.SPEC_ORDERED
        assert log[instance_of(replica, stalled_again)].status == \
            EntryStatus.SPEC_ORDERED
        waiting = log[instance_of(replica, blocked)]
        assert waiting.status == EntryStatus.COMMITTED
        assert not waiting.applied
        # r1: committed-unexecuted over applied; r2: spec-ordered over
        # spec-ordered.  Nothing is left out.
        expected = full_deps(replica, probe("put"))
        assert len(expected) == 4
        assert deps_for(replica, probe("put")) == expected


def test_duplicate_executed_as_cache_hit_never_covers():
    """The same command committed in two instances: the second runs as
    an exactly-once cache hit, applies nothing, and so covers nothing
    -- where an ordinary command in the same slot does."""
    def committed(owner, slot, command, deps=()):
        return LogEntry(instance=InstanceID(owner, slot), owner_number=0,
                        command=command, deps=deps, seq=slot + 1,
                        status=EntryStatus.COMMITTED)

    def put(timestamp):
        return Command(client_id="cd", timestamp=timestamp, op="put",
                       key=HOT, value=timestamp)

    def run(last_in_r2):
        replica = lan_cluster().replicas["r0"]
        first = committed("r1", 0, put(1))
        older = committed("r2", 0, put(2), deps=(first.instance,))
        last = committed("r2", 1, last_in_r2,
                         deps=(first.instance, older.instance))
        for entry in (first, older, last):
            replica._install_entry(entry)
        replica._advance_execution()
        assert last.status == EntryStatus.EXECUTED
        return replica, first, older, last

    replica, first, older, dup = run(last_in_r2=put(1))
    assert first.applied and older.applied and not dup.applied
    assert deps_for(replica, probe("put")) == \
        (first.instance, older.instance, dup.instance)

    replica, first, older, fresh = run(last_in_r2=put(3))
    assert fresh.applied
    assert deps_for(replica, probe("put")) == \
        (first.instance, fresh.instance)


def test_entries_marked_executed_by_state_transfer_never_cover():
    """A replica that installs a snapshot marks the instances above the
    frontier (``executed_above``) executed without running them: it
    cannot know whether each was an application or a cache hit, so none
    of them covers, while at the replicas that applied them they do."""
    interval = 8
    cluster = lan_cluster(checkpoint_interval=interval)
    deaf = cluster.add_client("cx", "local", target_replica="r1")
    client = cluster.add_client("c0", "local", target_replica="r1")
    cluster.network.isolate("r3")
    # r1's slot 0 never commits: r1's frontier stays 0 and everything
    # executed after it sits above the frontier in every snapshot.
    stall(cluster, deaf, "put", "x", key="elsewhere")
    for i in range(3 * interval):
        client.submit(client.next_command("put", f"k{i}", i))
        cluster.run_until_idle()
    hot = [commit_one(cluster, client, "put", i) for i in range(4)]
    for i in range(interval):
        client.submit(client.next_command("put", f"t{i}", i))
        cluster.run_until_idle()
    serving = cluster.replicas["r0"]
    assert serving.checkpoints.stable.snapshot["executed_above"]
    lagging = cluster.replicas["r3"]
    assert lagging.executor.executed_count == 0
    cluster.network.heal("r3")
    for i in range(2 * interval):
        client.submit(client.next_command("put", f"u{i}", i))
        cluster.run_until_idle()
    assert lagging.stats["state_transfers_installed"] >= 1

    applied = full_deps(serving, probe("put"))
    assert applied == tuple(instance_of(serving, c) for c in hot)
    assert all(serving._log_index[iid].applied for iid in applied)
    assert deps_for(serving, probe("put")) == applied[-1:]

    assert full_deps(lagging, probe("put")) == applied
    for iid in applied:
        entry = lagging._log_index[iid]
        assert entry.status == EntryStatus.EXECUTED and not entry.applied
    assert deps_for(lagging, probe("put")) == applied
    assert check(observe(cluster, faults("CrashReplica", "cx"))) == []


def test_wal_replay_reproduces_the_live_deps(tmp_path):
    cluster = lan_cluster()
    storage = ReplicaStorage(str(tmp_path), "r0")
    cluster.replicas["r0"].attach_storage(storage)
    clients = [cluster.add_client(f"c{i}", "local",
                                  target_replica=f"r{i}")
               for i in range(4)]
    for round_ in range(6):
        for i, client in enumerate(clients):
            op = ("put", "get", "incr")[(round_ + i) % 3]
            client.submit(client.next_command(
                op, HOT, round_ if op != "get" else None))
        cluster.run_until_idle()
    live = cluster.replicas["r0"]
    storage.close()

    fresh = lan_cluster()
    for i in range(4):
        fresh.add_client(f"c{i}", "local")
    replayed = fresh.replicas["r0"]
    storage2 = ReplicaStorage(str(tmp_path), "r0")
    replayed.attach_storage(storage2)
    replayed.recover_from_storage()
    storage2.close()

    def view(replica):
        return {iid: (entry.deps, entry.seq, entry.applied)
                for iid, entry in replica._log_index.items()}

    assert len(view(live)) == 24
    assert view(replayed) == view(live)
    for op in ("put", "get", "incr"):
        assert deps_for(replayed, probe(op)) == deps_for(live, probe(op))
        assert len(deps_for(live, probe(op))) < \
            len(full_deps(live, probe(op)))


# ----------------------------------------------------------------------
# The fast path under leader/follower execution skew
# ----------------------------------------------------------------------
def leading_deps_for(replica, command):
    return replica._collect_deps(command, exclude=InstanceID("none", 0),
                                 leading=True)


def test_a_leader_holds_back_each_clients_newest_applied_cover():
    """A proposal has to hold whatever a follower would add, and a
    follower may not have applied the newest commits yet: while leading,
    an applied instance covers only once a later applied instance of the
    same client has been passed in its space."""
    cluster = lan_cluster()
    alice = cluster.add_client("ca", "local", target_replica="r1")
    bob = cluster.add_client("cb", "local", target_replica="r1")
    a1, b1, a2, b2 = (commit_one(cluster, client, "put", i)
                      for i, client in enumerate((alice, bob, alice, bob)))
    replica = cluster.replicas["r1"]
    a1, b1, a2, b2 = (instance_of(replica, c) for c in (a1, b1, a2, b2))
    assert deps_for(replica, probe("put")) == (b2,)
    # b2 and a2 are each client's newest; b1 is behind bob's b2.
    assert leading_deps_for(replica, probe("put")) == (b1, a2, b2)
    # One client: exactly one instance more than a follower keeps.
    a3 = instance_of(replica, commit_one(cluster, alice, "put", 4))
    a4 = instance_of(replica, commit_one(cluster, alice, "put", 5))
    assert deps_for(replica, probe("put")) == (a4,)
    assert leading_deps_for(replica, probe("put")) == (a3, a4)


@pytest.mark.parametrize("writers", (1, 3))
@pytest.mark.parametrize("seed", range(3))
def test_sequential_writes_to_one_key_stay_on_the_fast_path(seed,
                                                            writers):
    """Sequential interfering commands in one space, WAN with 20 %
    jitter: the leader, next to the clients, applies each commit before
    the followers do, and a SPECORDER regularly overtakes the previous
    command's COMMITFAST.  Full dependency sets did not care; the
    frontier must not either, or the followers' replies differ from the
    leader's and the command falls to the slow path."""
    cluster = geo_cluster(
        seed=seed, conditions=NetworkConditions(jitter_fraction=0.2))
    log = DeliveryLog()
    overtaken = []
    for rid in ("r1", "r2", "r3"):
        replica = cluster.replicas[rid]

        def collecting(command, exclude, leading=False, replica=replica,
                       collect=replica._collect_deps):
            deps = collect(command, exclude, leading)
            overtaken.extend(
                dep for dep in deps
                if replica._log_index[dep].status ==
                EntryStatus.SPEC_ORDERED)
            return deps
        replica._collect_deps = collecting
    drivers = []
    for i in range(writers):
        client = cluster.add_client(f"c{i}", "virginia",
                                    target_replica="r0",
                                    on_delivery=log.hook(f"c{i}"))
        drivers.append(ClosedLoopDriver(
            client, HotKeyPuts(), num_requests=30))
        drivers[-1].start()
    cluster.run_until_idle()
    assert all(driver.done for driver in drivers)
    # A lone writer's follower sees spec-ordered history only through
    # such an overtaking; it must happen for this test to mean anything.
    assert overtaken
    assert log.paths == ["fast"] * (30 * writers)
    assert check(observe(cluster)) == []


class HotKeyPuts:
    def next_op(self, client):
        return client.next_command("put", HOT, client.client_id)


# ----------------------------------------------------------------------
# What it buys: a hot key's dep sets stop growing with the interval
# ----------------------------------------------------------------------
def test_hot_key_dep_sets_stay_bounded_across_a_checkpoint_interval():
    """500 puts on one key through four leaders, checkpoint every 128:
    with full sets a dep list grows by one per commit until the next GC
    (past 100 entries); the frontier is one instance per space -- two in
    a proposal -- plus whatever has not executed yet."""
    cluster = lan_cluster(checkpoint_interval=128)
    n = cluster.config.n
    log = DeliveryLog()
    clients = [cluster.add_client(f"c{i}", "local",
                                  target_replica=f"r{i}",
                                  on_delivery=log.hook(f"c{i}"))
               for i in range(n)]
    # One instance per space, one more where the leader held a cover
    # back; each closed-loop client has one command in flight, and one
    # whose COMMITFAST/COMMIT is still travelling when the next starts.
    bound = 2 * n + 2 * len(clients)
    seen = {"spec_reply": 0, "commit": 0, "full": 0}

    def watch(node_id, handler):
        def watching(sender, message):
            if isinstance(message, SpecReplyBundle):
                for header in message.replies:
                    seen["spec_reply"] = max(seen["spec_reply"],
                                             len(header.payload.deps))
            elif isinstance(message, SignedPayload) and \
                    isinstance(message.payload, Commit):
                seen["commit"] = max(seen["commit"],
                                     len(message.payload.deps))
            handler(sender, message)
        cluster.network.set_handler(node_id, watching)

    for client in clients:
        watch(client.client_id, client.on_message)
    for rid, replica in cluster.replicas.items():
        watch(rid, replica.on_message)
        collect = replica._collect_deps

        def collecting(command, exclude, leading=False,
                       replica=replica, collect=collect):
            deps = collect(command, exclude, leading)
            seen["full"] = max(seen["full"],
                               len(full_deps(replica, command)))
            unexecuted = sum(
                1 for entry in replica._log_index.values()
                if entry.status != EntryStatus.EXECUTED)
            # A leader holds back one cover per space and client.
            assert len(deps) <= n * (1 + leading) + unexecuted
            return deps
        replica._collect_deps = collecting

    remaining = {client.client_id: 125 for client in clients}

    def submit_next(client):
        if remaining[client.client_id]:
            remaining[client.client_id] -= 1
            client.submit(client.next_command(
                "put", HOT, remaining[client.client_id]))

    for client in clients:
        inner = client.on_delivery
        client.on_delivery = \
            lambda *a, inner=inner, client=client: (inner(*a),
                                                    submit_next(client))
        submit_next(client)
    cluster.run_until_idle()

    assert log.results == ["OK"] * 500
    assert seen["full"] > 100          # what the parent shipped
    assert 0 < seen["spec_reply"] <= bound
    assert 0 < seen["commit"] <= bound
    for replica in cluster.replicas.values():
        assert replica.stats["log_entries_gcd"] >= 128
        assert all(len(entry.deps) <= bound
                   for entry in replica._log_index.values())
    assert check(observe(cluster)) == []


# ----------------------------------------------------------------------
# Safety over seeded adversarial runs
# ----------------------------------------------------------------------
class MixedHotKeyWorkload:
    """``get``/``put``/``incr`` on one hot key, puts on private keys."""

    def __init__(self, client_id, seed):
        self.client_id = client_id
        self.rng = random.Random(seed)
        self.count = 0

    def next_op(self, client):
        self.count += 1
        if self.rng.random() < 0.7:
            op = self.rng.choice(("get", "put", "incr"))
            value = None if op == "get" else self.rng.randrange(1000)
            return client.next_command(op, HOT, value)
        return client.next_command(
            "put", f"{self.client_id}/k{self.count}", self.count)


def committed_closure(replica, roots):
    """``roots`` and everything reachable from them through the ``deps``
    of instances committed at ``replica`` right now."""
    log = replica._log_index
    seen, stack = set(roots), list(roots)
    while stack:
        entry = log.get(stack.pop())
        if entry is None or \
                not entry.status.at_least(EntryStatus.COMMITTED):
            continue
        for dep in entry.deps:
            if dep not in seen:
                seen.add(dep)
                stack.append(dep)
    return seen


def assert_interfering_commits_are_connected(replica):
    """What full dependency sets gave for free: of any two interfering
    committed instances, one reaches the other through committed
    ``deps`` edges -- so every replica runs them in the same order.
    Returns how many such pairs are joined by an edge and how many only
    by a longer path."""
    committed = {iid: entry for iid, entry in replica._log_index.items()
                 if entry.status.at_least(EntryStatus.COMMITTED)}
    reach = {iid: committed_closure(replica, [iid]) for iid in committed}
    interferes = replica.interference.interferes
    direct = indirect = 0
    for a, b in itertools.combinations(sorted(committed), 2):
        if interferes(committed[a].command, committed[b].command):
            assert b in reach[a] or a in reach[b], (
                f"{replica.node_id}: {a} ({committed[a].command.op}) and "
                f"{b} ({committed[b].command.op}) interfere but neither "
                f"reaches the other")
            if b in committed[a].deps or a in committed[b].deps:
                direct += 1
            else:
                indirect += 1
    return direct, indirect


def watch_omissions(replica, unbacked):
    """The safety argument, run at every collection: whatever member of
    the full set D the replica leaves out must already be reachable
    from what it keeps, through instances committed here."""
    collect = replica._collect_deps

    def collecting(command, exclude, leading=False):
        deps = collect(command, exclude, leading)
        omitted = set(full_deps(replica, command)) - set(deps) - {exclude}
        unbacked.extend(
            (replica.node_id, command.ident, iid)
            for iid in omitted - committed_closure(replica, deps))
        return deps
    replica._collect_deps = collecting


def reroute(client, ident):
    """What a proof of misbehavior does to a request in flight: it is
    proposed again through the next leader."""
    pending = client._pending[ident]
    pending.cancel_timers()
    client._retry(pending, exclude=pending.target)


@functools.lru_cache(maxsize=None)
def adversarial_run(seed):
    """WAN with jitter; r2 reports empty deps throughout.  Four
    closed-loop clients load the hot key twice.  Between the two rounds
    one ``incr`` races itself: retried through a second leader before
    its first proposal has crossed the WAN, the command sits in two
    instances -- one applied, the other a cache hit or an orphan that
    never commits, each on top of first-round history in its space.  In
    the second round r3 crashes and its space changes owner."""
    rng = random.Random(seed)
    cluster = geo_cluster(
        seed=seed, checkpoint_interval=0,
        conditions=NetworkConditions(jitter_fraction=0.2),
        retry_timeout=3000.0, suspicion_timeout=500.0)
    install_byzantine(cluster, "r2", "dep_suppress")
    unbacked = []
    for rid in CORRECT:
        watch_omissions(cluster.replicas[rid], unbacked)
    log = DeliveryLog()
    clients = [cluster.add_client(
        f"c{i}", cluster.replica_regions[f"r{i}"],
        target_replica=f"r{i}", on_delivery=log.hook(f"c{i}"))
        for i in range(4)]
    drivers = []

    def load(round_, requests):
        for i, client in enumerate(clients):
            drivers.append(ClosedLoopDriver(
                client, MixedHotKeyWorkload(
                    client.client_id, seed * 100 + round_ * 10 + i),
                num_requests=requests))
            drivers[-1].start()

    racer = clients[rng.randrange(3)]
    raced = []

    def race():
        raced.append(racer.next_command("incr", HOT, 1))
        racer.submit(raced[0])
        racer.ctx.set_timer(5.0, reroute, racer, raced[0].ident)

    def second_round(command, *delivery):
        first_round(command, *delivery)
        if raced and command.ident == raced[0].ident:
            cluster.sim.schedule(QUIET, load, 1, 6)
            cluster.sim.schedule(QUIET + rng.uniform(200.0, 1200.0),
                                 silence_node, cluster, "r3")

    load(0, 3)
    first_round, racer.on_delivery = racer.on_delivery, second_round
    cluster.sim.schedule(FIRST_ROUND, race)
    try:
        cluster.run_until_idle(max_events=200_000)
    except SimulationError:
        # The raced command never settled: its client retried for ever
        # because no 2f+1 replies named one instance.  Both tests below
        # fail on it.
        return None
    return cluster, log, drivers, raced[0], unbacked


#: r2 lies and r3 crashes; these two stay correct throughout.
CORRECT = ("r0", "r1")
#: Simulated ms the first round is over by, and the pause that lets the
#: raced command's second proposal reach everyone before more load.
FIRST_ROUND = 6000.0
QUIET = 1500.0
SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_frontier_deps_keep_interfering_commands_ordered(seed):
    run = adversarial_run(seed)
    assert run is not None, "the raced command never settled"
    cluster, log, drivers, _, unbacked = run
    assert all(driver.done for driver in drivers)
    assert unbacked == []
    for rid in CORRECT:
        replica = cluster.replicas[rid]
        assert replica.spaces["r3"].owner_number > \
            cluster.config.initial_owner_number("r3")
        direct, indirect = assert_interfering_commits_are_connected(replica)
        assert direct > 0 and indirect > 0
    assert check(observe(cluster, faults("CrashReplica", "r3"))) == []


def test_adversarial_runs_contain_what_they_are_meant_to():
    """Across the seeds the raced command really does end up in two
    instances, as a cache hit in some runs and an orphan in others."""
    fates = collections.Counter()
    runs = [adversarial_run(seed) for seed in SEEDS]
    assert runs.count(None) == 0
    for cluster, _, _, raced, _ in filter(None, runs):
        instances = [entry for entry
                     in cluster.replicas["r0"]._log_index.values()
                     if entry.command.ident == raced.ident]
        assert sum(entry.applied for entry in instances) == 1
        fates.update(entry.status for entry in instances
                     if not entry.applied)
    assert fates[EntryStatus.EXECUTED] > 0        # ran as cache hits
    assert fates[EntryStatus.SPEC_ORDERED] > 0    # orphans, waived
    adversarial_run.cache_clear()                 # sixty clusters


# ----------------------------------------------------------------------
# The walk stops at an absorbing cover; a fresh request skips the scan
# ----------------------------------------------------------------------
def full_walk_deps(replica, command, exclude, leading=False):
    """The frontier as the walk computes it when it visits every
    instance of every chain back to the checkpoint: the reference the
    replica's early-stopping walk must equal.  Chains are rebuilt here
    from the log, not read from the replica's index."""
    relation = replica.interference
    log = replica._log_index
    chains = collections.defaultdict(list)
    for iid in sorted(log):
        if not relation.key_based or log[iid].command.key == command.key:
            chains[iid.owner].append(iid)
    deps = []
    for chain in chains.values():
        covers, unsettled = [], set()
        for iid in reversed(chain):
            if iid == exclude:
                continue
            entry = log[iid]
            candidate = entry.command
            if any(relation.interferes(c, candidate) for c in covers):
                continue
            if relation.interferes(candidate, command):
                deps.append(iid)
                if not entry.applied:
                    continue
                if leading and candidate.client_id not in unsettled:
                    unsettled.add(candidate.client_id)
                else:
                    covers.append(candidate)
    return tuple(sorted(deps))


def full_scan_find(replica, command):
    """The entry ``_find_entry_for_command`` must return: the smallest
    instance anywhere in the log holding ``command``."""
    found = [iid for iid, entry in replica._log_index.items()
             if entry.command.ident == command.ident]
    return replica._log_index[min(found)] if found else None


RELATIONS = (KVInterference(), ReadWriteInterference(), AlwaysInterfere(),
             NeverInterfere())
KEYS = ("k0", "k1")
OPS = ("get", "put", "incr", "noop")
#: One logged instance: (op, key, client, applied).
logged = st.tuples(st.sampled_from(OPS), st.sampled_from(KEYS),
                   st.sampled_from(("c0", "c1", "c2")), st.booleans())


def install_log(replica, spaces):
    """Install ``spaces`` (one list of ``logged`` tuples per replica, in
    slot order) into ``replica``'s log; returns the commands logged."""
    clocks = collections.Counter()
    commands = []
    for owner, space in zip(sorted(replica.spaces), spaces):
        for slot, (op, key, client, applied) in enumerate(space):
            clocks[client] += 1
            command = Command(client_id=client, timestamp=clocks[client],
                              op=op, key=key)
            entry = LogEntry(
                instance=InstanceID(owner, slot), owner_number=0,
                command=command, deps=(), seq=slot + 1,
                status=EntryStatus.EXECUTED if applied
                else EntryStatus.COMMITTED)
            entry.applied = applied
            replica._install_entry(entry)
            commands.append(command)
    return commands


@settings(max_examples=300, deadline=None)
@given(relation=st.sampled_from(RELATIONS),
       spaces=st.lists(st.lists(logged, max_size=10),
                       min_size=4, max_size=4),
       probe_op=st.sampled_from(OPS), probe_key=st.sampled_from(KEYS),
       leading=st.booleans(), exclude_at=st.integers(0, 40))
def test_the_walk_returns_what_the_full_walk_returns(
        relation, spaces, probe_op, probe_key, leading, exclude_at):
    """Random per-space logs over two keys -- gets, puts, incrs and
    noops, applied or not, several clients -- under every relation:
    stopping at the first absorbing cover leaves every dependency set
    exactly as the walk back to the checkpoint computes it, leading or
    following, and the exclusion is honoured."""
    replica = lan_cluster().replicas["r0"]
    replica.interference = relation
    commands = install_log(replica, spaces)
    logged_iids = sorted(replica._log_index)
    exclude = logged_iids[exclude_at] if exclude_at < len(logged_iids) \
        else InstanceID("none", 0)
    command = Command(client_id="c1", timestamp=99, op=probe_op,
                      key=probe_key)
    assert replica._collect_deps(command, exclude, leading) == \
        full_walk_deps(replica, command, exclude, leading)
    for known in commands + [command]:
        assert replica._find_entry_for_command(known) is \
            full_scan_find(replica, known)


def test_absorbing_covers_stop_the_walk_at_the_frontier():
    """A chain of applied puts costs one ``interferes`` call per
    instance it returns, not one per instance it holds; a chain of
    applied incrs -- which cover nothing under the key-value relation
    -- is walked to the end, as before."""
    replica = lan_cluster().replicas["r0"]
    calls = count_interferes(replica)
    install_log(replica, [[("put", "k0", "c0", True)] * 50, [], [], []])
    put = Command(client_id="c1", timestamp=99, op="put", key="k0")
    assert replica._collect_deps(put, InstanceID("none", 0)) == \
        (InstanceID("r0", 49),)
    assert calls["interferes"] == 1

    replica = lan_cluster().replicas["r0"]
    calls = count_interferes(replica)
    install_log(replica, [[("incr", "k0", "c0", True)] * 50, [], [], []])
    get = Command(client_id="c1", timestamp=99, op="get", key="k0")
    assert len(replica._collect_deps(get, InstanceID("none", 0))) == 50
    assert calls["interferes"] > 50


def test_find_entry_matches_a_full_scan_through_retries_and_rewrites():
    """The same command led through two leaders (a client retry that
    rotated), then one of its slots rewritten to a noop as a NEWOWNER
    does, then the other truncated away below a checkpoint: at every
    step each replica finds what a scan of its whole log finds, and
    the per-client bound never drops below a timestamp it indexed."""
    cluster = lan_cluster()
    client = cluster.add_client("c0", "local")
    command = client.next_command("put", HOT, "v")
    signed = SignedPayload.create(Request(command=command), client.keypair)
    for leader in ("r1", "r2"):
        cluster.replicas[leader].on_message("c0", signed)
    cluster.run_until_idle()

    def agree(replica, expected):
        found = replica._find_entry_for_command(command)
        assert found is full_scan_find(replica, command)
        assert (found and found.instance) == expected

    first, second = InstanceID("r1", 0), InstanceID("r2", 0)
    for replica in cluster.replicas.values():
        assert {first, second} <= set(replica._log_index)
        agree(replica, first)
    replica = cluster.replicas["r0"]
    rewrite = LogEntry(instance=first, owner_number=1,
                       command=Command.noop(), deps=(), seq=0,
                       status=EntryStatus.COMMITTED)
    replica.spaces["r1"].force_put(rewrite)
    replica._index_entry(rewrite)
    agree(replica, second)
    replica._truncate_space(replica.spaces["r2"], 1)
    agree(replica, None)
    assert replica._indexed_ts["c0"] == command.timestamp


def test_find_entry_matches_a_full_scan_after_a_state_transfer():
    """A replica cut off for several checkpoint intervals catches up by
    state transfer: for every command ever submitted, and one never
    submitted, it and the replica that served it find what a scan of
    their whole logs finds."""
    interval = 8
    cluster = lan_cluster(checkpoint_interval=interval)
    client = cluster.add_client("c0", "local", target_replica="r1")
    cluster.network.isolate("r3")
    submitted = []

    def run(count):
        for i in range(count):
            submitted.append(client.next_command("put", HOT, i))
            client.submit(submitted[-1])
            cluster.run_until_idle()
    run(3 * interval)
    cluster.network.heal("r3")
    run(2 * interval + 3)  # the last 3 stay above the checkpoint
    lagging = cluster.replicas["r3"]
    assert lagging.stats["state_transfers_installed"] >= 1
    never = Command(client_id="c0", timestamp=10**6, op="put", key=HOT)
    for replica in (cluster.replicas["r0"], lagging):
        for command in submitted + [never]:
            assert replica._find_entry_for_command(command) is \
                full_scan_find(replica, command)
    assert lagging._find_entry_for_command(submitted[0]) is None
    assert lagging._find_entry_for_command(submitted[-1]) is not None


def count_interferes(replica):
    """Count the relation's ``interferes`` calls and the replica's
    dependency collections from now on."""
    calls = collections.Counter()
    relation = replica.interference

    class Counting(type(relation)):
        def interferes(self, a, b):
            calls["interferes"] += 1
            return super().interferes(a, b)
    replica.interference = Counting()
    collect = replica._collect_deps

    def collecting(*args, **kwargs):
        calls["collects"] += 1
        return collect(*args, **kwargs)
    replica._collect_deps = collecting
    return calls


@pytest.mark.parametrize("commands", (64, 512))
def test_hot_key_collection_cost_does_not_grow_with_the_log(commands):
    """Four closed-loop clients put to one key through four leaders,
    with no checkpoint to cut the log: ``interferes`` calls per
    dependency collection stay under a small constant, at 64 commands
    and at 512 alike, where walking each chain to its start costs one
    call per instance logged on the key."""
    cluster = lan_cluster(checkpoint_interval=0)
    calls = [count_interferes(replica)
             for replica in cluster.replicas.values()]
    clients = [cluster.add_client(f"c{i}", "local", target_replica=f"r{i}")
               for i in range(4)]
    drivers = [ClosedLoopDriver(client, HotKeyPuts(),
                                num_requests=commands // 4)
               for client in clients]
    for driver in drivers:
        driver.start()
    cluster.run_until_idle()
    assert all(driver.done for driver in drivers)
    total = sum(calls, collections.Counter())
    assert total["collects"] >= 4 * commands
    assert total["interferes"] <= 8 * total["collects"]
    assert check(observe(cluster)) == []
