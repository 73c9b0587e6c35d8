"""Property-based tests (hypothesis) on core data structures and
protocol invariants."""

import dataclasses
import json
import typing

import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from repro.check import Run, check
from repro.crypto.digest import (
    WRITERS,
    _encode,
    _respell_replica,
    canonical_bytes,
    digest,
    respell_replica,
)
from repro.config import ProtocolConfig
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError, SerializationError
from repro.graph import linearize, tarjan_scc
from repro.messages.base import MESSAGE_REGISTRY, SignedPayload
from repro.messages.batching import BatchSpecOrder
from repro.messages.ezbft import (
    CommitFast,
    EzCheckpoint,
    LogEntrySummary,
    Request,
    SpecOrder,
    SpecReply,
    statement_of,
)
from repro.protocols.registry import get_protocol
from repro.statemachine.bank import BankMachine
from repro.statemachine.base import Command, ExecutedLog
from repro.statemachine.counter import CounterMachine
from repro.statemachine.interference import KVInterference
from repro.statemachine.kvstore import KVStore
from repro.types import InstanceID

# ----------------------------------------------------------------------
# Canonical serialization
# ----------------------------------------------------------------------
json_scalars = st.one_of(st.none(), st.booleans(),
                         st.integers(min_value=-10**9, max_value=10**9),
                         st.text(max_size=20))
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=20)


@given(json_values)
def test_canonical_bytes_deterministic(value):
    assert canonical_bytes(value) == canonical_bytes(value)


@given(st.dictionaries(st.text(max_size=8), json_scalars, max_size=6))
def test_digest_invariant_under_key_order(mapping):
    items = list(mapping.items())
    reversed_mapping = dict(reversed(items))
    assert digest(mapping) == digest(reversed_mapping)


@given(json_values)
def test_canonical_bytes_is_valid_json(value):
    json.loads(canonical_bytes(value))


#: Values that collide under ``==`` but not under the signature.
_lookalikes = st.sampled_from(
    [0, 1, 5, 0.0, -0.0, 1.0, 5.0, True, False, None, "", "1", "5"])
lookalike_values = st.recursive(
    st.one_of(_lookalikes, json_scalars),
    lambda children: st.one_of(
        st.lists(children, max_size=2),
        st.dictionaries(st.sampled_from(["a", "b"]), children,
                        max_size=2)),
    max_leaves=4)


@given(lookalike_values, lookalike_values)
def test_fast_matching_is_equality_of_signed_bytes(a, b):
    """Two signers' headers are one fast statement exactly when their
    results are spelled alike -- never on Python's looser ``==``."""
    header = SpecReply(replica="r0", owner_number=0,
                       instance=InstanceID("r0", 1), deps=(), seq=1,
                       request_digest="d", client_id="c", timestamp=1,
                       result=a)
    mine = _signed(header, "r0")
    theirs = _signed(dataclasses.replace(header, replica="r1", result=b),
                     "r1")
    assert statement_of(mine) is not None
    assert (statement_of(mine) == statement_of(theirs)) == \
        (_encode(a) == _encode(b))


# ----------------------------------------------------------------------
# Sibling SPECREPLY headers: derived bytes == the plain encoder's
# ----------------------------------------------------------------------
#: Ids built to break a textual splice: quotes, backslashes, the very
#: key being searched for, an opening brace, non-ASCII.
hostile_ids = st.one_of(
    st.sampled_from(['"', "\\", ',"replica":"x"', '\\",\\"replica\\":',
                     "{", 'r{"replica":', "r\u00e9plica", "\U0001f980"]),
    st.text(max_size=12))
plain_ids = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.",
                    min_size=1, max_size=8)
results = st.one_of(
    st.none(), st.floats(allow_nan=False), st.text(max_size=8),
    st.lists(json_scalars, max_size=3),
    st.fixed_dictionaries({"replica": hostile_ids},
                          optional={"value": json_scalars}))


def spec_replies(ids):
    return st.builds(
        SpecReply, replica=ids, owner_number=st.integers(0, 9),
        instance=st.builds(InstanceID, ids, st.integers(0, 99)),
        deps=st.lists(st.builds(InstanceID, ids, st.integers(0, 99)),
                      max_size=3).map(lambda d: tuple(sorted(d))),
        seq=st.integers(0, 99), request_digest=st.text(max_size=8),
        client_id=ids, timestamp=st.integers(0, 99), result=results)


@given(spec_replies(hostile_ids), hostile_ids)
def test_respelled_replica_equals_plain_encoding(header, signer):
    """Whatever the ids and the result hold, the respelling either
    declines or is byte for byte the encoder's output for the same
    header under the other signer -- and where it declines, the
    encoder's fallback makes the same bytes."""
    expected = _encode(dataclasses.replace(header, replica=signer))
    data = _encode(header)
    derived = _respell_replica(data, header.replica, signer)
    assert derived is None or derived == expected
    assert respell_replica(data, header, signer) == expected


@given(spec_replies(plain_ids), plain_ids)
def test_respelling_applies_to_ordinary_ids(header, signer):
    """Not vacuous: with brace-free ids the shortcut is always taken,
    a result that has a ``replica`` key of its own included (``result``
    sorts after ``replica``, so the first match is still the key)."""
    expected = _encode(dataclasses.replace(header, replica=signer))
    assert _respell_replica(_encode(header), header.replica,
                            signer) == expected


# ----------------------------------------------------------------------
# The derived wire codec (repro.wire), on generated values
# ----------------------------------------------------------------------
#: Every class with a derived ``to_wire`` or ``from_wire``.
DERIVED = [cls for cls in (Command, LogEntrySummary,
                           *MESSAGE_REGISTRY.values())
           if cls not in (SignedPayload, CommitFast)]


def _signed(payload, signer="r0"):
    return SignedPayload.create(payload,
                                KeyPair.generate(signer, seed=b"prop"))


def _field_values(hint):
    """Values of a field annotated ``hint``: hypothesis resolves the
    hint itself, but for what it cannot know -- ``Any`` and ``dict``
    hold JSON, a dependency set is kept sorted -- and sequences are
    kept short, because they nest."""
    if hint is typing.Any:
        return json_values
    if hint is dict:
        return st.dictionaries(st.text(max_size=4), json_values,
                               max_size=3)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args[-1] is Ellipsis:
        items = st.lists(_field_values(args[0]), max_size=2)
        if args[0] is InstanceID:
            return items.map(lambda deps: tuple(sorted(deps)))
        return items.map(tuple)
    # Deferred: a class registered below (an envelope, a certificate)
    # must not be resolved from its fields before it is registered.
    return st.deferred(lambda: st.from_type(hint))


def _instances(cls):
    hints = typing.get_type_hints(cls)
    built = st.builds(cls, **{f.name: _field_values(hints[f.name])
                              for f in dataclasses.fields(cls)})

    @st.composite
    def instance(draw):
        try:
            return draw(built)
        except SerializationError:
            reject()  # a __post_init__ refused it (an empty batch)

    return instance()


st.register_type_strategy(
    InstanceID, st.builds(InstanceID, st.text(max_size=4),
                          st.integers(0, 2**40)))
for _cls in DERIVED:
    st.register_type_strategy(_cls, _instances(_cls))
# An envelope's payload is decoded through the registry, so it is a
# registered message; a fast certificate has a wire form only when its
# headers match and are signed by the replicas they name.
st.register_type_strategy(SignedPayload, st.deferred(lambda: st.one_of(
    [st.from_type(cls) for cls in (SpecOrder, SpecReply, EzCheckpoint,
                                   BatchSpecOrder)])).map(_signed))
st.register_type_strategy(CommitFast, st.builds(
    lambda header, signers: CommitFast.from_headers(
        header.client_id, header.instance,
        tuple(_signed(dataclasses.replace(header, replica=rid), rid)
              for rid in signers)),
    st.from_type(SpecReply),
    st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True)))


def _plain(value):
    """``value`` with every object replaced by its ``to_wire()``, all
    the way down: the tree the generic encoder walks, holding no
    object a compiled writer or a memo could serve."""
    if type(value) in (str, bool, int, float) or value is None \
            or isinstance(value, bytes):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return _plain(value.to_wire())


def _outcome(encode):
    """What ``encode()`` returns, or the type and text it raises."""
    try:
        return encode()
    except Exception as error:  # the comparison is the assertion
        return type(error), str(error)


@pytest.mark.parametrize("cls", DERIVED, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_derived_codec_round_trips_through_bytes(cls, data):
    """Whatever the fields hold, what crosses a wire -- canonical
    bytes, then ``json.loads`` -- decodes to an equal message that
    encodes to the same bytes.  Those bytes, written by the class's
    compiled writer, are what the generic encoder makes of the
    ``to_wire()`` tree."""
    message = data.draw(st.from_type(cls))
    raw = canonical_bytes(message)
    assert (cls in WRITERS) == \
        cls.to_wire.__code__.co_filename.startswith("<wire codec")
    assert raw == _encode(_plain(message))
    again = cls.from_wire(json.loads(raw))
    assert again == message
    assert canonical_bytes(again) == raw


#: Values of the wrong type for some field of every class: ``5.0`` and
#: ``True`` where an ``int`` belongs, an ``int`` where a ``str`` does,
#: NaN, a pair that is not an ``InstanceID``, a non-``str`` dict key.
off_type = st.sampled_from([
    5.0, True, 7, "s", None, float("nan"), ("r0", 1), (("r0", 1),),
    (InstanceID("r0", 1), 5.0), InstanceID(7, "x"), InstanceID("r0", True),
    (InstanceID("r1", 0), InstanceID("r0", 2.0)), [1], {"k": 1}, {1: "x"},
    b"\x00"])


@pytest.mark.parametrize("cls", DERIVED, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_compiled_writer_matches_off_type_fields(cls, data):
    """A byzantine or careless value in any field -- whatever its type
    -- is written exactly as the generic encoder writes it, and fails
    exactly as it fails (a non-``str`` dict key is the same
    ``SerializationError``)."""
    message = data.draw(st.from_type(cls))
    field = data.draw(st.sampled_from(dataclasses.fields(cls))).name
    object.__setattr__(message, field, data.draw(off_type))
    assert _outcome(lambda: canonical_bytes(message)) == \
        _outcome(lambda: _encode(_plain(message)))


def test_off_type_fields_take_the_generic_branch():
    """Not vacuous: each off-type value named in the writer's guards
    is spelled as the generic encoder spells it, NaN included, and a
    dependency tuple is written sorted whatever order it holds."""
    def odd(field, value):
        header = SpecReply(replica="r0", owner_number=0,
                           instance=InstanceID("r0", 1), deps=(), seq=1,
                           request_digest="d", client_id="c",
                           timestamp=1, result="OK")
        object.__setattr__(header, field, value)
        return header

    unsorted = (InstanceID("r1", 0), InstanceID("r0", 5))
    for field, value, spelled in (
            ("seq", 5.0, b'"seq":5.0'),
            ("seq", True, b'"seq":true'),
            ("replica", 7, b'"replica":7'),
            ("result", float("nan"), b'"result":NaN'),
            ("instance", InstanceID("r0", True), b'["r0",true]'),
            ("deps", unsorted, b'"deps":[["r0",5],["r1",0]]'),
            ("deps", (("r0", 5.0),), b'"deps":[["r0",5.0]]')):
        message = odd(field, value)
        assert spelled in canonical_bytes(message)
        assert canonical_bytes(message) == _encode(_plain(message))
    with pytest.raises(SerializationError, match="dict keys must be str"):
        canonical_bytes(odd("result", {1: "x"}))


def test_a_subclass_with_its_own_to_wire_is_not_written_by_its_parent():
    @dataclasses.dataclass(frozen=True)
    class LoudReply(SpecReply):
        def to_wire(self):
            return {**super().to_wire(), "loud": True}

    header = LoudReply(replica="r0", owner_number=0,
                       instance=InstanceID("r0", 1), deps=(), seq=1,
                       request_digest="d", client_id="c", timestamp=1,
                       result="OK")
    assert LoudReply not in WRITERS
    assert b'"loud":true' in canonical_bytes(header)
    assert canonical_bytes(header) == _encode(_plain(header))


def test_a_mutated_nested_command_is_re_encoded_through_the_splice():
    """A memoized REQUEST whose nested COMMAND is mutated in place
    (``object.__setattr__``) is written again from the mutated fields:
    neither the request's memo nor the command's is spliced stale."""
    request = Request(command=Command(client_id="c0", timestamp=1,
                                      op="put", key="k", value="v"))
    before = canonical_bytes(request)
    object.__setattr__(request.command, "value", "evil")
    after = canonical_bytes(request)
    assert after != before and b'"value":"evil"' in after
    assert after == _encode(_plain(request))
    assert canonical_bytes(request.command) == \
        _encode(_plain(request.command))


# ----------------------------------------------------------------------
# Tarjan SCC
# ----------------------------------------------------------------------
graphs = st.dictionaries(
    st.integers(min_value=0, max_value=15),
    st.lists(st.integers(min_value=0, max_value=15), max_size=4),
    max_size=12)


@given(graphs)
def test_scc_partitions_all_nodes(graph):
    components = tarjan_scc(graph)
    seen = [n for c in components for n in c]
    all_nodes = set(graph)
    for succs in graph.values():
        all_nodes.update(succs)
    assert sorted(seen) == sorted(all_nodes)
    assert len(seen) == len(set(seen))  # no node twice


@given(graphs)
def test_scc_respects_dependency_order(graph):
    components = tarjan_scc(graph)
    position = {}
    for idx, component in enumerate(components):
        for node in component:
            position[node] = idx
    for node, succs in graph.items():
        for succ in succs:
            # Dependencies (successors) appear no later.
            assert position[succ] <= position[node]


@given(graphs)
def test_linearize_is_permutation(graph):
    order = linearize(graph, sort_key=lambda n: (0, n, 0))
    all_nodes = set(graph)
    for succs in graph.values():
        all_nodes.update(succs)
    assert sorted(order) == sorted(all_nodes)


# ----------------------------------------------------------------------
# State machines: the overlay contract every application shares
# ----------------------------------------------------------------------
#: (machine, its ops, the ops whose value must be an int).
MACHINES = [
    pytest.param(KVStore, ("put", "get", "incr"), ("incr",),
                 id="KVStore"),
    pytest.param(CounterMachine, ("incr", "get"), ("incr",),
                 id="CounterMachine"),
    pytest.param(BankMachine, ("deposit", "withdraw", "balance"),
                 ("deposit", "withdraw"), id="BankMachine"),
]


def machine_commands(ops):
    """Commands over ``ops`` and one op outside them, carrying small
    ints or one non-int value."""
    return st.builds(
        Command,
        client_id=st.just("c"),
        timestamp=st.integers(min_value=1, max_value=100),
        op=st.sampled_from(ops + ("frobnicate",)),
        key=st.sampled_from(["a", "b", "c"]),
        value=st.one_of(st.integers(min_value=0, max_value=5),
                        st.just("five")))


def checked(apply, items, cmd, ops, int_ops):
    """``apply(cmd)``, asserting that an op outside ``ops`` or a
    non-int value for one of ``int_ops`` is rejected, and that a
    rejected command changes nothing."""
    before = items()
    result = apply(cmd)
    if cmd.op not in ops or (cmd.op in int_ops and
                             not isinstance(cmd.value, int)):
        assert isinstance(result, str) and result.startswith("ERROR: ")
    if isinstance(result, str) and result.startswith("ERROR: "):
        assert items() == before
    return result


@pytest.mark.parametrize("machine, ops, int_ops", MACHINES)
@given(data=st.data())
def test_speculative_then_rollback_leaves_final_untouched(machine, ops,
                                                          int_ops, data):
    sm = machine()
    commands = machine_commands(ops)
    for cmd in data.draw(st.lists(commands, max_size=5)):
        checked(sm.apply, sm.final_items, cmd, ops, int_ops)
    before = sm.final_items()
    snapshot = sm.snapshot()
    for cmd in data.draw(st.lists(commands, max_size=20)):
        checked(sm.apply_speculative, sm.speculative_items, cmd, ops,
                int_ops)
    speculated = sm.has_speculative_state
    sm.rollback_speculative()
    assert sm.final_items() == before
    assert not sm.has_speculative_state
    assert sm.rollbacks == int(speculated)
    for cmd in data.draw(st.lists(commands, max_size=5)):
        sm.apply(cmd)
    sm.restore(snapshot)
    assert sm.final_items() == before


@pytest.mark.parametrize("machine, ops, int_ops", MACHINES)
@given(data=st.data())
def test_final_equals_speculative_when_applied_identically(machine, ops,
                                                           int_ops, data):
    final_sm, spec_sm = machine(), machine()
    for cmd in data.draw(st.lists(machine_commands(ops), max_size=20)):
        assert checked(final_sm.apply, final_sm.final_items, cmd, ops,
                       int_ops) == \
            checked(spec_sm.apply_speculative, spec_sm.speculative_items,
                    cmd, ops, int_ops)
    for key in ("a", "b", "c"):
        assert final_sm.get_final(key) == spec_sm.get_speculative(key)
    assert final_sm.final_items() == spec_sm.speculative_items()
    assert spec_sm.final_items() == {}


# ----------------------------------------------------------------------
# KV store
# ----------------------------------------------------------------------
commands = st.builds(
    Command,
    client_id=st.just("c"),
    timestamp=st.integers(min_value=1, max_value=100),
    op=st.sampled_from(["put", "get", "incr"]),
    key=st.sampled_from(["a", "b", "c"]),
    value=st.integers(min_value=0, max_value=5))


@given(st.lists(commands, max_size=15), st.randoms())
def test_non_interfering_commands_commute(cmds, rng):
    """Any permutation of pairwise non-interfering commands yields the
    same final state -- the definition ezBFT's correctness rests on."""
    relation = KVInterference()
    independent = []
    for cmd in cmds:
        if all(not relation.interferes(cmd, other)
               for other in independent):
            independent.append(cmd)
    shuffled = list(independent)
    rng.shuffle(shuffled)
    kv1, kv2 = KVStore(), KVStore()
    for cmd in independent:
        kv1.apply(cmd)
    for cmd in shuffled:
        kv2.apply(cmd)
    assert kv1.final_items() == kv2.final_items()


# ----------------------------------------------------------------------
# Interference relation
# ----------------------------------------------------------------------
@given(commands, commands)
def test_interference_symmetric(a, b):
    relation = KVInterference()
    assert relation.interferes(a, b) == relation.interferes(b, a)


@given(commands)
def test_interference_semantics_match_execution(a):
    """If two commands do NOT interfere, executing them in either order
    must give identical final state."""
    relation = KVInterference()
    b = Command(client_id="c2", timestamp=1, op="put", key=a.key,
                value=99)
    kv1, kv2 = KVStore(), KVStore()
    kv1.apply(a), kv1.apply(b)
    kv2.apply(b), kv2.apply(a)
    if kv1.final_items() != kv2.final_items():
        assert relation.interferes(a, b)


# ----------------------------------------------------------------------
# The safety oracle's order check
# ----------------------------------------------------------------------
distinct_commands = st.lists(
    st.tuples(st.sampled_from(["put", "get", "incr"]),
              st.sampled_from(["a", "b", "c"]),
              st.integers(min_value=0, max_value=5)),
    min_size=2, max_size=12).map(lambda ops: [
        Command("c", ts, op, key, value)
        for ts, (op, key, value) in enumerate(ops, start=1)])


def two_replicas(first, second):
    """ezBFT replicas r0 and r1 that applied ``first`` and ``second``,
    with one state root: only the order check can speak."""
    return Run(spec=get_protocol("ezbft"), interference=KVInterference(),
               records={"r0": ExecutedLog([(c, None) for c in first]),
                        "r1": ExecutedLog([(c, None) for c in second])},
               roots={"r0": "root", "r1": "root"}, accepted={},
               pending={}, fault_log=[], retry_timeout=1.0, now_ms=0.0)


@given(distinct_commands, st.randoms())
def test_check_allows_any_reordering_of_non_interfering_commands(cmds,
                                                                 rng):
    relation = KVInterference()
    permuted = list(cmds)
    for _ in range(3 * len(cmds)):
        i = rng.randrange(len(permuted) - 1)
        if not relation.interferes(permuted[i], permuted[i + 1]):
            permuted[i], permuted[i + 1] = permuted[i + 1], permuted[i]
    assert check(two_replicas(cmds, permuted)) == []


@given(distinct_commands, st.randoms())
def test_check_flags_any_swapped_interfering_pair(cmds, rng):
    relation = KVInterference()
    pairs = [(i, j) for i in range(len(cmds))
             for j in range(i + 1, len(cmds))
             if relation.interferes(cmds[i], cmds[j])]
    assume(pairs)
    i, j = rng.choice(pairs)
    swapped = list(cmds)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert "order" in {v["check"]
                       for v in check(two_replicas(cmds, swapped))}


# ----------------------------------------------------------------------
# Quorums
# ----------------------------------------------------------------------
@given(data=st.data())
def test_quorums_intersect_in_enough_replicas(data):
    """At n = 3f+1 any two slow (2f+1) quorums share f+1 replicas, one
    of them correct, and a fast (3f+1) and a slow quorum share 2f+1."""
    f = data.draw(st.integers(min_value=1, max_value=10))
    config = ProtocolConfig(
        replica_ids=tuple(f"r{i}" for i in range(3 * f + 1)))
    assert config.f == f

    def quorum(size):
        return set(data.draw(st.permutations(config.replica_ids))[:size])
    slow_a, slow_b = (quorum(config.slow_quorum_size) for _ in range(2))
    fast = quorum(config.fast_quorum_size)
    assert len(slow_a & slow_b) >= f + 1
    assert len(fast & slow_a) >= 2 * f + 1


@pytest.mark.parametrize("n", [5, 6, 8, 9])
def test_replica_counts_other_than_3f_plus_1_are_rejected(n):
    with pytest.raises(ConfigurationError):
        ProtocolConfig(replica_ids=tuple(f"r{i}" for i in range(n)))
