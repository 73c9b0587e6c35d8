"""Property-based tests (hypothesis) on core data structures and
protocol invariants."""

import dataclasses
import json
import typing

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from repro.crypto.digest import (
    _BYTES_MEMO,
    _encode,
    _respell_replica,
    canonical_bytes,
    digest,
    same_encoding,
    sibling_with_replica,
)
from repro.crypto.keys import KeyPair
from repro.errors import SerializationError
from repro.graph import linearize, tarjan_scc
from repro.messages.base import MESSAGE_REGISTRY, SignedPayload
from repro.messages.batching import BatchSpecOrder
from repro.messages.ezbft import (
    CommitFast,
    EzCheckpoint,
    LogEntrySummary,
    SpecOrder,
    SpecReply,
)
from repro.statemachine.bank import BankMachine
from repro.statemachine.base import Command
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
def test_same_encoding_is_equality_of_canonical_bytes(a, b):
    """The scalar shortcut agrees with the definition, and is never
    looser than it where Python's ``==`` is."""
    assert same_encoding(a, b) == (_encode(a) == _encode(b))
    assert same_encoding(a, a)


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
    header under the other signer."""
    expected = _encode(dataclasses.replace(header, replica=signer))
    derived = _respell_replica(_encode(header).decode("ascii"),
                               header.replica, signer)
    assert derived is None or derived.encode("ascii") == expected
    sibling = sibling_with_replica(header, signer)
    assert sibling == dataclasses.replace(header, replica=signer)
    assert canonical_bytes(sibling) == expected


@given(spec_replies(plain_ids), plain_ids)
def test_respelling_applies_to_ordinary_ids(header, signer):
    """Not vacuous: with brace-free ids the shortcut is always taken,
    a result that has a ``replica`` key of its own included (``result``
    sorts after ``replica``, so the first match is still the key)."""
    expected = _encode(dataclasses.replace(header, replica=signer))
    derived = _respell_replica(_encode(header).decode("ascii"),
                               header.replica, signer)
    assert derived is not None and derived.encode("ascii") == expected
    try:
        hash(header)
    except TypeError:
        return  # dict/list result: no memo to derive into
    memo = getattr(sibling_with_replica(header, signer), _BYTES_MEMO)
    assert memo[1] == expected


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
    return st.from_type(hint)


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
    lambda header, signers: CommitFast(
        client_id=header.client_id, instance=header.instance,
        certificate=tuple(
            _signed(dataclasses.replace(header, replica=rid), rid)
            for rid in signers)),
    st.from_type(SpecReply),
    st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True)))


@pytest.mark.parametrize("cls", DERIVED, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_derived_codec_round_trips_through_bytes(cls, data):
    """Whatever the fields hold, what crosses a wire -- canonical
    bytes, then ``json.loads`` -- decodes to an equal message that
    encodes to the same bytes."""
    message = data.draw(st.from_type(cls))
    raw = canonical_bytes(message)
    again = cls.from_wire(json.loads(raw))
    assert again == message
    assert canonical_bytes(again) == raw


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
