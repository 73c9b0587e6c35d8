"""Unit tests for command-interference relations."""

import pytest

from repro.statemachine.base import Command
from repro.statemachine.interference import (
    AlwaysInterfere,
    KVInterference,
    NeverInterfere,
    ReadWriteInterference,
)


def cmd(op, key="k", value=None, ts=1, client="c"):
    return Command(client_id=client, timestamp=ts, op=op, key=key,
                   value=value)


KV = KVInterference()


def test_different_keys_never_interfere():
    assert not KV.interferes(cmd("put", "a"), cmd("put", "b"))


def test_put_put_same_key_interferes():
    assert KV.interferes(cmd("put"), cmd("put"))


def test_get_get_never_interferes():
    assert not KV.interferes(cmd("get"), cmd("get"))


def test_put_get_interferes():
    assert KV.interferes(cmd("put"), cmd("get"))
    assert KV.interferes(cmd("get"), cmd("put"))


def test_incr_incr_commutes():
    """The paper: mutative-but-commutative ops do not interfere under
    ezBFT's relation (unlike Q/U's read/write classification)."""
    assert not KV.interferes(cmd("incr"), cmd("incr"))


def test_incr_get_interferes():
    assert KV.interferes(cmd("incr"), cmd("get"))


def test_incr_put_interferes():
    assert KV.interferes(cmd("incr"), cmd("put"))


def test_noop_never_interferes():
    assert not KV.interferes(Command.noop(), cmd("put"))
    assert not KV.interferes(cmd("put"), Command.noop())


def test_kv_relation_is_symmetric():
    ops = ["get", "put", "incr", "noop"]
    for a in ops:
        for b in ops:
            ca = cmd(a) if a != "noop" else Command.noop()
            cb = cmd(b, ts=2) if b != "noop" else Command.noop()
            assert KV.interferes(ca, cb) == KV.interferes(cb, ca)


def test_read_write_is_coarser_than_kv():
    """Q/U-style read/write conflicts: incr/incr interferes there but not
    under ezBFT's relation."""
    rw = ReadWriteInterference()
    assert rw.interferes(cmd("incr"), cmd("incr"))
    assert not rw.interferes(cmd("get"), cmd("get"))
    # Everything KV flags, RW flags too.
    ops = ["get", "put", "incr"]
    for a in ops:
        for b in ops:
            if KV.interferes(cmd(a), cmd(b, ts=2)):
                assert rw.interferes(cmd(a), cmd(b, ts=2))


def test_always_interfere():
    always = AlwaysInterfere()
    assert always.interferes(cmd("get", "a"), cmd("get", "b"))
    assert not always.interferes(Command.noop(), cmd("put"))


def test_never_interfere():
    never = NeverInterfere()
    assert not never.interferes(cmd("put"), cmd("put"))


def _commands():
    """Every op on each of two keys, and the noop."""
    return [cmd(op, key, ts=i) for i, (op, key) in enumerate(
        (op, key) for op in ("get", "put", "incr", "noop")
        for key in ("a", "b"))] + [Command.noop()]


@pytest.mark.parametrize("relation", [
    KVInterference(), ReadWriteInterference(), AlwaysInterfere(),
    NeverInterfere()], ids=lambda r: type(r).__name__)
def test_an_absorbing_command_interferes_with_its_whole_index_key(
        relation):
    """``absorbs(a)`` promises that ``a`` interferes, in either order,
    with every non-noop command on its index key -- the dependency walk
    stops at such a cover on the strength of it."""
    commands = _commands()
    for a in commands:
        if not relation.absorbs(a):
            continue
        for b in commands:
            if b.is_noop or relation.key_based and b.key != a.key:
                continue
            assert relation.interferes(a, b), (a, b)
            assert relation.interferes(b, a), (b, a)


def test_what_each_relation_declares_absorbing():
    ops = ("get", "put", "incr")
    absorbing = {
        type(relation).__name__: [op for op in ops
                                  if relation.absorbs(cmd(op))]
        for relation in (KVInterference(), ReadWriteInterference(),
                         AlwaysInterfere(), NeverInterfere())}
    assert absorbing == {"KVInterference": ["put"],
                         "ReadWriteInterference": ["put", "incr"],
                         "AlwaysInterfere": list(ops),
                         "NeverInterfere": []}
    for relation in (KVInterference(), AlwaysInterfere()):
        assert not relation.absorbs(Command.noop())
