"""Unit tests for ProtocolConfig quorum and rotation math."""

import pytest

from repro.config import ProtocolConfig
from repro.crypto.keys import KeyRegistry
from repro.errors import ConfigurationError


def make(n=4, **kwargs):
    return ProtocolConfig(replica_ids=tuple(f"r{i}" for i in range(n)),
                          **kwargs)


def test_four_replicas_tolerate_one_fault():
    config = make(4)
    assert config.f == 1
    assert config.fast_quorum_size == 4
    assert config.slow_quorum_size == 3
    assert config.weak_quorum_size == 2


def test_seven_replicas_tolerate_two_faults():
    config = make(7)
    assert config.f == 2
    assert config.fast_quorum_size == 7
    assert config.slow_quorum_size == 5
    assert config.weak_quorum_size == 3


def test_ten_replicas_f3():
    config = make(10)
    assert config.f == 3
    assert config.slow_quorum_size == 7


def test_too_few_replicas_rejected():
    with pytest.raises(ConfigurationError):
        make(3)


def test_duplicate_ids_rejected():
    with pytest.raises(ConfigurationError):
        ProtocolConfig(replica_ids=("r0", "r0", "r1", "r2"))


def test_index_of_and_unknown():
    config = make(4)
    assert config.index_of("r2") == 2
    with pytest.raises(ConfigurationError):
        config.index_of("r9")


def test_initial_owner_numbers_match_indices():
    config = make(4)
    for i in range(4):
        assert config.initial_owner_number(f"r{i}") == i


def test_owner_rotation_wraps():
    config = make(4)
    assert config.replica_at(0) == "r0"
    assert config.replica_at(1) == "r1"
    assert config.replica_at(5) == "r1"
    # Owner change for r1's space: O=1 -> O'=2 -> r2 takes over.
    assert config.replica_at(
        config.initial_owner_number("r1") + 1) == "r2"


def test_primary_rotation():
    """Views rotate the primary exactly as owner numbers rotate owners,
    and a key registry keeps the rotation's order."""
    config = make(4)
    assert config.replica_at(0) == "r0"
    assert config.replica_at(7) == "r3"
    assert KeyRegistry(config.replica_ids).replicas == config.replica_ids


def test_slow_quorum_includes_leader_and_is_deterministic():
    config = make(4)
    quorum = config.slow_quorum_for("r2")
    assert quorum == ("r2", "r3", "r0")
    assert len(quorum) == config.slow_quorum_size
    assert config.slow_quorum_for("r2") == quorum


def test_slow_quorum_every_leader():
    config = make(7)
    for rid in config.replica_ids:
        quorum = config.slow_quorum_for(rid)
        assert rid in quorum
        assert len(set(quorum)) == config.slow_quorum_size


def test_others_excludes_self():
    config = make(4)
    assert config.others("r1") == ("r0", "r2", "r3")


def test_timeouts_carried():
    config = make(4, slow_path_timeout=111.0, retry_timeout=222.0)
    assert config.slow_path_timeout == 111.0
    assert config.retry_timeout == 222.0
