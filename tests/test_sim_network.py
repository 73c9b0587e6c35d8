"""Unit tests for the simulated WAN (SimNetwork)."""

import pytest

from repro.errors import ConfigurationError, SimulationError, TransportError
from repro.sim.events import Simulator
from repro.sim.latency import uniform_matrix
from repro.sim.network import CpuModel, NetworkConditions, SimNetwork


class _Msg:
    cpu_cost_units = 1


def make_net(one_way=10.0, cpu=None, conditions=None, regions=("a", "b")):
    sim = Simulator()
    matrix = uniform_matrix(regions, one_way_ms=one_way)
    net = SimNetwork(sim, matrix, cpu=cpu or CpuModel.free(),
                     conditions=conditions)
    return sim, net


def test_delivery_after_propagation():
    sim, net = make_net(one_way=10.0)
    received = []
    net.register("n1", "a", lambda s, m: received.append((sim.now, s, m)))
    net.register("n2", "b", lambda s, m: None)
    msg = _Msg()
    net.send("n2", "n1", msg)
    sim.run()
    assert len(received) == 1
    now, sender, delivered = received[0]
    assert now == pytest.approx(10.0)
    assert sender == "n2"
    assert delivered is msg


def test_intra_region_latency_used():
    sim, net = make_net(one_way=10.0)
    times = []
    net.register("n1", "a", lambda s, m: times.append(sim.now))
    net.register("n2", "a", lambda s, m: None)
    net.send("n2", "n1", _Msg())
    sim.run()
    assert times[0] == pytest.approx(net.latency.intra_region_ms)


def test_duplicate_registration_rejected():
    _, net = make_net()
    net.register("n1", "a", lambda s, m: None)
    with pytest.raises(ConfigurationError):
        net.register("n1", "a", lambda s, m: None)


def test_unknown_region_rejected():
    _, net = make_net()
    with pytest.raises(ConfigurationError):
        net.register("n1", "nowhere", lambda s, m: None)


def test_send_to_unknown_node_raises():
    _, net = make_net()
    net.register("n1", "a", lambda s, m: None)
    with pytest.raises(TransportError):
        net.send("n1", "ghost", _Msg())


def test_cpu_queueing_serializes_processing():
    """Two messages arriving together are processed back to back."""
    sim, net = make_net(one_way=10.0, cpu=CpuModel(base_ms=0.0,
                                                   per_unit_ms=5.0))
    times = []
    net.register("dst", "a", lambda s, m: times.append(sim.now))
    net.register("src", "b", lambda s, m: None)
    net.send("src", "dst", _Msg())
    net.send("src", "dst", _Msg())
    sim.run()
    # First: 10 propagation + 5 processing; second queues behind it.
    assert times[0] == pytest.approx(15.0)
    assert times[1] == pytest.approx(20.0)


def test_cpu_cost_units_scale_processing():
    class Expensive:
        cpu_cost_units = 10

    sim, net = make_net(one_way=0.0,
                        cpu=CpuModel(base_ms=0.0, per_unit_ms=1.0),
                        regions=("a",))
    times = []
    net.register("dst", "a", lambda s, m: times.append(sim.now))
    net.register("src", "a", lambda s, m: None)
    net.send("src", "dst", Expensive())
    sim.run()
    assert times[0] == pytest.approx(net.latency.intra_region_ms + 10.0)


def test_drop_probability_one_drops_everything():
    sim, net = make_net(conditions=NetworkConditions(drop_probability=1.0))
    received = []
    net.register("n1", "a", lambda s, m: received.append(m))
    net.register("n2", "b", lambda s, m: None)
    for _ in range(10):
        net.send("n2", "n1", _Msg())
    sim.run()
    assert received == []
    assert net.stats("n1")["messages_dropped"] == 10


def test_partition_blocks_directed_pair():
    sim, net = make_net()
    received = []
    net.register("n1", "a", lambda s, m: received.append(m))
    net.register("n2", "b", lambda s, m: received.append(m))
    net.conditions.partitions.add(("n2", "n1"))
    net.send("n2", "n1", _Msg())  # blocked
    net.send("n1", "n2", _Msg())  # allowed (directed partition)
    sim.run()
    assert len(received) == 1


def test_isolate_and_heal():
    sim, net = make_net()
    received = []
    net.register("n1", "a", lambda s, m: received.append(m))
    net.register("n2", "b", lambda s, m: None)
    net.isolate("n1")
    net.send("n2", "n1", _Msg())
    sim.run()
    assert received == []
    net.heal("n1")
    net.send("n2", "n1", _Msg())
    sim.run()
    assert len(received) == 1


def test_broadcast_reaches_all():
    sim, net = make_net()
    received = []
    net.register("n1", "a", lambda s, m: received.append("n1"))
    net.register("n2", "b", lambda s, m: received.append("n2"))
    net.register("src", "a", lambda s, m: None)
    net.broadcast("src", ("n1", "n2"), _Msg())
    sim.run()
    assert sorted(received) == ["n1", "n2"]


def test_set_handler_replaces_delivery_target():
    sim, net = make_net()
    first, second = [], []
    net.register("n1", "a", lambda s, m: first.append(m))
    net.register("n2", "b", lambda s, m: None)
    net.set_handler("n1", lambda s, m: second.append(m))
    net.send("n2", "n1", _Msg())
    sim.run()
    assert first == [] and len(second) == 1


def test_message_counters():
    sim, net = make_net()
    net.register("n1", "a", lambda s, m: None)
    net.register("n2", "b", lambda s, m: None)
    net.send("n2", "n1", _Msg(), size_bytes=100)
    sim.run()
    assert net.messages_sent == 1
    assert net.messages_delivered == 1
    assert net.bytes_sent == 100


def test_jitter_changes_latency_but_stays_bounded():
    sim = Simulator()
    matrix = uniform_matrix(("a", "b"), one_way_ms=100.0)
    net = SimNetwork(sim, matrix, cpu=CpuModel.free(),
                     conditions=NetworkConditions(jitter_fraction=0.1),
                     seed=7)
    times = []
    net.register("n1", "a", lambda s, m: times.append(sim.now))
    net.register("n2", "b", lambda s, m: None)
    net.send("n2", "n1", _Msg())
    sim.run()
    assert 90.0 <= times[0] <= 110.0


@pytest.mark.parametrize("one_way,jitter", [(-5.0, 0.0), (100.0, 1.5)])
def test_negative_latency_rejected_at_send(one_way, jitter):
    # The hops bypass Simulator.schedule's check, so the fabric rejects
    # a delay that would land before now itself.
    sim, net = make_net(one_way=one_way,
                        conditions=NetworkConditions(jitter_fraction=jitter))
    net.register("n1", "a", lambda s, m: None)
    net.register("n2", "b", lambda s, m: None)
    with pytest.raises(SimulationError, match="negative one-way latency"):
        for _ in range(50):
            net.send("n2", "n1", _Msg())
