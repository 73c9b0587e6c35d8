"""Protocol-registry tests: lookup, registration, capability flags, and
the cross-protocol smoke test driven by ``available_protocols()``."""

import asyncio

import pytest

from helpers import DeliveryLog, lan_cluster

from repro.cluster.builder import PROTOCOLS, build_cluster
from repro.core.client import EzBFTClient
from repro.core.replica import EzBFTReplica
from repro.errors import ConfigurationError
from repro.protocols.registry import (
    ProtocolSpec,
    available_protocols,
    get_protocol,
    register_protocol,
    unregister_protocol,
)
from repro.sim.latency import LOCAL
from repro.sim.network import CpuModel
from repro.statemachine.interference import AlwaysInterfere
from repro.transport.asyncio_tcp import AsyncioCluster


# ----------------------------------------------------------------------
# Registry mechanics
# ----------------------------------------------------------------------
def test_builtin_protocols_registered():
    assert available_protocols() == ("ezbft", "pbft", "zyzzyva", "fab")
    assert tuple(PROTOCOLS) == available_protocols()


def test_unknown_protocol_raises_with_choices():
    with pytest.raises(ConfigurationError) as err:
        get_protocol("raft")
    assert "raft" in str(err.value)
    assert "ezbft" in str(err.value)  # the message lists the choices


def test_build_cluster_unknown_protocol():
    with pytest.raises(ConfigurationError):
        build_cluster("hotstuff", ["local"] * 4, LOCAL)


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigurationError):
        register_protocol(ProtocolSpec(
            name="ezbft", replica_cls=EzBFTReplica,
            client_cls=EzBFTClient))


def test_register_and_unregister_custom_protocol():
    spec = ProtocolSpec(name="myproto", replica_cls=EzBFTReplica,
                        client_cls=EzBFTClient, leaderless=True)
    register_protocol(spec)
    try:
        assert get_protocol("myproto") is spec
        assert "myproto" in available_protocols()
        # A registered protocol builds through the normal builder with
        # zero builder edits.
        cluster = lan_cluster("myproto")
        assert type(cluster.replicas["r0"]) is EzBFTReplica
    finally:
        unregister_protocol("myproto")
    assert "myproto" not in available_protocols()
    with pytest.raises(ConfigurationError):
        unregister_protocol("myproto")


def test_invalid_spec_name_rejected():
    with pytest.raises(ConfigurationError):
        ProtocolSpec(name="", replica_cls=EzBFTReplica,
                     client_cls=EzBFTClient)
    with pytest.raises(ConfigurationError):
        ProtocolSpec(name="PBFT", replica_cls=EzBFTReplica,
                     client_cls=EzBFTClient)


# ----------------------------------------------------------------------
# Capability flags
# ----------------------------------------------------------------------
def test_capability_flags():
    assert get_protocol("ezbft").leaderless
    for name in ("pbft", "zyzzyva", "fab"):
        assert not get_protocol(name).leaderless
    # The storage and tracer seams: only ezBFT's replica has them.
    for name in ("ezbft", "pbft", "zyzzyva", "fab"):
        spec = get_protocol(name)
        assert spec.supports_durability == (name == "ezbft")
        assert spec.supports_tracing == (name == "ezbft")


def _built_nodes(backend, protocol, **options):
    """One replica set and one client, built on ``backend``."""
    if backend == "sim":
        cluster = lan_cluster(protocol, **options)
        return cluster.replicas, cluster.add_client(
            "c0", region="local", target_replica="r1")

    async def build():
        cluster = AsyncioCluster(protocol=protocol, num_replicas=4,
                                 **options)
        await cluster.start()
        try:
            client = await cluster.add_client("c0", target_replica="r1")
        finally:
            await cluster.stop()
        return cluster.replicas, client

    return asyncio.run(build())


def test_wiring_kwargs_follow_capabilities():
    """The leaderless flag alone picks the constructor keywords, and
    every built node received them, on both backends."""
    relation = AlwaysInterfere()
    for backend in ("sim", "tcp"):
        replicas, client = _built_nodes(backend, "ezbft",
                                        interference=relation)
        assert all(r.interference is relation
                   for r in replicas.values()), backend
        assert client.target_replica == "r1", backend
        replicas, client = _built_nodes(backend, "pbft", primary_index=2)
        assert {r.view for r in replicas.values()} == {2}, backend
        assert client.view == 2, backend


# ----------------------------------------------------------------------
# Cross-protocol smoke test, driven by the registry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", available_protocols())
def test_every_registered_protocol_round_trips(protocol):
    """One put through every registered protocol: delivered once, with
    the canonical result, and applied at the replicas."""
    cluster = lan_cluster(protocol, cpu=CpuModel.free())
    log = DeliveryLog()
    client = cluster.add_client("c0", region="local",
                                on_delivery=log.hook("c0"))
    client.submit(client.next_command("put", "smoke", protocol))
    cluster.run_until_idle()
    assert log.results == ["OK"]
    applied = [
        sm for sm in cluster.statemachines().values()
        if sm.speculative_items().get("smoke") == protocol
    ]
    # At least a quorum of replicas applied the command (speculative
    # protocols may not have finalized everywhere yet).
    assert len(applied) >= cluster.config.slow_quorum_size
