"""The one fault injector, on both backends.

Events are applied directly (no scenario, no load) to a simulated
cluster and to a live TCP ``AsyncioCluster``, and the tests assert on
what the injector derives: ``cluster.cuts`` and the node handlers.  On
TCP they also check that a cut link really stops frames.
"""

import asyncio

import pytest

from repro.byzantine import SilentReplica
from repro.messages.ezbft import (
    Request,
    SpecOrder,
    StateTransferReply,
    StateTransferRequest,
)
from repro.scenario.faults import (
    CrashReplica,
    FaultInjector,
    Heal,
    Partition,
    RecoverReplica,
    SwapByzantine,
)
from repro.statemachine.base import Command
from repro.transport.asyncio_tcp import AsyncioCluster

from helpers import lan_cluster

BACKENDS = ("sim", "tcp")
#: Both directions between r1 and {r2, r3}.
R1_PARTITION = {("r1", "r2"), ("r2", "r1"), ("r1", "r3"), ("r3", "r1")}
PING = Request(command=Command(client_id="c", timestamp=1, op="noop"))


def _on_backend(backend, check):
    """Run ``check(cluster, handler_of)`` on a fresh 4-replica
    deployment; on TCP inside its running loop."""
    if backend == "sim":
        cluster = lan_cluster()
        check(cluster, cluster.network.handler_of)
        return

    async def tcp():
        cluster = AsyncioCluster(protocol="ezbft", num_replicas=4)
        await cluster.start()
        try:
            check(cluster, lambda rid: cluster.nodes[rid].handler)
        finally:
            await cluster.stop()

    asyncio.run(tcp())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("crash_first", [False, True])
def test_recovery_leaves_exactly_the_declared_partition(backend,
                                                        crash_first):
    crash = CrashReplica(at_ms=100.0, replica="r1")
    partition = Partition(at_ms=150.0, sides=(("r1",), ("r2", "r3")))

    def check(cluster, handler_of):
        injector = FaultInjector(cluster)
        for event in ((crash, partition) if crash_first
                      else (partition, crash)):
            injector.apply(event)
        # Crashed: cut from every node, not only the partitioned ones.
        assert R1_PARTITION | {("r1", "r0"), ("r0", "r1")} <= cluster.cuts
        injector.apply(RecoverReplica(at_ms=200.0, replica="r1"))
        assert cluster.cuts == R1_PARTITION
        assert handler_of("r1") == cluster.replicas["r1"].on_message
        injector.apply(Heal(at_ms=250.0))
        assert cluster.cuts == set()

    _on_backend(backend, check)


@pytest.mark.parametrize("backend", BACKENDS)
def test_recovery_after_a_swap_runs_the_swapped_replica(backend):
    def check(cluster, handler_of):
        injector = FaultInjector(cluster)
        injector.apply(CrashReplica(at_ms=100.0, replica="r1"))
        injector.apply(SwapByzantine(at_ms=150.0, replica="r1",
                                     behavior="silent"))
        swapped = cluster.replicas["r1"]
        assert isinstance(swapped, SilentReplica)
        # The swap does not revive a crashed replica...
        assert handler_of("r1") != swapped.on_message
        assert injector.is_crashed("r1")
        injector.apply(RecoverReplica(at_ms=200.0, replica="r1"))
        # ...and recovery binds the replica now in the cluster.
        assert handler_of("r1") == swapped.on_message
        assert cluster.cuts == set()

    _on_backend(backend, check)


def test_composed_faults_example_delivers_on_sim():
    # CI runs the same file on both backends and compares fault logs.
    import os

    from repro.scenario import ScenarioRunner, load_spec

    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "examples", "specs", "composed_faults.json")
    report = ScenarioRunner().run(load_spec(path))
    assert report.delivered == 12
    assert [e["event"] for e in report.fault_log] == [
        "CrashReplica", "Partition", "RecoverReplica", "Heal"]


class _Inbox:
    """Stands in for a replica in ``cluster.replicas``; the injector
    binds its ``on_message`` as the node's handler."""

    def __init__(self):
        self.senders = []
        #: What arrived, by type (a signed envelope's by its payload's).
        self.received = []

    def on_message(self, sender, message):
        self.senders.append(sender)
        self.received.append(type(getattr(message, "payload", message)))


def _on_tcp(body):
    async def run():
        cluster = AsyncioCluster(protocol="ezbft", num_replicas=4)
        await cluster.start()
        try:
            await body(cluster, FaultInjector(cluster))
        finally:
            await cluster.stop()

    asyncio.run(run())


async def _until(predicate, timeout_s=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "frame never arrived"
        await asyncio.sleep(0.005)


def test_tcp_crash_cuts_the_replicas_own_sends():
    """A crashed replica sends nothing.  A recovered one sends only its
    catch-up request, and leads nothing, until a peer's answer is
    installed; then it leads what it held."""
    async def body(cluster, injector):
        replica = cluster.replicas["r1"]
        ctx = replica.ctx
        r1 = cluster.nodes["r1"]
        r2 = cluster.replicas["r2"] = _Inbox()
        await cluster.add_client("c0", target_replica="r1")
        injector.apply(CrashReplica(at_ms=0.0, replica="r1"))
        dropped = r1.frames_dropped
        ctx.send("r2", PING)  # e.g. a timer firing on the crashed replica
        assert r1.frames_dropped == dropped + 1
        await asyncio.sleep(0.1)
        assert r2.senders == []
        injector.apply(RecoverReplica(at_ms=0.0, replica="r1"))
        # r1 asks r2, the next replica in ring order, what it missed,
        # and holds the request it would lead.
        replica._admit(Request(command=Command(
            client_id="c0", timestamp=1, op="put", key="k", value="v")))
        await _until(lambda: r2.received == [StateTransferRequest])
        await asyncio.sleep(0.1)
        assert r2.received == [StateTransferRequest]
        assert r2.senders == ["r1"]
        # The (empty) answer lands: r1 leads the held request.
        replica.on_message("r2", StateTransferReply(replica="r2"))
        await _until(lambda: r2.received == [StateTransferRequest,
                                             SpecOrder])
        ctx.send("r2", PING)
        await _until(lambda: r2.received[-1] is Request)

    _on_tcp(body)


def test_tcp_partition_stops_frames_between_its_sides():
    async def body(cluster, injector):
        inbox = {rid: _Inbox() for rid in ("r0", "r1", "r2")}
        cluster.replicas.update(inbox)
        injector.apply(Partition(at_ms=0.0, sides=(("r1",), ("r2",))))

        def exchange():
            cluster.nodes["r1"].send("r2", PING)
            cluster.nodes["r2"].send("r1", PING)
            cluster.nodes["r1"].send("r0", PING)

        exchange()
        # r0 is on neither side: its frame arrives, the others do not.
        await _until(lambda: inbox["r0"].senders == ["r1"])
        await asyncio.sleep(0.05)
        assert inbox["r1"].senders == inbox["r2"].senders == []
        assert cluster.nodes["r1"].frames_dropped == 1
        assert cluster.nodes["r2"].frames_dropped == 1
        injector.apply(Heal(at_ms=0.0))
        exchange()
        await _until(lambda: inbox["r2"].senders == ["r1"]
                     and inbox["r1"].senders == ["r2"])

    _on_tcp(body)
