"""Tests for the ClientPort WAN attachment."""

import pytest

from repro.cloud import Cloud
from repro.core import PASSTHROUGH
from repro.net import UdpStack
from repro.net.network import RealtimeNode
from repro.sim import Simulator
from repro.workloads import EchoServer


class TestClientPort:
    def test_forwards_nethost_interface(self):
        sim = Simulator(seed=1)
        cloud = Cloud(sim, machines=3, config=PASSTHROUGH)
        client = cloud.add_client("c:1")
        assert client.now() == sim.now
        fired = []
        client.schedule(0.5, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_is_the_node_that_owns_its_wan_links(self):
        """No proxy: the port is the client's node, under the address
        and RNG stream name the node would have on its own."""
        sim = Simulator(seed=1)
        cloud = Cloud(sim, machines=3, config=PASSTHROUGH)
        client = cloud.add_client("c:1")
        assert isinstance(client, RealtimeNode)
        assert client.address == client.name == "c:1"
        assert client.rng is sim.rng.stream("node.c:1")
        assert (client.uplink.name, client.downlink.name) == (
            "wan.up.c:1", "wan.down.c:1")

    def test_wan_latency_applies_both_ways(self):
        sim = Simulator(seed=1)
        cloud = Cloud(sim, machines=3, config=PASSTHROUGH)
        cloud.create_vm("echo", EchoServer)
        client = cloud.add_client("c:1", latency=0.010, jitter=0.0)
        udp = UdpStack(client)
        rtts = []
        start = [0.0]
        udp.bind(9000, lambda d, s: rtts.append(sim.now - start[0]))

        def ping():
            start[0] = sim.now
            udp.send("vm:echo", 9000, 7, 64, tag=0)

        sim.call_after(0.05, ping)
        cloud.run(until=1.0)
        assert len(rtts) == 1
        assert rtts[0] >= 0.020  # two 10 ms WAN crossings

    def test_client_added_before_vm_still_routed(self):
        sim = Simulator(seed=1)
        cloud = Cloud(sim, machines=3, config=PASSTHROUGH)
        client = cloud.add_client("c:1")
        cloud.create_vm("echo", EchoServer)
        udp = UdpStack(client)
        got = []
        udp.bind(9000, lambda d, s: got.append(d.tag))
        sim.call_after(0.05, udp.send, "vm:echo", 9000, 7, 64, "hi")
        cloud.run(until=1.0)
        assert got == ["hi"]

    def test_bandwidth_limits_throughput(self):
        sim = Simulator(seed=1)
        cloud = Cloud(sim, machines=3, config=PASSTHROUGH)
        client = cloud.add_client("slow:1", bandwidth=1e6)  # 1 Mbit/s
        # 10 x 1250-byte datagrams = 100 ms of serialisation
        cloud.create_vm("echo", EchoServer)
        udp = UdpStack(client)
        for i in range(10):
            udp.send("vm:echo", 9000, 7, 1208, tag=i)
        assert client.uplink.queue_delay >= 0.09
