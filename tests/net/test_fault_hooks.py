"""Observable drops: every lost packet leaves a ``net.drop`` trace and
bumps a counter -- nothing disappears silently under fault injection."""

from repro.net import Link, Network, Packet
from repro.sim import Simulator


def make_net():
    sim = Simulator(seed=3)
    net = Network(sim)
    inbox = []
    net.attach("a", inbox.append)
    net.attach("b", inbox.append)
    return sim, net, inbox


def packet(src="a", dst="b"):
    return Packet(src=src, dst=dst, protocol="udp", payload=None, size=100)


class TestNetworkDrops:
    def test_isolated_destination_drop_is_observable(self):
        sim, net, inbox = make_net()
        net.isolate("b")
        net.send(packet())
        sim.run(until=0.1)
        assert inbox == []
        assert net.dropped_packets == 1
        assert sim.trace.count("net.drop") == 1
        (record,) = sim.trace.iter_records("net.drop")
        assert record.payload["reason"] == "isolated"
        assert record.payload["dst"] == "b"
        assert record.payload["protocol"] == "udp"

    def test_isolated_source_drops_before_transmit(self):
        sim, net, inbox = make_net()
        net.isolate("a")
        net.send(packet())
        assert net.dropped_packets == 1
        (record,) = sim.trace.iter_records("net.drop")
        assert record.payload["reason"] == "isolated"
        assert record.payload["src"] == "a"

    def test_endpoint_gone_in_flight(self):
        sim, net, inbox = make_net()
        net.send(packet())
        net.detach("b")  # endpoint vanishes while the packet is in flight
        sim.run(until=0.1)
        assert inbox == []
        (record,) = sim.trace.iter_records("net.drop")
        assert record.payload["reason"] == "endpoint_gone"
        assert net.dropped_packets == 1

    def test_restore_heals_partition(self):
        sim, net, inbox = make_net()
        net.isolate("b")
        net.send(packet())
        sim.run(until=0.05)   # isolation is checked at delivery time
        net.restore("b")
        net.send(packet())
        sim.run(until=0.1)
        assert len(inbox) == 1
        assert net.dropped_packets == 1
        assert net.delivered_packets == 1


class TestLinkDrops:
    def test_link_down_drop_traced(self):
        sim = Simulator(seed=3)
        link = Link(sim, name="wan")
        delivered = []
        link.fail()
        link.transmit(packet(), delivered.append)
        sim.run(until=0.1)
        assert delivered == []
        assert link.dropped_packets == 1
        (record,) = sim.trace.iter_records("net.drop")
        assert record.payload["reason"] == "link_down"
        assert record.payload["link"] == "wan"

    def test_loss_drop_traced(self):
        sim = Simulator(seed=3)
        link = Link(sim, name="lossy", loss=0.999)
        delivered = []
        link.transmit(packet(), delivered.append)
        sim.run(until=0.1)
        assert delivered == []
        (record,) = sim.trace.iter_records("net.drop")
        assert record.payload["reason"] == "loss"
        assert link.dropped_packets == 1

    def test_restored_link_delivers_again(self):
        sim = Simulator(seed=3)
        link = Link(sim, name="wan")
        delivered = []
        link.fail()
        link.transmit(packet(), delivered.append)
        link.restore()
        link.transmit(packet(), delivered.append)
        sim.run(until=0.1)
        assert len(delivered) == 1
        assert link.dropped_packets == 1
