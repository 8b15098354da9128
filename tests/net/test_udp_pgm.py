"""Tests for UDP and the PGM reliable multicast."""

import gc

import pytest

from repro.net import Link, Network, PgmReceiver, PgmSender, RealtimeNode, UdpStack
from repro.net.packet import PgmDatagram
from repro.sim import Simulator


def make_nodes(sim, names, **link_kwargs):
    network = Network(sim, default_link_kwargs=link_kwargs or
                      {"latency": 0.001})
    return network, {name: RealtimeNode(sim, network, name)
                     for name in names}


class TestUdp:
    def test_datagram_delivery(self):
        sim = Simulator()
        _, nodes = make_nodes(sim, ["a", "b"])
        udp_a = UdpStack(nodes["a"])
        udp_b = UdpStack(nodes["b"])
        got = []
        udp_b.bind(53, lambda dgram, src: got.append((dgram.tag, src)))
        udp_a.send("b", src_port=9999, dst_port=53, data_len=100, tag="query")
        sim.run()
        assert got == [("query", "a")]

    def test_unbound_port_dropped(self):
        sim = Simulator()
        _, nodes = make_nodes(sim, ["a", "b"])
        udp_a = UdpStack(nodes["a"])
        udp_b = UdpStack(nodes["b"])
        udp_a.send("b", 1, 2, 10)
        sim.run()
        assert udp_b.received_datagrams == 0

    def test_port_conflict_rejected(self):
        sim = Simulator()
        _, nodes = make_nodes(sim, ["a"])
        udp = UdpStack(nodes["a"])
        udp.bind(80, lambda d, s: None)
        with pytest.raises(ValueError):
            udp.bind(80, lambda d, s: None)

    def test_negative_length_rejected(self):
        sim = Simulator()
        _, nodes = make_nodes(sim, ["a", "b"])
        udp = UdpStack(nodes["a"])
        with pytest.raises(ValueError):
            udp.send("b", 1, 2, -5)


class TestPgm:
    def test_fanout_to_all_members(self):
        sim = Simulator()
        _, nodes = make_nodes(sim, ["sender", "r1", "r2", "r3"])
        sender = PgmSender(nodes["sender"], "grp",
                           ["r1", "r2", "r3"])
        got = {name: [] for name in ("r1", "r2", "r3")}
        for name in got:
            PgmReceiver(nodes[name], "grp", "sender",
                        lambda data, seq, n=name: got[n].append(data))
        sender.multicast("hello")
        sender.multicast("world")
        sim.run()
        assert all(v == ["hello", "world"] for v in got.values())

    def test_sender_excluded_from_own_fanout(self):
        sim = Simulator()
        _, nodes = make_nodes(sim, ["sender", "r1"])
        sender = PgmSender(nodes["sender"], "grp", ["sender", "r1"])
        sender.multicast("x")
        sim.run()
        assert sender.odata_sent == 1

    def test_in_order_delivery(self):
        sim = Simulator()
        _, nodes = make_nodes(sim, ["s", "r"])
        sender = PgmSender(nodes["s"], "grp", ["r"])
        got = []
        PgmReceiver(nodes["r"], "grp", "s",
                    lambda data, seq: got.append(seq))
        for i in range(10):
            sender.multicast(i)
        sim.run()
        assert got == list(range(10))

    def test_loss_repaired_by_nak(self):
        sim = Simulator(seed=42)
        network = Network(sim)
        node_s = RealtimeNode(sim, network, "s")
        node_r = RealtimeNode(sim, network, "r")
        # lossy forward path, clean reverse path for NAKs
        network.add_route("s", "r", Link(sim, latency=0.001, loss=0.3,
                                         name="lossy-fwd"))
        network.add_route("r", "s", Link(sim, latency=0.001, name="rev"))
        sender = PgmSender(node_s, "grp", ["r"])
        got = []
        receiver = PgmReceiver(node_r, "grp", "s",
                               lambda data, seq: got.append(data))
        for i in range(50):
            sender.multicast(i)
        # a trailing datagram ensures the last gap is detectable
        sim.run(until=5.0)
        # Everything delivered except possibly a lost *final* datagram
        # (PGM cannot detect a gap after the last sequence number).
        assert got == list(range(len(got)))
        assert len(got) >= 49
        assert receiver.naks_sent > 0
        assert sender.rdata_sent > 0

    def test_empty_group_rejected(self):
        sim = Simulator()
        _, nodes = make_nodes(sim, ["s"])
        with pytest.raises(ValueError):
            PgmSender(nodes["s"], "grp", [])

    def test_give_up_reports_loss(self):
        sim = Simulator(seed=7)
        network = Network(sim)
        node_s = RealtimeNode(sim, network, "s")
        node_r = RealtimeNode(sim, network, "r")
        # forward path loses everything after the first datagram's copy:
        # use full loss on NAK path so repair can never happen.
        network.add_route("s", "r", Link(sim, latency=0.001, loss=0.6,
                                         name="fwd"))
        network.add_route("r", "s", Link(sim, latency=0.001, loss=0.99,
                                         name="nak-blackhole"))
        sender = PgmSender(node_s, "grp", ["r"])
        got, lost = [], []
        PgmReceiver(node_r, "grp", "s",
                    lambda data, seq: got.append(seq),
                    max_naks=2, nak_delay=0.001,
                    on_loss=lost.append)
        for i in range(30):
            sender.multicast(i)
        sim.run(until=10.0)
        # the stream still progressed: delivered + given-up covers a prefix
        assert len(got) + len(lost) >= 25


class TestRetransmitWindow:
    """The sender keeps the data of its last ``retain`` seqs for NAK
    repair, and nothing else."""

    @staticmethod
    def sender_and_receiver(retain=4096):
        sim = Simulator()
        _, nodes = make_nodes(sim, ["s", "r"])
        sender = PgmSender(nodes["s"], "grp", ["r"], retain=retain)
        receiver = PgmReceiver(nodes["r"], "grp", max_naks=2)
        rdata = []
        send = nodes["s"].send_packet

        def recording(packet):
            if packet.payload.kind == "rdata":
                rdata.append(packet.payload.seq)
            send(packet)

        nodes["s"].send_packet = recording
        return sim, sender, receiver, rdata

    def test_repair_reaches_back_exactly_retain_seqs(self):
        sim, sender, receiver, rdata = self.sender_and_receiver(retain=8)
        payloads = [[seq] for seq in range(21)]
        for data in payloads[:20]:
            sender.multicast(data)
        sim.run()              # seqs 0-19 reach a host not yet listening
        got, lost = [], []
        receiver.subscribe("s", lambda data, seq: got.append((seq, data)),
                           on_loss=lost.append, start_seq=10)
        sender.multicast(payloads[20])   # the gap 10-19 is now visible
        sim.run()
        assert [seq for seq, _ in got] == list(range(13, 21))
        assert all(data is payloads[seq] for seq, data in got)
        assert lost == [10, 11, 12]
        assert sorted(rdata) == list(range(13, 20))

    def test_purged_seq_is_never_repaired(self):
        sim, sender, receiver, rdata = self.sender_and_receiver()
        got, lost = [], []
        receiver.subscribe("s", lambda data, seq: got.append(data),
                           on_loss=lost.append)
        sender.multicast("a")
        sender.drop_next(1, purge=True)
        sender.multicast("b")
        sender.multicast("c")
        sim.run()
        assert got == ["a", "c"]
        assert lost == [1]
        assert rdata == []

    def test_retain_zero_repairs_nothing(self):
        sim, sender, receiver, rdata = self.sender_and_receiver(retain=0)
        got, lost = [], []
        receiver.subscribe("s", lambda data, seq: got.append(data),
                           on_loss=lost.append)
        sender.multicast("a")
        sender.drop_next(1)
        sender.multicast("b")
        sender.multicast("c")
        sim.run()
        assert got == ["a", "c"]
        assert lost == [1]
        assert rdata == [] and sender.rdata_sent == 0

    def test_no_datagram_outlives_its_delivery(self):
        sim = Simulator()
        _, nodes = make_nodes(sim, ["s", "r1", "r2"])
        sender = PgmSender(nodes["s"], "gc-window", ["r1", "r2"])
        got = []
        for name in ("r1", "r2"):
            PgmReceiver(nodes[name], "gc-window", "s",
                        lambda data, seq: got.append(seq))
        for i in range(50):
            sender.multicast(i)
        sim.run()
        assert len(got) == 100
        gc.collect()
        assert not [obj for obj in gc.get_objects()
                    if isinstance(obj, PgmDatagram)
                    and obj.group == "gc-window"]
