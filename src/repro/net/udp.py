"""A minimal UDP layer over the packet network."""

from typing import Any, Callable, Dict

from repro.net.packet import Packet, UdpDatagram


class UdpStack:
    """Port-demultiplexed datagram service bound to one NetHost."""

    def __init__(self, host):
        self.host = host
        self._bindings: Dict[int, Callable] = {}
        self.sent_datagrams = 0
        self.received_datagrams = 0
        host.register_protocol("udp", self._on_packet)

    def bind(self, port: int, handler: Callable) -> None:
        """Register ``handler(datagram, src_addr)`` for a local port."""
        if port in self._bindings:
            raise ValueError(f"{self.host.address}: UDP port {port} in use")
        self._bindings[port] = handler

    def send(self, dst_addr: str, src_port: int, dst_port: int,
             data_len: int, tag: Any = None) -> None:
        """Send one datagram (no fragmentation model; keep <= MTU-sized
        lengths at the application layer)."""
        if data_len < 0:
            raise ValueError(f"negative data_len: {data_len}")
        datagram = UdpDatagram(src_port=src_port, dst_port=dst_port,
                               data_len=data_len, tag=tag)
        self.sent_datagrams += 1
        self.host.send_packet(Packet(
            src=self.host.address, dst=dst_addr, protocol="udp",
            payload=datagram, size=datagram.wire_size(),
        ))

    def _on_packet(self, packet: Packet) -> None:
        datagram = packet.payload
        handler = self._bindings.get(datagram.dst_port)
        if handler is not None:
            self.received_datagrams += 1
            handler(datagram, packet.src)
