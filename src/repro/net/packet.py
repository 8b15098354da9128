"""Packet and protocol-payload types.

Packets carry no real bytes -- payloads are small dataclasses plus a
``size`` in wire bytes, which is all the timing model needs.  Application
content rides along as opaque ``tag`` objects so that determinism checks
can compare exactly what a guest emitted.

Every class writes out its ``__init__``, which runs once per packet: a
dataclass-generated one is compiled from a string, so all of them share
one profile label (``<string>:2(__init__)``), and a profile keyed by
label, such as cProfile's stats table, keeps only one of them.
"""

from dataclasses import dataclass
from typing import Any, Optional, Tuple

#: Ethernet+IP+TCP header overhead approximated for sizing, bytes.
TCP_HEADER_BYTES = 54
UDP_HEADER_BYTES = 42
#: Conventional Ethernet MSS.
DEFAULT_MSS = 1460


@dataclass(slots=True)
class Packet:
    """One IP packet on the simulated wire.

    ``uid`` is assigned by the :class:`~repro.net.network.Network` when
    the packet first hits the wire, from a per-network counter -- never
    from process-global state, so same-seed runs produce identical uids
    no matter how many simulations this process ran before.  It is
    ``None`` until then.
    """

    src: str
    dst: str
    protocol: str           # "tcp" | "udp" | "pgm" | "replica" | ...
    payload: Any
    size: int               # total wire bytes
    uid: Optional[int] = None

    def __init__(self, src: str, dst: str, protocol: str, payload: Any,
                 size: int, uid: Optional[int] = None) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.size = size
        self.uid = uid

    def copy_to(self, dst: str) -> "Packet":
        """A duplicate of this packet addressed to ``dst`` (uid assigned
        on its own send)."""
        return Packet(src=self.src, dst=dst, protocol=self.protocol,
                      payload=self.payload, size=self.size)

    def __repr__(self) -> str:
        uid = "?" if self.uid is None else self.uid
        return (f"<Packet#{uid} {self.src}->{self.dst} "
                f"{self.protocol} {self.size}B>")


@dataclass(slots=True)
class TcpSegment:
    """A TCP segment (sequence space counted in bytes)."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: str = ""          # combination of "S", "A", "F"
    data_len: int = 0
    tags: Tuple = ()         # application message boundaries in this segment

    def __init__(self, src_port: int, dst_port: int, seq: int, ack: int,
                 flags: str = "", data_len: int = 0,
                 tags: Tuple = ()) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.data_len = data_len
        self.tags = tags

    @property
    def syn(self) -> bool:
        return "S" in self.flags

    @property
    def fin(self) -> bool:
        return "F" in self.flags

    @property
    def ack_flag(self) -> bool:
        return "A" in self.flags

    def wire_size(self) -> int:
        return TCP_HEADER_BYTES + self.data_len

    def __repr__(self) -> str:
        return (f"<TcpSeg {self.src_port}->{self.dst_port} "
                f"[{self.flags or '.'}] seq={self.seq} ack={self.ack} "
                f"len={self.data_len}>")


@dataclass(slots=True)
class UdpDatagram:
    """A UDP datagram."""

    src_port: int
    dst_port: int
    data_len: int
    tag: Any = None

    def __init__(self, src_port: int, dst_port: int, data_len: int,
                 tag: Any = None) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.data_len = data_len
        self.tag = tag

    def wire_size(self) -> int:
        return UDP_HEADER_BYTES + self.data_len


@dataclass(slots=True)
class PgmDatagram:
    """A PGM (reliable multicast) datagram: ODATA, RDATA or NAK."""

    group: str
    sender: str
    kind: str                # "odata" | "rdata" | "nak"
    seq: int
    data: Any = None
    data_len: int = 0

    def __init__(self, group: str, sender: str, kind: str, seq: int,
                 data: Any = None, data_len: int = 0) -> None:
        self.group = group
        self.sender = sender
        self.kind = kind
        self.seq = seq
        self.data = data
        self.data_len = data_len

    def wire_size(self) -> int:
        return UDP_HEADER_BYTES + 16 + self.data_len


@dataclass(slots=True)
class ReplicaEnvelope:
    """Wrapper used on the cloud-internal network.

    Ingress -> dom0: ``direction="in"`` with an ingress-assigned ``seq``.
    dom0 -> egress:  ``direction="out"`` with the replica's id and the
    deterministic per-VM output sequence number.
    """

    vm: str
    direction: str           # "in" | "out"
    seq: int
    inner: Packet
    replica_id: Optional[int] = None

    def __init__(self, vm: str, direction: str, seq: int, inner: Packet,
                 replica_id: Optional[int] = None) -> None:
        self.vm = vm
        self.direction = direction
        self.seq = seq
        self.inner = inner
        self.replica_id = replica_id

    def wire_size(self) -> int:
        return self.inner.size + 20
