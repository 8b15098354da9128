"""PGM-style NAK-based reliable multicast (the OpenPGM stand-in).

StopWatch uses reliable multicast for two jobs (Sec. VII-A): replicating
inbound packets from the ingress node to the three replica hosts, and
exchanging delivery-time proposals among the replica VMMs.  PGM achieves
reliability with *negative* acknowledgments: receivers detect sequence
gaps and ask the sender to retransmit, so the common case adds zero
inbound traffic at the sender -- the very property Sec. VII-C exploits
for file download.

The model here: a sender multicasts ODATA datagrams with per-sender
sequence numbers (one unicast copy per group member).  A receiver seeing
a gap schedules a NAK after ``nak_delay``; the sender answers with RDATA
from its retransmit window.  Repair continues until the gap closes or
``max_naks`` is exhausted (the datagram is then reported lost).

The window keeps, for each of the sender's last ``retain`` seqs, only
what RDATA carries: the ``data`` object and its ``data_len``.  It holds
no datagram, so an ODATA datagram is freed once every member has it.

A :class:`PgmReceiver` handles one multicast *group* on one host and can
subscribe to several senders in that group (each sender is an
independent, in-order stream) -- this is how a replica VMM listens to
both of its siblings on the coordination group.
"""

from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.net.packet import Packet, PgmDatagram

#: the window's ``data`` for a seq evicted by ``drop_next(purge=True)``
_PURGED = object()


class PgmSender:
    """Multicasts datagrams reliably to a fixed member list."""

    def __init__(self, host, group: str, members: List[str],
                 retain: int = 4096):
        if not members:
            raise ValueError("PGM group needs at least one member")
        self.host = host
        self.group = group
        self.members = list(members)
        self.retain = retain
        self._next_seq = 0
        # the retransmit window: the data and data_len of the last
        # ``retain`` seqs, oldest first, so it ends at ``_next_seq - 1``
        self._window_data = deque(maxlen=retain)
        self._window_len = deque(maxlen=retain)
        self.odata_sent = 0
        self.rdata_sent = 0
        self._drop_budget = 0
        self._drop_purges = False
        # hot-path precomputation: the protocol tag and peer list are
        # rebuilt tens of thousands of times per simulated second otherwise
        self._protocol = f"pgm.{group}"
        self._peers = [m for m in self.members if m != host.address]
        host.register_protocol(f"pgm-nak.{group}", self._on_nak)

    @property
    def next_seq(self) -> int:
        """The sequence number the next ``multicast`` will use."""
        return self._next_seq

    def replace_member(self, old_addr: str, new_addr: str) -> None:
        """Swap one group member for another (replica evacuation).

        The stream identity is the *sender*, so sequence numbers keep
        counting; the new member is expected to join at an agreed
        ``start_seq`` (see :meth:`PgmReceiver.subscribe`) and NAK-repair
        anything earlier that it still needs from the retransmit window.
        """
        if old_addr not in self.members:
            raise ValueError(f"{old_addr!r} is not a member of "
                             f"group {self.group!r}")
        if new_addr in self.members:
            raise ValueError(f"{new_addr!r} already a member of "
                             f"group {self.group!r}")
        self.members[self.members.index(old_addr)] = new_addr
        self._peers = [m for m in self.members if m != self.host.address]

    def drop_next(self, count: int, purge: bool = False) -> None:
        """Fault hook: swallow the ODATA of the next ``count`` multicasts.

        Without ``purge`` the datagrams stay in the retransmit window, so
        receivers recover them via NAK repair (added latency only).  With
        ``purge`` they are also evicted from the window: repair fails,
        the receivers' ``max_naks`` budget runs out, and their
        ``on_loss`` callbacks fire -- a permanent coordination loss.
        """
        if count < 0:
            raise ValueError(f"negative drop count: {count}")
        self._drop_budget += count
        self._drop_purges = purge

    def multicast(self, data: Any, data_len: int = 64) -> int:
        """Send ``data`` to every member; returns the sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        host = self.host
        dropped = self._drop_budget > 0
        self._window_data.append(
            _PURGED if dropped and self._drop_purges else data)
        self._window_len.append(data_len)
        if dropped:
            self._drop_budget -= 1
            host.sim.trace.record(
                host.now(), "net.drop", src=host.address,
                dst=self.group, protocol=self._protocol,
                reason="injected")
            return seq
        datagram = PgmDatagram(group=self.group, sender=host.address,
                               kind="odata", seq=seq, data=data,
                               data_len=data_len)
        peers = self._peers
        self.odata_sent += len(peers)
        protocol = self._protocol
        size = datagram.wire_size()
        send = host.send_packet
        src = host.address
        for member in peers:
            send(Packet(src, member, protocol, datagram, size))
        return seq

    def _on_nak(self, packet: Packet) -> None:
        seq = packet.payload.seq
        window = self._window_data
        index = seq - self._next_seq + len(window)
        if not 0 <= index < len(window) or window[index] is _PURGED:
            return  # outside the window or purged; receiver will give up
        repair = PgmDatagram(group=self.group, sender=self.host.address,
                             kind="rdata", seq=seq, data=window[index],
                             data_len=self._window_len[index])
        self.rdata_sent += 1
        self.host.send_packet(Packet(
            src=self.host.address, dst=packet.src,
            protocol=self._protocol, payload=repair,
            size=repair.wire_size(),
        ))


class _SenderStream:
    """Per-sender in-order reassembly state inside a receiver."""

    def __init__(self, receiver: "PgmReceiver", sender_addr: str,
                 on_data: Callable, on_loss: Optional[Callable]):
        self.receiver = receiver
        self.sender_addr = sender_addr
        self.on_data = on_data
        self.on_loss = on_loss
        self.next_seq = 0
        self.pending: Dict[int, PgmDatagram] = {}
        self.nak_state: Dict[int, tuple] = {}  # seq -> (timer, count)

    def admit(self, datagram: PgmDatagram) -> None:
        seq = datagram.seq
        next_seq = self.next_seq
        if seq == next_seq and not self.pending:
            # in-order, no gap outstanding: the overwhelmingly common
            # case -- deliver without touching the reassembly dicts
            if self.nak_state:
                self.cancel_nak(seq)
            self.next_seq = next_seq + 1
            self.on_data(datagram.data, seq)
            return
        if seq < next_seq:
            return  # duplicate
        self.pending[seq] = datagram
        self.cancel_nak(seq)
        for missing in range(next_seq, seq):
            if missing not in self.pending:
                self.schedule_nak(missing)
        self.drain()

    def drain(self) -> None:
        while self.next_seq in self.pending:
            datagram = self.pending.pop(self.next_seq)
            self.next_seq += 1
            self.on_data(datagram.data, datagram.seq)

    def schedule_nak(self, seq: int) -> None:
        if seq in self.nak_state:
            return
        timer = self.receiver.host.schedule(
            self.receiver.nak_delay, self.fire_nak, seq)
        self.nak_state[seq] = (timer, 0)

    def fire_nak(self, seq: int) -> None:
        if seq in self.pending or seq < self.next_seq:
            self.nak_state.pop(seq, None)
            return
        _, count = self.nak_state.get(seq, (None, 0))
        if count >= self.receiver.max_naks:
            self.nak_state.pop(seq, None)
            self.give_up(seq)
            return
        self.receiver._send_nak(self.sender_addr, seq)
        timer = self.receiver.host.schedule(
            self.receiver.nak_delay * 2, self.fire_nak, seq)
        self.nak_state[seq] = (timer, count + 1)

    def cancel_nak(self, seq: int) -> None:
        state = self.nak_state.pop(seq, None)
        if state is not None and state[0] is not None:
            state[0].cancel()

    def give_up(self, seq: int) -> None:
        """Repair failed: skip the datagram so the stream keeps flowing."""
        if seq == self.next_seq:
            self.next_seq += 1
            if self.on_loss is not None:
                self.on_loss(seq)
            self.drain()
        # gaps behind other gaps resolve when the head gap is skipped


class PgmReceiver:
    """All PGM receive state for one (host, group) pair.

    Subscribe to each sender whose stream this host should consume.  The
    classic single-sender form is supported directly in the constructor::

        PgmReceiver(host, "grp", "sender-addr", on_data)
    """

    def __init__(self, host, group: str,
                 sender_addr: Optional[str] = None,
                 on_data: Optional[Callable] = None,
                 nak_delay: float = 0.002, max_naks: int = 5,
                 on_loss: Optional[Callable] = None):
        self.host = host
        self.group = group
        self.nak_delay = nak_delay
        self.max_naks = max_naks
        self._streams: Dict[str, _SenderStream] = {}
        self.naks_sent = 0
        host.register_protocol(f"pgm.{group}", self._on_packet)
        if sender_addr is not None:
            if on_data is None:
                raise ValueError("on_data required when sender_addr given")
            self.subscribe(sender_addr, on_data, on_loss)

    def subscribe(self, sender_addr: str, on_data: Callable,
                  on_loss: Optional[Callable] = None,
                  start_seq: int = 0) -> None:
        """Consume the in-order stream from ``sender_addr``.

        ``start_seq`` is where the stream cursor begins: an evacuated
        replica joining a long-lived group subscribes at its replay
        horizon so the gap back to the sender's current sequence is
        NAK-repaired from the retransmit window rather than treated as a
        from-zero stream.
        """
        if sender_addr in self._streams:
            raise ValueError(f"already subscribed to {sender_addr!r} in "
                             f"group {self.group!r}")
        if start_seq < 0:
            raise ValueError(f"start_seq must be >= 0, got {start_seq}")
        stream = _SenderStream(self, sender_addr, on_data, on_loss)
        stream.next_seq = start_seq
        self._streams[sender_addr] = stream

    def unsubscribe(self, sender_addr: str) -> None:
        """Stop consuming ``sender_addr``'s stream; cancels pending NAKs."""
        stream = self._streams.pop(sender_addr, None)
        if stream is None:
            raise ValueError(f"not subscribed to {sender_addr!r} in "
                             f"group {self.group!r}")
        for seq in list(stream.nak_state):
            stream.cancel_nak(seq)

    def _on_packet(self, packet: Packet) -> None:
        datagram: PgmDatagram = packet.payload
        stream = self._streams.get(datagram.sender)
        if stream is not None:
            stream.admit(datagram)

    def _send_nak(self, sender_addr: str, seq: int) -> None:
        nak = PgmDatagram(group=self.group, sender=self.host.address,
                          kind="nak", seq=seq)
        self.naks_sent += 1
        sim = getattr(self.host, "sim", None)
        if sim is not None:
            # ingress replication groups carry one flow per PGM seq, so
            # the repair delay is attributable to that flow
            sim.flows.repair_requested(self.host.now(), self.group, seq)
        self.host.send_packet(Packet(
            src=self.host.address, dst=sender_addr,
            protocol=f"pgm-nak.{self.group}", payload=nak,
            size=nak.wire_size(),
        ))
