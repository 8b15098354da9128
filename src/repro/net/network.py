"""Address-based routing between endpoints, and real-time nodes.

The :class:`Network` is a static routing table: endpoints register a
receive handler under an address; routes map (src, dst) pairs -- or a
destination wildcard -- to :class:`~repro.net.link.Link` objects.  This
is all the paper's testbed needs: a campus WAN path from the client to
the cloud, and a low-latency internal subnet between cloud machines.
"""

from typing import Callable, Dict, Optional, Tuple

from repro.net.link import Link


class NetworkError(RuntimeError):
    """Routing or registration failure."""


class Network:
    """Routes packets between registered endpoints over links."""

    def __init__(self, sim, default_link_kwargs: Optional[dict] = None):
        self.sim = sim
        self._handlers: Dict[str, Callable] = {}
        self._isolated: Dict[str, bool] = {}
        self._routes: Dict[Tuple[Optional[str], str], Link] = {}
        self._route_cache: Dict[Tuple[str, str], Link] = {}
        self._default_kwargs = default_link_kwargs or {}
        self.delivered_packets = 0
        self.dropped_packets = 0
        # per-network uid allocator: same-seed runs hand out identical
        # uids no matter what this process simulated before
        self._next_uid = 0

    # -- registration -----------------------------------------------------
    def attach(self, address: str, handler: Callable) -> None:
        """Register ``handler(packet)`` as the receiver for ``address``."""
        if address in self._handlers:
            raise NetworkError(f"address {address!r} already attached")
        self._handlers[address] = handler

    def detach(self, address: str) -> None:
        self._handlers.pop(address, None)

    # -- partitions (fault injection) --------------------------------------
    def isolate(self, address: str) -> None:
        """Partition ``address`` off the network: packets to it are
        dropped (observably) instead of delivered, and senders do not
        error -- exactly what a dead or unreachable machine looks like
        from the wire.  Idempotent; undo with :meth:`restore`."""
        self._isolated[address] = True

    def restore(self, address: str) -> None:
        """Heal an :meth:`isolate` partition (no-op if not isolated)."""
        self._isolated.pop(address, None)

    def is_isolated(self, address: str) -> bool:
        return address in self._isolated

    def _drop(self, packet, reason: str) -> None:
        self.dropped_packets += 1
        self.sim.metrics.incr("net.dropped")
        self.sim.trace.record(self.sim.now, "net.drop", src=packet.src,
                              dst=packet.dst, protocol=packet.protocol,
                              reason=reason)

    def add_route(self, src: Optional[str], dst: str, link: Link) -> None:
        """Use ``link`` for packets from ``src`` (None = any) to ``dst``."""
        self._routes[(src, dst)] = link
        self._route_cache.clear()

    def link_for(self, src: str, dst: str) -> Link:
        """The link a (src, dst) packet takes; creates a default lazily."""
        link = self._routes.get((src, dst))
        if link is None:
            link = self._routes.get((None, dst))
        if link is None:
            link = Link(self.sim, name=f"default.{dst}",
                        **self._default_kwargs)
            self._routes[(None, dst)] = link
        return link

    # -- transmission --------------------------------------------------------
    def send(self, packet) -> None:
        """Route ``packet`` toward its destination address."""
        if packet.uid is None:
            packet.uid = self._next_uid
            self._next_uid += 1
        if self._isolated and packet.src in self._isolated:
            # partitions are bidirectional: an isolated machine's
            # stragglers (e.g. dom0 jobs queued pre-crash) go nowhere
            self._drop(packet, "isolated")
            return
        dst = packet.dst
        if dst not in self._handlers:
            raise NetworkError(
                f"no endpoint attached at {dst!r} "
                f"(packet from {packet.src!r})"
            )
        key = (packet.src, dst)
        link = self._route_cache.get(key)
        if link is None:
            link = self.link_for(packet.src, dst)
            self._route_cache[key] = link
        link.transmit(packet, self._deliver)

    def _deliver(self, packet) -> None:
        if self._isolated and packet.dst in self._isolated:
            self._drop(packet, "isolated")
            return
        handler = self._handlers.get(packet.dst)
        if handler is None:
            # endpoint went away in flight: an observable drop, not a
            # silent one -- partition experiments count these
            self._drop(packet, "endpoint_gone")
            return
        self.delivered_packets += 1
        handler(packet)

    def __repr__(self) -> str:
        return (f"<Network endpoints={len(self._handlers)} "
                f"routes={len(self._routes)}>")


class RealtimeNode:
    """A :class:`NetHost` living in real (simulated wall-clock) time.

    External clients, the ingress and egress nodes, and dom0 device
    models are RealtimeNodes.  Protocol stacks (UDP/TCP/PGM) dispatch on
    ``packet.protocol`` via :meth:`register_protocol`.
    """

    def __init__(self, sim, network: Network, address: str):
        self.sim = sim
        self.network = network
        self.address = address
        self.rng = sim.rng.stream(f"node.{address}")
        self._protocols: Dict[str, Callable] = {}
        network.attach(address, self._receive)

    # -- NetHost interface -------------------------------------------------
    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay: float, fn: Callable, *args):
        """Schedule a local callback; returns a cancellable handle."""
        return self.sim.call_after(delay, fn, *args)

    def send_packet(self, packet) -> None:
        self.network.send(packet)

    def register_protocol(self, protocol: str, handler: Callable) -> None:
        if protocol in self._protocols:
            raise NetworkError(
                f"{self.address}: protocol {protocol!r} already registered"
            )
        self._protocols[protocol] = handler

    def unregister_protocol(self, protocol: str) -> None:
        """Forget a protocol handler (idempotent).  Evacuation uses this
        to strip a dead host's replica endpoints so the machine can be
        reused for a different tenant later."""
        self._protocols.pop(protocol, None)

    # -- dispatch ------------------------------------------------------------
    def _receive(self, packet) -> None:
        handler = self._protocols.get(packet.protocol)
        if handler is not None:
            handler(packet)

    def __repr__(self) -> str:
        return f"<RealtimeNode {self.address}>"
