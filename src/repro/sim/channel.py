"""FIFO channels for producer/consumer communication."""

from collections import deque

from repro.sim.errors import ChannelClosed, SimulationError
from repro.sim.events import Event


class Channel:
    """An unbounded (or bounded) FIFO queue of items.

    ``put`` is immediate unless the channel is bounded and full, in which
    case it raises (backpressure in this library is modelled at the link
    layer, not in channels).  ``get`` returns an :class:`Event` that a
    process yields; items are matched to getters in FIFO order.
    """

    def __init__(self, sim, capacity=None, name="channel"):
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items = deque()
        self._getters = deque()
        self.closed = False
        self.put_count = 0
        self.got_count = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        if self.closed:
            raise ChannelClosed(f"put on closed channel {self.name}")
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise SimulationError(f"channel {self.name} full (cap={self.capacity})")
        self.put_count += 1
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                self.got_count += 1
                getter.trigger(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Return a waitable that resolves with the next item."""
        event = Event(self.sim)
        if self._items:
            self.got_count += 1
            event.trigger(self._items.popleft())
        elif self.closed:
            event.fail(ChannelClosed(f"get on closed drained channel {self.name}"))
        else:
            self._getters.append(event)
        return event

    def try_get(self):
        """Non-blocking get; returns (True, item) or (False, None)."""
        if self._items:
            self.got_count += 1
            return True, self._items.popleft()
        return False, None

    def close(self) -> None:
        """Close the channel: pending and future getters fail once drained."""
        self.closed = True
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.fail(ChannelClosed(f"channel {self.name} closed"))

    def __repr__(self) -> str:
        return (
            f"<Channel {self.name} items={len(self._items)} "
            f"waiters={len(self._getters)}>"
        )
