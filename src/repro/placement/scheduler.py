"""An operator-facing placement scheduler and utilisation reporting.

:class:`PlacementScheduler` hands out triangles one VM at a time --
drawn from the Theorem 2 construction when the cluster size allows, or
from the greedy packer otherwise -- while enforcing edge-disjointness and
per-machine capacity.  :func:`utilization_report` quantifies Sec. VIII's
point: StopWatch supports Θ(c·n) guest VMs versus n for the
run-in-isolation alternative.
"""

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.placement.bose import theorem2_placement
from repro.placement.triangles import (
    Triangle,
    edges_of,
    greedy_triangle_packing,
    max_triangle_packing_size,
    normalize,
)


class PlacementError(RuntimeError):
    """No legal placement is available for the requested VM."""


class PlacementScheduler:
    """Assigns each new guest VM a triangle of machines.

    The scheduler precomputes a legal triangle pool (Theorem 2 when
    ``n ≡ 3 (mod 6)``, greedy otherwise) and hands triangles out in order,
    validating the StopWatch constraints as it goes.  Manual placements
    can also be requested via :meth:`place_at` and are checked against
    the same constraints.
    """

    def __init__(self, machines: int, capacity: int):
        if machines < 3:
            raise PlacementError(
                f"a StopWatch cloud needs at least 3 machines, got {machines}"
            )
        if capacity < 1:
            raise PlacementError(f"capacity must be >= 1, got {capacity}")
        self.machines = machines
        self.capacity = min(capacity, (machines - 1) // 2)
        self._used_edges: Set[Tuple[int, int]] = set()
        self._load: Dict[int, int] = {m: 0 for m in range(machines)}
        self.assignments: Dict[str, Triangle] = {}
        if machines % 6 == 3:
            self._pool = list(theorem2_placement(machines, self.capacity))
        else:
            self._pool = greedy_triangle_packing(machines, self.capacity)
        self._pool_index = 0

    # -- queries ---------------------------------------------------------
    @property
    def placed_count(self) -> int:
        return len(self.assignments)

    @property
    def pool_size(self) -> int:
        """Total VMs this scheduler can place."""
        return len(self._pool)

    def load_of(self, machine: int) -> int:
        return self._load[machine]

    def coresidents_of(self, vm_id: str) -> Set[str]:
        """VM ids sharing at least one machine with ``vm_id``."""
        triangle = self.assignments[vm_id]
        nodes = set(triangle)
        return {
            other for other, tri in self.assignments.items()
            if other != vm_id and nodes & set(tri)
        }

    # -- placement ----------------------------------------------------------
    def _check(self, triangle: Triangle) -> None:
        for node in triangle:
            if not 0 <= node < self.machines:
                raise PlacementError(f"machine {node} does not exist")
            if self._load[node] >= self.capacity:
                raise PlacementError(f"machine {node} is at capacity "
                                     f"{self.capacity}")
        for edge in edges_of(triangle):
            if edge in self._used_edges:
                raise PlacementError(
                    f"edge {edge} already used: replicas would coreside "
                    f"with an overlapping VM set"
                )

    def _commit(self, vm_id: str, triangle: Triangle) -> Triangle:
        for edge in edges_of(triangle):
            self._used_edges.add(edge)
        for node in triangle:
            self._load[node] += 1
        self.assignments[vm_id] = triangle
        return triangle

    def place(self, vm_id: str) -> Triangle:
        """Place a new VM on the next pooled triangle."""
        if vm_id in self.assignments:
            raise PlacementError(f"VM {vm_id!r} is already placed")
        while self._pool_index < len(self._pool):
            candidate = self._pool[self._pool_index]
            self._pool_index += 1
            try:
                self._check(candidate)
            except PlacementError:
                continue  # a manual placement consumed part of it
            return self._commit(vm_id, candidate)
        raise PlacementError(
            f"cluster full: {self.placed_count} VMs placed on "
            f"{self.machines} machines at capacity {self.capacity}"
        )

    def place_at(self, vm_id: str, triangle) -> Triangle:
        """Place a new VM on an operator-chosen triangle (validated)."""
        if vm_id in self.assignments:
            raise PlacementError(f"VM {vm_id!r} is already placed")
        canonical = normalize(triangle)
        self._check(canonical)
        return self._commit(vm_id, canonical)

    def remove(self, vm_id: str) -> None:
        """Tear down a VM, freeing its edges and capacity."""
        triangle = self.assignments.pop(vm_id, None)
        if triangle is None:
            raise PlacementError(f"VM {vm_id!r} is not placed")
        for edge in edges_of(triangle):
            self._used_edges.discard(edge)
        for node in triangle:
            self._load[node] -= 1

    def verify(self) -> bool:
        """Re-validate the global invariants (used by tests)."""
        from repro.placement.triangles import (
            node_visit_counts,
            verify_edge_disjoint,
        )
        triangles = list(self.assignments.values())
        if not verify_edge_disjoint(triangles):
            return False
        return all(count <= self.capacity
                   for count in node_visit_counts(triangles).values())


def fleet_for(vms: int, capacity: Optional[int] = None,
              max_machines: int = 1023) -> Tuple[int, int]:
    """Smallest fleet ``(machines, capacity)`` whose triangle pool holds
    ``vms`` guest VMs.

    Walks the ``n ≡ 3 (mod 6)`` sizes (where the Theorem 2 construction
    is exact) and returns the first whose pool fits.  ``capacity`` caps
    the per-machine guest slots; by default each machine offers its
    structural maximum ``(n - 1) // 2``.
    """
    if vms < 1:
        raise PlacementError(f"need at least one VM, got {vms}")
    machines = 3
    while machines <= max_machines:
        slots = capacity if capacity is not None \
            else max(1, (machines - 1) // 2)
        scheduler = PlacementScheduler(machines, slots)
        if scheduler.pool_size >= vms:
            return machines, scheduler.capacity
        machines += 6
    raise PlacementError(
        f"no fleet of <= {max_machines} machines holds {vms} VMs")


class UtilizationReport(NamedTuple):
    """Sec. VIII comparison for one (n, c) point."""

    machines: int
    capacity: int
    stopwatch_vms: int          # VMs placeable under StopWatch constraints
    isolation_vms: int          # the run-each-VM-alone alternative: n
    packing_upper_bound: int    # Theorem 1 (capacity-oblivious) maximum
    theoretical_theta_cn: float  # c*n/3, the Θ(cn) reference line


def utilization_report(machines: int, capacity: int) -> UtilizationReport:
    """How many VMs StopWatch can host on ``machines`` nodes of capacity
    ``capacity``, vs. the isolation baseline."""
    scheduler = PlacementScheduler(machines, capacity)
    return UtilizationReport(
        machines=machines,
        capacity=capacity,
        stopwatch_vms=scheduler.pool_size,
        isolation_vms=machines,
        packing_upper_bound=max_triangle_packing_size(machines),
        theoretical_theta_cn=capacity * machines / 3.0,
    )
