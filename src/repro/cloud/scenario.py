"""Declarative multi-tenant scenarios: spec in, wired cloud out.

The paper's Sec. VI analysis is about *fleets*: replica triangles packed
onto ``n`` machines so any two VMs co-reside on at most one of them.
A :class:`ScenarioSpec` describes such a deployment declaratively --
host fleet size and capacity, edge shard count, tenant populations with
per-tenant workload mix, client counts and WAN profiles -- and loads
from TOML/JSON exactly like campaign specs::

    name = "consolidated"
    machines = 9
    shards = 2

    [[tenant]]
    name = "web"
    count = 4
    workload = "fileserver"
    clients = 2
    wan = "campus"
    file_bytes = 20000

    [[tenant]]
    name = "ping"
    count = 4
    workload = "echo"
    request_rate = 40.0

:class:`CloudBuilder` consumes the spec: it sizes the fleet, builds a
strict :class:`~repro.placement.scheduler.PlacementScheduler`, deploys
every tenant VM through it (so co-residency follows the paper's
edge-disjoint-triangle constraint), attaches the client populations
over their WAN profiles, and arms deterministic per-client load
drivers.  Everything is seeded through named RNG streams, so a scenario
run is bit-reproducible.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import StopWatchConfig, DEFAULT
from repro.placement.scheduler import PlacementScheduler, fleet_for


class ScenarioError(ValueError):
    """A malformed scenario spec."""


# ---------------------------------------------------------------------------
# WAN profiles
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WanProfile:
    """One client-to-cloud path class (latency s, bandwidth bit/s,
    jitter s) -- the ``add_client`` knobs under a reusable name."""

    latency: float = 0.002
    bandwidth: float = 100e6
    jitter: float = 0.0002

    def __post_init__(self) -> None:
        if self.latency < 0 or self.jitter < 0:
            raise ScenarioError(f"bad WAN timing in {self}")
        if self.bandwidth <= 0:
            raise ScenarioError(f"bandwidth must be positive in {self}")


#: built-in path classes; a spec's ``[wan.<name>]`` tables extend/override
BUILTIN_WAN: Dict[str, WanProfile] = {
    "lan": WanProfile(latency=0.0005, bandwidth=1e9, jitter=5e-5),
    "campus": WanProfile(latency=0.002, bandwidth=100e6, jitter=0.0002),
    "metro": WanProfile(latency=0.008, bandwidth=50e6, jitter=0.001),
    "wide": WanProfile(latency=0.040, bandwidth=20e6, jitter=0.004),
}


# ---------------------------------------------------------------------------
# tenants
# ---------------------------------------------------------------------------
@dataclass
class TenantSpec:
    """A population of identical guest VMs plus their client load.

    ``workload`` names an entry in the pluggable registry
    (:mod:`repro.workloads.registry`); ``workload_params`` carries the
    workload's own knobs (validated against the spec's declared
    defaults).  Registry specs with ``scope="vm"`` get ``clients``
    drivers per VM, each targeting that VM; ``scope="tenant"``
    workloads (e.g. ``storage``) get ``clients`` drivers per *tenant*,
    each handed the ordered list of all the tenant's VM addresses.
    """

    name: str
    count: int = 1
    workload: str = "echo"
    #: external client machines per VM (per tenant for tenant-scoped
    #: workloads)
    clients: int = 1
    #: WAN profile name the clients connect over
    wan: str = "campus"
    #: echo pings/s or NFS ops/s per client (ignored by fileserver)
    request_rate: float = 25.0
    #: file size each fileserver client downloads in a loop
    file_bytes: int = 20_000
    #: optional per-VM host pinning (list of host-id triples); None
    #: defers to the placement scheduler
    hosts: Optional[List[List[int]]] = None
    #: per-request client timeout (s); None disables retry entirely and
    #: keeps the historical byte-identical event stream
    request_timeout: Optional[float] = None
    #: retransmits per request once ``request_timeout`` is set
    max_retries: int = 3
    #: first-retry backoff (s); doubles per attempt, seeded jitter on top
    backoff_base: float = 0.05
    #: mitigation policy name (repro.mitigation.POLICIES); None runs
    #: the cloud's default (stopwatch unless [config] sets replicas = 1)
    policy: Optional[str] = None
    #: constructor params for the policy (e.g. {"bound": 0.02})
    policy_params: Dict[str, Any] = field(default_factory=dict)
    #: workload-specific knobs (e.g. {"k": 2, "n": 3} for storage);
    #: validated against the registry spec's declared defaults
    workload_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.workloads import registry

        if not self.name or any(c in self.name for c in "/: "):
            raise ScenarioError(f"bad tenant name {self.name!r}")
        if self.count < 1:
            raise ScenarioError(
                f"tenant {self.name!r}: count must be >= 1, "
                f"got {self.count}")
        try:
            wspec = registry.get(self.workload)
        except registry.UnknownWorkloadError as exc:
            raise ScenarioError(
                f"tenant {self.name!r}: {exc}") from None
        try:
            wspec.params_for(self.workload_params)
        except ValueError as exc:
            raise ScenarioError(
                f"tenant {self.name!r}: {exc}") from None
        if self.clients < 0:
            raise ScenarioError(
                f"tenant {self.name!r}: clients must be >= 0")
        if self.clients and wspec.driver is None:
            raise ScenarioError(
                f"tenant {self.name!r}: workload {self.workload!r} "
                f"has no client driver; set clients = 0")
        if wspec.check is not None:
            problem = wspec.check(self)
            if problem:
                raise ScenarioError(
                    f"tenant {self.name!r}: {problem}")
        if self.request_rate <= 0:
            raise ScenarioError(
                f"tenant {self.name!r}: request_rate must be positive")
        if self.file_bytes < 1:
            raise ScenarioError(
                f"tenant {self.name!r}: file_bytes must be >= 1")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ScenarioError(
                f"tenant {self.name!r}: request_timeout must be "
                f"positive, got {self.request_timeout}")
        if self.max_retries < 0:
            raise ScenarioError(
                f"tenant {self.name!r}: max_retries must be >= 0")
        if self.backoff_base <= 0:
            raise ScenarioError(
                f"tenant {self.name!r}: backoff_base must be positive")
        if self.hosts is not None and len(self.hosts) != self.count:
            raise ScenarioError(
                f"tenant {self.name!r}: {len(self.hosts)} host pins for "
                f"{self.count} VMs")
        if self.policy_params and self.policy is None:
            raise ScenarioError(
                f"tenant {self.name!r}: policy_params without a policy")
        if self.policy is not None:
            # construct once to validate name and params eagerly
            from repro.mitigation import PolicyError
            try:
                self.make_policy()
            except PolicyError as exc:
                raise ScenarioError(
                    f"tenant {self.name!r}: {exc}") from exc

    def make_policy(self):
        """The tenant's :class:`~repro.mitigation.MitigationPolicy`
        instance, or ``None`` for the cloud default."""
        if self.policy is None:
            return None
        from repro.mitigation import make_policy
        return make_policy(self.policy, **self.policy_params)

    def vm_names(self) -> List[str]:
        if self.count == 1:
            return [self.name]
        return [f"{self.name}-{i}" for i in range(self.count)]


# ---------------------------------------------------------------------------
# the scenario spec
# ---------------------------------------------------------------------------
@dataclass
class ScenarioSpec:
    """A complete multi-tenant deployment, loadable from TOML/JSON."""

    name: str
    tenants: List[TenantSpec]
    #: physical fleet size; None auto-sizes to the tenant VM count
    machines: Optional[int] = None
    #: per-machine guest slots; None uses the structural max (n-1)//2
    capacity: Optional[int] = None
    #: ingress/egress shard count
    shards: int = 1
    #: StopWatchConfig field overrides (e.g. {"delta_net": 0.008})
    config: Dict[str, Any] = field(default_factory=dict)
    #: Host kwargs (jitter_sigma, contention_alpha, coresidency_beta,
    #: disk_kwargs); per-host capacity is injected from ``capacity``
    host: Dict[str, Any] = field(default_factory=dict)
    #: named WAN profile overrides/additions
    wan: Dict[str, WanProfile] = field(default_factory=dict)
    #: simulated seconds before the first client starts
    start_delay: float = 0.05
    #: extra start spacing per client (index-staggered, deterministic)
    stagger: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario needs a name")
        if not self.tenants:
            raise ScenarioError("scenario needs at least one [[tenant]]")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ScenarioError(f"duplicate tenant names in {names}")
        if self.machines is not None and self.machines < 3:
            raise ScenarioError(
                f"a StopWatch fleet needs >= 3 machines, "
                f"got {self.machines}")
        if self.shards < 1:
            raise ScenarioError(f"shards must be >= 1, got {self.shards}")
        if self.start_delay < 0 or self.stagger < 0:
            raise ScenarioError("start_delay/stagger must be >= 0")
        profiles = dict(BUILTIN_WAN)
        profiles.update(self.wan)
        self.wan = profiles
        for tenant in self.tenants:
            if tenant.wan not in self.wan:
                raise ScenarioError(
                    f"tenant {tenant.name!r}: unknown WAN profile "
                    f"{tenant.wan!r}; have {sorted(self.wan)}")

    @property
    def total_vms(self) -> int:
        return sum(t.count for t in self.tenants)

    def resolved_fleet(self) -> tuple:
        """The ``(machines, capacity)`` this scenario deploys onto."""
        if self.machines is None:
            return fleet_for(self.total_vms, self.capacity)
        capacity = self.capacity if self.capacity is not None \
            else max(1, (self.machines - 1) // 2)
        return self.machines, capacity

    def stopwatch_config(self) -> StopWatchConfig:
        try:
            return DEFAULT.with_overrides(**self.config) \
                if self.config else DEFAULT
        except TypeError as exc:
            raise ScenarioError(f"bad [config] override: {exc}") from exc

    # -- construction -------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        data = dict(data)
        raw_tenants = data.pop("tenant", data.pop("tenants", None))
        if not raw_tenants:
            raise ScenarioError("spec has no [[tenant]] entries")
        tenants = []
        for raw in raw_tenants:
            raw = dict(raw)
            try:
                tenants.append(TenantSpec(**raw))
            except TypeError as exc:
                raise ScenarioError(f"bad tenant entry: {exc}") from exc
        raw_wan = data.pop("wan", {})
        wan = {}
        for profile_name, fields in raw_wan.items():
            try:
                wan[profile_name] = WanProfile(**fields)
            except TypeError as exc:
                raise ScenarioError(
                    f"bad [wan.{profile_name}]: {exc}") from exc
        try:
            name = data.pop("name")
        except KeyError:
            raise ScenarioError("spec missing 'name'") from None
        known = {key: data.pop(key) for key in
                 ("machines", "capacity", "shards", "config", "host",
                  "start_delay", "stagger") if key in data}
        if data:
            raise ScenarioError(f"unknown spec keys {sorted(data)}")
        return cls(name=name, tenants=tenants, wan=wan, **known)

    @classmethod
    def from_file(cls, path: str) -> "ScenarioSpec":
        """Load a spec from ``.toml`` or ``.json``."""
        from repro.ioutil import load_spec_file
        return cls.from_dict(load_spec_file(path, ScenarioError))

    def build(self, sim) -> "BuiltScenario":
        """Convenience: ``CloudBuilder(self).build(sim)``."""
        return CloudBuilder(self).build(sim)


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------
@dataclass
class BuiltScenario:
    """A wired, ready-to-run deployment built from a spec."""

    spec: ScenarioSpec
    sim: Any
    cloud: Any
    placer: PlacementScheduler
    #: tenant name -> its VM names, in deployment order
    tenant_vms: Dict[str, List[str]]
    #: (vm_name, client_index) -> load driver
    drivers: Dict[tuple, Any]

    def run(self, until: float, drain: float = 0.5) -> None:
        """Run the deployment to ``until`` simulated seconds.

        The last ``drain`` seconds are quiesce time: client drivers are
        stopped so every replica can finish processing the identical
        inbound sequence -- afterwards per-VM replica output counts
        agree exactly (the determinism observable).  ``drain=0``
        disables quiescing and leaves replicas cut off mid-flight.
        """
        if drain > 0:
            cutoff = max(0.0, until - drain)
            for driver in self.drivers.values():
                self.sim.call_after(max(0.0, cutoff - self.sim.now),
                                    driver.stop)
        self.cloud.run(until=until)

    def verify_placement(self) -> bool:
        """Global Sec. VIII invariants on the *wired* fabric: scheduler
        invariants hold AND every VM's replicas actually sit on its
        assigned triangle."""
        if not self.placer.verify():
            return False
        for vm_name, triangle in self.placer.assignments.items():
            vm = self.cloud.vms[vm_name]
            wired = tuple(sorted(vmm.host.host_id for vmm in vm.vmms))
            if wired != tuple(triangle):
                return False
        return True

    def per_tenant_outputs(self) -> Dict[str, List[int]]:
        """Per-VM replica output counts, grouped by tenant -- the
        determinism observable (all replicas of a VM must agree)."""
        report: Dict[str, List[int]] = {}
        for tenant_name, vm_names in self.tenant_vms.items():
            counts = []
            for vm_name in vm_names:
                vm = self.cloud.vms[vm_name]
                replica_counts = {vmm.stats["outputs"] for vmm in vm.vmms}
                if len(replica_counts) != 1:
                    raise AssertionError(
                        f"{vm_name}: replica output counts diverge: "
                        f"{sorted(replica_counts)}")
                counts.append(replica_counts.pop())
            report[tenant_name] = counts
        return report


class CloudBuilder:
    """Builds a :class:`~repro.cloud.fabric.Cloud` from a spec."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec

    def build(self, sim) -> BuiltScenario:
        from repro.cloud.fabric import Cloud
        from repro.workloads import registry

        spec = self.spec
        machines, capacity = spec.resolved_fleet()
        config = spec.stopwatch_config()
        placer = PlacementScheduler(machines, capacity)
        host_kwargs = dict(spec.host)
        host_kwargs.setdefault("capacity", placer.capacity)
        cloud = Cloud(sim, machines=machines, config=config,
                      shards=spec.shards, placer=placer,
                      host_kwargs=host_kwargs)
        sim.trace.record(sim.now, "scenario.build", scenario=spec.name,
                         machines=machines, capacity=placer.capacity,
                         shards=spec.shards, vms=spec.total_vms)

        tenant_vms: Dict[str, List[str]] = {}
        drivers: Dict[tuple, Any] = {}
        client_index = 0
        loose_slot = 0   # round-robin host cursor for non-triangle VMs
        for tenant in spec.tenants:
            wspec = registry.get(tenant.workload)
            params = wspec.params_for(tenant.workload_params)
            server_factory = wspec.make_server(params)
            names = tenant.vm_names()
            tenant_vms[tenant.name] = names
            vm_policy = tenant.make_policy()
            replica_count = (vm_policy or cloud.policy).replica_count(config)
            wan = spec.wan[tenant.wan]
            for vm_index, vm_name in enumerate(names):
                if tenant.hosts is not None:
                    if replica_count == 3:
                        placer.place_at(vm_name, tenant.hosts[vm_index])
                    cloud.create_vm(vm_name, server_factory,
                                    hosts=list(tenant.hosts[vm_index]),
                                    policy=vm_policy)
                elif replica_count != 3:
                    # non-triangle (single-replica policy) VMs bypass
                    # the triangle placer: spread them round-robin,
                    # deterministically in deployment order
                    pins = [(loose_slot + i) % machines
                            for i in range(replica_count)]
                    loose_slot += replica_count
                    cloud.create_vm(vm_name, server_factory,
                                    hosts=pins, policy=vm_policy)
                else:
                    cloud.create_vm(vm_name, server_factory,
                                    policy=vm_policy)
                if wspec.scope != "vm":
                    continue
                for slot in range(tenant.clients):
                    port = cloud.add_client(
                        f"client:{vm_name}.{slot}",
                        latency=wan.latency, bandwidth=wan.bandwidth,
                        jitter=wan.jitter)
                    driver = wspec.make_driver(port, f"vm:{vm_name}",
                                               tenant, params)
                    drivers[(vm_name, slot)] = driver
                    start_at = spec.start_delay \
                        + spec.stagger * client_index
                    sim.call_after(start_at, driver.start)
                    client_index += 1
            if wspec.scope == "tenant":
                # tenant-scoped drivers see the whole VM population
                # (e.g. one erasure-coded object striped across it)
                targets = [f"vm:{vm_name}" for vm_name in names]
                for slot in range(tenant.clients):
                    port = cloud.add_client(
                        f"client:{tenant.name}.{slot}",
                        latency=wan.latency, bandwidth=wan.bandwidth,
                        jitter=wan.jitter)
                    driver = wspec.make_driver(port, targets, tenant,
                                               params)
                    drivers[(tenant.name, slot)] = driver
                    start_at = spec.start_delay \
                        + spec.stagger * client_index
                    sim.call_after(start_at, driver.start)
                    client_index += 1
        return BuiltScenario(spec=spec, sim=sim, cloud=cloud,
                             placer=placer, tenant_vms=tenant_vms,
                             drivers=drivers)
