"""Declarative workload registry: name -> :class:`WorkloadSpec`.

Every workload the simulator can deploy is described by one
:class:`WorkloadSpec`: how to build the guest-side server for a VM
replica, how to build the client-side load driver, which params it
accepts (with defaults), and a declared :class:`ResourceProfile`
(cpu/disk/net weights) that the placer's utilisation report and the
profiler-facing analysis layers can read without instantiating
anything.

The scenario layer (:mod:`repro.cloud.scenario`) resolves tenants
exclusively through :func:`get`; adding a workload is one
:func:`register` call -- no scenario/CLI/analysis edits::

    from repro.workloads.registry import (
        ResourceProfile, WorkloadSpec, register)

    def _server(params):
        from myproject.widget import WidgetServer
        return lambda guest: WidgetServer(guest, **params)

    def _driver(client_node, target, tenant, params):
        from myproject.widget import WidgetClient
        return WidgetClient(client_node, target,
                            rate=tenant.request_rate)

    register(WorkloadSpec(
        name="widget", server=_server, driver=_driver,
        profile=ResourceProfile(cpu=0.5, disk=0.2, net=0.3),
        defaults={"widgets": 16}, ports=(7777,),
        description="widget service"))

Server/driver factories import their implementation modules lazily so
importing the registry (and hence the spec layer) stays cheap.

Driver scope: ``scope="vm"`` workloads get one driver per (VM, client
slot), each targeting that VM -- the historical contract, and the
byte-identical one for the pre-registry workloads.  ``scope="tenant"``
workloads get one driver per client slot *per tenant*, receiving the
full ordered list of the tenant's VM addresses (the erasure-coded
storage tenant fans one logical object out across all of them).
"""

import difflib
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "ResourceProfile",
    "UnknownWorkloadError",
    "WorkloadSpec",
    "get",
    "names",
    "register",
    "unknown_workload_message",
]


class UnknownWorkloadError(KeyError):
    """No registered workload matches the requested name."""

    def __str__(self) -> str:       # KeyError quotes its arg; don't
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class ResourceProfile:
    """Declared cpu/disk/net demand weights for one workload.

    Weights are relative (any non-negative scale); :meth:`normalized`
    maps them onto the unit simplex for cross-workload comparison and
    :meth:`dominant` names the heaviest axis -- what the placement
    utilisation report aggregates per host.
    """

    cpu: float = 1.0
    disk: float = 0.0
    net: float = 0.0

    def __post_init__(self) -> None:
        if min(self.cpu, self.disk, self.net) < 0:
            raise ValueError(f"negative resource weight in {self}")
        if self.cpu + self.disk + self.net <= 0:
            raise ValueError("resource profile needs a positive weight")

    def normalized(self) -> Tuple[float, float, float]:
        total = self.cpu + self.disk + self.net
        return (self.cpu / total, self.disk / total, self.net / total)

    def dominant(self) -> str:
        cpu, disk, net = self.normalized()
        best = max(cpu, disk, net)
        for name, value in (("cpu", cpu), ("disk", disk), ("net", net)):
            if value == best:
                return name
        return "cpu"            # pragma: no cover - unreachable

    def as_dict(self) -> Dict[str, float]:
        return {"cpu": self.cpu, "disk": self.disk, "net": self.net}


@dataclass(frozen=True)
class WorkloadSpec:
    """One deployable workload: factories, params, resource profile.

    ``server(params)`` returns the per-replica guest factory
    (``factory(guest) -> workload`` with a ``start()`` method);
    ``driver(client_node, target, tenant, params)`` returns a client
    load driver (``start()``/``stop()``); ``target`` is one VM address
    for ``scope="vm"`` and the ordered list of the tenant's VM
    addresses for ``scope="tenant"``.  ``defaults`` enumerates every
    recognised ``workload_params`` key with its default; unknown keys
    are rejected at spec-validation time.  ``check(tenant)`` may return
    an error string for workload-specific tenant constraints.
    """

    name: str
    server: Callable[[Dict[str, Any]], Callable]
    profile: ResourceProfile
    driver: Optional[Callable] = None
    defaults: Mapping[str, Any] = field(default_factory=dict)
    ports: Tuple[int, ...] = ()
    scope: str = "vm"
    description: str = ""
    check: Optional[Callable[[Any], Optional[str]]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload spec needs a name")
        if self.scope not in ("vm", "tenant"):
            raise ValueError(
                f"workload {self.name!r}: scope must be 'vm' or "
                f"'tenant', got {self.scope!r}")

    def params_for(self, overrides: Optional[Mapping[str, Any]] = None
                   ) -> Dict[str, Any]:
        """Defaults merged with ``overrides``; unknown keys raise."""
        params = dict(self.defaults)
        if overrides:
            unknown = sorted(set(overrides) - set(self.defaults))
            if unknown:
                raise ValueError(
                    f"workload {self.name!r}: unknown workload_params "
                    f"{unknown}; recognised: {sorted(self.defaults)}")
            params.update(overrides)
        return params

    def make_server(self, params: Dict[str, Any]) -> Callable:
        return self.server(params)

    def make_driver(self, client_node, target, tenant,
                    params: Dict[str, Any]):
        if self.driver is None:
            raise ValueError(
                f"workload {self.name!r} has no client driver; "
                f"set clients = 0")
        return self.driver(client_node, target, tenant, params)


_REGISTRY: Dict[str, WorkloadSpec] = {}


def register(spec: WorkloadSpec, replace: bool = False) -> WorkloadSpec:
    """Add ``spec`` under its name; re-registration needs ``replace``."""
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"workload {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def names() -> List[str]:
    """Registered workload names, sorted."""
    return sorted(_REGISTRY)


def unknown_workload_message(name: str) -> str:
    """Diagnostic for an unknown workload: sorted names + best guess."""
    registered = names()
    message = (f"unknown workload {name!r}; "
               f"registered workloads: {', '.join(registered)}")
    close = difflib.get_close_matches(name, registered, n=1)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return message


def get(name: str) -> WorkloadSpec:
    """The spec registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownWorkloadError(unknown_workload_message(name)) \
            from None


# ---------------------------------------------------------------------------
# built-in registrations
# ---------------------------------------------------------------------------
# The echo/fileserver/nfs factories reproduce the constructions the
# scenario layer used before the registry existed, byte-for-byte: same
# classes, same argument values drawn from the same TenantSpec fields,
# so pre-registry scenarios keep their pinned egress signatures.

def _echo_server(params):
    from repro.workloads.echo import EchoServer
    return lambda guest: EchoServer(guest, **params)


def _echo_driver(client_node, target, tenant, params):
    from repro.workloads.echo import PingClient
    return PingClient(client_node, target,
                      mean_interval=1.0 / tenant.request_rate,
                      timeout=tenant.request_timeout,
                      max_retries=tenant.max_retries,
                      backoff_base=tenant.backoff_base)


def _fileserver_server(params):
    from repro.workloads.fileserver import FileServer
    return lambda guest: FileServer(guest, **params)


def _fileserver_driver(client_node, target, tenant, params):
    from repro.workloads.fileserver import DownloadLoop
    return DownloadLoop(client_node, target, tenant.file_bytes,
                        timeout=tenant.request_timeout,
                        max_retries=tenant.max_retries,
                        backoff_base=tenant.backoff_base)


def _udp_file_server(params):
    from repro.workloads.fileserver import UdpFileServer
    return lambda guest: UdpFileServer(guest, **params)


def _udp_file_driver(client_node, target, tenant, params):
    from repro.workloads.fileserver import UdpDownloadLoop
    return UdpDownloadLoop(client_node, target, tenant.file_bytes)


def _nfs_server(params):
    from repro.workloads.nfs import NfsServer
    return lambda guest: NfsServer(guest, **params)


def _nfs_driver(client_node, target, tenant, params):
    from repro.workloads.nfs import NhfsstoneClient
    return NhfsstoneClient(client_node, target,
                           rate=tenant.request_rate)


def _parsec_server(kernel: str):
    def server(params):
        from repro.workloads.parsec import PARSEC_KERNELS
        cls = PARSEC_KERNELS[kernel]
        return lambda guest: cls(guest, **params)
    return server


def _parsec_check(tenant) -> Optional[str]:
    if tenant.clients:
        return ("parsec kernels are batch compute jobs; "
                "set clients = 0")
    scale = get(tenant.workload).params_for(tenant.workload_params)["scale"]
    if isinstance(scale, bool) or not isinstance(scale, numbers.Real) \
            or not math.isfinite(scale) or scale <= 0:
        return f"scale must be a finite number > 0, got {scale!r}"
    return None


def _storage_server(params):
    from repro.workloads.storage import ShareServer
    kwargs = {key: params[key] for key in
              ("write_compute", "read_compute") if key in params}
    return lambda guest: ShareServer(guest, **kwargs)


def _storage_driver(client_node, targets, tenant, params):
    from repro.workloads.storage import StorageLoop
    return StorageLoop(client_node, list(targets),
                       k=params["k"], n=params["n"],
                       object_size=params["object_size"],
                       objects=params["objects"],
                       timeout=params["request_timeout"],
                       max_retries=tenant.max_retries)


def _storage_check(tenant) -> Optional[str]:
    params = get("storage").params_for(tenant.workload_params)
    k, n = params["k"], params["n"]
    if not 1 <= k <= n:
        return f"storage needs 1 <= k <= n, got k={k} n={n}"
    if n != tenant.count:
        return (f"storage stripes one share per VM: n={n} "
                f"requires count = {n}, got count={tenant.count}")
    if params["object_size"] < 1:
        return f"object_size must be >= 1, got {params['object_size']}"
    if params["objects"] < 1:
        return f"objects must be >= 1, got {params['objects']}"
    return None


def _register_builtins() -> None:
    register(WorkloadSpec(
        name="echo", server=_echo_server, driver=_echo_driver,
        profile=ResourceProfile(cpu=0.6, disk=0.0, net=0.4),
        defaults={"compute_branches": 20000}, ports=(7,),
        description="UDP echo responder + paced ping client"))
    register(WorkloadSpec(
        name="fileserver", server=_fileserver_server,
        driver=_fileserver_driver,
        profile=ResourceProfile(cpu=0.3, disk=0.4, net=0.3),
        defaults={"request_compute": 30000, "chunk_compute": 8000},
        ports=(80,),
        description="HTTP-style file download over TCP (Fig. 5)"))
    register(WorkloadSpec(
        name="udp-file", server=_udp_file_server,
        driver=_udp_file_driver,
        profile=ResourceProfile(cpu=0.2, disk=0.4, net=0.4),
        defaults={"pace_bps": 80e6, "request_compute": 30000},
        ports=(6000,),
        description="NAK-reliable paced UDP file service (Fig. 5)"))
    register(WorkloadSpec(
        name="nfs", server=_nfs_server, driver=_nfs_driver,
        profile=ResourceProfile(cpu=0.35, disk=0.45, net=0.2),
        defaults={"filesystem": False, "cache_blocks": 2048},
        ports=(2049,),
        description="NFS server + nhfsstone load generator (Fig. 6)"))
    parsec_profiles = {
        "ferret": ResourceProfile(cpu=0.8, disk=0.1, net=0.1),
        "blackscholes": ResourceProfile(cpu=0.9, disk=0.05, net=0.05),
        "canneal": ResourceProfile(cpu=0.7, disk=0.2, net=0.1),
        "dedup": ResourceProfile(cpu=0.5, disk=0.4, net=0.1),
        "streamcluster": ResourceProfile(cpu=0.75, disk=0.15, net=0.1),
    }
    for kernel, profile in parsec_profiles.items():
        register(WorkloadSpec(
            name=f"parsec.{kernel}", server=_parsec_server(kernel),
            profile=profile, defaults={"scale": 1.0},
            check=_parsec_check,
            description=f"PARSEC {kernel} compute kernel (Fig. 7)"))
    register(WorkloadSpec(
        name="storage", server=_storage_server,
        driver=_storage_driver,
        profile=ResourceProfile(cpu=0.1, disk=0.6, net=0.3),
        defaults={"k": 2, "n": 3, "object_size": 8192, "objects": 3,
                  "request_timeout": 1.0, "write_compute": 12000,
                  "read_compute": 8000},
        ports=(7400,), scope="tenant", check=_storage_check,
        description="k-of-n erasure-coded object store, one share "
                    "per VM"))


_register_builtins()
