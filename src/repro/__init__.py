"""StopWatch (DSN 2013) reproduction.

A complete, deterministic discrete-event reconstruction of StopWatch --
Li, Gao and Reiter's replicated-VM defense against access-driven timing
side channels in IaaS clouds -- together with the substrate the paper's
Xen prototype relied on (machines, devices, network stacks, cloud
fabric), the workloads it was evaluated with, the placement theory of
Sec. VIII, and the statistical analysis of the appendix.

Typical entry points:

>>> from repro.sim import Simulator
>>> from repro.core import DEFAULT, PASSTHROUGH
>>> from repro.cloud import Cloud
>>> from repro.workloads import EchoServer
>>> sim = Simulator(seed=42)
>>> cloud = Cloud(sim, machines=3, config=DEFAULT)
>>> vm = cloud.create_vm("echo", EchoServer)
>>> client = cloud.add_client("client:1")
>>> cloud.run(until=1.0)

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel (event loop, one-shot events,
    timer wheels, RNG streams, tracing).
``repro.core``
    The paper's core mechanisms: virtual time (Eqn. 1 + epoch
    resynchronisation), median agreement, quorum release, configuration.
``repro.machine``
    Physical hosts (dom0 queue, disk, timing noise) and the
    deterministic guest runtime.
``repro.vmm``
    The replica hypervisor and the inter-VMM coordination protocol.
``repro.net``
    Links, routing, UDP, TCP and PGM reliable multicast.
``repro.cloud``
    Ingress/egress nodes and cluster assembly.
``repro.workloads``
    Guest workloads: file servers, NFS + nhfsstone, PARSEC kernels, echo.
``repro.placement``
    Edge-disjoint triangle placement (Theorems 1 and 2).
``repro.stats``
    Order statistics, chi-squared detection, noise comparison.
``repro.attacks``
    Attacker models: clock suite, coresidence detection, covert
    channel, collaborating attackers.
``repro.analysis``
    Experiment runners for every figure of the evaluation.
"""

__version__ = "1.0.0"

__all__ = [
    "sim",
    "core",
    "machine",
    "vmm",
    "net",
    "cloud",
    "workloads",
    "placement",
    "stats",
    "attacks",
    "analysis",
]
