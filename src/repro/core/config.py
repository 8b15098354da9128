"""All StopWatch tunables in one dataclass.

Defaults are calibrated to the paper's testbed description (Sec. VII):

- Guests are uniprocessor with a 250 Hz PIT clock source.
- Δn translates to ~7-12 ms of real time under diverse workloads;
- Δd translates to ~8-15 ms (rotating disk);
- VM exits caused by guest execution happen frequently enough that
  interrupt delivery quantisation is well under Δn/Δd.

The simulated guest executes ``base_branch_rate`` branches per real second
nominally; ``initial_slope`` makes one virtual second correspond to
``1 / initial_slope`` branches, so with the defaults virtual time advances
at roughly wall-clock rate on an unloaded host.

How a VM is mediated is not a field here: each VM runs one
:class:`~repro.mitigation.MitigationPolicy`, and the config only picks
the default one by ``replicas`` (``stopwatch`` above 1, ``none`` -- the
unmodified-Xen baseline -- at 1; see :func:`repro.mitigation
.default_policy`).
"""

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.errors import ConfigError


@dataclass
class StopWatchConfig:
    """Configuration for a StopWatch deployment (or a baseline one)."""

    # -- replication -----------------------------------------------------
    #: number of replicas per guest VM (the paper uses 3; Sec. IX
    #: discusses 5); 1 runs unmodified Xen unless a VM names a policy
    replicas: int = 3
    #: timing aggregation across replica proposals; "median" is
    #: StopWatch, the others exist for the ablation study (Sec. II
    #: discusses why e.g. "leader" is unsafe)
    aggregation: str = "median"

    # -- virtual time (Sec. IV) -------------------------------------------
    #: nominal guest execution speed, branches per real second
    base_branch_rate: float = 100e6
    #: virtual seconds per branch (Eqn. 1 slope at boot)
    initial_slope: float = 1e-8
    #: clamp range [l, u] for the epoch resynchronisation slope
    slope_range: Tuple[float, float] = (0.5e-8, 2e-8)
    #: instructions per resynchronisation epoch; None disables resync
    epoch_instructions: Optional[int] = None

    # -- VM exits ----------------------------------------------------------
    #: branches between guest-execution-caused VM exits (injection points)
    exit_interval_branches: int = 100_000

    # -- I/O mediation offsets, in *virtual* seconds (Sec. V) ---------------
    #: Δn -- added to last-exit virtual time to form a network proposal
    delta_net: float = 0.010
    #: Δd -- added to request virtual time for disk/DMA interrupt delivery.
    #: Must exceed the worst-case disk access time (paper: 8-15 ms for
    #: their rotating disks); 12 ms covers the default DiskModel's
    #: maximum seek + a 64-block transfer with margin.
    delta_disk: float = 0.012

    # -- replica pacing (Sec. V-A / VII-A) ----------------------------------
    #: branches between pacing barrier exchanges among replica VMMs
    pacing_interval_branches: int = 400_000
    #: maximum virtual-time lead the fastest replica may build up
    max_lead_virtual: float = 0.004

    # -- guest timer (Sec. IV-B) ---------------------------------------------
    #: PIT frequency presented to the guest, interrupts per virtual second
    pit_hz: float = 250.0

    # -- fault tolerance (Sec. II / V availability story) -----------------------
    #: heartbeat-based replica failure detection.  Off by default: the
    #: base protocol (and the paper's prototype) simply stalls when a
    #: replica dies, which several experiments assert; chaos/recovery
    #: runs enable it (see the RESILIENT preset).
    failure_detection: bool = False
    #: real seconds between coordination heartbeats
    heartbeat_interval: float = 0.02
    #: real seconds of silence after which a sibling replica is suspected
    #: dead and the mediation pipeline degrades to the live quorum
    suspicion_timeout: float = 0.12
    #: real seconds before an undecided median agreement (e.g. for a
    #: packet a dead replica never proposed on) is swept and dropped
    stale_agreement_timeout: float = 1.0
    #: real seconds before an egress release entry that never completed
    #: its quorum is swept (the crashed-replica release leak)
    egress_stale_timeout: float = 2.0

    # -- self-healing (repro.faults.heal) ---------------------------------------
    #: real seconds between a host's permanent (condemned) failure and the
    #: evacuation of its replicas onto spare capacity
    evacuation_grace: float = 0.25
    #: real seconds a replica suspicion must persist before the healer
    #: acts on it (long enough for a scheduled restart to win the race)
    suspect_confirm: float = 0.8
    #: real seconds between a rejoin announcement and the survivors'
    #: catch-up push of cached decisions; must exceed the PGM NAK repair
    #: window so the lossless retransmission path wins whenever it can
    rejoin_catchup_delay: float = 0.08
    #: real seconds between healer attempts when one fails (e.g. no live
    #: survivor to replay from yet)
    heal_retry_interval: float = 0.5
    #: healer attempts per replica before giving up (`heal.failed`)
    heal_max_attempts: int = 6

    # -- dom0 device-model costs (real seconds per event) -----------------------
    #: dom0 CPU time to observe/process one inbound packet
    dom0_packet_cost: float = 40e-6
    #: dom0 CPU time to emit one outbound packet
    dom0_output_cost: float = 30e-6
    #: dom0 CPU time to set up one disk/DMA request
    dom0_disk_cost: float = 80e-6

    # -- inter-VMM / ingress network ------------------------------------------
    #: one-way latency (s) of the cloud-internal network used for proposal
    #: multicast, ingress replication and egress tunnelling
    internal_latency: float = 0.0002
    #: jitter fraction applied to internal latency
    internal_jitter: float = 0.3

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        if self.replicas % 2 == 0:
            raise ConfigError("median agreement needs an odd replica count, "
                              f"got {self.replicas}")
        if self.base_branch_rate <= 0:
            raise ConfigError("base_branch_rate must be positive")
        if self.initial_slope <= 0:
            raise ConfigError("initial_slope must be positive")
        low, high = self.slope_range
        if low <= 0 or low > high:
            raise ConfigError(f"bad slope_range [{low}, {high}]")
        if self.exit_interval_branches <= 0:
            raise ConfigError("exit_interval_branches must be positive")
        if self.delta_net < 0 or self.delta_disk < 0:
            raise ConfigError("delta offsets must be non-negative")
        if self.pit_hz <= 0:
            raise ConfigError("pit_hz must be positive")
        if self.max_lead_virtual <= 0:
            raise ConfigError("max_lead_virtual must be positive")
        if self.epoch_instructions is not None and self.epoch_instructions <= 0:
            raise ConfigError("epoch_instructions must be positive or None")
        if self.heartbeat_interval <= 0:
            raise ConfigError("heartbeat_interval must be positive")
        if self.suspicion_timeout <= self.heartbeat_interval:
            raise ConfigError("suspicion_timeout must exceed "
                              "heartbeat_interval")
        if self.stale_agreement_timeout <= 0:
            raise ConfigError("stale_agreement_timeout must be positive")
        if self.egress_stale_timeout <= 0:
            raise ConfigError("egress_stale_timeout must be positive")
        if self.evacuation_grace <= 0:
            raise ConfigError("evacuation_grace must be positive")
        if self.suspect_confirm <= 0:
            raise ConfigError("suspect_confirm must be positive")
        if self.rejoin_catchup_delay <= 0:
            raise ConfigError("rejoin_catchup_delay must be positive")
        if self.heal_retry_interval <= 0:
            raise ConfigError("heal_retry_interval must be positive")
        if self.heal_max_attempts < 1:
            raise ConfigError("heal_max_attempts must be >= 1")
        from repro.core.median import AGGREGATIONS
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}; "
                              f"choose one of {AGGREGATIONS}")

    # -- derived quantities ---------------------------------------------------
    @property
    def exit_interval_virtual(self) -> float:
        """Virtual seconds between guest-execution VM exits at boot slope."""
        return self.exit_interval_branches * self.initial_slope

    @property
    def pit_period_virtual(self) -> float:
        """Virtual seconds between PIT timer interrupts."""
        return 1.0 / self.pit_hz

    def with_overrides(self, **kwargs) -> "StopWatchConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)


#: The paper's evaluated configuration: three replicas, full mediation.
DEFAULT = StopWatchConfig()

#: "Unmodified Xen": one replica, so the default policy is ``none`` (no
#: mediation, no egress indirection; see repro.mitigation).
PASSTHROUGH = StopWatchConfig(replicas=1)

#: The fault-tolerant deployment: full mediation plus heartbeat failure
#: detection, degraded live-quorum agreement and stale-state sweeping.
RESILIENT = StopWatchConfig(failure_detection=True)
