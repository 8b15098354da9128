"""Attacker models and side-channel experiments.

- :mod:`repro.attacks.clocks` -- Wray's clock taxonomy realised inside a
  guest: an attacker workload that timestamps its observable events with
  every clock the guest can build (RT = virtual time, IO = interrupt
  arrivals, TL = branch counter, PIT ticks).
- :mod:`repro.attacks.probes` -- the coresidency pair (victim absent,
  then coresident with one attacker replica) that the mitigation
  frontier's three attacks share under any policy, plus two of them:
  the external ping probe and the in-guest IO-clock probe.  The clock
  probe under ``stopwatch`` and ``none`` is the paper's Fig. 4
  experiment.
- :mod:`repro.attacks.scheduler` -- the frontier's third attack, the
  scheduler-theft beacon probe (Zhou et al.'s cycle-stealing
  measurement).
- :mod:`repro.attacks.covert` -- an access-driven timing covert channel:
  a Trojan victim modulates host load in time slots; the attacker
  decodes bits from its own event timings.
- :mod:`repro.attacks.collab` -- Sec. IX's collaborating attackers:
  a second attacker VM loads one replica host to marginalise it from
  the median.
"""

from repro.attacks.clocks import ClockObserver, ClockSample
from repro.attacks.covert import CovertChannelResult, run_covert_channel
from repro.attacks.collab import CollabResult, run_collab_experiment
from repro.attacks.probes import (
    AttackResult,
    run_coresidency_probe,
    run_clock_probe,
)
from repro.attacks.scheduler import TheftProbe, run_scheduler_theft

#: attack name -> runner, the suite the frontier sweeps.  Every
#: runner shares the signature ``(policy=..., duration=..., seed=...,
#: workload=..., **knobs) -> AttackResult``.
ATTACK_SUITE = {
    "probe": run_coresidency_probe,
    "theft": run_scheduler_theft,
    "clocks": run_clock_probe,
}

__all__ = [
    "ClockObserver",
    "ClockSample",
    "CovertChannelResult",
    "run_covert_channel",
    "CollabResult",
    "run_collab_experiment",
    "AttackResult",
    "run_coresidency_probe",
    "run_clock_probe",
    "TheftProbe",
    "run_scheduler_theft",
    "ATTACK_SUITE",
]
