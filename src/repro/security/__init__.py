"""Side-channel analysis tooling.

Implements the attacker models of the paper's threat model (§III): a
co-located process that can measure coarse timing, prime-and-probe the
caches, observe the victim's memory working set through a shared cache,
and inspect branch-predictor state after the victim runs.  The
:func:`noninterference_report` driver runs a program under multiple
secret values and checks whether each observation channel distinguishes
them — SeMPE's security claim is that none do.  The statistical attack
engine (:mod:`repro.security.attackers`) turns that claim into an
end-to-end demonstration: noisy multi-trial adversaries recover every
registered victim's secret on the baseline machine and degrade to
chance under SeMPE.
"""

from repro.core.engine import poke_secrets
from repro.security.observer import (
    ObservationTrace,
    TraceObserver,
    collect_observation,
)
from repro.security.leakage import (
    ChannelReport,
    NoninterferenceReport,
    noninterference_report,
    distinguishing_channels,
    mutual_information_bits,
    observation_key,
    victim_report,
)
from repro.security.attackers import (
    ALPHA,
    ATTACKERS,
    AttackReport,
    AttackSpec,
    applicable_attackers,
    attacker_names,
    execute_attack,
    get_attacker,
    iter_attackers,
)

__all__ = [
    "victim_report",
    "ObservationTrace",
    "TraceObserver",
    "collect_observation",
    "poke_secrets",
    "ChannelReport",
    "NoninterferenceReport",
    "noninterference_report",
    "distinguishing_channels",
    "mutual_information_bits",
    "observation_key",
    "ALPHA",
    "ATTACKERS",
    "AttackReport",
    "AttackSpec",
    "applicable_attackers",
    "attacker_names",
    "execute_attack",
    "get_attacker",
    "iter_attackers",
]
