"""Optimal pilot reuse for multi-cell massive MIMO networks.

A numpy library that simulates the hexagonal cell geometry and slow-fading
channel, estimates per-reuse-depth rates by Monte Carlo, and computes the
closed-form optimal hierarchical pilot assignment together with brute-force
verification oracles and a finite-antenna-count throughput model.
"""

from .hexgrid import AxialCoord, CosetId, HexLattice, build_lattice
from .channel import (ChannelConfig, RateProfile, derive_rng,
                      estimate_rate_profile, synthetic_linear_profile)
from .assignment import (PilotAssignmentVector, chi, count_assignments,
                         enumerate_assignments, from_transition, pilot_length,
                         realize, to_transition, valid_pilot_lengths)
from .optimizer import (BreakpointTable, breakpoints, brute_force_optimal, cnet,
                        corollary_step, csum, optimal_assignment,
                        optimal_for_length, random_assignment, random_mean_cnet,
                        sweep_training_fraction)
from .finitem import (FiniteMConfig, FiniteMResult, MuStats, cnet_finite,
                      estimate_mu_stats, interference, optimal_assignment_finite,
                      per_user_rate_cdf, throughput_vs_m_sweep)

__version__ = "0.1.0"

__all__ = [
    "AxialCoord", "CosetId", "HexLattice", "build_lattice",
    "ChannelConfig", "RateProfile", "derive_rng", "estimate_rate_profile",
    "synthetic_linear_profile",
    "PilotAssignmentVector", "chi", "count_assignments", "enumerate_assignments",
    "from_transition", "pilot_length", "realize", "to_transition",
    "valid_pilot_lengths",
    "BreakpointTable", "breakpoints", "brute_force_optimal",
    "cnet", "corollary_step", "csum", "optimal_assignment", "optimal_for_length",
    "random_assignment", "random_mean_cnet", "sweep_training_fraction",
    "FiniteMConfig", "FiniteMResult", "MuStats", "cnet_finite",
    "estimate_mu_stats", "interference", "optimal_assignment_finite",
    "per_user_rate_cdf", "throughput_vs_m_sweep",
]
