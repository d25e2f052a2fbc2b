"""Optimal pilot reuse for multi-cell massive MIMO networks.

A library that models the hexagonal cell geometry and slow-fading channel.
It computes the per-reuse-depth rates and the finite-antenna moments
exactly by quadrature, and the closed-form optimal hierarchical pilot
assignment together with brute-force verification oracles and a
finite-antenna-count throughput model.  The geometry, the finite-antenna
model and the exact layer are plain Python; numpy computes the rate
profiles, the vector distance kernels and the sampled per-user CDF, and is
imported only when they run.

The names below are imported from their modules on first use, so importing
one module (the CLI, say) does not load the others.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(["HexLattice", "build_lattice"], "hexgrid"),
    **dict.fromkeys(["RateProfile", "synthetic_linear_profile"], "depths"),
    **dict.fromkeys(["laplace_tables", "rate_profile"], "channel"),
    **dict.fromkeys(["PilotAssignmentVector", "count_assignments",
                     "enumerate_assignments", "from_transition", "pilot_length",
                     "realize", "to_transition", "valid_pilot_lengths"],
                    "assignment"),
    **dict.fromkeys(["BreakpointTable", "breakpoints", "brute_force_optimal",
                     "cnet", "corollary_step", "csum", "optimal_assignment",
                     "optimal_for_length", "sweep_training_fraction"],
                    "optimizer"),
    **dict.fromkeys(["FiniteMConfig", "MuStats", "cnet_finite", "mu_stats",
                     "optimal_assignment_finite", "per_user_rate_cdf",
                     "throughput_vs_m_sweep"],
                    "finitem"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
