"""Closed-form optimal pilot assignment versus the brute-force oracle.

Shows the length-constrained optimum (two adjacent nonzero depths), the
(-1, +3) stepping between consecutive lengths, the coherence-time breakpoint
table, and a net-rate comparison against full reuse and random assignment.
"""

import numpy as np

from pilotreuse import (PilotAssignmentVector, breakpoints, brute_force_optimal,
                        build_lattice, cnet, laplace_tables, optimal_assignment,
                        optimal_for_length, pilot_length, rate_profile)
from pilotreuse.optimizer import random_sum_rate

lat = build_lattice(4)
profile = rate_profile(lat, gamma=3.7)

print("length-constrained optima (L=81, K=1): leaves sit on two adjacent depths")
for n_pil in (1, 3, 5, 7, 9, 11, 27):
    print(f"  N_pil={n_pil:2d}: {optimal_for_length(81, 1, n_pil).p}")

table = breakpoints(81, 1, profile)
print(f"\nbreakpoints (first five): {np.round([float(d) for d in table.exact[:5]], 2)}")

print("\noptimal assignment per coherence interval, checked against brute force:")
for N_coh in (4, 10, 20, 40, 120):
    closed = optimal_assignment(81, 1, N_coh, profile, table=table)
    brute = brute_force_optimal(81, 1, profile, objective="cnet", N_coh=N_coh)
    mark = "==" if closed.p == brute.p else "!="
    print(f"  N_coh={N_coh:3d}: closed {closed.p} {mark} brute {brute.p}")

N_coh = 40
p_opt = optimal_assignment(81, 1, N_coh, profile, table=table)
full = PilotAssignmentVector(L=81, K=1, p=(1, 0, 0, 0))
# exact: Laplace-transform tables of the lattice, no random draws
N_pil = pilot_length(p_opt)
rand_mean = (N_coh - N_pil) / N_coh * random_sum_rate(laplace_tables(lat, 3.7), 1, N_pil)
c_opt = cnet(p_opt, profile, N_coh)
c_full = cnet(full, profile, N_coh)
print(f"\nnet rates at N_coh={N_coh}: optimal {c_opt:.2f}, "
      f"random (exact) {rand_mean:.2f}, full reuse {c_full:.2f}")
print(f"optimal gain over full reuse: {100 * (c_opt / c_full - 1):.0f}%")
