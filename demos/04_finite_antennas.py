"""Finite antenna counts: mu statistics, the regime ladder, and rate vs M.

With M antennas the interference keeps 1/M terms on top of the contamination
floor mu3, so the optimal assignment shifts with both M and the coherence
budget.  The ladder of optima moves one (-1, +3) step at a time, trading the
most contaminated pilot for three deeper ones.
"""

from pilotreuse import (FiniteMConfig, PilotAssignmentVector, build_lattice,
                        cnet_finite, mu_stats, optimal_assignment_finite)

lat = build_lattice(4)
mu = mu_stats(lat, gamma=3.7)
print("exact mu statistics (L=81):  mu0 =", round(mu.mu0, 4))
for i in range(lat.m):
    print(f"  depth {i}: mu1={mu.mu1[i]:.2e}  mu2={mu.mu2[i]:.2e}  "
          f"mu3={mu.mu3[i]:.2e}")

print("\noptimum vs N_coh/K at M=128, K=10 (the -1/+3 ladder):")
prev = None
for tenth in range(38, 64):
    cfg = FiniteMConfig(M=128, K=10, N_coh=tenth, rho_db=5.0)
    p = optimal_assignment_finite(cfg, mu).p
    if p != prev:
        print(f"  N_coh/K >= {tenth / 10:.1f}: {p}")
        prev = p

lat27 = build_lattice(3)
mu27 = mu_stats(lat27, gamma=3.7)
full = PilotAssignmentVector(L=27, K=10, p=(10, 0, 0))
print("\nL=27, K=10, N_coh=200: optimal vs conventional full reuse")
for M in (32, 128, 512, 1024):
    cfg = FiniteMConfig(M=M, K=10, N_coh=200, rho_db=5.0)
    opt = optimal_assignment_finite(cfg, mu27)
    c_opt, base = cnet_finite(opt, cfg, mu27), cnet_finite(full, cfg, mu27)
    print(f"  M={M:5d}: optimal {opt.p} C_net={c_opt:6.2f}  "
          f"full reuse {base:5.2f}  gain {100 * (c_opt / base - 1):4.0f}%")
