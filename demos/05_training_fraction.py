"""How much of the coherence interval the optimal scheme spends on pilots.

Full pilot reuse trains for a vanishing K/N_coh share as the coherence
budget grows.  The optimal assignment instead keeps stepping to longer
pilots at every breakpoint, so its training share saw-tooths but never
collapses toward zero.
"""

from pilotreuse import build_lattice, pilot_length, rate_profile, sweep_training_fraction

profile = rate_profile(build_lattice(4), gamma=3.7)

K = 1
points = sweep_training_fraction(81, K, range(5, 141), profile)

print("N_coh  p_opt         N_pil  optimal fraction  full-reuse fraction")
prev = None
for pt in points:
    if pt.p.p != prev or pt.N_coh in (20, 50, 100, 140):
        print(f"{pt.N_coh:5d}  {str(pt.p.p):12s}  {pilot_length(pt.p):3d}"
              f"    {pt.training_fraction:8.3f}        {K / pt.N_coh:8.3f}")
        prev = pt.p.p

floor = min(pt.training_fraction for pt in points)
print(f"\nminimum optimal training fraction over the sweep: {floor:.3f}")
print(f"full-reuse fraction at N_coh=140: {K / 140:.4f} (keeps shrinking)")
