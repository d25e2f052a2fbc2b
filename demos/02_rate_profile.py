"""Monte Carlo estimation of the per-depth asymptotic rates C_i.

Each reuse depth multiplies the interferer distance by sqrt(3), so with a
decay exponent of 3.7 each depth is worth roughly gamma*log2(3) ~ 5.9 extra
bits per symbol.  Distances are in units of the cell radius: the rates
depend only on distance ratios, so the physical radius never enters.  Uses
20k trials to stay quick; the acceptance suite runs the full 100k.
"""

import numpy as np

from pilotreuse import ChannelConfig, build_lattice, estimate_rate_profile

lat = build_lattice(4)
cfg = ChannelConfig(lattice=lat, gamma=3.7, trials=20_000, seed=1)
profile = estimate_rate_profile(lat, cfg)

print("reuse depth  interferers  C_i (bits/symbol)")
for depth in range(lat.m):
    n_int = len(lat.cosharing_indices(0, depth))
    print(f"  {depth}            {n_int:3d}       {profile.C[depth]:7.3f} "
          f"+- {profile.stderr[depth]:.3f}")

print("\nconsecutive gaps:", np.round(np.diff(profile.C), 3),
      f"(geometric value {3.7 * np.log2(3):.2f})")
print("the shallowest gap runs high (interferers can sit right next to the"
      "\nbase station) and the deepest coset has only two members left")
