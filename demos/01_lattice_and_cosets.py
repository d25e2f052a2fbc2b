"""Hexagonal lattice geometry and the hierarchical 3-way coset partition.

Builds the 81-cell toroidal lattice, walks one cell's coset chain, and shows
the sqrt(3)-per-depth growth of same-coset distances that makes deeper pilot
reuse progressively less contaminated.
"""

import numpy as np

from pilotreuse import build_lattice

lat = build_lattice(4)  # 81 cells on a 9x9 rhombic torus
print(lat)

uv = (2, 5)
cell = uv[0] * lat.n_v + uv[1]  # cells run in (u, v) order
assert (lat.u[cell], lat.v[cell]) == uv
# the deepest depth whose coset each other cell shares with this one
shared = lat.shared_depth([cell])[0]
print(f"\ncoset chain of cell {uv}:")
for depth in range(lat.m):
    members = np.count_nonzero(shared >= depth) + 1
    print(f"  depth {depth}: coset index {lat.coset[cell, depth]:2d}  "
          f"({members} cells share it)")

print("\nnearest same-coset cell distance per depth (units of cell radius):")
for depth in range(lat.m):
    others = np.flatnonzero(shared >= depth)
    # centre to centre: a user at offset zero in each same-coset cell
    dmin = lat.user_distances(cell, others, np.zeros(2)).min()
    print(f"  depth {depth}: {dmin:7.4f}   expected sqrt(3)^{depth + 1} = "
          f"{np.sqrt(3.0) ** (depth + 1):7.4f}")

print("\nuser placement: uniform over the hexagon minus the BS hole")
rng = np.random.default_rng(0)
pts = lat.sample_cell_offsets(50_000, rng)
r = np.hypot(pts[:, 0], pts[:, 1])
print(f"  50k samples: min |pos| = {r.min():.3f} (hole 0.14), "
      f"max |pos| = {r.max():.3f} (corner 1.0)")
