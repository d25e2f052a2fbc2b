"""Hexagonal cell lattice with hierarchical 3-way coset partitioning.

The network is a rhombic patch of 3^m hexagonal cells in axial coordinates,
optionally closed into a torus.  Recursive reuse-3 coloring splits the cells
into equi-spaced cosets: the depth-1 color of cell (u, v) is (u + 2v) mod 3,
and deeper colors apply the same rule to the index-3 sublattice coordinates.
Nearest cells of one depth-i coset are sqrt(3)^i times farther apart than
nearest neighbours, which is what makes deeper pilot reuse less contaminated.

All coordinates and distances are expressed in units of the cell radius
(circumradius).  The model is scale-free: rates depend only on distance
ratios, so no physical radius enters anywhere.

Minimum images on the torus: ``min_image_norms`` folds any difference vector
through the 9 Babai shifts.  Every other distance the library takes is from a
base station to a user within one cell radius of its own centre, and depends
on the (BS, cell) pair only through its class: the canonical cell difference
on the torus, the axial difference without wraparound.  Per class the lattice
stores the few images of the centre difference that can hold the user's
nearest one (those within the nearest one's norm + 2 on the torus, the
difference itself off it), nearest first, in two contiguous (P, C) tables of
x and y.  ``class_distances`` loops over the first max(count) rows, for one
pair and for arrays of pairs alike.

The hexagon's 12 symmetries fold the classes further: ``pair_orbits``
looks up each pair's orbit, and ``orbit_reps`` holds a class of each, so
that a quadrature over a symmetric position rule (``position_rule``) runs
once per orbit rather than once per class.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# defined in `depths`, numpy-free; it stays importable from here
from .depths import exponent_of_three  # noqa: F401

SQRT3 = math.sqrt(3.0)

# Axial basis vectors of the cell-center lattice, in units of the cell radius.
# Adjacent centers are sqrt(3)*r apart (hexagons of circumradius r share edges).
_A1 = np.array([SQRT3, 0.0])
_A2 = np.array([SQRT3 / 2.0, 1.5])

# Slack on the +2 image margin, far above the rounding of the image norms.
_IMAGE_EPS = 1e-9


def _gauss_reduce(w1: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange-reduce a 2D lattice basis (shortest first, small projection)."""
    b1, b2 = w1.copy(), w2.copy()
    if b1 @ b1 > b2 @ b2:
        b1, b2 = b2, b1
    while True:
        mu = round((b2 @ b1) / (b1 @ b1))
        b2 = b2 - mu * b1
        if b2 @ b2 >= b1 @ b1:
            return b1, b2
        b1, b2 = b2, b1


class HexLattice:
    """Immutable rhombic patch of 3^m hexagonal cells, optionally toroidal.

    Build with :func:`build_lattice`.  Cells are indices 0..L-1 in lexicographic
    (u, v) order over the fundamental domain [0, n_u) x [0, n_v); ``u[j]``,
    ``v[j]`` and ``centers[j]`` are cell j's axial coordinates and centre, and
    ``coset[j, i]`` is the index of its depth-i coset.  ``tagged`` holds the
    cells whose mean stands for the network: cell 0 on the torus, where every
    cell is equivalent, and every cell without wraparound.
    """

    def __init__(self, m: int, hole_ratio: float = 0.14, wraparound: bool = True):
        if not isinstance(m, int) or m < 2:
            raise ValueError("need m >= 2: the deepest allowed leaf is depth m-1 >= 1")
        if not 0.0 <= hole_ratio < 1.0:
            raise ValueError("hole_ratio must lie in [0, 1)")
        self.m = m
        self.L = 3**m
        self.hole_ratio = float(hole_ratio)
        self.wraparound = bool(wraparound)
        # Rhombus of 3^ceil(m/2) x 3^floor(m/2) cells: its translation lattice is
        # a sublattice of every depth-i coset lattice (i <= m-1), so coloring is
        # consistent under wraparound and every coset has exactly L/3^i cells.
        self.n_u = 3 ** ((m + 1) // 2)
        self.n_v = 3 ** (m // 2)

        self.u, self.v = np.divmod(np.arange(self.L), self.n_v)
        self.centers = self.u[:, None] * _A1 + self.v[:, None] * _A2
        self.coset = self._coset_table()

        # The class of pair (t, j) is _diff[_diff_key[j] - _diff_key[t]]:
        # du * span + dv is distinct over du in (-n_u, n_u) and dv in
        # (-n_v, n_v), and a negative one indexes from the end of _diff, a
        # table of about 4 L entries that spares each pair two int `%`.
        span = 2 * self.n_v - 1
        self._diff_key = self.u * span + self.v
        du = np.arange(1 - self.n_u, self.n_u)[:, None]
        dv = np.arange(1 - self.n_v, self.n_v)
        self._diff = np.empty((2 * self.n_u - 1) * span, dtype=np.int64)
        if self.wraparound:
            w1 = self.n_u * _A1
            w2 = self.n_v * _A2
            b1, b2 = _gauss_reduce(w1, w2)
            basis = np.column_stack([b1, b2])
            self._torus_basis = basis
            self._torus_basis_inv = np.linalg.inv(basis)
            # 3x3 Babai neighbourhood; exact closest-vector for a reduced 2D basis.
            shifts = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
            self._babai_shifts = shifts @ basis.T
            self._diff[du * span + dv] = du % self.n_u * self.n_v + dv % self.n_v
            self._image_x, self._image_y, self._image_count = self._user_images()
        else:
            self._diff[du * span + dv] = np.arange(self._diff.size).reshape(-1, span)
            image = (du[..., None] * _A1 + dv[:, None] * _A2).reshape(1, -1, 2)
            self._image_x, self._image_y = image[..., 0].copy(), image[..., 1].copy()
            self._image_count = np.ones(self._diff.size, dtype=np.int64)
        self.tagged = np.arange(1 if self.wraparound else self.L)

    def _user_images(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate minimum images per canonical cell difference: x, y, count.

        Difference r is ``centers[r] - centers[0]``.  A user's offset has norm
        at most 1, so its minimum image lies among the images of the centre
        difference within the nearest one's norm + 2.  Column r of the (P, L)
        x and y tables holds those images nearest first, padded to P rows by
        repeating the nearest one; the count array counts the real ones.
        """
        basis, inv = self._torus_basis, self._torus_basis_inv
        # Babai residuals have basis coordinates in [-1/2, 1/2], so every
        # image within `reach` is at most `n` basis steps from them
        res = self.centers - np.rint(self.centers @ inv.T) @ basis.T
        reach = np.hypot(res[:, 0], res[:, 1]).max() + 2.0 + _IMAGE_EPS
        n = int(np.ceil(0.5 + reach * np.linalg.norm(inv, axis=1).max()))
        steps = np.arange(-n, n + 1, dtype=float)
        ij = np.stack(np.meshgrid(steps, steps, indexing="ij"), axis=-1).reshape(-1, 2)
        imgs = res[:, None, :] - (ij @ basis.T)[None]  # (L, (2n+1)^2, 2)
        norms = np.hypot(imgs[..., 0], imgs[..., 1])
        order = np.argsort(norms, axis=1, kind="stable")
        imgs = np.take_along_axis(imgs, order[..., None], axis=1)
        norms = np.take_along_axis(norms, order, axis=1)
        count = (norms <= norms[:, :1] + 2.0 + _IMAGE_EPS).sum(axis=1)
        imgs = imgs[:, :count.max()]
        pad = np.arange(imgs.shape[1]) >= count[:, None]
        imgs[pad] = np.broadcast_to(imgs[:, :1], imgs.shape)[pad]
        return imgs[..., 0].T.copy(), imgs[..., 1].T.copy(), count

    def _coset_table(self) -> np.ndarray:
        """Cumulative coset indices of every cell at depths 0..m-1, (L, m).

        Depth-0 is the single root coset.  Each step extracts the reuse-3
        color c = (u + 2v) mod 3, adds c * 3^(depth-1) to the index, and
        descends into the sublattice through the inverse of
        (u, v) -> (u - v, u + 2v), a sqrt(3) similarity.
        """
        table = np.zeros((self.L, self.m), dtype=np.int64)
        u, v = self.u, self.v
        for depth in range(1, self.m):
            c = (u + 2 * v) % 3
            table[:, depth] = table[:, depth - 1] + c * 3 ** (depth - 1)
            u = u - c
            u, v = (2 * u + v) // 3, (v - u) // 3
        return table

    def pair_orbits(self, bs, cells) -> np.ndarray:
        """The orbit of the pair class of each pair (`bs`, `cells`).

        `bs` and `cells` (ints or int arrays) broadcast as in `user_distances`.
        Pairs of one class see equal user distances (`class_distances`).  The
        classes are the canonical cell differences on the torus and the axial
        differences off it.  The hexagon's 12-element point group folds them:
        classes c and c' share an orbit when an element g maps the set of c's
        images onto c''s, so that d_c'(g o) = d_c(o) at every user offset o.
        Over a position rule that g maps onto itself, the two classes have
        equal transforms and moments, so a quadrature computes each once per
        orbit, from its class in `orbit_reps`.  The orbits are
        0..len(orbit_reps) - 1.
        """
        key = self._diff_key
        return self._orbits[0][key[cells] - key[bs]]

    @property
    def orbit_reps(self) -> np.ndarray:
        """A pair class of each orbit of `pair_orbits`, indexed by orbit."""
        return self._orbits[1]

    @functools.cached_property
    def _orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """The orbit of each `_diff` entry's class, and a class of each orbit.

        Computed, not assumed, as the odd-m tori are less symmetric than the
        hexagon.  Every image is a lattice point, x = a √3/2 and y = b/2 with
        integer (a, b), so the test is exact: the 60° rotation is
        (a, b) -> ((a - b)/2, (3a + b)/2) and the reflection b -> -b.  A class's
        key is the least of its 12 images' sorted sets, padding sorted last.
        """
        a = np.rint(self._image_x.T * (2 / SQRT3)).astype(np.int64)  # (C, P)
        b = np.rint(self._image_y.T * 2).astype(np.int64)
        real = np.arange(a.shape[1]) < self._image_count[:, None]
        sets = []
        for _ in range(6):
            for mirrored in (b, -b):
                sets.append(np.sort(np.where(real, (a << 32) + mirrored,
                                             np.iinfo(np.int64).max), axis=1))
            a, b = (a - b) // 2, (3 * a + b) // 2
        _, ids = np.unique(np.concatenate(sets), axis=0, return_inverse=True)
        key = ids.reshape(12, -1).min(axis=0)
        _, first, orbit = np.unique(key, return_index=True, return_inverse=True)
        return orbit[self._diff], first

    def position_rule(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature for a uniform user position: offsets (n, 2) and weights (n,).

        Gauss–Legendre in polar coordinates over the hexagon's six edge
        sectors: θ within ±30° of each edge normal, r from `hole_ratio` to
        the edge at (√3/2)/cos(θ − θ_k), `order` nodes along each, weighted
        by r and normalised to sum to 1.  Without a hole the radial nodes
        are graded as r = R s², as a user's own power r^(−2γ) is singular
        at r = 0.  The rule is built on each call; the lattice keeps none.
        It needs `hole_ratio` < √3/2, the inscribed circle's radius: a
        larger hole cuts the edges, and the radial interval would turn
        negative near each edge normal.
        """
        if order < 1:
            raise ValueError(f"the quadrature order must be a positive integer, got {order}")
        if self.hole_ratio >= SQRT3 / 2:
            raise ValueError(f"the position quadrature needs hole_ratio < √3/2 = "
                             f"{SQRT3 / 2:.6f}, the inscribed radius; got {self.hole_ratio}")
        # Golub–Welsch: nodes are the Jacobi matrix's eigenvalues, weights
        # twice the squared first components of its unit eigenvectors
        k = np.arange(1, order)
        x, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
        w = 2.0 * vectors[0] ** 2
        phi, w_phi = x * math.pi / 6, w * math.pi / 6
        s, w_s = (x + 1) / 2, w / 2
        edge = (SQRT3 / 2) / np.cos(phi)[:, None]
        h = self.hole_ratio
        grade = 1 if h > 0 else 2
        r = h + (edge - h) * s**grade                  # (order, order)
        weights = w_phi[:, None] * w_s * grade * s ** (grade - 1) * (edge - h) * r
        theta = phi[:, None] + np.arange(6)[:, None, None] * (math.pi / 3)
        nodes = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1).reshape(-1, 2)
        weights = np.tile(weights.ravel(), 6)
        return nodes, weights / weights.sum()

    def cell_index(self, cell) -> int:
        """Index of the cell at axial (u, v), taken mod the fundamental domain."""
        u, v = cell
        return int(u) % self.n_u * self.n_v + int(v) % self.n_v

    def shared_depth(self, cells) -> np.ndarray:
        """out[n, j], the deepest depth whose coset cell j shares with cells[n].

        Cosets nest, so j is in cells[n]'s depth-i coset for exactly i <=
        out[n, j]; the (len(cells), L) table holds -1 at cells[n] itself.
        """
        cells = np.asarray(cells)
        depth = (self.coset[cells, None] == self.coset[None]).sum(axis=2) - 1
        depth[np.arange(len(cells)), cells] = -1
        return depth

    def cosharing_indices(self, cell: int, depth: int) -> np.ndarray:
        """Ascending indices of the other cells in `cell`'s depth-`depth` coset."""
        if not 0 <= depth <= self.m - 1:
            raise ValueError(f"depth must be in [0, {self.m - 1}], got {depth}")
        return np.flatnonzero(self.shared_depth([cell])[0] >= depth)

    # -- distances -----------------------------------------------------------

    def min_image_norms(self, deltas: np.ndarray) -> np.ndarray:
        """Torus norms of difference vectors, shape (n, 2) -> (n,)."""
        deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
        if not self.wraparound:
            return np.hypot(deltas[:, 0], deltas[:, 1])
        coords = deltas @ self._torus_basis_inv.T
        residual = deltas - np.rint(coords) @ self._torus_basis.T
        cands = residual[:, None, :] - self._babai_shifts[None, :, :]
        return np.sqrt(np.min(np.einsum("nkc,nkc->nk", cands, cands), axis=1))

    def class_distances(self, classes, offsets) -> np.ndarray:
        """Distances to users at `offsets` across pairs of the `classes`.

        `classes` (`orbit_reps`, say) broadcasts against ``offsets[..., 0]``;
        an offset is a user's position relative to its cell centre, of norm at
        most 1.  Images are padded with the nearest one, so a class with
        fewer than the largest count gains no new candidate.
        """
        offsets = np.asarray(offsets, dtype=float)
        ox, oy = offsets[..., 0], offsets[..., 1]
        count = self._image_count[classes]
        # plain indexing, as a numpy scalar's take or max costs microseconds
        images = ((self._image_x[p][classes], self._image_y[p][classes])
                  for p in range(count.max(initial=0) if count.ndim else count))
        # np.broadcast costs a fraction of np.broadcast_shapes per call
        shape = np.broadcast(classes, ox).shape
        # in-place arithmetic on three arrays: fresh temporaries per image
        # would multiply the peak memory of the quadrature callers
        best, d2, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
        for p, (x, y) in enumerate(images):
            out = d2 if p else best
            np.add(x, ox, out=out)
            out *= out
            np.add(y, oy, out=tmp)
            tmp *= tmp
            out += tmp
            if p:
                np.minimum(best, d2, out=best)
        return np.sqrt(best, out=best)

    def user_distances(self, bs, cells, offsets) -> np.ndarray:
        """Distances from base station `bs` to users at `offsets` in `cells`.

        `bs` and `cells` (ints or int arrays) broadcast as `classes` does in
        `class_distances`.  On the torus the result equals
        ``min_image_norms(centers[cells] - centers[bs] + offsets)``.
        """
        key = self._diff_key
        return self.class_distances(self._diff[key[cells] - key[bs]], offsets)

    # -- user placement ------------------------------------------------------

    def sample_cell_offsets(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform points in the canonical hexagon minus the BS-hole disk, (n, 2).

        Rejection from the bounding rectangle; the acceptance rate is about
        0.73 for hole_ratio 0.14, so the loop terminates quickly.
        """
        out = np.empty((n, 2))
        filled = 0
        while filled < n:
            want = n - filled
            batch = max(32, int(1.6 * want))
            x = rng.uniform(-SQRT3 / 2.0, SQRT3 / 2.0, size=batch)
            y = rng.uniform(-1.0, 1.0, size=batch)
            ok = (np.abs(x) + SQRT3 * np.abs(y) <= SQRT3) & (x * x + y * y >= self.hole_ratio**2)
            took = min(int(ok.sum()), want)
            sel = np.flatnonzero(ok)[:took]
            out[filled:filled + took, 0] = x[sel]
            out[filled:filled + took, 1] = y[sel]
            filled += took
        return out

    def __repr__(self) -> str:
        return (f"HexLattice(m={self.m}, L={self.L}, domain={self.n_u}x{self.n_v}, "
                f"hole_ratio={self.hole_ratio}, wraparound={self.wraparound})")


def build_lattice(m: int, hole_ratio: float = 0.14,
                  wraparound: bool = True) -> HexLattice:
    """Construct the 3^m-cell hexagonal lattice used throughout the library."""
    return HexLattice(m, hole_ratio=hole_ratio, wraparound=wraparound)
