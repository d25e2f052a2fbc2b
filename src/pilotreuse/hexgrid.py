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

The geometry is exact integer Python.  A lattice point is an integer pair
(a, b) at x = a √3/2 and y = b/2 (cell (u, v)'s centre is (2u + v, 3v)), so
norms compare exactly as 3a² + b².  Every distance the library takes is from
a base station to a user within one cell radius of its own centre, and
depends on the (BS, cell) pair only through its class: the canonical cell
difference on the torus, the axial difference without wraparound.  So does
the deepest coset two cells share.  Per class the lattice keeps the few
images of the centre difference that can hold the user's nearest one (those
within the nearest one's norm + 2 on the torus, the difference itself off
it), nearest first.  The hexagon's 12 symmetries fold the classes into
orbits, so that a quadrature over a symmetric position rule
(``position_rule``, Gauss–Legendre nodes by Newton's method) runs once per
orbit rather than once per class.  Loading this module, building a lattice
and all of the above, the tagged cells (``tagged``, a range) included, load
no numpy: `finitem`'s moments read them as they are.

The arrays (``u``, ``v``, ``centers``, ``coset``, the (P, C) image tables of x
and y, the class and orbit lookups) are derived from that geometry on first
use, and only the vector kernels import numpy: ``class_distances`` loops over
the first max(count) image rows, for one pair and for arrays of pairs alike,
``_pair_class`` is the one lookup of a pair's class, which ``pair_orbits``,
``shared_depth`` and ``user_distances`` read, and ``min_image_norms`` folds
any difference vector through the 9 Babai shifts.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Iterator

# defined in `depths`, numpy-free; it stays importable from here
from .depths import exponent_of_three  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

SQRT3 = math.sqrt(3.0)

# A lattice point (a, b) lies at (a * _X, b * _Y), in units of the cell radius:
# adjacent centres are sqrt(3) apart (hexagons of circumradius 1 share edges).
_X = SQRT3 / 2.0
_Y = 0.5

# Pads the sorted image sets of `_class_orbits` past their last image.
_PAD = 2**63 - 1


def _coset_digits(u, v, depths: int) -> Iterator:
    """The reuse-3 colors of cell (u, v) at depths 1..`depths`, one by one.

    Each step extracts the color c = (u + 2v) mod 3 and descends into the
    sublattice through the inverse of (u, v) -> (u - v, u + 2v), a sqrt(3)
    similarity.  The walk is linear, so it takes integers and integer arrays
    alike, and a difference of two cells has color 0 down to the deepest
    depth whose coset holds both.
    """
    for _ in range(depths):
        c = (u + 2 * v) % 3
        yield c
        u = u - c
        u, v = (2 * u + v) // 3, (v - u) // 3


def _gauss_reduce(w1: tuple[int, int], w2: tuple[int, int]) -> tuple[tuple, tuple]:
    """Lagrange-reduce a basis of lattice points (shortest first, small projection)."""
    def dot(p, q):
        return 3 * p[0] * q[0] + p[1] * q[1]

    b1, b2 = (w2, w1) if dot(w1, w1) > dot(w2, w2) else (w1, w2)
    while True:
        n = dot(b1, b1)
        mu = (2 * dot(b2, b1) + n) // (2 * n)  # the integer nearest dot(b2, b1)/n
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])
        if dot(b2, b2) >= n:
            return b1, b2
        b1, b2 = b2, b1


def _gauss_legendre(order: int) -> tuple[list[float], list[float]]:
    """Gauss–Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_order by its three-term recurrence, from the
    classical estimate of each root; the nodes are symmetric by construction,
    and each weight is 2 / ((1 - x^2) P'(x)^2).
    """
    def legendre(x):
        """P_order(x) and its derivative."""
        p0, p1 = 1.0, x
        for j in range(2, order + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, order * (x * p1 - p0) / (x * x - 1.0)

    nodes, weights = [0.0] * order, [0.0] * order
    for k in range((order + 1) // 2):
        x = 0.0
        if 2 * k + 1 != order:  # the middle root of an odd order is 0
            x = math.cos(math.pi * (k + 0.75) / (order + 0.5))
            for _ in range(100):
                p, dp = legendre(x)
                x -= p / dp
                if abs(p / dp) < 1e-15:
                    break
        dp = legendre(x)[1]
        nodes[k], nodes[order - 1 - k] = -x, x
        weights[k] = weights[order - 1 - k] = 2.0 / ((1.0 - x * x) * dp * dp)
    return nodes, weights


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

    # -- exact geometry, plain Python --------------------------------------

    @property
    def tagged(self) -> range:
        """The cells whose mean stands for the network: cell 0 on the torus,
        every cell off it."""
        return range(1 if self.wraparound else self.L)

    def _class_diffs(self) -> list[tuple[int, int]]:
        """The axial difference (du, dv) of each pair class, in class order.

        On the torus class r is cell r's difference from cell 0; off it the
        classes are every difference du in (-n_u, n_u), dv in (-n_v, n_v),
        row by row.
        """
        if self.wraparound:
            return [divmod(r, self.n_v) for r in range(self.L)]
        return [(du, dv) for du in range(1 - self.n_u, self.n_u)
                for dv in range(1 - self.n_v, self.n_v)]

    @property
    def _pair_counts(self) -> list[int]:
        """How many (tagged cell, cell) pairs each class holds, in class order."""
        if self.wraparound:
            return [1] * self.L
        return [(self.n_u - abs(du)) * (self.n_v - abs(dv)) for du, dv in self._class_diffs()]

    @functools.cached_property
    def _class_depth(self) -> list[int]:
        """The deepest depth whose coset both cells of a class's pairs share;
        -1 for the class of a cell and itself."""
        return [-1 if du == dv == 0 else
                next((i for i, c in enumerate(_coset_digits(du, dv, self.m - 1)) if c), self.m - 1)
                for du, dv in self._class_diffs()]

    @functools.cached_property
    def _images(self) -> list[tuple[tuple[int, int], ...]]:
        """Each class's candidate minimum images (a, b), nearest first.

        A user's offset has norm at most 1, so its minimum image lies among
        the images of the centre difference within the nearest one's norm +
        2: 3a² + b² within (sqrt(n0) + 4)² of the nearest one's n0.  On the
        torus the images are every lattice point up to a bound q on 3a² + b²,
        by class; q grows until every class's admitted images lie below it.
        """
        if not self.wraparound:
            return [((2 * du + dv, 3 * dv),) for du, dv in self._class_diffs()]
        n_u, n_v = self.n_u, self.n_v
        # a disk of 1.2 times the area of L cells, plus the margin: one pass
        # for the even-m tori, whose translations form a hexagonal lattice
        q = int(4 * (1.2 * math.sqrt(self.L * 1.5 * SQRT3 / math.pi) + 2) ** 2)
        while True:
            found = [[] for _ in range(self.L)]
            for dv in range(-math.isqrt(q // 9), math.isqrt(q // 9) + 1):
                b = 3 * dv
                top = math.isqrt((q - b * b) // 3)  # |a| = |2du + dv| <= top
                for du in range(-((top + dv) // 2), (top - dv) // 2 + 1):
                    a = 2 * du + dv
                    found[du % n_u * n_v + dv % n_v].append((3 * a * a + b * b, a, b))
            if all(found):
                nearest = [min(points)[0] for points in found]
                # (sqrt(n0) + 4)^2 <= n0 + 8 isqrt(n0) + 24
                need = max(n0 + 8 * math.isqrt(n0) + 24 for n0 in nearest)
                if need <= q:
                    break
                q = need
            else:
                q *= 2
        return [tuple((a, b) for n, a, b in sorted(points)
                      if n - n0 - 16 <= 0 or (n - n0 - 16) ** 2 <= 64 * n0)
                for points, n0 in zip(found, nearest)]

    def _class_images(self, cls: int) -> list[tuple[float, float]]:
        """A class's candidate images as (x, y), nearest first."""
        return [(a * _X, b * _Y) for a, b in self._images[cls]]

    @functools.cached_property
    def _class_orbits(self) -> tuple[list[int], list[int]]:
        """The orbit of each class, and a class of each orbit (its first).

        Classes c and c' share an orbit when an element g of the hexagon's
        point group maps the set of c's images onto c''s, so that
        d_c'(g o) = d_c(o) at every user offset o.  Computed, not assumed, as
        the odd-m tori are less symmetric than the hexagon.  The test is
        exact: the 60° rotation is (a, b) -> ((a - b)/2, (3a + b)/2) and the
        reflection b -> -b.  A class's key is the least of its 12 images'
        sorted sets, each image coded (a << 32) + b and padded to the widest
        set; the orbits are numbered in the order of their keys.
        """
        # the codes of every class's images, one list per element of the group
        points = [p for images in self._images for p in images]
        codes = []
        for _ in range(6):
            codes.append([(a << 32) + b for a, b in points])
            codes.append([(a << 32) - b for a, b in points])
            points = [((a - b) // 2, (3 * a + b) // 2) for a, b in points]
        # most classes hold one image, whose key is its least code
        least = list(map(min, *codes))
        width = max(map(len, self._images))
        keys, lo = [], 0
        for images in self._images:
            hi = lo + len(images)
            key = least[lo:hi] if hi - lo == 1 else min(sorted(moved[lo:hi]) for moved in codes)
            keys.append((*key, *(_PAD,) * (width - len(key))))
            lo = hi
        rank = {key: n for n, key in enumerate(sorted(set(keys)))}
        orbit = [rank[key] for key in keys]
        first: dict[int, int] = {}
        for cls, o in enumerate(orbit):
            first.setdefault(o, cls)
        return orbit, [first[o] for o in range(len(rank))]

    def _position_rule(self, order: int) -> tuple[list[tuple[float, float]], list[float]]:
        """`position_rule` as plain lists: offsets (x, y) and weights."""
        if order < 1:
            raise ValueError(f"the quadrature order must be a positive integer, got {order}")
        if self.hole_ratio >= SQRT3 / 2:
            raise ValueError(f"the position quadrature needs hole_ratio < √3/2 = "
                             f"{SQRT3 / 2:.6f}, the inscribed radius; got {self.hole_ratio}")
        x, w = _gauss_legendre(order)
        phi, w_phi = [t * math.pi / 6 for t in x], [t * math.pi / 6 for t in w]
        s, w_s = [(t + 1) / 2 for t in x], [t / 2 for t in w]
        h = self.hole_ratio
        graded = h == 0
        radii, sector = [], []
        for f, wf in zip(phi, w_phi):
            span = (SQRT3 / 2) / math.cos(f) - h
            for t, wt in zip(s, w_s):
                r = h + span * (t * t if graded else t)
                sector.append(wf * wt * 2 * t * span * r if graded else wf * wt * span * r)
                radii.append((f, r))
        nodes = [(r * math.cos(f + k * (math.pi / 3)), r * math.sin(f + k * (math.pi / 3)))
                 for k in range(6) for f, r in radii]
        total = math.fsum(sector * 6)
        return nodes, [t / total for t in sector] * 6

    def _distances(self, cls: int, offsets: list[tuple[float, float]]) -> list[float]:
        """Distances to users at `offsets` across pairs of class `cls`: the
        plain form of `class_distances` for one class."""
        # |image + offset|, as the distance from the negated image; a
        # comprehension takes the least a few times faster than map(min, ...)
        return functools.reduce(lambda best, d: [x if x < y else y for x, y in zip(best, d)],
                                (list(map(math.dist, itertools.repeat((-x, -y)), offsets))
                                 for x, y in self._class_images(cls)))

    # -- arrays derived from the geometry on first use ----------------------

    @functools.cached_property
    def u(self) -> np.ndarray:
        import numpy as np

        return np.arange(self.L) // self.n_v

    @functools.cached_property
    def v(self) -> np.ndarray:
        import numpy as np

        return np.arange(self.L) % self.n_v

    @functools.cached_property
    def centers(self) -> np.ndarray:
        import numpy as np

        return np.column_stack([(2 * self.u + self.v) * _X, 3 * self.v * _Y])

    @functools.cached_property
    def coset(self) -> np.ndarray:
        """Cumulative coset indices of every cell at depths 0..m-1, (L, m).

        Depth-0 is the single root coset; depth i adds c_i * 3^(i-1), c_i
        the cell's depth-i color.
        """
        import numpy as np

        table = np.zeros((self.L, self.m), dtype=np.int64)
        for depth, c in enumerate(_coset_digits(self.u, self.v, self.m - 1), 1):
            table[:, depth] = table[:, depth - 1] + c * 3 ** (depth - 1)
        return table

    @functools.cached_property
    def _diff_key(self) -> np.ndarray:
        # du * span + dv is distinct over du in (-n_u, n_u) and dv in (-n_v, n_v)
        return self.u * (2 * self.n_v - 1) + self.v

    @functools.cached_property
    def _diff(self) -> np.ndarray:
        """The class of each difference of `_diff_key`s (`_pair_class`): a
        negative key indexes from the end of this table of about 4 L entries,
        which spares each pair two int `%`."""
        import numpy as np

        span = 2 * self.n_v - 1
        du = np.arange(1 - self.n_u, self.n_u)[:, None]
        dv = np.arange(1 - self.n_v, self.n_v)
        diff = np.empty((2 * self.n_u - 1) * span, dtype=np.int64)
        if self.wraparound:
            diff[du * span + dv] = du % self.n_u * self.n_v + dv % self.n_v
        else:
            diff[du * span + dv] = np.arange(diff.size).reshape(-1, span)
        return diff

    @functools.cached_property
    def _image_count(self) -> np.ndarray:
        import numpy as np

        return np.array([len(images) for images in self._images], dtype=np.int64)

    @functools.cached_property
    def _image_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Every class's images as (P, C) tables of x and y: column c holds
        class c's images nearest first, padded to P rows by repeating the
        nearest one."""
        import numpy as np

        width = max(map(len, self._images))
        chain = itertools.chain.from_iterable
        # one conversion of the integer images, flat, then as (C, P, 2)
        ab = np.fromiter(chain(chain((*images, *images[:1] * (width - len(images))))
                               for images in self._images),
                         dtype=float, count=2 * width * len(self._images))
        a, b = np.ascontiguousarray(ab.reshape(-1, width, 2).T)
        return a * _X, b * _Y

    @functools.cached_property
    def _orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """`_class_orbits` as arrays: the orbit of each class, and a class of
        each orbit."""
        import numpy as np

        orbit, reps = self._class_orbits
        return np.array(orbit), np.array(reps)

    @functools.cached_property
    def _babai(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The torus's reduced basis as columns, its inverse, and the 3x3
        Babai shifts: the exact closest vector for a reduced 2D basis."""
        import numpy as np

        b1, b2 = _gauss_reduce((2 * self.n_u, 0), (self.n_v, 3 * self.n_v))
        basis = np.array([[b1[0] * _X, b2[0] * _X], [b1[1] * _Y, b2[1] * _Y]])
        shifts = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
        return basis, np.linalg.inv(basis), shifts @ basis.T

    def _pair_class(self, bs, cells) -> np.ndarray:
        """The pair class of each pair (`bs`, `cells`), ints or int arrays
        that broadcast; the one lookup of a pair's class."""
        key = self._diff_key
        return self._diff[key[cells] - key[bs]]

    def pair_orbits(self, bs, cells) -> np.ndarray:
        """The orbit of the pair class of each pair (`bs`, `cells`).

        `bs` and `cells` (ints or int arrays) broadcast as in `user_distances`.
        Pairs of one class see equal user distances (`class_distances`).  The
        hexagon's 12-element point group folds the classes into orbits
        (`_class_orbits`).  Over a position rule that the group maps onto
        itself, the classes of one orbit have equal transforms and moments,
        so a quadrature computes each once per orbit, from its class in
        `orbit_reps`.  The orbits are 0..len(orbit_reps) - 1.
        """
        return self._orbits[0][self._pair_class(bs, cells)]

    @property
    def orbit_reps(self) -> np.ndarray:
        """A pair class of each orbit of `pair_orbits`, indexed by orbit."""
        return self._orbits[1]

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
        import numpy as np

        nodes, weights = self._position_rule(order)
        return np.array(nodes), np.array(weights)

    def shared_depth(self, cells) -> np.ndarray:
        """out[n, j], the deepest depth whose coset cell j shares with cells[n].

        Cosets nest, so j is in cells[n]'s depth-i coset for exactly i <=
        out[n, j]; the (len(cells), L) table holds -1 at cells[n] itself.
        """
        import numpy as np

        return np.array(self._class_depth)[self._pair_class(np.asarray(cells)[:, None],
                                                            np.arange(self.L))]

    # -- distances -----------------------------------------------------------

    def min_image_norms(self, deltas: np.ndarray) -> np.ndarray:
        """Torus norms of difference vectors, shape (n, 2) -> (n,)."""
        import numpy as np

        deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
        if not self.wraparound:
            return np.hypot(deltas[:, 0], deltas[:, 1])
        basis, inv, shifts = self._babai
        residual = deltas - np.rint(deltas @ inv.T) @ basis.T
        cands = residual[:, None, :] - shifts[None, :, :]
        return np.sqrt(np.min(np.einsum("nkc,nkc->nk", cands, cands), axis=1))

    def class_distances(self, classes, offsets) -> np.ndarray:
        """Distances to users at `offsets` across pairs of the `classes`.

        `classes` (`orbit_reps`, say) broadcasts against ``offsets[..., 0]``;
        an offset is a user's position relative to its cell centre, of norm at
        most 1.  Images are padded with the nearest one, so a class with
        fewer than the largest count gains no new candidate.
        """
        import numpy as np

        offsets = np.asarray(offsets, dtype=float)
        ox, oy = offsets[..., 0], offsets[..., 1]
        count = self._image_count[classes]
        # plain indexing, as a numpy scalar's take or max costs microseconds
        image_x, image_y = self._image_xy
        images = ((image_x[p][classes], image_y[p][classes])
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
        return self.class_distances(self._pair_class(bs, cells), offsets)

    # -- user placement ------------------------------------------------------

    def sample_cell_offsets(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform points in the canonical hexagon minus the BS-hole disk, (n, 2).

        Rejection from the bounding rectangle; the acceptance rate is about
        0.73 for hole_ratio 0.14, so the loop terminates quickly.
        """
        import numpy as np

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
