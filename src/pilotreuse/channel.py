"""The per-depth asymptotic rates C_i, exactly by quadrature.

With an unbounded antenna array the uplink rate of a user contaminated by
pilot-sharing users in other cells is log2(1 + beta_jj^2 / sum_l beta_jl^2),
where beta = (1/distance)^gamma is the slow-fading coefficient.  C_i is the
mean of that rate when the pilot is shared only within one depth-i coset:
one interfering user per cosharing cell, everyone placed uniformly in their
cell.  Distances are in units of the cell radius, so the profile does not
depend on the physical radius at all.

`rate_profile` computes C_i by Hamdi's lemma (K. A. Hamdi, IEEE Trans.
Commun. 58(2), 2010): for independent X, Y >= 0,
E[ln(1 + X/Y)] = integral over z > 0 of (1/z)(1 - M_X(z)) M_Y(z), with
M(z) = E[exp(-z P)] the Laplace transform of a received power P.  Y sums
independent per-cell powers, so M_Y is a product of per-cell transforms,
each a quadrature over one user's position (`HexLattice.position_rule`).
`laplace_tables` tabulates them once per lattice, and `expected_rate` is
the one formula over them: any probabilities that each other cell's user
shares the tagged user's pilot.

`estimate_rate_profile` is the Monte Carlo oracle that the tests hold the
exact profile to.  Cosets nest, so one draw of the tagged user and one user
per other cell serves every depth.  Trials are split into fixed-size chunks
drawn from ``derive_rng(seed, DOMAIN_RATES, tagged_cell, chunk)``, so results
are bit-identical no matter how many workers of its one thread pool process
the chunks.  `derive_rng` is defined in `depths`, so that `finitem` imports
it without loading numpy; the domain tags of its substreams are here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# RateProfile and synthetic_linear_profile are defined in `depths`, which
# the numpy-free exact layer reads; they stay importable from here
from .depths import RateProfile, synthetic_linear_profile  # noqa: F401
from .depths import _require_estimable, derive_rng
from .hexgrid import HexLattice

# Fixed chunking of Monte Carlo trials; part of the determinism contract.
CHUNK = 16384

# Domain tags for derive_rng, keeping independent parts of the library on
# non-colliding substreams of one master seed.
DOMAIN_RATES = 0
DOMAIN_MU = 1
DOMAIN_CDF = 2
DOMAIN_RANDOM_ASSIGN = 3


@dataclass
class ChannelConfig:
    lattice: HexLattice
    gamma: float = 3.7
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        _require_estimable(self.gamma, self.trials)


def _sir_chunk(lattice: HexLattice, gamma: float, tagged_idx: int,
               n: int, rng: np.random.Generator) -> np.ndarray:
    """n SIR draws of the tagged user at every depth, shape (m, n).

    A cell's term goes to part[s], s the deepest depth whose coset it shares
    with the tagged cell; depth i's interference sums the parts s >= i.
    """
    shared = lattice.shared_depth([tagged_idx])[0]
    own = lattice.sample_cell_offsets(n, rng)
    num = (own[:, 0] ** 2 + own[:, 1] ** 2) ** (-gamma)
    part = np.zeros((lattice.m, n))
    for cell_idx in np.flatnonzero(shared >= 0):
        offs = lattice.sample_cell_offsets(n, rng)
        r = lattice.user_distances(tagged_idx, cell_idx, offs)
        part[shared[cell_idx]] += r ** (-2.0 * gamma)
    return num / np.cumsum(part[::-1], axis=0)[::-1]


def _accumulate(task):
    vals = np.log2(1.0 + _sir_chunk(*task))
    return vals.sum(axis=1), (vals * vals).sum(axis=1)


def estimate_rate_profile(lattice: HexLattice, cfg: ChannelConfig,
                          threads: int = 1) -> RateProfile:
    """C_i = mean of log2(1+SIR) over cfg.trials draws, shared by every depth.

    The trials are divided evenly over the lattice's tagged cells
    (`HexLattice.tagged`), max(1, trials // len(tagged)) each, and the
    profile records the draws made.  A cfg built for a lattice of another
    size or geometry is refused.
    """
    # imported on the call, as the exact profile of `rates` runs no pool
    from concurrent.futures import ThreadPoolExecutor

    _require_estimable(cfg.gamma, cfg.trials, threads)
    given, configured = ((lat.L, lat.hole_ratio, lat.wraparound)
                         for lat in (lattice, cfg.lattice))
    if given != configured:
        raise ValueError(f"lattice (L, hole_ratio, wraparound) = {given} differs "
                         f"from cfg.lattice's {configured}")
    n_cell = max(1, cfg.trials // len(lattice.tagged))
    tasks = []
    for tagged_idx in lattice.tagged:
        for chunk_no, start in enumerate(range(0, n_cell, CHUNK)):
            n = min(CHUNK, n_cell - start)
            rng = derive_rng(cfg.seed, DOMAIN_RATES, tagged_idx, chunk_no)
            tasks.append((lattice, cfg.gamma, tagged_idx, n, rng))

    # results are in task order whatever the thread count
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(_accumulate, tasks))
    sums, sumsqs = np.sum(results, axis=0)
    ns = float(n_cell * len(lattice.tagged))
    C = sums / ns
    var = np.maximum(sumsqs - ns * C * C, 0.0) / np.maximum(ns - 1.0, 1.0)
    stderr = np.sqrt(var / ns)
    return RateProfile(C=C, stderr=stderr, source="monte-carlo",
                       gamma=cfg.gamma, trials=int(ns), seed=cfg.seed,
                       hole_ratio=lattice.hole_ratio, wraparound=lattice.wraparound)


# The exact evaluator's quadrature: _ORDER x _ORDER position nodes per hexagon
# sector and a step of _DU in u = ln z keep it within about 1e-8 relative of a
# finer rule at L = 81.  The grid stops where the integrand's tail beyond it
# is below about e^-_TAIL; z P outside [_UNIT, _NULL] gives exp(-z P) of
# exactly 1 or 0.
_ORDER = 8
_DU = 0.25
_TAIL = 20.0
_UNIT = 1e-18
_NULL = 746.0


@dataclass(frozen=True)
class LaplaceTables:
    """Laplace transforms of one lattice's received powers on a grid in u = ln z.

    ``own[k]`` is M_X(e^u_k) for the tagged user's own power X = r^(-2 gamma),
    and ``cross[o, k]`` is M_o(e^u_k) for the power d^(-2 gamma) that reaches
    the BS from a user of the other cell of a pair in orbit o, one row per
    orbit (see `HexLattice.pair_orbits`).
    """

    lattice: HexLattice
    du: float
    own: np.ndarray
    cross: np.ndarray


def _transforms(u: np.ndarray, log_power: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """M(e^u) = sum_n weights[n] exp(-e^u P_n) for each row of ln P, (rows, len(u)).

    Each row is exponentiated only over the columns where some z P_n lies in
    [_UNIT, _NULL]; below them M is 1 and above them 0, exactly in doubles.
    """
    z = np.exp(u)
    out = np.empty((len(log_power), len(u)))
    lo = np.searchsorted(u, math.log(_UNIT) - log_power.max(axis=1))
    hi = np.searchsorted(u, math.log(_NULL) - log_power.min(axis=1))
    work = np.empty((len(z), len(weights)))
    for row, (a, b) in enumerate(zip(lo, hi)):
        out[row, :a] = 1.0
        out[row, b:] = 0.0
        block = work[:b - a]
        np.multiply(z[a:b, None], -np.exp(log_power[row]), out=block)
        np.exp(block, out=block)
        out[row, a:b] = block @ weights
    return out


def laplace_tables(lattice: HexLattice, gamma: float) -> LaplaceTables:
    """Tabulate M_X and M_o for one lattice and gamma, once per orbit o of pair classes.

    The grid in u = ln z steps _DU.  It runs from -ln E[X] - _TAIL, below which
    1 - M_X(z) <= z E[X] bounds the integral's tail by e^-_TAIL, to
    ln(_TAIL / P_min), above which every M_c(z) <= exp(-z P_min) bounds it
    by L e^-_TAIL / _TAIL.  Memory stays at one (grid, nodes) work array.
    """
    _require_estimable(gamma)
    du = _DU
    nodes, weights = lattice.position_rule(_ORDER)
    log_own = -gamma * np.log(nodes[:, 0] ** 2 + nodes[:, 1] ** 2)
    log_cross = -2.0 * gamma * np.log(lattice.class_distances(lattice.orbit_reps[:, None],
                                                              nodes))
    u = np.arange(-math.log(weights @ np.exp(log_own)) - _TAIL,
                  math.log(_TAIL) - log_cross.min() + du, du)
    return LaplaceTables(lattice=lattice, du=du, own=_transforms(u, log_own[None], weights)[0],
                         cross=_transforms(u, log_cross, weights))


def expected_rate(tables: LaplaceTables, tagged, weights) -> np.ndarray:
    """E[log2(1 + X/Y); Y > 0] of a user in each `tagged` cell, in bits.

    Y sums the powers at the tagged BS from the other cells' users on the
    tagged user's pilot: cell j has one with probability ``weights[..., j]``,
    independently of the others, at a uniform position.  Hamdi's lemma with
    P(Y = 0) = prod_j (1 - w_j) taken out, so that a user with no interferer
    is credited 0, gives

        (1/ln 2) sum_k du (1 - M_X) [prod_j (1 - w_j + w_j M_j) - prod_j (1 - w_j)]

    on the grid.  `tagged` holds cell indices and `weights` has shape
    ``tagged.shape + (L,)``, each in [0, 1] and 0 on the tagged cell.
    """
    L = tables.lattice.L
    tagged = np.asarray(tagged)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != tagged.shape + (L,):
        raise ValueError(f"weights of shape {weights.shape} do not match "
                         f"tagged cells of shape {tagged.shape} and L = {L}")
    if not ((weights >= 0) & (weights <= 1)).all():
        raise ValueError("weights must lie in [0, 1]")
    rows, cells = weights.reshape(-1, L), tagged.ravel()
    if rows[np.arange(len(cells)), cells].any():
        raise ValueError("a tagged cell's own weight must be 0")
    gain = 1.0 - tables.own
    out = np.empty(len(cells))
    for n, (t, w) in enumerate(zip(cells, rows)):
        held = np.flatnonzero(w)
        p = w[held, None]
        factors = tables.cross[tables.lattice.pair_orbits(t, held)]
        factors *= p
        factors += 1.0 - p
        out[n] = gain @ (np.prod(factors, axis=0) - np.prod(1.0 - p))
    return out.reshape(tagged.shape) * (tables.du / math.log(2.0))


def rate_profile(lattice: HexLattice, gamma: float) -> RateProfile:
    """C_i exactly: `expected_rate` with weight 1 on the depth-i coset.

    C_i is the mean over the lattice's tagged cells (`HexLattice.tagged`).
    """
    tables = laplace_tables(lattice, gamma)
    depth = lattice.shared_depth(lattice.tagged)
    C = np.array([expected_rate(tables, lattice.tagged, depth >= i).mean()
                  for i in range(lattice.m)])
    return RateProfile(C=C, stderr=np.zeros(lattice.m), source="quadrature",
                       gamma=gamma, hole_ratio=lattice.hole_ratio,
                       wraparound=lattice.wraparound)
