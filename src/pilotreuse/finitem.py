"""Finite-antenna-count spectral efficiency and the finite-M optimum.

With M antennas and an MRC receiver the per-user interference at reuse
depth i is

    I_i(M) = mu3_i + (mu3_i - mu2_i)/M
             + (K*mu0 + 1/rho) * (1 + mu1_i + 1/(N_pil*rho)) / M

built from moments of the distance ratio between a user's own base station
and the contaminated one: mu_jl^(w) = E[(r_own/r_cross)^(gamma*w)].
`mu_stats` computes them exactly, by quadrature over the user's position;
`estimate_mu_stats` is the Monte Carlo oracle that the tests hold it to.
mu3_i is the pilot contamination floor that survives M -> infinity, the /M
terms are the finite-array noise and interference.  The per-cell net rate

    C_net(p, M) = (1 - N_pil/N_coh) * sum_i 3^-i p_i log2(1 + 1/I_i(M))

tends to (1 - N_pil/N_coh) * sum_i 3^-i p_i log2(1 + 1/mu3_i) as M grows.
That limit is not the asymptotic net rate of `optimizer.cnet`: C_i in
`channel` is E[log2(1 + SIR)], the expectation outside the log, while
log2(1 + 1/mu3_i) puts an expectation of power-normalised ratios inside it,
so the two rate definitions differ (at L=27 and gamma 3.7 the limit is
about 2.7/10.8/18.8 bits per depth, against C_i of about 7.1/14.4/21.9).

A MuStats is the model's one source of L = 3^m and gamma.  The finite-M
optimum is Theorem 1's fill (`assignment._fill`) at every pilot length,
then the best length.  C_net is linear in the transition chain at each
length, so the fill is that length's optimum wherever the length's gains
3^-i (R_{i+1} - R_i) do not increase with depth; `optimal_assignment_finite`
states the precondition and why the moments of `mu_stats` meet it.

The moments and the optimum are plain Python floats over `hexgrid`'s exact
geometry, so `finite --sweep table` and `rate-vs-m` load no numpy.  Only the
per-user CDF, which draws user positions, and the Monte Carlo oracle import
it, when they run.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .assignment import (PilotAssignmentVector, _fill, from_transition, pilot_length,
                         realize, valid_pilot_lengths)
from .depths import _require_estimable

if TYPE_CHECKING:
    import numpy as np

    from .hexgrid import HexLattice


def __getattr__(name):
    # `finitem.derive_rng` names `channel.derive_rng`, which perfbench's tracer
    # test reads here; loaded on use, as `channel` imports numpy.  It goes
    # with the benchmark's next change, as `cli.build_lattice` does
    if name == "derive_rng":
        from .channel import derive_rng
        return derive_rng
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Position nodes per axis of a hexagon sector for `mu_stats`: within 3e-8
# relative of order 48 at L = 27, 81 and 243, with and without a hole.
MU_ORDER = 16


@dataclass
class FiniteMConfig:
    M: int
    K: int
    N_coh: int
    rho_db: float = 5.0

    def __post_init__(self):
        if self.M < 1 or self.K < 1 or self.N_coh < 1:
            raise ValueError(f"M, K and N_coh must all be >= 1, got M = {self.M}, "
                             f"K = {self.K}, N_coh = {self.N_coh}")
        # I_i(M) reads both the power and its reciprocal
        try:
            rho = self.rho_linear
        except OverflowError:
            rho = math.inf
        if not (0.0 < rho < math.inf and 1.0 / rho < math.inf):
            raise ValueError(f"rho_db = {self.rho_db} is out of range: 10^(rho_db/10) and "
                             f"its reciprocal must both be finite positive floats")

    @property
    def rho_linear(self) -> float:
        return 10.0 ** (self.rho_db / 10.0)


class _Floats(tuple):
    """A tuple of floats that also answers `tolist`, as the numpy arrays it
    replaced did: perfbench/make_refs.py stores `mu.mu1.tolist()`.  It goes
    with the benchmark's next change, which can read `list(mu.mu1)`."""

    def tolist(self) -> list[float]:
        return list(self)


@dataclass
class MuStats:
    """Aggregated distance-ratio moments for one lattice and decay exponent;
    the per-depth fields are tuples of floats."""

    mu0: float
    mu1: tuple[float, ...]  # (m,) sums over cosharing cells at each depth
    mu2: tuple[float, ...]
    mu3: tuple[float, ...]
    stderr_mu1: tuple[float, ...]
    stderr_mu3: tuple[float, ...]
    gamma: float

    def __post_init__(self):
        self.mu0 = float(self.mu0)
        for name in ("mu1", "mu2", "mu3", "stderr_mu1", "stderr_mu3"):
            setattr(self, name, _Floats(map(float, getattr(self, name))))

    @property
    def m(self) -> int:
        return len(self.mu1)


def _mu_pairs(lattice: HexLattice, gamma: float, trials: int, seed: int,
              bs_idx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell moments E[ratio^gamma], E[ratio^2gamma] seen from one BS (0 at its own)."""
    import numpy as np

    from .channel import CHUNK, DOMAIN_MU, derive_rng

    L = lattice.L
    mean1 = np.zeros(L)
    mean2 = np.zeros(L)
    var1 = np.zeros(L)
    var2 = np.zeros(L)
    for cell in np.flatnonzero(np.arange(L) != bs_idx):
        s1 = s1sq = s2 = s2sq = 0.0
        done = 0
        for chunk_no, start in enumerate(range(0, trials, CHUNK)):
            n = min(CHUNK, trials - start)
            rng = derive_rng(seed, DOMAIN_MU, bs_idx, cell, chunk_no)
            offs = lattice.sample_cell_offsets(n, rng)
            r_own = np.hypot(offs[:, 0], offs[:, 1])
            r_cross = lattice.user_distances(bs_idx, cell, offs)
            ratio_g = (r_own / r_cross) ** gamma
            ratio_2g = ratio_g * ratio_g
            s1 += ratio_g.sum()
            s1sq += (ratio_g ** 2).sum()
            s2 += ratio_2g.sum()
            s2sq += (ratio_2g ** 2).sum()
            done += n
        mean1[cell] = s1 / done
        mean2[cell] = s2 / done
        var1[cell] = max(s1sq - done * mean1[cell] ** 2, 0.0) / max(done - 1, 1)
        var2[cell] = max(s2sq - done * mean2[cell] ** 2, 0.0) / max(done - 1, 1)
    return mean1, mean2, var1 / trials, var2 / trials


def _totals(lattice: HexLattice, gamma: float, pairs: Iterable[tuple]) -> MuStats:
    """The mu statistics from moments by pair class; the one aggregation rule.

    Each of `pairs` is (class, count, E[ratio^gamma], E[ratio^2gamma], and
    their variances): `count` (tagged cell, cell) pairs of that class share
    the moments.  The tagged cell's own pairs count 1 each toward mu0 alone.
    mu1, mu2 and mu3 sum over each depth's cosharing cells, averaged over
    the tagged cells.
    """
    depth, m, n = lattice._class_depth, lattice.m, len(lattice._tagged)
    own = 0
    # per exact shared depth: sums of mean1, mean1^2, mean2, var1 and var2
    parts = [[0.0] * m for _ in range(5)]
    for cls, count, mean1, mean2, var1, var2 in pairs:
        d = depth[cls]
        if d < 0:
            own += count
            continue
        for part, value in zip(parts, (mean1, mean1 * mean1, mean2, var1, var2)):
            part[d] += count * value
    # the sums over depths >= i, for each i
    mean1, square1, mean2, var1, var2 = ([*itertools.accumulate(reversed(part))][::-1]
                                         for part in parts)
    return MuStats(mu0=(own + mean1[0]) / n, mu1=[x / n for x in mean1],
                   mu2=[x / n for x in square1], mu3=[x / n for x in mean2],
                   stderr_mu1=[math.sqrt(x / (n * n)) for x in var1],
                   stderr_mu3=[math.sqrt(x / (n * n)) for x in var2], gamma=gamma)


def _aggregate(lattice: HexLattice, gamma: float, mean1, mean2, var1, var2) -> MuStats:
    """The mu statistics from per-pair moments, by `_totals`.

    Row t of each (len(tagged), L) table holds every cell's E[ratio^gamma]
    and E[ratio^2gamma] seen from the BS of tagged cell t (cell t itself:
    the tagged cells are 0 on the torus and every cell off it), and their
    variances; the tagged cell's own entries are not read.
    """
    import numpy as np

    key = lattice._diff_key
    classes = lattice._diff[key - key[lattice.tagged, None]]
    tables = (np.asarray(x, dtype=float).ravel().tolist() for x in (mean1, mean2, var1, var2))
    return _totals(lattice, gamma, zip(classes.ravel().tolist(), itertools.repeat(1), *tables))


def estimate_mu_stats(lattice: HexLattice, gamma: float = 3.7,
                      trials: int = 100_000, seed: int = 0) -> MuStats:
    """Monte Carlo mu statistics, the tests' oracle for `mu_stats`."""
    _require_estimable(gamma, trials)
    moments = [_mu_pairs(lattice, gamma, trials, seed, t) for t in lattice._tagged]
    return _aggregate(lattice, gamma, *zip(*moments))


def mu_stats(lattice: HexLattice, gamma: float = 3.7) -> MuStats:
    """Exact mu statistics: each cell's moments by `HexLattice.position_rule`.

    The moments depend on a (BS, cell) pair only through the orbit of its
    pair class (`HexLattice.pair_orbits`), so they are computed once per
    orbit, from the distances at the orbit's representative class, and
    summed over the classes with their pair counts.
    """
    _require_estimable(gamma)
    nodes, weights = lattice._position_rule(MU_ORDER)
    # (r_own/d)^gamma w = d^-gamma (r_own^gamma w), and squared likewise
    own = [math.hypot(x, y) ** gamma for x, y in nodes]
    own1 = list(map(operator.mul, own, weights))
    own2 = list(map(operator.mul, own, own1))
    moments = []
    for cls in lattice._class_orbits[1]:
        cross = list(map(pow, lattice._distances(cls, nodes), itertools.repeat(-gamma)))
        moments.append((sum(map(operator.mul, own1, cross)),
                        sum(map(operator.mul, own2, map(operator.mul, cross, cross)))))
    orbit = lattice._class_orbits[0]
    return _totals(lattice, gamma, ((cls, count, *moments[orbit[cls]], 0.0, 0.0)
                                    for cls, count in enumerate(lattice._pair_counts)))


def _interference(M: int, rho_linear: float, N_pil, K_mu0, mu1, mu2, mu3):
    """I_i(M) from the moments, floats or broadcasting arrays alike; the one
    definition of I_i(M).

    The expected moments of a MuStats and one trial's realized moments (the
    per-user CDF) both go through here.
    """
    lead = (K_mu0 + 1.0 / rho_linear) * (1.0 + mu1 + 1.0 / (N_pil * rho_linear))
    return mu3 + (mu3 - mu2) / M + lead / M


def _depth_rates(M: int, K: int, rho_linear: float, N_pil: Sequence[int],
                 mu: MuStats) -> list[list[float]]:
    """log2(1 + 1/I_i(M)) for every pilot length in N_pil, one list per length
    over the depths i."""
    K_mu0 = K * mu.mu0
    return [[math.log2(1.0 + 1.0 / _interference(M, rho_linear, n, K_mu0, *moments))
             for moments in zip(mu.mu1, mu.mu2, mu.mu3)] for n in N_pil]


def interference(i: int, M: int, K: int, rho_linear: float, N_pil: int,
                 mu: MuStats) -> float:
    """I_i(M) at one depth, with its inputs checked; perfbench/make_refs.py reads it."""
    if M < 1 or rho_linear <= 0 or N_pil < 1:
        raise ValueError("need M >= 1, rho_linear > 0, N_pil >= 1")
    return _interference(M, rho_linear, N_pil, K * mu.mu0, mu.mu1[i], mu.mu2[i], mu.mu3[i])


def _require_fit(p: PilotAssignmentVector, cfg: FiniteMConfig) -> int:
    """p's pilot length, once p serves cfg's K users and its pilots fit N_coh."""
    N_pil = pilot_length(p)
    if p.K != cfg.K or N_pil > cfg.N_coh:
        raise ValueError(f"p = {p.dashed()} (K = {p.K}, pilot length {N_pil}) does not "
                         f"fit cfg (K = {cfg.K}, N_coh = {cfg.N_coh})")
    return N_pil


def cnet_finite(p: PilotAssignmentVector, cfg: FiniteMConfig, mu: MuStats) -> float:
    """Per-cell net throughput C_net(p, M) of an assignment with M antennas."""
    if p.m != mu.m:
        raise ValueError(f"p = {p.dashed()} is for L = {p.L}, mu for L = {3**mu.m}")
    N_pil = _require_fit(p, cfg)
    prefactor = 1.0 - N_pil / cfg.N_coh
    rates = _depth_rates(cfg.M, cfg.K, cfg.rho_linear, [N_pil], mu)[0]
    total = 0.0
    for i, rate in enumerate(rates):
        total += p[i] / 3**i * rate
    return prefactor * float(total)


def optimal_assignment_finite(cfg: FiniteMConfig, mu: MuStats) -> PilotAssignmentVector:
    """Argmax of C_net(p, M) over every p that fits N_coh; ties go to the longest.

    At pilot length N_pil = K + 2S, C_sum = K R_0 + sum_i t_i g_i over chains
    t with S acts, with gains g_i = 3^-i (R_{i+1} - R_i) at that length.
    Where the g_i do not increase with i, of any sign, Abel summation writes
    C_sum as K R_0 + S g_{m-2} plus sum_j (g_j - g_{j+1}) (t_0 + ... + t_j),
    which Theorem 1's fill (`assignment._fill`) maximizes term by term.  So
    the optimum is the fill at every length, then the best length; among
    equal values the longest wins, whose vector is lexicographically smallest,
    as the first argmax over `enumerate_assignments` would pick.

    The precondition is not checked.  A scan of 29 018 736 per-length gain
    vectors of `mu_stats` moments (L = 9 to 729, torus and plane, hole ratio
    0 to 0.85, gamma 2.01 to 20, M = 1 to 10^9, rho -40 to 40 dB) found gains
    rising in 14, all at rho <= -35 dB and by about 4e-18, rounding in I_i;
    at those 48 configurations an exact search over every chain returned
    the fill's vectors.  A strict float check would refuse them for nothing.
    """
    K, m = cfg.K, mu.m
    top = min(cfg.N_coh, valid_pilot_lengths(3**m, K)[-1])
    if top < K:
        raise ValueError(f"no assignment fits N_pil <= N_coh = {cfg.N_coh}")
    lengths = range(K, top + 1, 2)
    best, best_chain = None, None
    for acts, (N_pil, R) in enumerate(zip(lengths, _depth_rates(cfg.M, K, cfg.rho_linear,
                                                                 lengths, mu))):
        chain = _fill(K, m, acts)
        csum = 0.0
        for i, t in enumerate(chain):
            csum += t * ((R[i + 1] - R[i]) * 3.0**-i)
        value = (1.0 - N_pil / cfg.N_coh) * (K * R[0] + csum)
        if best is None or value >= best:
            best, best_chain = value, chain
    return from_transition(K, best_chain)


def per_user_rate_cdf(p: PilotAssignmentVector, cfg: FiniteMConfig,
                      lattice: HexLattice, gamma: float = 3.7, *, trials: int,
                      seed: int = 0) -> np.ndarray:
    """Sorted per-user net rates with positions substituted into I_i.

    Each trial places every user uniformly in its cell and replaces the mu
    expectations by that trial's realized distance ratios (with exponent
    gamma), so the sample spreads over user geometry rather than averaging it.
    """
    import numpy as np

    from .channel import DOMAIN_CDF, derive_rng

    if trials < 1:
        raise ValueError(f"CDF trials must be >= 1, got {trials}")
    _require_estimable(gamma)
    N_pil = _require_fit(p, cfg)
    L, K, M = lattice.L, cfg.K, cfg.M
    rho = cfg.rho_linear
    prefactor = 1.0 - N_pil / cfg.N_coh
    cells = np.arange(L)
    pilots = realize(p, lattice)
    # user k of BS j is contaminated by user k of every other cell on its
    # pilot; pilots of different users are disjoint in a realization
    share = pilots[None, :, :] == pilots[:, None, :]  # (BS, cell, user)
    share[cells, cells] = False
    # blocks of trials keep the (trial, BS, cell, user) arrays near 2^13
    # entries; a trial above 2^20 entries splits its base stations instead
    trial_block = max(1, (1 << 13) // (L * L * K))
    bs_block = max(1, (1 << 20) // (L * K))
    out = np.empty((trials, L, K))
    for first in range(0, trials, trial_block):
        ts = range(first, min(first + trial_block, trials))
        offs = np.stack([lattice.sample_cell_offsets(L * K, derive_rng(seed, DOMAIN_CDF, t))
                         for t in ts]).reshape(len(ts), 1, L, K, 2)
        r_own = np.hypot(offs[..., 0], offs[..., 1])  # (T, 1, L, K)
        for start in range(0, L, bs_block):
            bs = cells[start:start + bs_block]
            # realized ratio of every user seen from every BS in the block
            r_cross = lattice.user_distances(bs[:, None, None], cells[None, :, None], offs)
            # in place, one (T, B, L, K) array: ratio, then its shared part
            ratio = np.divide(r_own, r_cross, out=r_cross)
            ratio **= gamma
            mu0K_real = ratio.sum(axis=(2, 3))[..., None]
            rr = np.multiply(ratio, share[start:start + bs_block], out=ratio)
            mu1_real = rr.sum(axis=2)  # (T, B, K)
            rr *= rr
            mu3_real = rr.sum(axis=2)
            # conditioned on positions the mu3 - mu2 variance term is zero
            I = _interference(M, rho, N_pil, mu0K_real, mu1_real, mu3_real, mu3_real)
            out[ts.start:ts.stop, start:start + bs_block] = prefactor * np.log2(1.0 + 1.0 / I)
    return np.sort(out, axis=None)


def _m_grid(M_over_K: int, M_values: Sequence[int], N_coh: int,
            rho_db: float) -> list[FiniteMConfig]:
    """`throughput_vs_m_sweep`'s configurations, checked without the moments."""
    if M_over_K < 1:
        raise ValueError(f"M/K must be >= 1, got {M_over_K}")
    if len(M_values) == 0:
        raise ValueError("the M grid is empty")
    cfgs = []
    for M in M_values:
        if M % M_over_K:
            raise ValueError(f"M={M} is not a multiple of M/K={M_over_K}")
        K = M // M_over_K
        if N_coh >= K:
            cfgs.append(FiniteMConfig(M=M, K=K, N_coh=N_coh, rho_db=rho_db))
    if not cfgs:
        raise ValueError(f"no grid point fits N_coh = {N_coh}: every K exceeds it")
    return cfgs


def throughput_vs_m_sweep(mu: MuStats, M_over_K: int, M_values: Sequence[int],
                          N_coh: int, rho_db: float = 5.0
                          ) -> list[tuple[int, int, PilotAssignmentVector, float]]:
    """(M, K, p, C_net) of the optimum p along an M grid at a fixed M/K ratio.

    Grid points with more users than the coherence interval has symbols
    (N_coh < K) fit no assignment and are skipped; none fitting is an error.
    """
    out = []
    for cfg in _m_grid(M_over_K, M_values, N_coh, rho_db):
        p = optimal_assignment_finite(cfg, mu)
        out.append((cfg.M, cfg.K, p, cnet_finite(p, cfg, mu)))
    return out
