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
optimum is exact for every L and K, with no enumeration cap: it searches
transition chains, on which C_net is linear at each pilot length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import (PilotAssignmentVector, from_transition, pilot_length,
                         realize)
from .channel import CHUNK, DOMAIN_CDF, DOMAIN_MU, _require_estimable, derive_rng
from .hexgrid import HexLattice

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
            raise ValueError("M, K and N_coh must all be >= 1")

    @property
    def rho_linear(self) -> float:
        return 10.0 ** (self.rho_db / 10.0)


@dataclass
class MuStats:
    """Aggregated distance-ratio moments for one lattice and decay exponent."""

    mu0: float
    mu1: np.ndarray  # (m,) sums over cosharing cells at each depth
    mu2: np.ndarray
    mu3: np.ndarray
    stderr_mu1: np.ndarray
    stderr_mu3: np.ndarray
    gamma: float

    @property
    def m(self) -> int:
        return len(self.mu1)


def _mu_pairs(lattice: HexLattice, gamma: float, trials: int, seed: int,
              bs_idx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell moments E[ratio^gamma], E[ratio^2gamma] seen from one BS (0 at its own)."""
    L = lattice.L
    mean1 = np.zeros(L)
    mean2 = np.zeros(L)
    var1 = np.zeros(L)
    var2 = np.zeros(L)
    for cell in lattice.cosharing_indices(bs_idx, 0):
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


def _aggregate(lattice: HexLattice, gamma: float, mean1, mean2, var1, var2) -> MuStats:
    """The mu statistics from per-cell moments; the one aggregation rule.

    Row n of each (len(tagged), L) array holds every cell's E[ratio^gamma]
    and E[ratio^2gamma] seen from the BS of tagged cell n, and their
    variances; the tagged cell's own moments are taken as 1.  mu1, mu2 and
    mu3 sum over each depth's cosharing cells, averaged over `tagged`.
    """
    depth = lattice.shared_depth(lattice.tagged)
    n = len(depth)
    mean1, mean2 = (np.where(depth < 0, 1.0, mean) for mean in (mean1, mean2))
    shares = [depth >= i for i in range(lattice.m)]

    def total(values, scale):
        return np.array([values[share].sum() / scale for share in shares])

    return MuStats(mu0=float(mean1.sum() / n), mu1=total(mean1, n),
                   mu2=total(mean1 ** 2, n), mu3=total(mean2, n),
                   stderr_mu1=np.sqrt(total(var1, n * n)),
                   stderr_mu3=np.sqrt(total(var2, n * n)), gamma=gamma)


def estimate_mu_stats(lattice: HexLattice, gamma: float = 3.7,
                      trials: int = 100_000, seed: int = 0) -> MuStats:
    """Monte Carlo mu statistics, the tests' oracle for `mu_stats`."""
    _require_estimable(gamma, trials)
    moments = [_mu_pairs(lattice, gamma, trials, seed, t) for t in lattice.tagged]
    return _aggregate(lattice, gamma, *map(np.array, zip(*moments)))


def mu_stats(lattice: HexLattice, gamma: float = 3.7) -> MuStats:
    """Exact mu statistics: each cell's moments by `HexLattice.position_rule`.

    The moments depend on a (BS, cell) pair only through its pair class
    (`HexLattice.pair_classes`), so they are computed once per class, from
    `HexLattice.class_distances`.
    """
    _require_estimable(gamma)
    nodes, weights = lattice.position_rule(MU_ORDER)
    classes = lattice.pair_classes()[lattice.tagged]
    ratio = lattice.class_distances(np.arange(classes.max() + 1)[:, None], nodes)
    np.divide(np.hypot(nodes[:, 0], nodes[:, 1]), ratio, out=ratio)
    ratio **= gamma
    moment1 = ratio @ weights
    ratio *= ratio
    moment2 = ratio @ weights
    exact = np.zeros(classes.shape)  # the variance of an exact mean
    return _aggregate(lattice, gamma, moment1[classes], moment2[classes], exact, exact)


def _interference(M: int, rho_linear: float, N_pil, K_mu0, mu1, mu2, mu3) -> np.ndarray:
    """I_i(M) from the moments, all broadcasting; the one definition of I_i(M).

    The expected moments of a MuStats and one trial's realized moments (the
    per-user CDF) both go through here.
    """
    lead = (K_mu0 + 1.0 / rho_linear) * (1.0 + mu1 + 1.0 / (N_pil * rho_linear))
    return mu3 + (mu3 - mu2) / M + lead / M


def _depth_rates(M: int, K: int, rho_linear: float, N_pil, mu: MuStats) -> np.ndarray:
    """log2(1 + 1/I_i(M)) for every depth i (last axis) and pilot length in N_pil."""
    n = np.asarray(N_pil, dtype=float)[..., None]
    I = _interference(M, rho_linear, n, K * mu.mu0, mu.mu1, mu.mu2, mu.mu3)
    return np.log2(1.0 + 1.0 / I)


def interference(i: int, M: int, K: int, rho_linear: float, N_pil: int,
                 mu: MuStats) -> float:
    """I_i(M) at one depth, with its inputs checked; perfbench/make_refs.py reads it."""
    if M < 1 or rho_linear <= 0 or N_pil < 1:
        raise ValueError("need M >= 1, rho_linear > 0, N_pil >= 1")
    return float(_interference(M, rho_linear, N_pil, K * mu.mu0,
                               mu.mu1, mu.mu2, mu.mu3)[i])


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
    rates = _depth_rates(cfg.M, cfg.K, cfg.rho_linear, N_pil, mu)
    weights = np.array([p[i] / 3**i for i in range(p.m)])
    return prefactor * float(weights @ rates)


def optimal_assignment_finite(cfg: FiniteMConfig, mu: MuStats) -> PilotAssignmentVector:
    """Exact argmax of C_net(p, M); ties go to the lexicographically smallest p.

    At pilot length N_pil = K + 2S, C_sum = K R_0 + sum_i t_i 3^-i (R_{i+1} - R_i)
    over chains t with S acts.  Chains over t_0..t_{m-4} are enumerated; the
    r acts left split as t_{m-3} in [ceil(r/4), min(3 t_{m-4}, r)] (cap K when
    m = 3) and t_{m-2} = r - t_{m-3}, linearly, so an endpoint is optimal.
    """
    K, m = cfg.K, mu.m
    top = min(cfg.N_coh, 3 ** (m - 1) * K)  # L K / 3
    if top < K:
        raise ValueError(f"no assignment fits N_pil <= N_coh = {cfg.N_coh}")
    acts = np.arange((top - K) // 2 + 1)
    rates = _depth_rates(cfg.M, K, cfg.rho_linear, K + 2 * acts, mu)  # (S, m)
    gains = np.diff(rates, axis=1) * 3.0 ** -np.arange(m - 1)
    if m == 2:
        chains = acts[:, None]  # the one act count t_0 = S <= K
        best = acts * gains[:, 0]
    else:
        # prefixes t_0..t_{m-4} that fit the longest length, in descending
        # lexicographic order (a smaller p is a larger t), with the cap on
        # t_{m-3}; m = 3 has the one empty prefix, capped at K
        prefix = np.zeros((1, 0), dtype=np.int64)
        cap = np.array([K])
        for _ in range(m - 3):
            reps = cap + 1
            nxt = np.repeat(np.cumsum(reps) - 1, reps) - np.arange(reps.sum())
            prefix = np.column_stack([np.repeat(prefix, reps, axis=0), nxt])
            keep = prefix.sum(axis=1) <= acts[-1]
            prefix, cap = prefix[keep], 3 * nxt[keep]
        best = np.full(len(acts), -np.inf)
        chains = np.zeros((len(acts), m - 1), dtype=np.int64)
        cols = np.arange(len(acts))
        # blocks of prefixes keep the (prefix, S) arrays near 2^20 entries
        block = max(1, (1 << 20) // len(acts))
        for start in range(0, len(prefix), block):
            pre, c = prefix[start:start + block], cap[start:start + block, None]
            r = acts - pre.sum(axis=1)[:, None]  # acts left for the last two depths
            least = (r + 3) // 4
            x = np.stack([np.minimum(c, r), least], axis=1)  # larger endpoint first
            val = ((pre @ gains[:, : m - 3].T)[:, None]
                   + x * gains[:, m - 3] + (r[:, None] - x) * gains[:, m - 2])
            ok = (r >= 0) & (least <= c)
            val = np.where(ok[:, None], val, -np.inf).reshape(-1, len(acts))
            j = np.argmax(val, axis=0)  # first = lexicographically largest chain
            v = val[j, cols]
            won = v > best
            k, e, s = j[won] // 2, j[won] % 2, cols[won]
            chains[won] = np.column_stack([pre[k], x[k, e, s], r[k, s] - x[k, e, s]])
            best[won] = v[won]
    values = (1.0 - (K + 2 * acts) / cfg.N_coh) * (K * rates[:, 0] + best)
    tied = chains[values == values.max()]
    t = tied[np.lexsort(tied.T[::-1])[-1]]
    return from_transition(K, t)


def per_user_rate_cdf(p: PilotAssignmentVector, cfg: FiniteMConfig,
                      lattice: HexLattice, gamma: float = 3.7, trials: int = 200,
                      seed: int = 0) -> np.ndarray:
    """Sorted per-user net rates with positions substituted into I_i.

    Each trial places every user uniformly in its cell and replaces the mu
    expectations by that trial's realized distance ratios (with exponent
    gamma), so the sample spreads over user geometry rather than averaging it.
    """
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


def throughput_vs_m_sweep(mu: MuStats, M_over_K: int, M_values: Sequence[int],
                          N_coh: int, rho_db: float = 5.0
                          ) -> list[tuple[int, int, PilotAssignmentVector, float]]:
    """(M, K, p, C_net) of the optimum p along an M grid at a fixed M/K ratio.

    Grid points with more users than the coherence interval has symbols
    (N_coh < K) fit no assignment and are skipped; none fitting is an error.
    """
    if M_over_K < 1:
        raise ValueError(f"M/K must be >= 1, got {M_over_K}")
    if len(M_values) == 0:
        raise ValueError("the M grid is empty")
    out = []
    for M in M_values:
        if M % M_over_K:
            raise ValueError(f"M={M} is not a multiple of M/K={M_over_K}")
        K = M // M_over_K
        if N_coh < K:
            continue
        cfg = FiniteMConfig(M=M, K=K, N_coh=N_coh, rho_db=rho_db)
        p = optimal_assignment_finite(cfg, mu)
        out.append((M, K, p, cnet_finite(p, cfg, mu)))
    if not out:
        raise ValueError(f"no grid point fits N_coh = {N_coh}: every K exceeds it")
    return out
