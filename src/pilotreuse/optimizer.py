"""Closed-form optimal pilot assignment, its breakpoints, and oracles.

The per-cell sum rate of an assignment is C_sum(p) = sum_i 3^-i p_i C_i and
the net rate discounts the pilot overhead: C_net = (N_coh - N_pil)/N_coh *
C_sum.  For a fixed pilot length the C_sum-optimal vector has a closed form
with at most two adjacent nonzero entries; as the coherence interval grows
the optimal pilot length steps up by 2 at breakpoints Delta_n given in
closed form by the measured rates.  Both closed forms hold where C_0 and
the gains g_i = 3^-i (C_{i+1} - C_i) are positive and the gains
nonincreasing; `breakpoints` refuses a profile outside that.  Every closed
form here reads Theorem 1's fill (`assignment._fill`) and Lemma 1's length
range (`assignment.valid_pilot_lengths`): `optimal_for_length` converts the
fill, `breakpoints` crosses the net-rate lines of the fills at consecutive
lengths (their C_sum is `assignment._fill_value`), and `corollary_step`
moves the fill's shallowest leaf.

The brute-force oracle evaluates objectives exactly, in integers: floats
are dyadic rationals, so Fraction(C_i) is lossless, and the weights
3^-i C_i times the lcm of their denominators are ints, so the oracle ranks
integer-scaled C_sum values.  That makes argmax ties exact instead of
rounding accidents, and the lexicographically smallest tie winner then
provably agrees with the closed form's half-open regime convention at
integer-valued breakpoints.

One exhaustive pass per (L, K, rates) answers every N_p0 and N_coh query: at
pilot length S, C_net = (N_coh - S)/N_coh * C_sum, so the pass keeps each
length's exact max and min of C_sum and its first vector.  A query takes the
max where the factor is positive, the min where it is negative and the first
vector where it is 0, so the oracle stays exact for any rates, signed or not.
The oracle refuses a profile whose depth count is not log3(L).

The random-assignment baseline is exact: `random_sum_rate` evaluates
`channel.expected_rate` with every other cell holding the tagged user's
pilot with probability K/N_pil.  Its Monte Carlo oracle,
`random_mean_sum_rate`, which no command calls, draws pilots and user
positions per trial.  They and `random_assignment` import numpy, and
`channel`, when they run, so the closed forms and the oracle load no
numeric code.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Iterable, Optional

from .assignment import (PilotAssignmentVector, _fill, _fill_value, _require_users,
                         count_assignments, enumerate_assignments, from_transition,
                         pilot_length, valid_pilot_lengths)
from .depths import RateProfile, _require_estimable, exponent_of_three

if TYPE_CHECKING:
    import numpy as np

    from .channel import LaplaceTables
    from .hexgrid import HexLattice

BRUTE_FORCE_CAP = 10**7


def _integers(values: list[Fraction]) -> list[int]:
    """`values` times the lcm of their denominators, as ints: one positive
    scale, so every order, tie and ratio among them holds exactly."""
    scale = lcm(*(v.denominator for v in values))
    return [int(v * scale) for v in values]


def _require_depths(rates: RateProfile, m: int):
    """A profile holds one rate per depth, m = log3(L) of them."""
    if rates.m != m:
        raise ValueError(f"profile has {rates.m} depths, lattice needs {m}")


def csum(p: PilotAssignmentVector, rates: RateProfile) -> float:
    """Per-cell sum rate, sum_i 3^-i p_i C_i."""
    _require_depths(rates, p.m)
    return float(sum(p[i] * rates.C[i] / 3**i for i in range(p.m)))


def cnet(p: PilotAssignmentVector, rates: RateProfile, N_coh: int) -> float:
    """Net rate (N_coh - N_pil)/N_coh * C_sum; negative when p is infeasible."""
    if N_coh < 1:
        raise ValueError("N_coh must be >= 1")
    return (N_coh - pilot_length(p)) / N_coh * csum(p, rates)


def optimal_for_length(L: int, K: int, N_p0: int) -> PilotAssignmentVector:
    """The C_sum-optimal vector of pilot length N_p0 (closed form).

    Its (N_p0 - K)/2 partitioning acts fill the chain top-down
    (`assignment._fill`), so the leaves concentrate on two adjacent depths:
    the first depth the fill leaves short and the next (Theorem 1).  It is
    optimal under the gain hypothesis that `breakpoints` states and enforces.
    """
    if N_p0 not in valid_pilot_lengths(L, K):
        raise ValueError(f"N_p0={N_p0} is not a valid pilot length for L={L}, K={K}")
    return from_transition(K, _fill(K, exponent_of_three(L), (N_p0 - K) // 2))


def corollary_step(p_star: PilotAssignmentVector) -> PilotAssignmentVector:
    """Step from the optimum of length N_p0 = pilot_length(p_star) to the
    length-(N_p0+2) one.

    Tosses 1 leaf from p_star's shallowest leaf depth and adds 3 at the next
    depth, trading the most contaminated leaf for three deeper ones.
    """
    N_p0 = pilot_length(p_star)
    if N_p0 + 2 not in valid_pilot_lengths(p_star.L, p_star.K):
        raise ValueError(f"no optimal vector beyond the maximum length {N_p0}")
    x = next(i for i, leaves in enumerate(p_star.p) if leaves)
    p = list(p_star.p)
    p[x] -= 1
    p[x + 1] += 3
    return PilotAssignmentVector(L=p_star.L, K=p_star.K, p=tuple(p))


@dataclass
class BreakpointTable:
    """Coherence-time breakpoints Delta_1 < ... < Delta_{N_LK}, N_LK = len(exact).

    Crossing Delta_n moves the optimal pilot length from 2(n-1)+K to 2n+K.
    The breakpoints are exact rationals, so regime decisions at integer
    coherence times never hinge on rounding.
    """

    exact: list[Fraction]

    def regime(self, N_coh: int) -> int:
        """Largest n with Delta_n <= N_coh, or 0 below Delta_1."""
        return bisect.bisect_right(self.exact, N_coh)


def breakpoints(L: int, K: int, rates: RateProfile) -> BreakpointTable:
    """Delta_n from the measured rate profile (exact in the given C values).

    Theorem 2's hypothesis: C_0 is positive and the per-depth gains
    g_i = 3^-i (C_{i+1} - C_i) are positive and nonincreasing (equal gains
    allowed).  Then the top-down fill of `optimal_for_length` maximizes every
    prefix sum of the chain, so the closed forms are optimal.  A profile
    outside it is refused with a ValueError naming C_0, or the first depth
    where g rises or is not positive, and every closed-form entry that reads
    rates (`optimal_assignment`, `sweep_training_fraction`) refuses it
    through here.

    Inside it the breakpoints rise by at least 4.  Write c_n for the fill's
    C_sum after n acts, at length S_n = K + 2n, and G_n = c_{n+1} - c_n for
    the gain of its next act.  The lines of n and n+1 acts cross at
    Delta_{n+1} = S_n + 2 c_{n+1}/G_n, so Delta_{n+2} - Delta_{n+1} =
    4 + 2 c_{n+1} (1/G_{n+1} - 1/G_n) >= 4, as c > 0 and G does not rise.
    """
    _require_users(K)
    m = exponent_of_three(L)
    _require_depths(rates, m)
    C = [Fraction(c) for c in rates.C]
    if C[0] <= 0:
        raise ValueError(f"C_0 = {rates.C[0]} is not positive: outside Theorem 2's hypothesis")
    g = [(C[i + 1] - C[i]) / 3**i for i in range(rates.m - 1)]
    for i, g_i in enumerate(g):
        if g_i <= 0 or (i and g_i > g[i - 1]):
            how = "rises" if g_i > 0 else "is not positive"
            raise ValueError(f"gain g_i = 3^-i (C_(i+1) - C_i) {how} at depth {i}, "
                             f"g = {[float(x) for x in g]}: outside Theorem 2's hypothesis")
    # c_S, the fill's C_sum at each length S, times one positive integer
    # scale.  Theorem 2 picks the S maximizing (1 - S/N_coh) c_S, so Delta_n
    # is where the lines of consecutive lengths S < S' cross; the scale
    # cancels there
    base, *w = _integers([C[0], *g])
    lengths = valid_pilot_lengths(L, K)
    c = [_fill_value(K, m, (S - K) // 2, base, w) for S in lengths]
    exact = [Fraction(S1 * c1 - S0 * c0, c1 - c0)
             for S0, S1, c0, c1 in zip(lengths, lengths[1:], c, c[1:])]
    return BreakpointTable(exact=exact)


def optimal_assignment(L: int, K: int, N_coh: int, rates: RateProfile,
                       table: Optional[BreakpointTable] = None) -> PilotAssignmentVector:
    """The net-rate-optimal vector for a coherence interval.

    Regimes are half-open on the right: N_coh in [Delta_n, Delta_{n+1}) gets
    pilot length 2n+K, and anything below Delta_1 gets full reuse.
    """
    if N_coh < 1:
        raise ValueError("N_coh must be >= 1")
    if table is None:
        table = breakpoints(L, K, rates)
    n = table.regime(N_coh)
    return optimal_for_length(L, K, 2 * n + K)


# Per pilot length S and sign of the factor (N_coh - S)/N_coh: C_sum times one
# positive integer scale, exact as an int, and the first vector that maximises
# factor * C_sum, which is the C_sum max for +1, the min for -1 and, as every
# vector scores 0 there, the first one for 0.
OracleTable = dict[int, dict[int, tuple[int, PilotAssignmentVector]]]


def exhaustive_extremes(L: int, K: int, rates: RateProfile) -> OracleTable:
    """One exact pass over every valid vector, capped at BRUTE_FORCE_CAP."""
    _require_depths(rates, exponent_of_three(L))
    n_vec = count_assignments(L, K)
    if n_vec > BRUTE_FORCE_CAP:
        raise ValueError(f"enumeration of {n_vec} vectors exceeds cap {BRUTE_FORCE_CAP}")
    weights = _integers([Fraction(c) / 3**i for i, c in enumerate(rates.C)])
    table: OracleTable = {}
    # ascending lexicographic order, so strict comparisons keep the smallest
    for p in enumerate_assignments(L, K):
        val = sum(x * w for x, w in zip(p.p, weights) if x)
        best = table.setdefault(pilot_length(p), {1: (val, p), 0: (val, p), -1: (val, p)})
        if val > best[1][0]:
            best[1] = (val, p)
        elif val < best[-1][0]:
            best[-1] = (val, p)
    return table


def oracle_optimum(table: OracleTable, N_coh: Optional[int] = None,
                   N_p0: Optional[int] = None) -> PilotAssignmentVector:
    """Exact argmax of C_net at N_coh, or of C_sum without N_coh, from one pass.

    N_p0 restricts it to one length; ties go to the lexicographically smallest.
    """
    if N_coh is not None and N_coh < 1:
        raise ValueError("N_coh must be >= 1")
    if N_p0 is not None and N_p0 not in table:
        raise ValueError(f"no valid assignment has pilot length N_p0={N_p0}")
    best: Optional[PilotAssignmentVector] = None
    for S in table if N_p0 is None else [N_p0]:
        # N_coh * C_net = (N_coh - S) * C_sum ranks as C_net does, and stays an int
        scale = 1 if N_coh is None else N_coh - S
        val, p = table[S][(scale > 0) - (scale < 0)]
        val *= scale
        if best is None or val > best_val or (val == best_val and p.p < best.p):
            best, best_val = p, val
    return best


def brute_force_optimal(L: int, K: int, rates: RateProfile, objective: str = "cnet",
                        N_coh: Optional[int] = None,
                        N_p0: Optional[int] = None) -> PilotAssignmentVector:
    """Exhaustive argmax over all valid vectors; the closed forms' oracle.

    Objectives are evaluated in exact rational arithmetic and ties go to the
    lexicographically smallest vector.  The full enumeration runs even when
    N_p0 selects one length, so BRUTE_FORCE_CAP bounds the count of all
    valid vectors.
    """
    if objective not in ("csum", "cnet"):
        raise ValueError("objective must be 'csum' or 'cnet'")
    if objective == "cnet" and N_coh is None:
        raise ValueError("objective 'cnet' needs N_coh")
    if objective == "csum" and N_coh is not None:
        raise ValueError(f"objective 'csum' reads no N_coh, got N_coh={N_coh}")
    return oracle_optimum(exhaustive_extremes(L, K, rates), N_coh, N_p0)


def random_assignment(L: int, K: int, N_pil: int,
                      rng: np.random.Generator) -> np.ndarray:
    """(L, K) pilots: every cell draws K distinct ones from [0, N_pil), in one draw."""
    import numpy as np

    if N_pil < K:
        raise ValueError("need at least K pilots for within-cell orthogonality")
    # the first K of a uniformly random permutation per cell
    return np.argsort(rng.random((L, N_pil)), axis=1)[:, :K]


def random_mean_sum_rate(lattice: HexLattice, K: int, N_pil: int,
                         gamma: float = 3.7, trials: int = 500,
                         seed: int = 0) -> tuple[float, float]:
    """Monte Carlo mean and stderr of the per-cell sum rate under random pilot
    assignment: the oracle of `random_sum_rate`.

    Each trial redraws both the pilot choices and all user positions, from
    its own substream.  Uncontaminated users (sole cell on a pilot) are
    skipped rather than credited with infinite rate, matching the
    no-uncontaminated-leaf rule.
    """
    import numpy as np

    from .channel import DOMAIN_RANDOM_ASSIGN, derive_rng

    if trials < 2:
        raise ValueError(f"need at least 2 trials for a standard error, got {trials}")
    _require_estimable(gamma, trials)
    L = lattice.L
    cells = np.arange(L * K) // K
    vals = np.empty(trials)
    for t in range(trials):
        rng = derive_rng(seed, DOMAIN_RANDOM_ASSIGN, t)
        pilots = random_assignment(L, K, N_pil, rng).ravel()
        offsets = lattice.sample_cell_offsets(L * K, rng)
        # every ordered pair (i, j) of distinct users on one pilot, users in
        # (cell, k) order: user j's power reaches the BS of user i
        same = pilots[:, None] == pilots
        np.fill_diagonal(same, False)
        i, j = np.nonzero(same)
        d = lattice.user_distances(cells[i], cells[j], offsets[j])
        interference = np.bincount(i, weights=d ** (-2.0 * gamma), minlength=L * K)
        own = (offsets[:, 0] ** 2 + offsets[:, 1] ** 2) ** (-gamma)
        ok = interference > 0
        vals[t] = np.log2(1.0 + own[ok] / interference[ok]).sum() / L
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(trials))


def random_sum_rate(tables: LaplaceTables, K: int, N_pil: int) -> float:
    """Exact per-cell sum rate under random pilot assignment.

    `random_assignment` gives each cell K distinct pilots drawn uniformly
    from N_pil, independently of the other cells, so the user of another
    cell on the tagged user's pilot exists with probability K/N_pil, and
    independently.  Each of the K users of a cell has the rate of
    `channel.expected_rate` with those weights, a user with no interferer
    counting 0 as in the Monte Carlo `random_mean_sum_rate`.  It is the
    mean over the lattice's tagged cells (`HexLattice.tagged`).
    """
    from .channel import expected_rate

    _require_users(K)
    if N_pil < K:
        raise ValueError(f"N_pil {N_pil} is below K = {K}: a cell needs K distinct pilots")
    lattice = tables.lattice
    weights = (lattice.shared_depth(lattice.tagged) >= 0) * (K / N_pil)
    return K * float(expected_rate(tables, lattice.tagged, weights).mean())


@dataclass
class NetRatePoint:
    N_coh: int
    p: PilotAssignmentVector
    C_net: float
    training_fraction: float


def sweep_training_fraction(L: int, K: int, N_coh_values: Iterable[int],
                            rates: RateProfile) -> list[NetRatePoint]:
    """Optimal assignment and its pilot share of the coherence interval."""
    table = breakpoints(L, K, rates)
    out = []
    for N_coh in N_coh_values:
        p = optimal_assignment(L, K, N_coh, rates, table=table)
        out.append(NetRatePoint(N_coh=N_coh, p=p, C_net=cnet(p, rates, N_coh),
                                training_fraction=pilot_length(p) / N_coh))
    return out
