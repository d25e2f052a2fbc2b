"""Integer algebra of hierarchical pilot assignment vectors.

A pilot assignment vector p = (p_0, ..., p_{m-1}) counts the leaves of the
3-ary partitioning tree at each depth: p_i pilots are each reused by all
L/3^i cells of one depth-i coset.  Validity means 0 <= p_i <= K*3^i and
sum_i p_i / 3^i = K.  The transition chain t, a plain tuple of m-1
integers, counts the 3-way partitioning acts per depth and is the dual
object used by the optimality proofs.

The layer's chain code is one walk and one fill.  `enumerate_assignments`
walks every chain in descending lexicographic order, ascending in p.
`_fill` is Theorem 1's chain at one act count: the acts fill the depths
top-down.  Every closed form reads it: the asymptotic optimum
(`optimizer.optimal_for_length`), Theorem 2's breakpoints
(`optimizer.breakpoints`), Corollary 1's step (`optimizer.corollary_step`,
through the optimum's shallowest leaf) and the finite-M optimum
(`finitem.optimal_assignment_finite`).  The breakpoints and the finite-M
optimum read its C_sum from `_fill_value`, in ints and in floats.
`valid_pilot_lengths` is the one
statement of Lemma 1's length range.  `from_transition` and
`to_transition` are the one conversion between a chain and a vector.
`realize` reads no chain: it places the vector by one sort of the cells
into coset order and one cut into leaf runs.

Everything here is exact integer arithmetic, and only `realize` loads
numpy, when it is called.  PilotAssignmentVector's
constructor is the one place that checks validity, as the bounds and
sum_i p_i * 3^(m-1-i) == K * 3^(m-1), so no function re-checks a vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .depths import exponent_of_three

if TYPE_CHECKING:
    import numpy as np

    from .hexgrid import HexLattice


def _require_users(K: int):
    """The one K >= 1 rule: K < 1 has no valid vector and no pilot length."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")


@dataclass(frozen=True)
class PilotAssignmentVector:
    L: int
    K: int
    p: tuple[int, ...]

    def __post_init__(self):
        p = tuple(map(int, self.p))
        object.__setattr__(self, "p", p)
        m = exponent_of_three(self.L)
        _require_users(self.K)
        if len(p) != m:
            raise ValueError(f"p must have length m = log3(L) = {m}, got {len(p)}")
        # one pass: each p_i within its bound K*3^i, and Horner's rule for
        # sum_i p_i * 3^(m-1-i)
        bound, total = self.K, 0
        for x in p:
            if not 0 <= x <= bound:
                break
            bound *= 3
            total = 3 * total + x
        else:
            if total == self.K * 3 ** (m - 1):
                return
        raise ValueError(f"invalid pilot assignment vector: L={self.L} K={self.K} p={p}")

    @property
    def m(self) -> int:
        return len(self.p)

    def __iter__(self):
        return iter(self.p)

    def __getitem__(self, i):
        return self.p[i]

    def dashed(self) -> str:
        return "-".join(str(x) for x in self.p)


def pilot_length(p: PilotAssignmentVector) -> int:
    """Number of orthogonal pilots consumed: the leaf count sum_i p_i."""
    return sum(p.p)


def to_transition(p: PilotAssignmentVector) -> tuple[int, ...]:
    """Partitioning acts per depth: t_0 = K - p_0, t_i = 3 t_{i-1} - p_i, i < m-1.

    The L = 3 vector (K,) has the empty chain.
    """
    t, budget = [], p.K
    for x in p.p[:-1]:
        t.append(budget - x)
        budget = 3 * t[-1]
    return tuple(t)


def from_transition(K: int, t: Sequence[int]) -> PilotAssignmentVector:
    """Exact inverse of to_transition; rejects t that is not a partition sequence.

    Depth i has budget K (i = 0) or 3 t_{i-1} nodes, of which t_i are
    partitioned and the rest are leaves: p_i = budget_i - t_i, and the
    deepest depth is all leaves.  The empty chain is the L = 3 vector (K,).
    """
    p, budget = [], K
    for x in t:
        p.append(budget - x)
        budget = 3 * x
    return PilotAssignmentVector(L=3 ** (len(p) + 1), K=K, p=(*p, budget))


def valid_pilot_lengths(L: int, K: int) -> range:
    """The attainable pilot lengths K, K+2, ..., LK/3, ascending."""
    exponent_of_three(L)
    _require_users(K)
    return range(K, L * K // 3 + 1, 2)


def _fill(K: int, m: int, acts: int) -> tuple[int, ...]:
    """Theorem 1's chain of `acts` partitioning acts over m depths.

    The acts fill the depths top-down, depth i taking up to K*3^i of them.
    Of all chains with `acts` acts it maximizes every prefix sum, and it is
    the lexicographically largest.
    """
    t = []
    for i in range(m - 1):
        t.append(min(K * 3**i, acts))
        acts -= t[-1]
    return tuple(t)


def _fill_value(K: int, m: int, acts: int, base, gains):
    """C_sum of the fill: K*base + sum_i t_i gains[i] over t = `_fill(K, m, acts)`.

    `base` is the depth-0 rate and gains[i] what an act at depth i adds, ints
    or floats alike.  The sum runs from 0, depth 0 first, and base comes
    last, so a float value rounds the same wherever it is computed.
    """
    total = 0
    for t, g in zip(_fill(K, m, acts), gains):
        total += t * g
    return K * base + total


def enumerate_assignments(L: int, K: int) -> Iterator[PilotAssignmentVector]:
    """Yield every valid vector once, lexicographically ascending on (p_0, p_1, ...).

    The vectors are `from_transition` of every chain 0 <= t_0 <= K,
    0 <= t_i <= 3*t_{i-1}, walked in descending lexicographic order.
    Descending chains are ascending vectors: two chains that first differ at
    t_i have equal budgets there, so their vectors first differ at
    p_i = budget_i - t_i.
    """
    m = exponent_of_three(L)
    _require_users(K)

    def walk(budget: int, chain: tuple[int, ...]):
        if len(chain) == m - 1:
            yield from_transition(K, chain)
            return
        for t in range(budget, -1, -1):
            yield from walk(3 * t, chain + (t,))

    yield from walk(K, ())


def count_assignments(L: int, K: int) -> int:
    """Count valid vectors by dynamic programming over transition chains.

    Valid vectors correspond one-to-one to chains 0 <= t_0 <= K,
    0 <= t_i <= 3*t_{i-1}.  Independent of the enumerator, for cross-checking.
    """
    m = exponent_of_three(L)
    _require_users(K)
    # state: the chain walk's budget (K, then 3*t_{i-1}) -> number of chain
    # prefixes leaving it; each of the m-1 chain entries t in 0..budget leaves 3t
    states = {K: 1}
    for _ in range(m - 1):
        nxt: dict[int, int] = {}
        for budget, cnt in states.items():
            for t in range(budget + 1):
                nxt[3 * t] = nxt.get(3 * t, 0) + cnt
        states = nxt
    return sum(states.values())


# -- realization onto the lattice -------------------------------------------


def realize(p: PilotAssignmentVector, lattice: HexLattice) -> np.ndarray:
    """Deterministic map of tree leaves onto cosets: one sort and one cut.

    The cells are sorted once into coset order (by depth-1 coset, then
    depth-2, ...), so every depth-i coset is an aligned run of L/3^i cells.
    The (user, cell) positions are laid out user by user, K runs of L, and
    cut into consecutive leaf runs, depth 0 first: p_i runs of L/3^i, the
    pilots numbered upward.  Each run starts at a multiple of its length, so
    it is exactly one depth-i coset of one user.  Returns the (L, K) int
    array of each (cell, user)'s pilot index in [0, pilot_length(p)).
    """
    import numpy as np

    if lattice.L != p.L:
        raise ValueError(f"lattice has {lattice.L} cells but vector is for L={p.L}")
    runs = np.repeat([p.L // 3**i for i in range(p.m)], p.p)
    pilots = np.repeat(np.arange(len(runs)), runs).reshape(p.K, p.L)
    assignment = np.empty((p.L, p.K), dtype=np.int64)
    assignment[np.lexsort(lattice.coset.T[::-1])] = pilots.T
    return assignment
