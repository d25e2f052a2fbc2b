"""Integer algebra of hierarchical pilot assignment vectors.

A pilot assignment vector p = (p_0, ..., p_{m-1}) counts the leaves of the
3-ary partitioning tree at each depth: p_i pilots are each reused by all
L/3^i cells of one depth-i coset.  Validity means 0 <= p_i <= K*3^i and
sum_i p_i / 3^i = K.  The transition chain t, a plain tuple of m-1
integers, counts the 3-way partitioning acts per depth and is the dual
object used by the optimality proofs.

Everything here is exact integer arithmetic.  PilotAssignmentVector's
constructor is the one place that checks validity, as the bounds and
sum_i p_i * 3^(m-1-i) == K * 3^(m-1), so no function re-checks a vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .hexgrid import HexLattice, exponent_of_three


@dataclass(frozen=True)
class PilotAssignmentVector:
    L: int
    K: int
    p: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(int(x) for x in self.p))
        m = exponent_of_three(self.L)
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if len(self.p) != m:
            raise ValueError(f"p must have length m = log3(L) = {m}, got {len(self.p)}")
        if (any(not 0 <= x <= self.K * 3**i for i, x in enumerate(self.p))
                or sum(x * 3 ** (m - 1 - i) for i, x in enumerate(self.p))
                != self.K * 3 ** (m - 1)):
            raise ValueError(f"invalid pilot assignment vector: L={self.L} K={self.K} "
                             f"p={self.p}")

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
    """Partitioning acts per depth: t_0 = K - p_0, t_i = 3 t_{i-1} - p_i."""
    t = [p.K - p[0]]
    for i in range(1, p.m - 1):
        t.append(3 * t[-1] - p[i])
    return tuple(t)


def from_transition(K: int, t: Sequence[int]) -> PilotAssignmentVector:
    """Exact inverse of to_transition; rejects t that is not a partition sequence."""
    m = len(t) + 1
    p = [K - t[0]]
    for i in range(1, m - 1):
        p.append(3 * t[i - 1] - t[i])
    p.append(3 * t[m - 2])
    return PilotAssignmentVector(L=3**m, K=K, p=tuple(p))


def valid_pilot_lengths(L: int, K: int) -> set[int]:
    """The attainable pilot lengths {K, K+2, ..., LK/3}."""
    exponent_of_three(L)
    return set(range(K, L * K // 3 + 1, 2))


def chi(N_p0: int, K: int) -> int:
    """Shortest leaf depth of the length-N_p0 optimal tree.

    Smallest k with sum_{i<=k} K*3^i > (N_p0 - K)/2: partitioning acts fill
    depths top-down, so the first depth that cannot be fully partitioned
    holds the shallowest leaves.
    """
    if N_p0 < K or (N_p0 - K) % 2 != 0:
        raise ValueError(f"N_p0 must be K, K+2, ... ; got N_p0={N_p0}, K={K}")
    acts = (N_p0 - K) // 2
    cum = 0
    k = 0
    while True:
        cum += K * 3**k
        if cum > acts:
            return k
        k += 1


def enumerate_assignments(L: int, K: int) -> Iterator[PilotAssignmentVector]:
    """Yield every valid vector once, lexicographically ascending on (p_0, p_1, ...).

    Walks the transition chains 0 <= t_0 <= K, 0 <= t_i <= 3*t_{i-1} in
    descending lexicographic order, which is ascending p: p_0 = K - t_0,
    p_i = 3*t_{i-1} - t_i and p_{m-1} = 3*t_{m-2}.
    """
    m = exponent_of_three(L)

    def rec(budget: int, p: tuple[int, ...]):  # budget: K, then 3*t_{i-1}
        if len(p) == m - 1:
            yield PilotAssignmentVector(L=L, K=K, p=p + (budget,))
            return
        for t in range(budget, -1, -1):
            yield from rec(3 * t, p + (budget - t,))

    yield from rec(K, ())


def count_assignments(L: int, K: int) -> int:
    """Count valid vectors by dynamic programming over transition chains.

    Valid vectors correspond one-to-one to chains 0 <= t_0 <= K,
    0 <= t_i <= 3*t_{i-1}.  Independent of the enumerator, for cross-checking.
    """
    m = exponent_of_three(L)
    # state: the enumerator's budget (K, then 3*t_{i-1}) -> number of chain
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


def _split_transitions(t: tuple[int, ...], K: int) -> list[tuple[int, ...]]:
    """Decompose an aggregate transition chain into K single-user chains.

    Greedy left-to-right fill: each depth's acts go to the lowest-numbered
    trees first, within each tree's cap of 3x its previous-depth acts.
    """
    per_tree = [[0] * len(t) for _ in range(K)]
    for k in range(min(t[0], K)):
        per_tree[k][0] = 1
    for i in range(1, len(t)):
        remaining = t[i]
        for k in range(K):
            cap = 3 * per_tree[k][i - 1]
            take = min(cap, remaining)
            per_tree[k][i] = take
            remaining -= take
        assert remaining == 0, "aggregate transition chain exceeded tree capacity"
    return [tuple(chain) for chain in per_tree]


def realize(p: PilotAssignmentVector, lattice: HexLattice) -> np.ndarray:
    """Deterministic map of tree leaves onto cosets, one tree per user.

    The aggregate vector splits into K single-user trees; each tree is built
    greedily left-to-right (lowest coset indices become leaves first, the
    rest get partitioned).  Tree k >= 1 rotates the depth-1 branch labels by
    k mod 3 so that different users' shallow leaves land on different cosets.
    Returns the (L, K) int array of each (cell, user)'s pilot index in
    [0, pilot_length(p)).
    """
    if lattice.L != p.L:
        raise ValueError(f"lattice has {lattice.L} cells but vector is for L={p.L}")
    m = p.m
    trees = [from_transition(1, tk) for tk in _split_transitions(to_transition(p), p.K)]

    assignment = np.full((p.L, p.K), -1, dtype=np.int64)
    next_pilot = 0
    for k, tree in enumerate(trees):
        def rotated_key(index: int, depth: int) -> tuple:
            if depth == 0:
                return (0,)
            first = index % 3
            return ((first - k) % 3, index // 3)

        nodes = [0]  # coset indices at current depth
        for depth in range(m):
            nodes.sort(key=lambda idx: rotated_key(idx, depth))
            leaves, internal = nodes[:tree[depth]], nodes[tree[depth]:]
            for idx in leaves:
                assignment[lattice.coset[:, depth] == idx, k] = next_pilot
                next_pilot += 1
            nodes = [idx + 3**depth * d for idx in internal for d in range(3)]
        assert not nodes, "tree construction left unpartitioned nodes"

    assert next_pilot == pilot_length(p)
    assert (assignment >= 0).all()
    return assignment
