import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilotreuse import (PilotAssignmentVector, build_lattice,
                        chi, count_assignments, enumerate_assignments,
                        from_transition, pilot_length, realize,
                        to_transition, valid_pilot_lengths)
from pilotreuse.hexgrid import exponent_of_three


def vec(L, K, *p):
    return PilotAssignmentVector(L=L, K=K, p=tuple(p))


def pilot_cells(a, pilot):
    """Cells with a user on this pilot, from an (L, K) realization."""
    return np.flatnonzero((a == pilot).any(axis=1))


def pilot_depth(a, pilot):
    """A pilot's leaf depth: its depth-i coset has L/3^i cells, one user each."""
    L, users = a.shape[0], int((a == pilot).sum())
    depth = round(np.log(L / users) / np.log(3))
    assert users * 3**depth == L
    return depth


# hypothesis strategy: valid vectors via transition chains t_0 <= K, t_i <= 3 t_{i-1}
@st.composite
def valid_vectors(draw, max_m=4, max_K=4):
    m = draw(st.integers(2, max_m))
    K = draw(st.integers(1, max_K))
    t = [draw(st.integers(0, K))]
    for _ in range(m - 2):
        t.append(draw(st.integers(0, 3 * t[-1])))
    return from_transition(K, t)


class TestValidity:
    def test_examples(self):
        to_transition(vec(81, 1, 1, 0, 0, 0))
        to_transition(vec(81, 1, 0, 1, 6, 0))
        with pytest.raises(ValueError):
            to_transition(vec(81, 1, 0, 4, 0, 0))  # sums to 4/3, not 1

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            to_transition(vec(81, 1, 2, 0, 0, 0))  # p_0 > K
        with pytest.raises(ValueError):
            to_transition(vec(27, 2, 0, 7, 0))     # p_1 > 3K

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vec(81, 1, 1, 0, 0)

    def test_invalid_vector_refused_at_construction(self):
        with pytest.raises(ValueError, match="invalid pilot assignment vector"):
            vec(9, 1, 5, 5)  # within no bound, and sums to 20/3, not 1

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("L", [9, 27])
    def test_construction_accepts_exactly_the_enumerated_vectors(self, L, K):
        # every p_i from one below its bound's range to one above it
        m = exponent_of_three(L)
        accepted = set()
        for p in itertools.product(*(range(-1, K * 3**i + 2) for i in range(m))):
            try:
                accepted.add(vec(L, K, *p).p)
            except ValueError:
                pass
        assert accepted == {q.p for q in enumerate_assignments(L, K)}

    @given(valid_vectors())
    @settings(max_examples=200, deadline=None)
    def test_generated_vectors_are_valid(self, p):
        assert from_transition(p.K, to_transition(p)) == p

    def test_json_round_trip(self):
        p = vec(81, 2, 0, 5, 3, 0)
        assert p.dashed() == "0-5-3-0"


class TestPilotLength:
    def test_examples(self):
        assert pilot_length(vec(81, 1, 0, 2, 3, 0)) == 5
        assert pilot_length(vec(81, 1, 1, 0, 0, 0)) == 1
        assert pilot_length(vec(81, 1, 0, 0, 0, 27)) == 27

    @given(valid_vectors())
    @settings(max_examples=200, deadline=None)
    def test_parity_and_range(self, p):
        n = pilot_length(p)
        assert (n - p.K) % 2 == 0
        assert p.K <= n <= p.L * p.K // 3


class TestTransitions:
    def test_worked_example(self):
        assert to_transition(vec(81, 1, 0, 2, 3, 0)) == (1, 1, 0)

    def test_full_reuse_has_no_acts(self):
        assert to_transition(vec(81, 3, 3, 0, 0, 0)) == (0, 0, 0)

    def test_deepest_vector_saturates_bounds(self):
        K = 2
        t = to_transition(vec(81, K, 0, 0, 0, 54))
        assert t == (K, 3 * K, 9 * K)

    def test_inverse_examples(self):
        assert from_transition(1, (1, 1, 0)).p == (0, 2, 3, 0)
        assert from_transition(2, (0, 0, 0)).p == (2, 0, 0, 0)

    def test_infeasible_transition_rejected(self):
        # t_1 > 3 t_0 would need a negative p_1
        with pytest.raises(ValueError):
            from_transition(1, (0, 1, 0))

    @given(valid_vectors())
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, p):
        t = to_transition(p)
        assert from_transition(p.K, t).p == p.p
        assert from_transition(p.K, t).K == p.K

    @given(valid_vectors())
    @settings(max_examples=300, deadline=None)
    def test_lemma2_bounds(self, p):
        t = to_transition(p)
        for i, ti in enumerate(t):
            assert 0 <= ti <= p.K * 3**i
        assert sum(t) == (pilot_length(p) - p.K) // 2


class TestEnumeration:
    def test_filter_seven_contains_both_known_vectors(self):
        found = {p.p for p in enumerate_assignments(81, 1) if pilot_length(p) == 7}
        assert (0, 1, 6, 0) in found
        assert (0, 2, 2, 3) in found
        assert all(sum(p) == 7 for p in found)

    def test_filter_one_is_full_reuse_only(self):
        assert [p.p for p in enumerate_assignments(81, 1)
                if pilot_length(p) == 1] == [(1, 0, 0, 0)]

    def test_count_matches_dp_oracle(self):
        for L, K in [(3, 1), (3, 4), (9, 1), (9, 3), (27, 1), (27, 2), (81, 1), (81, 3)]:
            assert sum(1 for _ in enumerate_assignments(L, K)) == count_assignments(L, K)

    def test_lexicographic_order(self):
        for L, K in [(27, 2), (81, 3), (243, 1)]:
            seen = [p.p for p in enumerate_assignments(L, K)]
            assert seen == sorted(seen)
            assert len(seen) == len(set(seen)) == count_assignments(L, K)

    def test_every_enumerated_vector_is_valid(self):
        for p in enumerate_assignments(81, 2):
            assert from_transition(2, to_transition(p)) == p


class TestPilotLengthSet:
    def test_paper_sets(self):
        assert valid_pilot_lengths(81, 1) == set(range(1, 28, 2))
        assert valid_pilot_lengths(81, 2) == set(range(2, 55, 2))

    def test_matches_enumeration(self):
        got = {pilot_length(p) for p in enumerate_assignments(27, 1)}
        assert got == valid_pilot_lengths(27, 1) == {1, 3, 5, 7, 9}


class TestChi:
    def test_paper_example(self):
        assert chi(7, 1) == 1

    def test_no_partitioning(self):
        assert chi(1, 1) == 0
        assert chi(5, 5) == 0

    def test_monotone_with_unit_steps(self):
        K = 2
        values = [chi(n, K) for n in range(K, 54 + 1, 2)]
        steps = np.diff(values)
        assert np.all(steps >= 0)
        assert np.all(steps <= 1)

    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            chi(6, 1)
        with pytest.raises(ValueError):
            chi(1, 2)


class TestRealize:
    def test_full_reuse_shares_everything(self, lat81):
        a = realize(vec(81, 2, 2, 0, 0, 0), lat81)
        assert a.shape == (81, 2)
        # user k in every cell rides pilot k
        assert np.all(a[:, 0] == 0)
        assert np.all(a[:, 1] == 1)

    def test_reuse_three(self, lat81):
        a = realize(vec(81, 1, 0, 3, 0, 0), lat81)
        assert set(a.ravel().tolist()) == {0, 1, 2}
        for pilot in range(3):
            cells = pilot_cells(a, pilot)
            assert len(cells) == 27
            assert len(set(lat81.coset[cells, 1].tolist())) == 1

    def test_worked_tree_example(self, lat81):
        # two depth-1 leaves; three depth-2 leaves, all children of the
        # remaining depth-1 coset
        a = realize(vec(81, 1, 0, 2, 3, 0), lat81)
        assert set(a.ravel().tolist()) == set(range(5))
        depths = [pilot_depth(a, pilot) for pilot in range(5)]
        assert sorted(depths) == [1, 1, 2, 2, 2]
        cosets = [(depth, lat81.coset[pilot_cells(a, pilot)[0], depth])
                  for pilot, depth in enumerate(depths)]
        for pilot, (depth, index) in enumerate(cosets):
            members = np.flatnonzero(lat81.coset[:, depth] == index)
            assert pilot_cells(a, pilot).tolist() == members.tolist()
        used1 = {index for depth, index in cosets if depth == 1}
        remaining = ({0, 1, 2} - used1).pop()
        assert all(index % 3 == remaining for depth, index in cosets if depth == 2)

    def test_user_counts_reproduce_vector(self, lat27):
        p = vec(27, 3, 1, 4, 6)
        a = realize(p, lat27)
        assert set(a.ravel().tolist()) == set(range(pilot_length(p)))
        per_depth = {0: 0, 1: 0, 2: 0}
        for pilot in range(pilot_length(p)):
            per_depth[pilot_depth(a, pilot)] += 1
        assert tuple(per_depth[i] for i in range(3)) == p.p

    def test_within_cell_distinctness(self, lat27):
        a = realize(vec(27, 3, 1, 4, 6), lat27)
        for cell in range(27):
            row = a[cell]
            assert len(set(row.tolist())) == 3

    def test_interferers_are_cosharing_cells(self, lat81):
        a = realize(vec(81, 1, 0, 2, 3, 0), lat81)
        for cell in (0, 13, 40):
            pilot = a[cell, 0]
            depth = pilot_depth(a, pilot)
            sharing = set(pilot_cells(a, pilot).tolist()) - {cell}
            assert sharing == set(lat81.cosharing_indices(cell, depth).tolist())

    def test_lattice_mismatch_rejected(self, lat27):
        with pytest.raises(ValueError):
            realize(vec(81, 1, 0, 3, 0, 0), lat27)

    @given(valid_vectors(max_m=3, max_K=3))
    @settings(max_examples=40, deadline=None)
    def test_realization_is_a_partition_for_every_user(self, p):
        lat = build_lattice(p.m)
        a = realize(p, lat)
        for k in range(p.K):
            pilots = a[:, k]
            assert (pilots >= 0).all()
            # each cell's user-k pilot is served exactly once per cell
            assert len(set(pilots.tolist())) == len(np.unique(pilots))
