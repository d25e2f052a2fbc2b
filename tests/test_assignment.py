import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilotreuse import (PilotAssignmentVector, build_lattice,
                        chi, count_assignments, enumerate_assignments,
                        from_transition, is_valid, pilot_length, realize,
                        to_transition, valid_pilot_lengths)


def vec(L, K, *p):
    return PilotAssignmentVector(L=L, K=K, p=tuple(p))


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
        assert is_valid(vec(81, 1, 1, 0, 0, 0))
        assert is_valid(vec(81, 1, 0, 1, 6, 0))
        assert not is_valid(vec(81, 1, 0, 4, 0, 0))  # sums to 4/3, not 1

    def test_bounds_checked(self):
        assert not is_valid(vec(81, 1, 2, 0, 0, 0))  # p_0 > K
        assert not is_valid(vec(27, 2, 0, 7, 0))     # p_1 > 3K

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vec(81, 1, 1, 0, 0)

    @given(valid_vectors())
    @settings(max_examples=200, deadline=None)
    def test_generated_vectors_are_valid(self, p):
        assert is_valid(p)

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
        for L, K in [(9, 1), (9, 3), (27, 1), (27, 2), (81, 1), (81, 3)]:
            assert sum(1 for _ in enumerate_assignments(L, K)) == count_assignments(L, K)

    def test_lexicographic_order(self):
        for L, K in [(27, 2), (81, 3), (243, 1)]:
            seen = [p.p for p in enumerate_assignments(L, K)]
            assert seen == sorted(seen)
            assert len(seen) == len(set(seen)) == count_assignments(L, K)

    def test_every_enumerated_vector_is_valid(self):
        assert all(is_valid(p) for p in enumerate_assignments(81, 2))


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
        r = realize(vec(81, 2, 2, 0, 0, 0), lat81)
        assert r.n_pilots == 2
        # user k in every cell rides pilot k
        assert np.all(r.assignment[:, 0] == 0)
        assert np.all(r.assignment[:, 1] == 1)

    def test_reuse_three(self, lat81):
        r = realize(vec(81, 1, 0, 3, 0, 0), lat81)
        assert r.n_pilots == 3
        for pilot in range(3):
            cells = r.cells_sharing(pilot)
            assert len(cells) == 27
            cosets = {lat81.coset_of(lat81.cells[c], 1) for c in cells}
            assert len(cosets) == 1

    def test_worked_tree_example(self, lat81):
        # two depth-1 leaves; three depth-2 leaves, all children of the
        # remaining depth-1 coset
        r = realize(vec(81, 1, 0, 2, 3, 0), lat81)
        assert r.n_pilots == 5
        assert sorted(r.pilot_depth.tolist()) == [1, 1, 2, 2, 2]
        depth1 = [c for c in r.pilot_coset if c.depth == 1]
        depth2 = [c for c in r.pilot_coset if c.depth == 2]
        used1 = {c.index for c in depth1}
        remaining = ({0, 1, 2} - used1).pop()
        assert all(c.index % 3 == remaining for c in depth2)

    def test_user_counts_reproduce_vector(self, lat27):
        p = vec(27, 3, 1, 4, 6)
        r = realize(p, lat27)
        per_depth = {0: 0, 1: 0, 2: 0}
        for pilot in range(r.n_pilots):
            depth = int(r.pilot_depth[pilot])
            users = int((r.assignment == pilot).sum())
            assert users == 27 // 3**depth
            per_depth[depth] += 1
        assert tuple(per_depth[i] for i in range(3)) == p.p

    def test_within_cell_distinctness(self, lat27):
        r = realize(vec(27, 3, 1, 4, 6), lat27)
        for cell in range(27):
            row = r.assignment[cell]
            assert len(set(row.tolist())) == 3

    def test_interferers_are_cosharing_cells(self, lat81):
        r = realize(vec(81, 1, 0, 2, 3, 0), lat81)
        for cell in (0, 13, 40):
            pilot = r.assignment[cell, 0]
            depth = int(r.pilot_depth[pilot])
            sharing = set(r.cells_sharing(pilot).tolist()) - {cell}
            expected = {lat81.cell_index(c)
                        for c in lat81.cosharing_cells(lat81.cells[cell], depth)}
            assert sharing == expected

    def test_lattice_mismatch_rejected(self, lat27):
        with pytest.raises(ValueError):
            realize(vec(81, 1, 0, 3, 0, 0), lat27)

    @given(valid_vectors(max_m=3, max_K=3))
    @settings(max_examples=40, deadline=None)
    def test_realization_is_a_partition_for_every_user(self, p):
        lat = build_lattice(p.m)
        r = realize(p, lat)
        for k in range(p.K):
            pilots = r.assignment[:, k]
            assert (pilots >= 0).all()
            # each cell's user-k pilot is served exactly once per cell
            assert len(set(pilots.tolist())) == len(np.unique(pilots))
