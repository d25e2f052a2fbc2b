import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pilotreuse import (PilotAssignmentVector, RateProfile, breakpoints,
                        brute_force_optimal, cnet, corollary_step, csum,
                        enumerate_assignments, optimal_assignment,
                        optimal_for_length, pilot_length, realize, sweep_training_fraction,
                        synthetic_linear_profile, valid_pilot_lengths)
from pilotreuse import optimizer
from pilotreuse.channel import (DOMAIN_RANDOM_ASSIGN, derive_rng, expected_rate,
                                laplace_tables, rate_profile)
from pilotreuse.hexgrid import build_lattice
from pilotreuse.optimizer import random_assignment, random_mean_sum_rate, random_sum_rate
from pilotreuse.verify import check_corollary1, check_theorem1, check_theorem2

from conftest import finer_quadrature


def vec(L, K, *p):
    return PilotAssignmentVector(L=L, K=K, p=tuple(p))


LINEAR = synthetic_linear_profile(1.0, 6.0, 4)  # C = 1, 7, 13, 19


def _first_argmax(scored):
    """The vector of the first strict maximum in (value, vector) pairs."""
    best_val, best = scored[0]
    for val, p in scored:
        if val > best_val:
            best_val, best = val, p
    return best.p


class TestObjectives:
    def test_full_reuse_sum_rate(self):
        assert csum(vec(81, 3, 3, 0, 0, 0), LINEAR) == pytest.approx(3.0)

    def test_reuse_three_sum_rate(self):
        assert csum(vec(81, 1, 0, 3, 0, 0), LINEAR) == pytest.approx(7.0)

    def test_hand_computed_example(self):
        # 2*7/3 + 3*13/9 = 9
        assert csum(vec(81, 1, 0, 2, 3, 0), LINEAR) == pytest.approx(9.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            csum(vec(27, 1, 0, 3, 0), LINEAR)

    def test_cnet_zero_crossing(self):
        p = vec(81, 1, 0, 2, 3, 0)
        assert cnet(p, LINEAR, 5) == 0.0

    def test_cnet_saturates_to_csum(self):
        p = vec(81, 1, 0, 2, 3, 0)
        assert cnet(p, LINEAR, 10**9) == pytest.approx(csum(p, LINEAR), rel=1e-6)

    def test_cnet_full_reuse(self):
        assert cnet(vec(81, 1, 1, 0, 0, 0), LINEAR, 10) == pytest.approx(0.9)

    def test_cnet_negative_when_infeasible(self):
        assert cnet(vec(81, 1, 0, 0, 0, 27), LINEAR, 10) < 0


class TestOptimalForLength:
    def test_paper_examples(self):
        assert optimal_for_length(81, 1, 7).p == (0, 1, 6, 0)
        assert optimal_for_length(81, 1, 9).p == (0, 0, 9, 0)
        assert optimal_for_length(81, 2, 4).p == (1, 3, 0, 0)

    def test_extremes(self):
        assert optimal_for_length(81, 1, 1).p == (1, 0, 0, 0)
        assert optimal_for_length(81, 1, 27).p == (0, 0, 0, 27)
        assert optimal_for_length(81, 2, 54).p == (0, 0, 0, 54)

    def test_invalid_length_rejected(self):
        for bad in (2, 29, 0):
            with pytest.raises(ValueError):
                optimal_for_length(81, 1, bad)

    def test_support_is_two_adjacent_depths(self):
        for K in (1, 2, 3):
            for N_p0 in sorted(valid_pilot_lengths(81, K)):
                p = optimal_for_length(81, K, N_p0)
                support = [i for i, x in enumerate(p.p) if x > 0]
                x = support[0]
                assert support in ([x], [x, x + 1])
                assert pilot_length(p) == N_p0


class TestCorollaryStep:
    def test_paper_examples(self):
        assert corollary_step(vec(81, 1, 0, 3, 0, 0)).p == (0, 2, 3, 0)
        assert corollary_step(vec(81, 1, 0, 1, 6, 0)).p == (0, 0, 9, 0)
        assert corollary_step(vec(81, 10, 9, 3, 0, 0)).p == (8, 6, 0, 0)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            corollary_step(vec(81, 1, 0, 0, 0, 27))

    def test_chain_reproduces_closed_form(self):
        lengths = sorted(valid_pilot_lengths(27, 3))
        p = optimal_for_length(27, 3, lengths[0])
        for N_next in lengths[1:]:
            p = corollary_step(p)
            assert p.p == optimal_for_length(27, 3, N_next).p


def _bisect_crossing(p_low, p_high, rates, lo, hi, iters=200):
    """Independent root finder for the net-rate curve intersection."""
    def f(N):
        return cnet(p_high, rates, N) - cnet(p_low, rates, N)
    assert f(lo) < 0 < f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _frozen_chi(N_p0, K):
    """The closed forms' shallowest leaf depth as first stated, a loop of its own:
    the smallest k with sum_{i<=k} K*3^i > (N_p0 - K)/2."""
    acts, cum, k = (N_p0 - K) // 2, 0, 0
    while True:
        cum += K * 3**k
        if cum > acts:
            return k
        k += 1


def _frozen_breakpoints(L, K, C):
    """Theorem 2's Delta_n as first stated, on _frozen_chi."""
    C = [Fraction(float(c)) for c in C]
    g = [(C[i + 1] - C[i]) / 3**i for i in range(len(C) - 1)]
    exact = []
    for n in range(1, (L * K // 3 - K) // 2 + 1):
        eta = _frozen_chi(2 * n + K - 2, K)
        xi = C[eta] / g[eta]
        exact.append(2 * (2 * n - 1 - sum(K * 3**i for i in range(eta)) + K * xi) + K)
    return exact


def _frozen_corollary_step(p):
    """Corollary 1's (-1, +3) step as first stated, at depth _frozen_chi."""
    x = _frozen_chi(pilot_length(p), p.K)
    q = list(p.p)
    q[x] -= 1
    q[x + 1] += 3
    return PilotAssignmentVector(L=p.L, K=p.K, p=tuple(q))


@st.composite
def dyadic_profiles(draw, max_m=6):
    """Exact float profiles whose gains 3^-i (C_{i+1} - C_i) are positive and
    nonincreasing, all in units of 1/64, with 2 to max_m depths."""
    m = draw(st.integers(2, max_m))
    rises = draw(st.lists(st.integers(0, 64), min_size=m - 1, max_size=m - 1))
    g = np.cumsum([1 + rises[-1], *rises[-2::-1]])[::-1] / 64
    C = [draw(st.integers(1, 640)) / 64]
    for i, g_i in enumerate(g):
        C.append(C[-1] + 3**i * g_i)
    return RateProfile(C=np.array(C), stderr=np.zeros(m))


class TestBreakpoints:
    def test_strictly_increasing(self, profile81):
        for K in (1, 2):
            table = breakpoints(81, K, profile81)
            assert all(a < b for a, b in zip(table.exact, table.exact[1:]))
            assert len(table.exact) == (81 * K // 3 - K) // 2

    def test_constant_eta_steps_by_four(self):
        table = breakpoints(81, 1, LINEAR)
        # eta of Delta_n: the shallowest leaf depth of the length-(2n-1) optimum
        etas = [next(i for i, x in enumerate(optimal_for_length(81, 1, 2 * n - 1)) if x)
                for n in range(1, len(table.exact) + 1)]
        for n in range(1, len(table.exact)):
            if etas[n] == etas[n - 1]:
                assert table.exact[n] - table.exact[n - 1] == 4

    def test_matches_independent_root_finding(self, profile81):
        table = breakpoints(81, 1, profile81)
        for n in (1, 2, 5, 9, 13):
            p_low = optimal_for_length(81, 1, 2 * (n - 1) + 1)
            p_high = optimal_for_length(81, 1, 2 * n + 1)
            delta = float(table.exact[n - 1])
            root = _bisect_crossing(p_low, p_high, profile81,
                                    lo=pilot_length(p_high) + 1e-9, hi=10 * delta)
            assert abs(delta - root) < 1e-6 * delta

    @pytest.mark.parametrize("C, depth", [
        ([1.0, 7.0, 7.0, 19.0], 1),
        # g = 3^-i (C_{i+1} - C_i) = (2, 7/3): g rises, though C increases
        ([3.0, 5.0, 12.0], 1),
        ([1.0, 2.0, 3.0, 10.0], 2),
    ], ids=["flat", "rising-L27", "rising-L81"])
    def test_non_increasing_rates_rejected(self, C, depth):
        rates = RateProfile(C=np.array(C), stderr=np.zeros(len(C)))
        for K in (1, 2):
            with pytest.raises(ValueError, match=f"at depth {depth},"):
                breakpoints(3 ** len(C), K, rates)

    @pytest.mark.parametrize("C", [[-5.0, -4.0], [-5.0, -4.0, -3.5], [0.0, 1.0]],
                             ids=["L9", "L27", "zero"])
    def test_non_positive_C0_rejected(self, C):
        # the gains are positive, but C_sum would not be
        rates = RateProfile(C=np.array(C), stderr=np.zeros(len(C)))
        for K in (1, 2):
            with pytest.raises(ValueError, match=f"C_0 = {C[0]} is not positive"):
                breakpoints(3 ** len(C), K, rates)

    @given(dyadic_profiles(), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_consecutive_breakpoints_are_at_least_four_apart(self, rates, K):
        # inside the hypothesis Delta_{n+2} - Delta_{n+1} = 4 + 2 c_{n+1}
        # (1/G_{n+1} - 1/G_n) >= 4 (see `breakpoints`), so no table it
        # returns can fail to increase
        exact = breakpoints(3**rates.m, K, rates).exact
        assert all(b - a >= 4 for a, b in zip(exact, exact[1:]))

    @given(dyadic_profiles(), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_match_the_frozen_formula(self, rates, K):
        L = 3**rates.m
        assert breakpoints(L, K, rates).exact == _frozen_breakpoints(L, K, rates.C)
        for N_p0 in valid_pilot_lengths(L, K)[:-1]:
            p = optimal_for_length(L, K, N_p0)
            assert corollary_step(p) == _frozen_corollary_step(p)

    @given(dyadic_profiles(max_m=4), st.integers(1, 3))
    @example(RateProfile(C=np.array([1.0, 2.0, 5.0, 14.0]), stderr=np.zeros(4)), 2)
    @settings(max_examples=100, deadline=None)
    def test_closed_forms_match_the_oracle_inside_the_hypothesis(self, rates, K):
        # the hypothesis's boundary included: equal gains (the example's are
        # all 1) tie every chain of a length, and the regime rule decides
        L = 3**rates.m
        oracle = optimizer.exhaustive_extremes(L, K, rates)
        N_coh = range(1, 4 * valid_pilot_lengths(L, K)[-1] + 1)
        for res in (check_theorem1(L, K, oracle), check_theorem2(L, K, rates, oracle, N_coh),
                    check_corollary1(L, K)):
            assert res.ok, (res.name, res.failures)
        C = [Fraction(c) for c in rates.C]

        def exact_cnet(p, N):
            return (N - pilot_length(p)) / N * sum(x * C[i] / 3**i for i, x in enumerate(p))

        # Delta_n is where the optima of lengths 2n+K-2 and 2n+K tie, and
        # nothing beats them there
        for n, delta in enumerate(breakpoints(L, K, rates).exact, start=1):
            low = optimal_for_length(L, K, 2 * n + K - 2)
            high = optimal_for_length(L, K, 2 * n + K)
            assert exact_cnet(low, delta) == exact_cnet(high, delta)
            best = optimizer.oracle_optimum(oracle, N_coh=delta)
            assert exact_cnet(best, delta) == exact_cnet(high, delta)

    def test_regime_counts_breakpoints_at_or_below(self):
        # linear rates put breakpoints on integers, where the regime is closed
        table = breakpoints(81, 2, LINEAR)
        assert any(d.denominator == 1 for d in table.exact)
        for N_coh in range(1, int(table.exact[-1]) + 3):
            assert table.regime(N_coh) == sum(d <= N_coh for d in table.exact)


class TestOptimalAssignment:
    def test_measured_profile_examples(self, profile81):
        assert optimal_assignment(81, 1, 20, profile81).p == (0, 2, 3, 0)
        assert optimal_assignment(81, 2, 35, profile81).p == (0, 5, 3, 0)
        assert optimal_assignment(81, 1, 200, profile81).p == (0, 0, 0, 27)

    def test_small_coherence_time_gives_full_reuse(self, profile81):
        assert optimal_assignment(81, 1, 1, profile81).p == (1, 0, 0, 0)
        assert optimal_assignment(81, 3, 2, profile81).p == (3, 0, 0, 0)

    def test_against_brute_force_on_measured_profile(self, profile81):
        for N_coh in (10, 20, 40, 90):
            closed = optimal_assignment(81, 1, N_coh, profile81)
            brute = brute_force_optimal(81, 1, profile81, objective="cnet",
                                        N_coh=N_coh)
            assert closed.p == brute.p


class TestBruteForce:
    def test_length_constrained_matches_theorem(self):
        got = brute_force_optimal(81, 1, LINEAR, objective="csum", N_p0=7)
        assert got.p == (0, 1, 6, 0)

    def test_all_lengths_L27_K2(self):
        rates = synthetic_linear_profile(1.0, 6.0, 3)
        for N_p0 in sorted(valid_pilot_lengths(27, 2)):
            brute = brute_force_optimal(27, 2, rates, objective="csum", N_p0=N_p0)
            assert brute.p == optimal_for_length(27, 2, N_p0).p

    def test_depth_mismatch_refused(self):
        # L=27 has 3 depths; LINEAR has 4
        with pytest.raises(ValueError, match="depths"):
            optimizer.exhaustive_extremes(27, 1, LINEAR)
        with pytest.raises(ValueError, match="depths"):
            brute_force_optimal(27, 2, LINEAR, objective="csum", N_p0=4)

    def test_strictly_better_than_any_other_same_length(self):
        best = optimal_for_length(81, 1, 7)
        for other in enumerate_assignments(81, 1):
            if pilot_length(other) == 7 and other.p != best.p:
                assert csum(best, LINEAR) > csum(other, LINEAR)

    @pytest.mark.parametrize("L", [9, 27])
    @pytest.mark.parametrize("kind", ["linear", "increasing", "signed"])
    def test_one_pass_matches_per_query_argmax(self, L, kind):
        """Every query against a fresh Fraction argmax, first strict max wins."""
        m = {9: 2, 27: 3}[L]
        # every gain 3^-i (C_{i+1} - C_i) is 1 for "increasing", so whole
        # lengths tie; "signed" makes negative and zero factors (N_coh <= N_pil)
        # decide the winner
        C = {"linear": [1.0, 7.0, 13.0], "increasing": [-1.0, 0.0, 3.0],
             "signed": [-2.0, -3.0, 3.0]}[kind][:m]
        rates = RateProfile(C=C, stderr=np.zeros(m))
        weights = [Fraction(float(c)) / 3**i for i, c in enumerate(rates.C)]
        for K in (1, 2, 3):
            vectors = list(enumerate_assignments(L, K))
            sums = [sum(x * w for x, w in zip(p.p, weights)) for p in vectors]
            for N_coh in range(1, 4 * L * K // 3 + 1):
                want = _first_argmax([(Fraction(N_coh - pilot_length(p), N_coh) * c, p)
                                      for p, c in zip(vectors, sums)])
                got = brute_force_optimal(L, K, rates, objective="cnet", N_coh=N_coh)
                assert got.p == want, (K, N_coh)
            got = brute_force_optimal(L, K, rates, objective="csum")
            assert got.p == _first_argmax(list(zip(sums, vectors)))
            for N_p0 in valid_pilot_lengths(L, K):
                want = _first_argmax([(c, p) for p, c in zip(vectors, sums)
                                      if pilot_length(p) == N_p0])
                got = brute_force_optimal(L, K, rates, objective="csum", N_p0=N_p0)
                assert got.p == want, (K, N_p0)

    def test_cap_enforced(self, monkeypatch):
        # unfiltered enumeration for L=81, K=3 holds 238 vectors
        monkeypatch.setattr(optimizer, "BRUTE_FORCE_CAP", 10)
        with pytest.raises(ValueError):
            brute_force_optimal(81, 3, LINEAR, objective="cnet", N_coh=40)

    @pytest.mark.parametrize("objective, N_coh", [("cnet", None), ("csum", 3)])
    def test_needs_N_coh_for_cnet(self, objective, N_coh):
        # only C_net reads N_coh: csum with one would ignore the pilot budget
        with pytest.raises(ValueError, match=f"'{objective}'.*N_coh"):
            brute_force_optimal(81, 1, synthetic_linear_profile(1, 6, 4),
                                objective=objective, N_coh=N_coh)


def _rational_extremes(L, K, rates):
    """`optimizer.exhaustive_extremes` as first stated, C_sum in Fractions:
    per pilot length and factor sign, the C_sum max, min and first vector."""
    weights = [Fraction(float(c)) / 3**i for i, c in enumerate(rates.C)]
    table = {}
    for p in enumerate_assignments(L, K):
        val = sum(x * w for x, w in zip(p.p, weights) if x)
        best = table.setdefault(pilot_length(p), {1: (val, p), 0: (val, p), -1: (val, p)})
        if val > best[1][0]:
            best[1] = (val, p)
        elif val < best[-1][0]:
            best[-1] = (val, p)
    return table


def _rational_optimum(table, N_coh=None, N_p0=None):
    """`optimizer.oracle_optimum` as first stated, on a `_rational_extremes` table."""
    best = None
    for S in table if N_p0 is None else [N_p0]:
        scale = 1 if N_coh is None else N_coh - S
        val, p = table[S][(scale > 0) - (scale < 0)]
        val *= scale
        if best is None or val > best_val or (val == best_val and p.p < best.p):
            best, best_val = p, val
    return best


class TestIntegerOracle:
    # signed dyadic rates of few distinct values, so that many vectors tie
    @given(L=st.sampled_from([9, 27, 81]), K=st.integers(1, 3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_rational_oracle(self, L, K, data):
        m = {9: 2, 27: 3, 81: 4}[L]
        C = data.draw(st.lists(st.builds(lambda n, e: n / 2**e, st.integers(-8, 8),
                                         st.integers(0, 5)), min_size=m, max_size=m))
        rates = RateProfile(C=C, stderr=[0.0] * m)
        got, want = optimizer.exhaustive_extremes(L, K, rates), _rational_extremes(L, K, rates)
        # each entry is one positive multiple of the rational C_sum, as an int,
        # with the same vector
        assert got.keys() == want.keys()
        scales = set()
        for S in want:
            for sign in (1, 0, -1):
                (val, p), (exact, q) = got[S][sign], want[S][sign]
                assert type(val) is int and p.p == q.p
                if exact:
                    scales.add(val / exact)
                else:
                    assert val == 0
        assert len(scales) <= 1 and all(scale > 0 for scale in scales)
        # and every query has the same winner, ties going to the smallest vector
        assert optimizer.oracle_optimum(got).p == _rational_optimum(want).p
        for N_p0 in valid_pilot_lengths(L, K):
            assert (optimizer.oracle_optimum(got, N_p0=N_p0).p
                    == _rational_optimum(want, N_p0=N_p0).p), N_p0
        for N_coh in range(1, 4 * L * K // 3 + 1):
            assert (optimizer.oracle_optimum(got, N_coh=N_coh).p
                    == _rational_optimum(want, N_coh=N_coh).p), N_coh


class TestRandomAssignment:
    def test_minimum_pilots_is_permutation(self):
        rng = derive_rng(0, 5)
        a = random_assignment(9, 3, 3, rng)
        assert a.shape == (9, 3)
        for cell in range(9):
            assert sorted(a[cell].tolist()) == [0, 1, 2]

    def test_too_few_pilots_rejected(self):
        with pytest.raises(ValueError):
            random_assignment(9, 3, 2, derive_rng(0, 5))

    def test_pairwise_collision_rate(self):
        # two cells share a given pilot with probability 1/N_pil
        rng = derive_rng(0, 6)
        N_pil, L, reps = 27, 81, 60
        hits = total = 0
        for _ in range(reps):
            a = random_assignment(L, 1, N_pil, rng)[:, 0]
            hits += sum(int(x == a[0]) for x in a[1:])
            total += L - 1
        rate = hits / total
        sigma = np.sqrt((1 / N_pil) * (1 - 1 / N_pil) / total)
        assert abs(rate - 1 / N_pil) < 4 * sigma

    def test_mean_cnet_below_optimal_at_matched_length(self, tables81, profile81):
        N_coh = 40
        p_opt = optimal_assignment(81, 1, N_coh, profile81)
        N_pil = pilot_length(p_opt)
        mean = (N_coh - N_pil) / N_coh * random_sum_rate(tables81, 1, N_pil)
        assert mean < cnet(p_opt, profile81, N_coh)

    def test_mean_cnet_reproducible(self, lat27, tables27):
        # exact: a fresh set of tables gives the same bits
        a = (20 - 3) / 20 * random_sum_rate(tables27, 1, 3)
        b = (20 - 3) / 20 * random_sum_rate(laplace_tables(lat27, 3.7), 1, 3)
        assert a == b


class TestTrainingFractionSweep:
    def test_fraction_definition_and_decay(self, profile81):
        points = sweep_training_fraction(81, 1, range(5, 120), profile81)
        by_coh = {pt.N_coh: pt for pt in points}
        for pt in points:
            assert pt.training_fraction == pytest.approx(
                pilot_length(pt.p) / pt.N_coh)
        # within one regime the fraction decays hyperbolically
        for a, b in zip(points, points[1:]):
            if a.p.p == b.p.p:
                assert b.training_fraction < a.training_fraction

    def test_jumps_at_breakpoints(self, profile81):
        table = breakpoints(81, 1, profile81)
        points = sweep_training_fraction(81, 1, range(5, 120), profile81)
        jumps = [b.N_coh for a, b in zip(points, points[1:])
                 if b.training_fraction > a.training_fraction]
        expected = {math.ceil(d) for d in table.exact if 5 < d <= 119}
        assert set(jumps) == expected

    def test_full_reuse_fraction_vanishes(self):
        # K/N_coh drops below any threshold; the optimal fraction does not
        assert 1 / 1000 < 0.05

    def test_coherence_shorter_than_K_keeps_full_reuse(self, profile81):
        # N_coh < K fits no assignment; the sweep reports full reuse and its
        # training share K / N_coh instead of failing
        points = sweep_training_fraction(81, 3, [1, 2], profile81)
        for pt in points:
            assert pt.p.p == (3, 0, 0, 0)
            assert pt.training_fraction == 3 / pt.N_coh
            assert pt.C_net < 0


@pytest.mark.parametrize("K", [0, -1])
def test_K_below_one_refused(K):
    profile = synthetic_linear_profile(1.0, 6.0, 3)
    with pytest.raises(ValueError, match=f"K must be >= 1, got {K}"):
        breakpoints(27, K, profile)
    with pytest.raises(ValueError, match=f"K must be >= 1, got {K}"):
        optimal_assignment(27, K, 40, profile)
    with pytest.raises(ValueError, match=f"K must be >= 1, got {K}"):
        optimal_assignment(27, K, 40, profile, table=breakpoints(27, 1, profile))
    with pytest.raises(ValueError, match=f"K must be >= 1, got {K}"):
        optimal_for_length(27, K, K)


def _reference_mean_sum_rate(lattice, K, N_pil, gamma, trials, seed):
    """Per-user loop: one min_image_norms call per (BS, interferer) pair."""
    vals = []
    for t in range(trials):
        rng = derive_rng(seed, DOMAIN_RANDOM_ASSIGN, t)
        a = random_assignment(lattice.L, K, N_pil, rng)
        offsets = lattice.sample_cell_offsets(lattice.L * K, rng).reshape(lattice.L, K, 2)
        total = 0.0
        for pilot in range(N_pil):
            users = [(c, int(np.flatnonzero(a[c] == pilot)[0]))
                     for c in np.flatnonzero((a == pilot).any(axis=1))]
            for c, k in users:
                interference = 0.0
                for c2, k2 in users:
                    if c2 != c:
                        delta = lattice.centers[c2] + offsets[c2, k2] - lattice.centers[c]
                        interference += lattice.min_image_norms(delta)[0] ** (-2.0 * gamma)
                if interference > 0:
                    own = offsets[c, k]
                    total += np.log2(1.0 + (own @ own) ** (-gamma) / interference)
        vals.append(total / lattice.L)
    vals = np.array(vals)
    return vals.mean(), vals.std(ddof=1) / np.sqrt(trials)


class TestRandomMeanSumRate:
    # at (1, 1000) half the trials have no user sharing a pilot and call
    # the kernel with no pairs
    @pytest.mark.parametrize("K,N_pil", [(1, 3), (1, 9), (2, 5), (1, 1000)])
    def test_matches_per_user_reference(self, lat27, K, N_pil):
        got = random_mean_sum_rate(lat27, K, N_pil, gamma=3.7, trials=6, seed=4)
        want = _reference_mean_sum_rate(lat27, K, N_pil, 3.7, 6, 4)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("K,N_pil", [(1, 4), (2, 5), (3, 11)])
    def test_blocks_of_mixed_group_widths_match_reference(self, lat27, K, N_pil):
        # trials whose pilot groups differ in width, so the pairs of one
        # trial do not all share a group size
        got = random_mean_sum_rate(lat27, K, N_pil, gamma=3.7, trials=9, seed=2)
        want = _reference_mean_sum_rate(lat27, K, N_pil, 3.7, 9, 2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("trials", [1, 0, -3])
    def test_fewer_than_two_trials_refused(self, lat27, trials):
        with pytest.raises(ValueError, match="at least 2 trials"):
            random_mean_sum_rate(lat27, 1, 3, trials=trials)

    @pytest.mark.parametrize("gamma", [-1.0, 1.0, 2.0])
    def test_gamma_of_two_or_less_refused(self, lat27, gamma):
        # the channel's rule: the torus interference sum diverges for gamma <= 2
        with pytest.raises(ValueError, match=f"gamma must exceed 2, got {gamma}"):
            random_mean_sum_rate(lat27, 1, 3, gamma=gamma, trials=2)


class TestExactRandomBaseline:
    @pytest.mark.parametrize("lattice", ["lat27", "lat81"])
    def test_finer_evaluation_agrees(self, request, monkeypatch, lattice):
        lat = request.getfixturevalue(lattice)
        tables = request.getfixturevalue(lattice.replace("lat", "tables"))
        finer_quadrature(monkeypatch)
        finer = laplace_tables(lat, 3.7)
        for K in (1, 2, 3):
            for N_pil in sorted(n for n in valid_pilot_lengths(lat.L, K) if n <= 27):
                assert random_sum_rate(tables, K, N_pil) == pytest.approx(
                    random_sum_rate(finer, K, N_pil), rel=1e-7, abs=0), (K, N_pil)

    @pytest.mark.parametrize("m, hole, wrap, K, N_pil", [
        (4, 0.14, True, 1, 1), (4, 0.14, True, 1, 3), (4, 0.14, True, 1, 9),
        (4, 0.14, True, 2, 2), (4, 0.14, True, 2, 8), (4, 0.14, True, 3, 27),
        (3, 0.14, False, 1, 3), (3, 0.0, True, 1, 3), (3, 0.3, True, 2, 4),
    ])
    def test_matches_monte_carlo(self, m, hole, wrap, K, N_pil):
        lat = build_lattice(m, hole_ratio=hole, wraparound=wrap)
        exact = random_sum_rate(laplace_tables(lat, 3.7), K, N_pil)
        mean, stderr = random_mean_sum_rate(lat, K, N_pil, trials=500, seed=23)
        assert abs(mean - exact) <= 4 * stderr, (mean, stderr, exact)

    @pytest.mark.parametrize("K", [0, -1])
    def test_K_below_one_refused(self, tables27, K):
        with pytest.raises(ValueError, match=f"K must be >= 1, got {K}"):
            random_sum_rate(tables27, K, 3)

    def test_fewer_pilots_than_users_refused(self, tables27):
        with pytest.raises(ValueError, match="N_pil 2 is below K = 3"):
            random_sum_rate(tables27, 3, 2)


def _realized_sum_rate(tables, p) -> float:
    """Exact per-cell sum rate of realize(p): each user's interferers are the
    other cells that hold its pilot, each with weight 1."""
    lat = tables.lattice
    pilots = realize(p, lat)
    holds = np.zeros((lat.L, pilot_length(p)))
    holds[np.arange(lat.L)[:, None], pilots] = 1.0
    weights = holds[:, pilots].transpose(1, 2, 0).copy()  # (tagged, k, cell)
    cells = np.arange(lat.L)
    weights[cells, :, cells] = 0.0
    tagged = np.broadcast_to(cells[:, None], pilots.shape)
    return float(expected_rate(tables, tagged, weights).sum() / lat.L)


@pytest.mark.parametrize("lattice", ["lat27", "lat81"])
def test_realized_network_binds_to_csum(request, lattice):
    # an identity on the torus: p_i leaves of depth i serve L/3^i users each
    # at rate C_i, so a difference is a bug in realize, the cosets or csum
    lat = request.getfixturevalue(lattice)
    tables = request.getfixturevalue(lattice.replace("lat", "tables"))
    exact = rate_profile(lat, 3.7)
    for K in (1, 2, 3):
        vectors = list(enumerate_assignments(lat.L, K))
        for p in vectors[::max(1, len(vectors) // 25)]:
            assert _realized_sum_rate(tables, p) == pytest.approx(
                csum(p, exact), rel=1e-12, abs=0), p.p
