from fractions import Fraction

import numpy as np
import pytest

from pilotreuse import (PilotAssignmentVector, RateProfile, breakpoints,
                        brute_force_optimal, cnet, corollary_step, csum,
                        derive_rng, enumerate_assignments, optimal_assignment,
                        optimal_for_length, pilot_length, random_assignment,
                        random_mean_cnet, realize, sweep_training_fraction,
                        synthetic_linear_profile, valid_pilot_lengths)
from pilotreuse import optimizer
from pilotreuse.channel import (DOMAIN_RANDOM_ASSIGN, expected_rate, laplace_tables,
                                rate_profile)
from pilotreuse.hexgrid import HexLattice, build_lattice
from pilotreuse.optimizer import random_mean_sum_rate, random_sum_rate

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
        from pilotreuse.assignment import chi
        for K in (1, 2, 3):
            for N_p0 in sorted(valid_pilot_lengths(81, K)):
                p = optimal_for_length(81, K, N_p0)
                support = [i for i, x in enumerate(p.p) if x > 0]
                x = chi(N_p0, K)
                assert support in ([x], [x, x + 1])
                assert pilot_length(p) == N_p0


class TestCorollaryStep:
    def test_paper_examples(self):
        assert corollary_step(vec(81, 1, 0, 3, 0, 0), 3).p == (0, 2, 3, 0)
        assert corollary_step(vec(81, 1, 0, 1, 6, 0), 7).p == (0, 0, 9, 0)
        assert corollary_step(vec(81, 10, 9, 3, 0, 0), 12).p == (8, 6, 0, 0)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            corollary_step(vec(81, 1, 0, 0, 0, 27), 27)

    def test_chain_reproduces_closed_form(self):
        lengths = sorted(valid_pilot_lengths(27, 3))
        p = optimal_for_length(27, 3, lengths[0])
        for N_p0, N_next in zip(lengths, lengths[1:]):
            p = corollary_step(p, N_p0)
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


class TestBreakpoints:
    def test_strictly_increasing(self, profile81):
        for K in (1, 2):
            table = breakpoints(81, K, profile81)
            assert np.all(np.diff(table.Delta) > 0)
            assert len(table.exact) == (81 * K // 3 - K) // 2

    def test_constant_eta_steps_by_four(self):
        from pilotreuse.assignment import chi
        table = breakpoints(81, 1, LINEAR)
        etas = [chi(2 * n + 1 - 2, 1) for n in range(1, len(table.exact) + 1)]
        for n in range(1, len(table.exact)):
            if etas[n] == etas[n - 1]:
                assert table.Delta[n] - table.Delta[n - 1] == pytest.approx(4.0)

    def test_matches_independent_root_finding(self, profile81):
        table = breakpoints(81, 1, profile81)
        for n in (1, 2, 5, 9, 13):
            p_low = optimal_for_length(81, 1, 2 * (n - 1) + 1)
            p_high = optimal_for_length(81, 1, 2 * n + 1)
            delta = table.Delta[n - 1]
            root = _bisect_crossing(p_low, p_high, profile81,
                                    lo=pilot_length(p_high) + 1e-9, hi=10 * delta)
            assert abs(delta - root) < 1e-6 * delta

    def test_non_increasing_rates_rejected(self):
        flat = synthetic_linear_profile(1.0, 6.0, 4)
        flat.C[2] = flat.C[1]
        with pytest.raises(ValueError):
            breakpoints(81, 1, flat)

    def test_regime_counts_breakpoints_at_or_below(self):
        # linear rates put breakpoints on integers, where the regime is closed
        table = breakpoints(81, 2, LINEAR)
        assert any(d.denominator == 1 for d in table.exact)
        for N_coh in range(1, int(table.Delta[-1]) + 3):
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

    def test_needs_N_coh_for_cnet(self):
        with pytest.raises(ValueError):
            brute_force_optimal(27, 1, synthetic_linear_profile(1, 6, 3),
                                objective="cnet")


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
        mean = random_mean_cnet(tables81, 1, pilot_length(p_opt), N_coh)
        assert mean < cnet(p_opt, profile81, N_coh)

    def test_mean_cnet_reproducible(self, lat27, tables27):
        # exact: a fresh set of tables gives the same bits
        a = random_mean_cnet(tables27, 1, 3, 20)
        b = random_mean_cnet(laplace_tables(lat27, 3.7), 1, 3, 20)
        assert a == b == (20 - 3) / 20 * random_sum_rate(tables27, 1, 3)


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
        expected = {int(np.ceil(d)) for d in table.Delta if 5 < d <= 119}
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
    @pytest.mark.parametrize("K,N_pil", [(1, 3), (1, 9), (2, 5)])
    def test_matches_per_user_reference(self, lat27, K, N_pil):
        got = random_mean_sum_rate(lat27, K, N_pil, gamma=3.7, trials=6, seed=4)
        want = _reference_mean_sum_rate(lat27, K, N_pil, 3.7, 6, 4)
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

    @staticmethod
    def _record_pairs(monkeypatch):
        """Patch the kernel to record each call's pair count."""
        pairs = []
        kernel = HexLattice.user_distances

        def recording(self, bs, cells, offsets):
            pairs.append(np.broadcast_shapes(np.shape(bs), np.shape(cells),
                                             np.shape(offsets)[:-1]))
            return kernel(self, bs, cells, offsets)

        monkeypatch.setattr(HexLattice, "user_distances", recording)
        return pairs

    @staticmethod
    def _trial_pairs(L, K, N_pil, trials, seed):
        """Ordered pairs of distinct users sharing a pilot, per trial."""
        out = []
        for t in range(trials):
            pilots = random_assignment(L, K, N_pil, derive_rng(seed, DOMAIN_RANDOM_ASSIGN, t))
            counts = np.bincount(pilots.ravel())
            out.append(int(counts @ counts) - L * K)
        return out

    @pytest.mark.parametrize("lattice,N_pil", [("lat81", 9), ("lat27", 9), ("lat81", 1)])
    def test_one_kernel_call_per_block(self, request, monkeypatch, lattice, N_pil):
        lat = request.getfixturevalue(lattice)
        shapes = self._record_pairs(monkeypatch)
        random_mean_sum_rate(lat, 1, N_pil, trials=40)
        # one flat list of pairs per call
        assert all(len(shape) == 1 for shape in shapes)
        # greedy blocks of consecutive trials: a call overflows the bound only
        # with a lone trial, and the next trial would not have fitted
        per_trial = self._trial_pairs(lat.L, 1, N_pil, 40, 0)
        assert sum(shape[0] for shape in shapes) == sum(per_trial)
        start = 0
        for (rows,) in shapes:
            end = start
            while end < 40 and sum(per_trial[start:end + 1]) <= rows:
                end += 1
            assert sum(per_trial[start:end]) == rows
            assert rows <= optimizer._BLOCK_ROWS or end == start + 1
            assert end == 40 or rows + per_trial[end] > optimizer._BLOCK_ROWS
            start = end

    @pytest.mark.parametrize("K,N_pil", [(1, 4), (2, 5), (3, 11)])
    def test_blocks_of_mixed_group_widths_match_reference(self, lat27, monkeypatch,
                                                          K, N_pil):
        monkeypatch.setattr(optimizer, "_BLOCK_ROWS", 500)
        shapes = self._record_pairs(monkeypatch)
        got = random_mean_sum_rate(lat27, K, N_pil, gamma=3.7, trials=9, seed=2)
        assert len(shapes) >= 3
        want = _reference_mean_sum_rate(lat27, K, N_pil, 3.7, 9, 2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("K,N_pil", [(1, 9), (2, 5)])
    def test_block_size_does_not_change_the_estimate(self, lat27, monkeypatch, K, N_pil):
        batched = random_mean_sum_rate(lat27, K, N_pil, trials=30, seed=8)
        monkeypatch.setattr(optimizer, "_BLOCK_ROWS", 1)  # one trial per call
        single = random_mean_sum_rate(lat27, K, N_pil, trials=30, seed=8)
        np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0)


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
            random_mean_cnet(tables27, 3, 2, 20)


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
