from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilotreuse import (FiniteMConfig, MuStats, PilotAssignmentVector,
                        build_lattice, cnet_finite, enumerate_assignments,
                        mu_stats, optimal_assignment_finite,
                        per_user_rate_cdf, pilot_length, realize, throughput_vs_m_sweep)
from pilotreuse import finitem
from pilotreuse.channel import DOMAIN_CDF, derive_rng
from pilotreuse.finitem import estimate_mu_stats, interference
from pilotreuse.hexgrid import HexLattice

from conftest import FOLDED, one_pair_per_class


def vec(L, K, *p):
    return PilotAssignmentVector(L=L, K=K, p=tuple(p))


class TestInterference:
    def test_limit_is_contamination_floor(self, mu27):
        for i in range(3):
            lim = interference(i, 10**15, 2, 10**0.5, 5, mu27)
            assert lim == pytest.approx(mu27.mu3[i], rel=1e-6)

    def test_decreasing_in_M(self, mu27):
        values = [interference(0, M, 2, 10**0.5, 5, mu27)
                  for M in (1, 10, 100, 1000)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_higher_snr_weakly_decreases(self, mu27):
        low = interference(1, 64, 2, 1.0, 5, mu27)
        high = interference(1, 64, 2, 2.0, 5, mu27)
        assert high <= low

    def test_validation(self, mu27):
        with pytest.raises(ValueError):
            interference(0, 0, 2, 1.0, 5, mu27)
        with pytest.raises(ValueError):
            interference(0, 8, 2, 1.0, 0, mu27)


class TestMuStats:
    def test_aggregates_decrease_with_depth(self, mu27):
        assert np.all(np.diff(mu27.mu1) < 0)
        assert np.all(np.diff(mu27.mu2) < 0)
        assert np.all(np.diff(mu27.mu3) < 0)

    def test_own_cell_normalization(self, mu27):
        # the own-cell ratio term is identically 1, so mu0 >= 1 and the
        # depth-0 cross terms are strictly smaller than it
        assert mu27.mu0 >= 1.0
        assert mu27.mu0 == pytest.approx(1.0 + mu27.mu1[0], rel=1e-12)

    def test_everything_positive(self, mu81):
        assert np.all(mu81.mu1 > 0)
        assert np.all(mu81.mu2 > 0)
        assert np.all(mu81.mu3 > 0)


@pytest.mark.parametrize("trials", [0, -1])
def test_mu_trials_below_one_rejected(lat9, trials):
    with pytest.raises(ValueError, match="trials"):
        estimate_mu_stats(lat9, trials=trials)


@pytest.mark.parametrize("gamma", [-1.0, 1.0, 2.0])
def test_mu_gamma_of_two_or_less_rejected(lat9, gamma):
    with pytest.raises(ValueError, match=f"gamma must exceed 2.*got {gamma}"):
        estimate_mu_stats(lat9, gamma=gamma, trials=10)
    with pytest.raises(ValueError, match=f"gamma must exceed 2.*got {gamma}"):
        mu_stats(lat9, gamma=gamma)


def _moments(mu: MuStats) -> np.ndarray:
    return np.concatenate([[mu.mu0], mu.mu1, mu.mu2, mu.mu3])


EXACT_CASES = [(3, 0.14, True), (4, 0.14, True), (5, 0.14, True), (3, 0.14, False),
               (3, 0.0, True), (4, 0.0, True), (3, 0.3, True)]


class TestExactMuStats:
    @pytest.mark.parametrize("m, hole, wrap", EXACT_CASES)
    def test_converges(self, monkeypatch, m, hole, wrap):
        lat = build_lattice(m, hole_ratio=hole, wraparound=wrap)
        coarse = mu_stats(lat, 3.7)
        monkeypatch.setattr(finitem, "MU_ORDER", 32)
        np.testing.assert_allclose(_moments(coarse), _moments(mu_stats(lat, 3.7)),
                                   rtol=1e-7, atol=0)

    @pytest.mark.parametrize("m, hole, wrap", [c for c in EXACT_CASES if c[0] < 5])
    def test_matches_monte_carlo(self, m, hole, wrap):
        lat = build_lattice(m, hole_ratio=hole, wraparound=wrap)
        exact = mu_stats(lat, 3.7)
        mc = estimate_mu_stats(lat, 3.7, trials=20_000, seed=17)
        for got, want, se in ((exact.mu1, mc.mu1, mc.stderr_mu1),
                              (exact.mu3, mc.mu3, mc.stderr_mu3)):
            z = (got - want) / se
            assert np.all(np.abs(z) <= 5), z

    @pytest.mark.parametrize("m, wrap", FOLDED)
    def test_every_class_agrees_with_its_orbit(self, m, wrap):
        lat = build_lattice(m, wraparound=wrap)
        t, j, cls = one_pair_per_class(lat)
        nodes, weights = lat.position_rule(finitem.MU_ORDER)
        r_own = np.hypot(nodes[:, 0], nodes[:, 1])
        unfolded = (r_own / lat.user_distances(t[:, None], j[:, None], nodes)) ** 3.7
        rep = lat.orbit_reps[lat.pair_orbits(t, j)]
        folded = (r_own / lat.class_distances(rep[:, None], nodes)) ** 3.7
        moments = [np.array([x @ weights, (x * x) @ weights]) for x in (unfolded, folded)]
        np.testing.assert_allclose(*moments, rtol=1e-13, atol=0)
        # mu_stats sums the same moments as every pair's own would give
        zero = np.zeros(cls.shape)
        want = finitem._aggregate(lat, 3.7, *moments[0][:, cls], zero, zero)
        np.testing.assert_allclose(_moments(mu_stats(lat, 3.7)), _moments(want),
                                   rtol=1e-13, atol=0)

    def test_own_cell_and_inputs(self):
        lat = build_lattice(3, hole_ratio=0.3, wraparound=False)
        mu = mu_stats(lat, 3.2)
        assert mu.mu0 == pytest.approx(1.0 + mu.mu1[0], rel=1e-12)
        assert mu.gamma == 3.2
        assert not mu.stderr_mu1.any() and not mu.stderr_mu3.any()
        assert np.all(np.diff(mu.mu1) < 0) and np.all(np.diff(mu.mu3) < 0)


class TestFit:
    """A vector fits a config when both have the same K and its pilots fit N_coh."""

    @pytest.mark.parametrize("p, cfg", [
        (vec(9, 2, 2, 0), FiniteMConfig(M=8, K=1, N_coh=5)),
        (vec(9, 1, 0, 3), FiniteMConfig(M=8, K=1, N_coh=2)),
    ], ids=["K", "N_coh"])
    def test_cnet_and_cdf_refuse_naming_both_values(self, lat9, p, cfg):
        mu = _synthetic_mu(2, np.random.default_rng(0))
        want = (f"p = {p.dashed()} (K = {p.K}, pilot length {pilot_length(p)}) "
                f"does not fit cfg (K = {cfg.K}, N_coh = {cfg.N_coh})")
        for call in (lambda: cnet_finite(p, cfg, mu),
                     lambda: per_user_rate_cdf(p, cfg, lat9, trials=2)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == want


class TestCnetFinite:
    def test_single_depth_formula(self, mu27):
        cfg = FiniteMConfig(M=128, K=2, N_coh=40)
        got = cnet_finite(vec(27, 2, 2, 0, 0), cfg, mu27)
        I0 = interference(0, 128, 2, cfg.rho_linear, 2, mu27)
        want = 2 * (1 - 2 / 40) * np.log2(1 + 1 / I0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_reduces_to_asymptotic_net_rate(self, mu27):
        # Monte-Carlo-free limit check against the contamination-floor rates
        cfg = FiniteMConfig(M=10**9, K=2, N_coh=60)
        rates = np.log2(1 + 1 / mu27.mu3)
        for p in enumerate_assignments(27, 2):
            got = cnet_finite(p, cfg, mu27)
            asym = (1 - pilot_length(p) / 60) * sum(
                p[i] * rates[i] / 3**i for i in range(3))
            assert abs(got - asym) / asym < 1e-3

    def test_monotone_in_M(self, mu27):
        cfg_lo = FiniteMConfig(M=32, K=2, N_coh=40)
        cfg_hi = FiniteMConfig(M=64, K=2, N_coh=40)
        for p in enumerate_assignments(27, 2):
            assert cnet_finite(p, cfg_hi, mu27) >= cnet_finite(p, cfg_lo, mu27)

    def test_vector_for_another_lattice_refused(self, mu27):
        cfg = FiniteMConfig(M=128, K=1, N_coh=40)
        for p in (vec(9, 1, 1, 0), vec(81, 1, 1, 0, 0, 0)):
            with pytest.raises(ValueError, match=f"is for L = {p.L}, mu for L = 27"):
                cnet_finite(p, cfg, mu27)

    def test_infeasible_length_rejected(self, mu27):
        cfg = FiniteMConfig(M=128, K=2, N_coh=5)
        with pytest.raises(ValueError):
            cnet_finite(vec(27, 2, 0, 6, 0), cfg, mu27)


class TestOptimalAssignmentFinite:
    def test_table_regimes(self, mu81):
        # conventional reuse below the first transition, then the (-1, +3)
        # ladder.  A regime ends where the next ladder vector first beats it,
        # found from cnet_finite alone; each probe sits mid-regime, away from
        # the ties at the boundaries
        ladder = [vec(81, 10, *p) for p in ((10, 0, 0, 0), (9, 3, 0, 0), (8, 6, 0, 0),
                                            (7, 9, 0, 0), (6, 12, 0, 0), (5, 15, 0, 0))]

        def beats(q, p, N_coh):
            cfg = FiniteMConfig(M=128, K=10, N_coh=N_coh)
            return cnet_finite(q, cfg, mu81) > cnet_finite(p, cfg, mu81)

        ends = [next(n for n in range(pilot_length(q), 1000) if beats(q, p, n))
                for p, q in zip(ladder, ladder[1:])]
        starts = [10, *ends[:-1]]
        probes = {(lo + hi) // 2: p.p for lo, hi, p in zip(starts, ends, ladder)}
        assert len(probes) == 5
        for N_coh, want in probes.items():
            cfg = FiniteMConfig(M=128, K=10, N_coh=N_coh)
            got = optimal_assignment_finite(cfg, mu81)
            assert got.p == want, (N_coh, got.p)

    def test_lattice_comes_from_the_mu_statistics(self, mu27, mu81):
        cfg = FiniteMConfig(M=128, K=2, N_coh=20)
        for mu, L in ((mu27, 27), (mu81, 81)):
            got = optimal_assignment_finite(cfg, mu)
            assert isinstance(got, PilotAssignmentVector)
            assert (got.L, got.K, got.m) == (L, 2, mu.m)

    def test_argmax_dominates_everything(self, mu27):
        cfg = FiniteMConfig(M=100, K=2, N_coh=30)
        best = cnet_finite(optimal_assignment_finite(cfg, mu27), cfg, mu27)
        for p in enumerate_assignments(27, 2):
            if pilot_length(p) <= 30:
                assert best >= cnet_finite(p, cfg, mu27)

    def test_no_feasible_assignment(self, mu27):
        cfg = FiniteMConfig(M=128, K=4, N_coh=3)
        with pytest.raises(ValueError):
            optimal_assignment_finite(cfg, mu27)


def _synthetic_mu(m, rng):
    """Random moments; contamination floors fall with depth over four decades."""
    mu3 = np.sort(10.0 ** rng.uniform(-4.0, 0.3, m))[::-1]
    return MuStats(mu0=float(rng.uniform(1.0, 3.0)), mu1=rng.uniform(0.0, 2.0, m),
                   mu2=mu3 * rng.uniform(0.0, 1.0, m), mu3=mu3,
                   stderr_mu1=np.zeros(m), stderr_mu3=np.zeros(m),
                   gamma=3.7)


class TestExactness:
    """optimal_assignment_finite against the first argmax of cnet_finite
    over every valid vector, in enumeration (lexicographic) order."""

    @pytest.fixture(scope="class")
    def stats(self, lat9, lat27, lat81, mu27, mu81):
        # real moments: gamma 3.7 (L = 9 by Monte Carlo), 2.5 and 6, and the
        # plane at L = 27
        mu9 = estimate_mu_stats(lat9, gamma=3.7, trials=20_000, seed=3)
        lat243 = build_lattice(5)
        stats = {lat.L: (lat, [mu, mu_stats(lat, 2.5), mu_stats(lat, 6.0)])
                 for lat, mu in ((lat9, mu9), (lat27, mu27), (lat81, mu81),
                                 (lat243, mu_stats(lat243, 3.7)))}
        stats[27][1].append(mu_stats(build_lattice(3, wraparound=False), 3.7))
        return stats

    @staticmethod
    def first_argmax(vectors, cfg, mu):
        best = None
        for p in vectors:
            if pilot_length(p) <= cfg.N_coh:
                value = cnet_finite(p, cfg, mu)
                if best is None or value > best[1]:
                    best = (p, value)
        return best

    @pytest.mark.parametrize("L", [9, 27, 81, 243])
    def test_matches_first_argmax_of_enumeration(self, stats, L):
        lat, mus = stats[L]
        checked = 0
        users = (1, 2) if L == 243 else (1, 2, 3, 5, 10)
        for K in users:
            vectors = list(enumerate_assignments(L, K))
            for M in (4, 128, 10**6):
                for N_coh in sorted({K, K + 3, 3 * K, 5 * K + 1, L * K // 3, 400}):
                    cfg = FiniteMConfig(M=M, K=K, N_coh=N_coh)
                    for mu in mus:
                        want_p, want_c = self.first_argmax(vectors, cfg, mu)
                        got = optimal_assignment_finite(cfg, mu)
                        assert (got, cnet_finite(got, cfg, mu)) == (want_p, want_c), \
                            (L, K, M, N_coh)
                        checked += 1
        assert checked > 40 * len(users)

    @staticmethod
    def exact_first_argmax(L, K, N_coh, rates):
        """First vector of the exact maximum of C_net, rates[S] at S acts."""
        best = None
        for p in enumerate_assignments(L, K):
            n = pilot_length(p)
            if n <= N_coh:
                value = (1 - Fraction(n, N_coh)) * sum(
                    p[i] * Fraction(rates[(n - K) // 2][i]) / 3**i for i in range(p.m))
                if best is None or value > best[1]:
                    best = (p, value)
        return best

    @pytest.mark.parametrize("rates", [[1, 2, 5, 14]], ids=["whole"])
    def test_ties_go_to_the_lexicographically_smallest_vector(self, monkeypatch, rates):
        # integer rates with equal gains 3^-i (R_{i+1} - R_i) = 1: every chain
        # with S acts has C_sum = K + S, so whole lengths tie, and
        # N_coh = 3K + 4S + 2 = 32 makes S = 6 and S = 7 tie exactly in C_net
        monkeypatch.setattr("pilotreuse.finitem._depth_rates",
                            lambda M, K, rho, N_pil, mu: np.zeros(np.shape(N_pil) + (4,)) + rates)
        cfg = FiniteMConfig(M=128, K=2, N_coh=32)
        best = self.exact_first_argmax(81, 2, 32, [rates] * 27)  # one per length
        # the moments are never read, as _depth_rates is replaced; only m is
        mu = _synthetic_mu(4, np.random.default_rng(0))
        got = optimal_assignment_finite(cfg, mu)
        assert best[0].p == (0, 1, 15, 0)
        assert got == best[0]
        assert cnet_finite(got, cfg, mu) == pytest.approx(float(best[1]), rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), m=st.integers(2, 4), K=st.integers(1, 3))
    def test_fill_is_exact_where_gains_do_not_rise(self, data, m, K):
        # per-length rates whose gains 3^-i (R_{i+1} - R_i) are dyadic and do
        # not rise with depth, of any sign and often equal, different at each
        # length; N_coh is a power of two, so the float objective is exact
        # and its ties are exact ties
        N_coh = 2 ** data.draw(st.integers((K - 1).bit_length(), 6))
        gain = st.integers(-8, 8).map(lambda k: Fraction(k, 4))
        rates = []
        for _ in range((3 ** (m - 1) * K - K) // 2 + 1):
            gains = data.draw(st.lists(gain, min_size=m - 1, max_size=m - 1))
            R = [data.draw(gain)]
            for i, g_i in enumerate(sorted(gains, reverse=True)):
                R.append(R[-1] + 3**i * g_i)
            rates.append(R)
        table = np.array(rates, dtype=float)
        mu = _synthetic_mu(m, np.random.default_rng(0))  # only m is read
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(finitem, "_depth_rates",
                       lambda M, K, rho, N_pil, mu: table[(np.asarray(N_pil) - K) // 2])
            got = optimal_assignment_finite(FiniteMConfig(M=128, K=K, N_coh=N_coh), mu)
        assert got == self.exact_first_argmax(3**m, K, N_coh, rates)[0]


def _reference_rate_cdf(p, cfg, lattice, trials, seed, gamma=3.7):
    """Per-user loop: one min_image_norms call per base station."""
    pilots = realize(p, lattice)
    L, K, N_pil, rho = lattice.L, cfg.K, pilot_length(p), cfg.rho_linear
    out = []
    for t in range(trials):
        rng = derive_rng(seed, DOMAIN_CDF, t)
        offs = lattice.sample_cell_offsets(L * K, rng).reshape(L, K, 2)
        r_own = np.hypot(offs[..., 0], offs[..., 1])
        for j in range(L):
            delta = (lattice.centers[:, None, :] - lattice.centers[j]) + offs
            r_cross = lattice.min_image_norms(delta.reshape(-1, 2)).reshape(L, K)
            ratio = (r_own / r_cross) ** gamma
            for k in range(K):
                share = np.flatnonzero((pilots == pilots[j, k]).any(axis=1))
                rr = ratio[share[share != j], k]
                lead = (ratio.sum() + 1.0 / rho) * (1.0 + rr.sum() + 1.0 / (N_pil * rho))
                I = (rr ** 2).sum() + lead / cfg.M
                out.append((1.0 - N_pil / cfg.N_coh) * np.log2(1.0 + 1.0 / I))
    return np.sort(out)


class TestPerUserRateCdf:
    def test_sorted_and_deterministic(self, lat27, mu27):
        cfg = FiniteMConfig(M=100, K=1, N_coh=50)
        a = per_user_rate_cdf(vec(27, 1, 0, 3, 0), cfg, lat27, trials=6, seed=4)
        b = per_user_rate_cdf(vec(27, 1, 0, 3, 0), cfg, lat27, trials=6, seed=4)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)
        assert len(a) == 6 * 27

    def test_optimal_dominates_full_reuse(self, lat27, mu27):
        cfg = FiniteMConfig(M=100, K=1, N_coh=50)
        opt = optimal_assignment_finite(cfg, mu27)
        cdf_opt = per_user_rate_cdf(opt, cfg, lat27, trials=25, seed=8)
        cdf_full = per_user_rate_cdf(vec(27, 1, 1, 0, 0), cfg, lat27,
                                     trials=25, seed=8)
        # first-order dominance away from the extreme tails
        qs = np.linspace(0.05, 0.95, 19)
        assert np.all(np.quantile(cdf_opt, qs) > np.quantile(cdf_full, qs))

    @pytest.mark.parametrize("K,p", [(1, (0, 3, 0)), (1, (0, 2, 3)), (2, (1, 2, 3)),
                                     (2, (0, 5, 3))])
    def test_matches_per_user_reference(self, lat27, K, p):
        cfg = FiniteMConfig(M=100, K=K, N_coh=50)
        got = per_user_rate_cdf(vec(27, K, *p), cfg, lat27, trials=4, seed=6)
        want = _reference_rate_cdf(vec(27, K, *p), cfg, lat27, trials=4, seed=6)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_follows_its_gamma(self, lat27):
        cfg = FiniteMConfig(M=100, K=2, N_coh=50)
        p = vec(27, 2, 1, 2, 3)
        got = per_user_rate_cdf(p, cfg, lat27, gamma=3.0, trials=3, seed=5)
        want = _reference_rate_cdf(p, cfg, lat27, trials=3, seed=5, gamma=3.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        default = per_user_rate_cdf(p, cfg, lat27, trials=3, seed=5)
        assert not np.allclose(got, default)

    @pytest.mark.parametrize("gamma", [-1.0, 1.0, 2.0])
    def test_gamma_of_two_or_less_rejected(self, lat27, gamma):
        cfg = FiniteMConfig(M=100, K=1, N_coh=50)
        with pytest.raises(ValueError, match=f"gamma must exceed 2, got {gamma}"):
            per_user_rate_cdf(vec(27, 1, 1, 0, 0), cfg, lat27, gamma=gamma, trials=2)

    @pytest.mark.parametrize("K,p", [(1, (0, 3, 0)), (2, (1, 2, 3))])
    def test_blocks_of_trials_match_reference(self, lat27, monkeypatch, K, p):
        calls = []
        kernel = HexLattice.user_distances

        def recording(self, bs, cells, offsets):
            calls.append(np.shape(offsets)[0])
            return kernel(self, bs, cells, offsets)

        monkeypatch.setattr(HexLattice, "user_distances", recording)
        # more trials than fit one block of 2^13 (trial, BS, cell, user) entries
        per_block = (1 << 13) // (27 * 27 * K)
        trials = per_block + 2
        cfg = FiniteMConfig(M=100, K=K, N_coh=50)
        got = per_user_rate_cdf(vec(27, K, *p), cfg, lat27, trials=trials, seed=3)
        assert calls == [per_block, 2]
        want = _reference_rate_cdf(vec(27, K, *p), cfg, lat27, trials=trials, seed=3)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_blocks_of_base_stations_match_reference(self):
        # L^2 K > 2^20: the base stations split over two blocks
        lat = build_lattice(5)
        cfg = FiniteMConfig(M=400, K=18, N_coh=200)
        p = vec(243, 18, 0, 54, 0, 0, 0)
        got = per_user_rate_cdf(p, cfg, lat, trials=1, seed=2)
        want = _reference_rate_cdf(p, cfg, lat, trials=1, seed=2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected(self, lat27, trials):
        cfg = FiniteMConfig(M=100, K=1, N_coh=50)
        with pytest.raises(ValueError, match="trials"):
            per_user_rate_cdf(vec(27, 1, 1, 0, 0), cfg, lat27, trials=trials, seed=0)

    def test_infeasible_rejected(self, lat27):
        cfg = FiniteMConfig(M=100, K=1, N_coh=2)
        with pytest.raises(ValueError):
            per_user_rate_cdf(vec(27, 1, 0, 3, 0), cfg, lat27, trials=2, seed=0)

    def test_trials_has_no_default_and_is_keyword_only(self, lat27):
        # the count is the caller's: `finite --cdf-trials` owns its default
        cfg = FiniteMConfig(M=100, K=1, N_coh=50)
        p = vec(27, 1, 1, 0, 0)
        for call in (lambda: per_user_rate_cdf(p, cfg, lat27, seed=0),
                     lambda: per_user_rate_cdf(p, cfg, lat27, 3.7, 2)):
            with pytest.raises(TypeError):
                call()


class TestThroughputSweep:
    def test_rejects_ratio_below_one(self, mu27):
        for ratio in (0, -2):
            with pytest.raises(ValueError, match="M/K"):
                throughput_vs_m_sweep(mu27, ratio, [40], 2000)

    def test_rejects_empty_grid(self, mu27):
        with pytest.raises(ValueError, match="empty"):
            throughput_vs_m_sweep(mu27, 10, range(80, 41, 40), 2000)

    def test_rejects_non_multiple(self, mu27):
        with pytest.raises(ValueError):
            throughput_vs_m_sweep(mu27, 20, [50], 2000)

    def test_returns_configured_points(self, mu27):
        out = throughput_vs_m_sweep(mu27, 10, [40, 80], 500)
        assert [(M, K) for M, K, _, _ in out] == [(40, 4), (80, 8)]
        for M, K, p, c_net in out:
            cfg = FiniteMConfig(M=M, K=K, N_coh=500)
            assert p == optimal_assignment_finite(cfg, mu27)
            assert c_net == cnet_finite(p, cfg, mu27) > 0

    def test_skips_points_with_more_users_than_symbols(self, mu27):
        out = throughput_vs_m_sweep(mu27, 10, [40, 80, 120], 8)
        assert [(M, K) for M, K, _, _ in out] == [(40, 4), (80, 8)]

    def test_no_fitting_point_rejected(self, mu27):
        with pytest.raises(ValueError, match="no grid point fits"):
            throughput_vs_m_sweep(mu27, 10, [80, 120], 7)
