import math
from pathlib import Path

import numpy as np
import pytest

from pilotreuse import (ChannelConfig, RateProfile, build_lattice, channel, derive_rng,
                        estimate_rate_profile, synthetic_linear_profile)
from pilotreuse.channel import (CHUNK, _sir_chunk, expected_rate, laplace_tables,
                                rate_profile)

from conftest import finer_quadrature

SQRT3 = math.sqrt(3.0)
GAMMA = 3.7


class TestConfigValidation:
    def test_gamma_must_exceed_two(self, lat81):
        with pytest.raises(ValueError):
            ChannelConfig(lattice=lat81, gamma=2.0)

    def test_trials_positive(self, lat81):
        with pytest.raises(ValueError):
            ChannelConfig(lattice=lat81, trials=0)

    @pytest.mark.parametrize("other", [
        dict(m=3), dict(m=2, hole_ratio=0.2), dict(m=2, wraparound=False),
    ], ids=["L", "hole_ratio", "wraparound"])
    def test_config_for_another_lattice_refused(self, lat9, other):
        cfg = ChannelConfig(lattice=build_lattice(**other), trials=100)
        with pytest.raises(ValueError) as exc:
            estimate_rate_profile(lat9, cfg)
        theirs = cfg.lattice
        assert str((9, 0.14, True)) in str(exc.value)
        assert str((theirs.L, theirs.hole_ratio, theirs.wraparound)) in str(exc.value)

    def test_config_for_an_equal_lattice_accepted(self, lat9):
        cfg = ChannelConfig(lattice=build_lattice(2), trials=100)
        assert estimate_rate_profile(lat9, cfg).m == 2


class TestSyntheticProfile:
    def test_linear_values(self):
        prof = synthetic_linear_profile(1.0, 6.0, 4)
        assert prof.C.tolist() == [1.0, 7.0, 13.0, 19.0]
        assert prof.source == "synthetic-linear"

    def test_rejects_flat_or_negative(self):
        with pytest.raises(ValueError):
            synthetic_linear_profile(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            synthetic_linear_profile(0.0, 1.0, 4)

    def test_profile_invariants_hold(self):
        prof = synthetic_linear_profile(0.5, 2.5, 5)
        assert np.all(np.diff(prof.C) > 0)


class TestRateProfileType:
    def test_json_round_trip(self):
        prof = RateProfile(C=np.array([1.0, 2.5]), stderr=np.array([0.1, 0.2]),
                           gamma=GAMMA, trials=10, seed=4, hole_ratio=0.3,
                           wraparound=False)
        back = RateProfile.from_json(prof.to_json())
        assert np.array_equal(back.C, prof.C)
        assert (back.seed, back.hole_ratio, back.wraparound) == (4, 0.3, False)

    def test_non_monotone_rejected_at_high_trials(self):
        with pytest.raises(ValueError):
            RateProfile(C=np.array([2.0, 1.0]), stderr=np.zeros(2), trials=10_000)

    def test_non_monotone_accepted_at_low_trials(self):
        prof = RateProfile(C=np.array([2.0, 1.0]), stderr=np.zeros(2), trials=100)
        assert not np.all(np.diff(prof.C) > 0)

    @pytest.mark.parametrize("C", [[2.0, 1.0], [1.0, 1.0]], ids=["decreasing", "flat"])
    def test_non_monotone_exact_profile_rejected(self, C):
        # an exact profile records no trials, and is checked all the same
        with pytest.raises(ValueError, match="strictly increasing"):
            RateProfile(C=np.array(C), stderr=np.zeros(2), source="quadrature")


class TestEstimateRateProfile:
    def test_bit_reproducible(self, lat27):
        cfg = ChannelConfig(lattice=lat27, trials=2000, seed=11)
        a = estimate_rate_profile(lat27, cfg)
        b = estimate_rate_profile(lat27, cfg)
        assert np.array_equal(a.C, b.C)
        assert np.array_equal(a.stderr, b.stderr)

    def test_thread_count_does_not_change_results(self, lat27):
        cfg = ChannelConfig(lattice=lat27, trials=40_000, seed=5)
        serial = estimate_rate_profile(lat27, cfg, threads=1)
        threaded = estimate_rate_profile(lat27, cfg, threads=4)
        assert np.array_equal(serial.C, threaded.C)
        # off the torus every cell is tagged in turn: 27 tasks of 100 draws
        patch = build_lattice(3, wraparound=False)
        cfg = ChannelConfig(lattice=patch, trials=2700, seed=5)
        serial = estimate_rate_profile(patch, cfg, threads=1)
        threaded = estimate_rate_profile(patch, cfg, threads=4)
        assert np.array_equal(serial.C, threaded.C)
        assert np.array_equal(serial.stderr, threaded.stderr)

    def test_monotone_at_scale(self, profile81):
        assert np.all(np.diff(profile81.C) > 0)

    def test_stderr_definition(self, profile81):
        assert np.all(profile81.stderr > 0)
        assert np.all(profile81.stderr < 0.05)

    def test_depth_difference_band_interior(self, profile81):
        # geometric sqrt(3) spacing growth adds ~gamma*log2(3) bits per depth;
        # the band applies between interior depths (the shallowest depth sees
        # anomalously close interferers and the deepest coset has only two
        # members, so both end differences legitimately exceed it)
        diffs = np.diff(profile81.C)
        band = GAMMA * np.log2(3.0)
        for i in range(1, profile81.m - 2):
            assert band - 1.0 < diffs[i] < band + 1.0

    def test_depth0_difference_near_geometric_value(self, profile81):
        # close-in interferers inflate the depth-0 rate gap above the pure
        # geometric value; it stays within 1.5 bits of it
        d0 = profile81.C[1] - profile81.C[0]
        assert abs(d0 - GAMMA * np.log2(3.0)) < 1.5

    def test_no_wraparound_mode_runs_and_differs(self, lat27):
        patch = build_lattice(3, wraparound=False)
        cfg = ChannelConfig(lattice=patch, trials=8100, seed=5)
        prof_patch = estimate_rate_profile(patch, cfg)
        cfg_t = ChannelConfig(lattice=lat27, trials=8100, seed=5)
        prof_torus = estimate_rate_profile(lat27, cfg_t)
        assert np.all(np.diff(prof_patch.C) > 0)
        # edge effects reduce interference, so the patch rates sit higher
        assert prof_patch.C[-1] != prof_torus.C[-1]

    def test_records_the_draws_made(self, lat27):
        # off the torus each of the 27 tagged cells gets 2000 // 27 = 74 draws
        patch = build_lattice(3, wraparound=False)
        cfg = ChannelConfig(lattice=patch, trials=2000, seed=5)
        assert estimate_rate_profile(patch, cfg).trials == 1998
        cfg = ChannelConfig(lattice=lat27, trials=2000, seed=5)
        assert estimate_rate_profile(lat27, cfg).trials == 2000

    def test_csv_rows(self, profile81_quick):
        rows = profile81_quick.csv_rows()
        assert [r[0] for r in rows] == [0, 1, 2, 3]


class TestOneDrawServesEveryDepth:
    @pytest.mark.parametrize("wraparound", [True, False])
    @pytest.mark.parametrize("tagged", [0, 13])
    def test_matches_per_depth_reference(self, wraparound, tagged):
        # replay the same stream: the tagged user first, then one user in
        # every other cell in index order; each depth sums its own coset
        lat = build_lattice(3, wraparound=wraparound)
        n = 400
        got = _sir_chunk(lat, GAMMA, tagged, n, derive_rng(7, tagged))
        rng = derive_rng(7, tagged)
        own = lat.sample_cell_offsets(n, rng)
        offs = {c: lat.sample_cell_offsets(n, rng) for c in range(lat.L) if c != tagged}
        num = np.hypot(own[:, 0], own[:, 1]) ** (-2 * GAMMA)
        assert got.shape == (lat.m, n)
        for depth in range(lat.m):
            denom = sum(lat.min_image_norms(lat.centers[c] - lat.centers[tagged] + offs[c])
                        ** (-2 * GAMMA) for c in lat.cosharing_indices(tagged, depth))
            np.testing.assert_allclose(got[depth], num / denom, rtol=1e-12)

    @pytest.mark.parametrize("wraparound, tagged", [(True, 0), (False, 13)])
    def test_every_draw_nondecreasing_along_depth(self, wraparound, tagged):
        # deeper cosets drop interferers from the same draw; independent
        # draws per depth would break this in some rows
        lat = build_lattice(4, wraparound=wraparound)
        sir = _sir_chunk(lat, GAMMA, tagged, 2000, derive_rng(3, tagged))
        assert np.all(np.diff(sir, axis=0) >= 0)


def _frozen_sir_chunk(lattice, gamma, tagged_idx, n, rng):
    """_sir_chunk before its per-cell draws shared buffers, kept verbatim."""
    shared = np.zeros(lattice.L, dtype=int)
    for depth in range(1, lattice.m):
        shared[lattice.cosharing_indices(tagged_idx, depth)] = depth
    own = lattice.sample_cell_offsets(n, rng)
    num = (own[:, 0] ** 2 + own[:, 1] ** 2) ** (-gamma)
    part = np.zeros((lattice.m, n))
    for cell_idx in lattice.cosharing_indices(tagged_idx, 0):
        offs = lattice.sample_cell_offsets(n, rng)
        r = lattice.user_distances(tagged_idx, cell_idx, offs)
        part[shared[cell_idx]] += r ** (-2.0 * gamma)
    return num / np.cumsum(part[::-1], axis=0)[::-1]


@pytest.mark.parametrize("wraparound", [True, False])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_sir_chunk_matches_frozen_implementation(m, wraparound):
    lat = build_lattice(m, wraparound=wraparound)
    tagged = 0 if wraparound else lat.L // 2
    for n in (1, 31, 1000, CHUNK):
        got = _sir_chunk(lat, GAMMA, tagged, n, derive_rng(4, tagged, n))
        want = _frozen_sir_chunk(lat, GAMMA, tagged, n, derive_rng(4, tagged, n))
        assert np.array_equal(got, want), n


def _annulus_grid(hole, n=900):
    """Deterministic grid of points covering the annular hexagon."""
    xs = np.linspace(-SQRT3 / 2, SQRT3 / 2, n)
    ys = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(xs, ys)
    R = np.hypot(X, Y)
    inside = (np.abs(X) + SQRT3 * np.abs(Y) <= SQRT3) & (R >= hole)
    return np.column_stack([X[inside], Y[inside]])


class TestQuadratureOracle:
    def test_rates_match_position_quadrature(self):
        # independent oracle: grid quadrature of the expected numerator and
        # the expected per-cell interference, with a thin user ring so the
        # log-of-sum mixing residual stays small (about 0.1 bits); a wrong
        # exponent, region, or distance fold would shift the rate by bits
        hole = 0.9
        lat = build_lattice(4, hole_ratio=hole)
        cfg = ChannelConfig(lattice=lat, gamma=GAMMA, trials=40_000, seed=21)
        prof = estimate_rate_profile(lat, cfg)
        grid = _annulus_grid(hole)
        e_log2_r0 = float(np.log2(np.hypot(grid[:, 0], grid[:, 1])).mean())
        for depth, tol in ((3, 0.3), (2, 0.3)):
            w = 0.0
            for cell in lat.cosharing_indices(0, depth):
                delta = (lat.centers[cell] - lat.centers[0]) + grid
                w += float((lat.min_image_norms(delta) ** (-2 * GAMMA)).mean())
            oracle = -2 * GAMMA * e_log2_r0 - np.log2(w)
            assert prof.C[depth] == pytest.approx(oracle, abs=tol)


REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"


class TestExpectedRate:
    @pytest.mark.parametrize("m, ref", [(3, "rates_L27.json"), (4, "profile_L81.json"),
                                        (5, "rates_L243.json")])
    def test_profile_matches_the_stored_references(self, m, ref):
        # high-trial Monte Carlo profiles, as the benchmark's `rates` check reads them
        stored = RateProfile.from_json((REFS / ref).read_text())
        C = rate_profile(build_lattice(m), GAMMA).C
        # all 12 values lie within 2.12 standard errors
        assert np.all(np.abs(C - stored.C) <= 3 * stored.stderr), (C, stored.C)

    def test_profile_converges(self, lat27, lat81, monkeypatch):
        # L = 27 converges only algebraically: the minimum image switches inside
        # some cells, and other weights than these differ by 2e-7 between orders
        cases = [(lat, rate_profile(lat, GAMMA).C, rtol)
                 for lat, rtol in ((lat27, 1e-6), (lat81, 1e-7))]
        finer_quadrature(monkeypatch)
        for lat, coarse, rtol in cases:
            np.testing.assert_allclose(coarse, rate_profile(lat, GAMMA).C, rtol=rtol, atol=0)

    @pytest.mark.parametrize("gamma", [-1.0, 2.0])
    def test_gamma_of_two_or_less_refused(self, lat27, gamma):
        with pytest.raises(ValueError, match=f"gamma must exceed 2, got {gamma}"):
            laplace_tables(lat27, gamma)

    def test_weights_refused(self, tables27):
        row = np.full(27, 0.5)
        row[3] = 0.0
        assert expected_rate(tables27, 3, row) > 0
        with pytest.raises(ValueError, match="own weight must be 0"):
            expected_rate(tables27, 4, row)
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            expected_rate(tables27, 3, 3 * row)
        with pytest.raises(ValueError, match="do not match"):
            expected_rate(tables27, [3], row)

    def test_no_interferer_is_credited_zero(self, tables27):
        assert expected_rate(tables27, 0, np.zeros(27)) == 0.0


class TestRateProfile:
    @pytest.mark.parametrize("m, hole, wrap", [
        (3, 0.14, True), (4, 0.14, True), (3, 0.14, False), (3, 0.0, True), (3, 0.3, True),
    ])
    def test_matches_monte_carlo(self, m, hole, wrap):
        lat = build_lattice(m, hole_ratio=hole, wraparound=wrap)
        exact = rate_profile(lat, GAMMA)
        mc = estimate_rate_profile(lat, ChannelConfig(lattice=lat, trials=20_000, seed=29))
        z = (mc.C - exact.C) / mc.stderr
        assert np.all(np.abs(z) <= 4), z

    def test_records_its_inputs(self):
        prof = rate_profile(build_lattice(3, hole_ratio=0.3, wraparound=False), 3.2)
        assert (prof.source, prof.gamma, prof.hole_ratio, prof.wraparound) == (
            "quadrature", 3.2, 0.3, False)
        assert (prof.trials, prof.seed) == (None, None)
        assert prof.stderr.tolist() == [0.0, 0.0, 0.0]

    def test_non_increasing_profile_refused(self, lat27, monkeypatch):
        # a planted bug that gives every depth the same rate
        monkeypatch.setattr(channel, "expected_rate",
                            lambda tables, tagged, weights: np.ones(len(tagged)))
        with pytest.raises(ValueError, match="strictly increasing"):
            rate_profile(lat27, GAMMA)
