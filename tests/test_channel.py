import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pilotreuse import RateProfile, build_lattice, channel, cli, synthetic_linear_profile
from pilotreuse.channel import (ChannelConfig, _sir_chunk, derive_rng, estimate_rate_profile,
                                expected_rate, laplace_tables, rate_profile)

from conftest import FOLDED, PROFILE_SEED, cosharing, finer_quadrature, one_pair_per_class

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
        assert prof.C == (1.0, 7.0, 13.0, 19.0)
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
                           source="quadrature", gamma=GAMMA, trials=10, seed=4,
                           hole_ratio=0.3, wraparound=False)
        text = prof.to_json()
        # the stored files' key order
        assert list(json.loads(text)) == ["gamma", "trials", "seed", "hole_ratio",
                                          "wraparound", "source", "C", "stderr"]
        back = RateProfile.from_json(text)
        for name, value in vars(prof).items():
            assert np.array_equal(getattr(back, name), value), name

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

    @pytest.mark.parametrize("fields, message", [
        (dict(C=[[1.0, 2.0]], stderr=[0.0]), "C and stderr must be 1-D arrays of equal length"),
        (dict(C=np.ones((2, 1)), stderr=np.zeros(2)),
         "C and stderr must be 1-D arrays of equal length"),
        (dict(C=[1.0, 2.0], stderr=[0.0]), "C and stderr must be 1-D arrays of equal length"),
        (dict(C=[1.0, math.inf], stderr=[0.0, 0.0]), "C and stderr must be finite"),
        (dict(C=[1.0, 2.0, 2.0], stderr=[0.0] * 3, source="quadrature"),
         "C must be strictly increasing"),
    ], ids=["nested", "2-D array", "lengths", "infinite", "non-increasing"])
    def test_refusal_is_a_value_error_with_its_message(self, fields, message):
        with pytest.raises(ValueError, match=message):
            RateProfile(**fields)


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

    def test_stderr_definition(self, lat81):
        # the estimator's own 100k-draw profile: the exact profile81 has stderr 0
        cfg = ChannelConfig(lattice=lat81, gamma=3.7, trials=100_000, seed=PROFILE_SEED)
        profile = estimate_rate_profile(lat81, cfg)
        assert np.all(np.asarray(profile.stderr) > 0)
        assert np.all(np.asarray(profile.stderr) < 0.05)

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

    def test_csv_rows(self, tmp_path):
        # `rates --output` writes the CSV rows from the profile that it writes as JSON
        assert cli.main(["rates", "--L", "81", "--output", str(tmp_path / "prof")]) == 0
        stored = json.loads((tmp_path / "prof.json").read_text())
        with open(tmp_path / "prof.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["depth", "C", "stderr"]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        assert [float(r[1]) for r in rows] == stored["C"]
        assert [float(r[2]) for r in rows] == stored["stderr"]


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
                        ** (-2 * GAMMA) for c in cosharing(lat, tagged, depth))
            np.testing.assert_allclose(got[depth], num / denom, rtol=1e-12)

    @pytest.mark.parametrize("wraparound, tagged", [(True, 0), (False, 13)])
    def test_every_draw_nondecreasing_along_depth(self, wraparound, tagged):
        # deeper cosets drop interferers from the same draw; independent
        # draws per depth would break this in some rows
        lat = build_lattice(4, wraparound=wraparound)
        sir = _sir_chunk(lat, GAMMA, tagged, 2000, derive_rng(3, tagged))
        assert np.all(np.diff(sir, axis=0) >= 0)


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
            for cell in cosharing(lat, 0, depth):
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
        C = np.asarray(rate_profile(build_lattice(m), GAMMA).C)
        # all 12 values lie within 2.12 standard errors
        assert np.all(np.abs(C - stored.C) <= 3 * np.asarray(stored.stderr)), (C, stored.C)

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


class TestOrbitFold:
    """The tables hold one row per orbit of pair classes, and each class's own
    row would agree with its orbit's."""

    @pytest.mark.parametrize("m, wrap", FOLDED)
    def test_every_class_agrees_with_its_orbit(self, m, wrap, monkeypatch):
        lat = build_lattice(m, wraparound=wrap)
        grids, transforms = [], channel._transforms
        monkeypatch.setattr(channel, "_transforms",
                            lambda u, *rest: grids.append(u) or transforms(u, *rest))
        tables = laplace_tables(lat, GAMMA)
        assert tables.cross.shape[0] == len(lat.orbit_reps)
        t, j, _ = one_pair_per_class(lat)
        nodes, weights = lat.position_rule(channel._ORDER)
        log_cross = -2.0 * GAMMA * np.log(lat.user_distances(t[:, None], j[:, None], nodes))
        unfolded = transforms(grids[0], log_cross, weights)
        # relative to M(0) = 1: the far tail, near 1e-100, differs in its
        # 13th digit, as z P_n of about 700 magnifies rounding in P_n
        np.testing.assert_allclose(tables.cross[lat.pair_orbits(t, j)], unfolded,
                                   rtol=0, atol=1e-13)


class TestRateProfile:
    @pytest.mark.parametrize("m, hole, wrap", [
        (3, 0.14, True), (4, 0.14, True), (3, 0.14, False), (3, 0.0, True), (3, 0.3, True),
        (3, 0.86, True),
    ])
    def test_matches_monte_carlo(self, m, hole, wrap):
        lat = build_lattice(m, hole_ratio=hole, wraparound=wrap)
        exact = rate_profile(lat, GAMMA)
        mc = estimate_rate_profile(lat, ChannelConfig(lattice=lat, trials=20_000, seed=29))
        z = (np.asarray(mc.C) - exact.C) / mc.stderr
        assert np.all(np.abs(z) <= 4), z

    def test_records_its_inputs(self):
        prof = rate_profile(build_lattice(3, hole_ratio=0.3, wraparound=False), 3.2)
        assert (prof.source, prof.gamma, prof.hole_ratio, prof.wraparound) == (
            "quadrature", 3.2, 0.3, False)
        assert (prof.trials, prof.seed) == (None, None)
        assert prof.stderr == (0.0, 0.0, 0.0)

    def test_non_increasing_profile_refused(self, lat27, monkeypatch):
        # a planted bug that gives every depth the same rate
        monkeypatch.setattr(channel, "expected_rate",
                            lambda tables, tagged, weights: np.ones(len(tagged)))
        with pytest.raises(ValueError, match="strictly increasing"):
            rate_profile(lat27, GAMMA)
