"""Acceptance criteria, one test per criterion, each printing a verdict line.

The rate profile and the finite-M moments come from session fixtures of the
exact layer (quadrature), as the CLI computes them; the determinism criterion
recomputes them, re-runs the seeded samplers, and asserts bit equality.
"""

import math
import time

import numpy as np

from pilotreuse import (FiniteMConfig, PilotAssignmentVector,
                        breakpoints, build_lattice, cnet, cnet_finite,
                        enumerate_assignments, optimal_assignment, pilot_length,
                        synthetic_linear_profile)
from pilotreuse.channel import rate_profile
from pilotreuse.finitem import (mu_stats, optimal_assignment_finite,
                                per_user_rate_cdf, throughput_vs_m_sweep)
from pilotreuse.optimizer import exhaustive_extremes, random_mean_sum_rate, random_sum_rate
from pilotreuse.verify import (check_lemma1, check_lemma2_bijection,
                               check_theorem1, check_theorem2)

GRID_L = (9, 27, 81)
GRID_K = (1, 2, 3)
SLOPES = (1.0, 6.0, 10.0)


def _verdict(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_theorem1_oracle_equivalence():
    t0 = time.time()
    failures = []
    checked = 0
    for L in GRID_L:
        m = {9: 2, 27: 3, 81: 4}[L]
        for K in GRID_K:
            for slope in SLOPES:
                rates = synthetic_linear_profile(1.0, slope, m)
                res = check_theorem1(L, K, exhaustive_extremes(L, K, rates))
                checked += res.checked
                failures += res.failures
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120
    assert _verdict(1, ok, f"{checked} instances, {len(failures)} mismatches, "
                           f"{elapsed:.0f}s (target <120s)"), failures[:3]


def test_criterion_02_theorem2_oracle_equivalence():
    t0 = time.time()
    failures = []
    checked = 0
    for L in GRID_L:
        m = {9: 2, 27: 3, 81: 4}[L]
        for K in GRID_K:
            for slope in SLOPES:
                rates = synthetic_linear_profile(1.0, slope, m)
                res = check_theorem2(L, K, rates, exhaustive_extremes(L, K, rates),
                                     range(1, 4 * L * K // 3 + 1))
                checked += res.checked
                failures += res.failures
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300
    assert _verdict(2, ok, f"{checked} instances, {len(failures)} mismatches, "
                           f"{elapsed:.0f}s (target <300s)"), failures[:3]


def test_criterion_03_lemma1_pilot_length_sets():
    failures = []
    for L in GRID_L:
        for K in GRID_K:
            res = check_lemma1(L, K)
            failures += res.failures
    assert _verdict(3, not failures, f"pilot length sets over {len(GRID_L) * len(GRID_K)} "
                                     f"(L, K) pairs"), failures


def test_criterion_04_lemma2_bounds_and_bijection_100k_vectors():
    res = check_lemma2_bijection(243, 10, limit=100_000)
    ok = res.ok and res.checked == 100_000
    assert _verdict(4, ok, f"{res.checked} vectors round-tripped with bounds"), \
        res.failures[:3]


TABLE_IA = {1: 5, 2: 18, 3: 22, 4: 26, 5: 69, 13: 101}
TABLE_IB = {1: 7, 2: 11, 3: 33, 4: 37, 26: 203}


def test_criterion_05_table_boundaries(lat81, profile81):
    results = []
    for K, targets, tol in ((1, TABLE_IA, 1), (2, TABLE_IB, 2)):
        table = breakpoints(81, K, profile81)
        for n, want in targets.items():
            got = math.ceil(table.exact[n - 1])
            results.append((K, n, got, want, abs(got - want) <= tol))
    ok = all(r[4] for r in results)
    detail = "; ".join(f"K={K} n={n}: {got} vs {want} {'ok' if good else 'OFF'}"
                       for K, n, got, want, good in results)
    if not ok:
        # contract mode failed: also report the finite-patch mode for comparison
        prof_patch = rate_profile(build_lattice(4, wraparound=False), 3.7)
        for K, targets in ((1, TABLE_IA), (2, TABLE_IB)):
            t = breakpoints(81, K, prof_patch)
            got = {n: math.ceil(t.exact[n - 1]) for n in targets}
            print(f"\n  no-wraparound mode K={K}: {got} (targets {targets})")
    assert _verdict(5, ok, detail)


def test_criterion_06_net_rate_gains(tables81, profile81):
    full = PilotAssignmentVector(L=81, K=1, p=(1, 0, 0, 0))
    targets = {10: 87.0, 20: 121.0, 40: 185.0}
    results = []
    for N_coh, want in targets.items():
        p_opt = optimal_assignment(81, 1, N_coh, profile81)
        gain = 100.0 * (cnet(p_opt, profile81, N_coh)
                        / cnet(full, profile81, N_coh) - 1.0)
        results.append((N_coh, gain, want, abs(gain - want) <= 15.0))
    gains_ok = all(r[3] for r in results)

    # random assignment sits strictly between full reuse and optimal
    between_ok = True
    for N_coh in (20, 40):
        p_opt = optimal_assignment(81, 1, N_coh, profile81)
        N_pil = pilot_length(p_opt)
        rand_mean = (N_coh - N_pil) / N_coh * random_sum_rate(tables81, 1, N_pil)
        lo = cnet(full, profile81, N_coh)
        hi = cnet(p_opt, profile81, N_coh)
        between_ok &= lo < rand_mean < hi
    detail = "; ".join(f"N={n}: {g:.1f}% vs {w:.0f}%+-15 {'ok' if good else 'OFF'}"
                       for n, g, w, good in results)
    detail += f"; random between full and optimal: {between_ok}"
    assert _verdict(6, gains_ok and between_ok, detail)


def test_criterion_07_interior_rate_gap(profile81):
    # differences between strictly interior depths (the shallowest depth has
    # anomalously close interferers, the deepest coset only two members)
    diffs = np.diff(profile81.C)
    interior = [float(diffs[i]) for i in range(1, profile81.m - 2)]
    ok = all(4.87 <= d <= 6.87 for d in interior)
    assert _verdict(7, ok, f"interior depth gaps {np.round(interior, 3)} "
                           f"within [4.87, 6.87]")


def test_criterion_08_finite_m_limit(mu27):
    worst = 0.0
    count = 0
    rates = np.log2(1 + 1 / mu27.mu3)
    for K in (1, 2):
        cfg = FiniteMConfig(M=10**9, K=K, N_coh=200)
        for p in enumerate_assignments(27, K):
            got = cnet_finite(p, cfg, mu27)
            asym = (1 - pilot_length(p) / 200) * sum(
                p[i] * rates[i] / 3**i for i in range(3))
            worst = max(worst, abs(got - asym) / asym)
            count += 1
    ok = worst < 1e-3
    assert _verdict(8, ok, f"{count} vectors, worst relative gap {worst:.2e} < 1e-3")


def test_criterion_09_table3_transition_pattern(mu81):
    ladder = [(10, 0, 0, 0), (9, 3, 0, 0), (8, 6, 0, 0), (7, 9, 0, 0),
              (6, 12, 0, 0)]
    seen = []
    first_boundary = None
    for tenth in range(40, 63):  # N_coh/K in [4.0, 6.2]
        cfg = FiniteMConfig(M=128, K=10, N_coh=tenth, rho_db=5.0)
        p = optimal_assignment_finite(cfg, mu81).p
        if not seen or seen[-1] != p:
            if seen and first_boundary is None:
                first_boundary = tenth / 10.0
            seen.append(p)
    # the table's required five regimes must open the sequence, in order;
    # the ladder legitimately continues past them at larger N_coh/K
    steps_ok = len(seen) >= len(ladder) and seen[: len(ladder)] == ladder
    boundary_ok = first_boundary is not None and 4.0 <= first_boundary <= 5.0
    pattern_exact = all(
        tuple(b - a for a, b in zip(p, q)).count(0) == 2
        and sorted(b - a for a, b in zip(p, q)) == [-1, 0, 0, 3]
        for p, q in zip(seen, seen[1:]))
    ok = steps_ok and boundary_ok and pattern_exact
    assert _verdict(9, ok, f"sequence {seen}, first boundary {first_boundary} "
                           f"in [4.0, 5.0], (-1,+3) steps exact: {pattern_exact}")


def test_criterion_10_finite_m_gains_and_saturation(mu27):
    full = PilotAssignmentVector(L=27, K=10, p=(10, 0, 0))
    gains = {}
    full_rates = {}
    for M in (128, 1024):
        cfg = FiniteMConfig(M=M, K=10, N_coh=200, rho_db=5.0)
        opt = cnet_finite(optimal_assignment_finite(cfg, mu27), cfg, mu27)
        base = cnet_finite(full, cfg, mu27)
        gains[M] = 100.0 * (opt / base - 1.0)
        full_rates[M] = base
    saturation = 100.0 * (full_rates[1024] / full_rates[128] - 1.0)
    ok_128 = 25.0 <= gains[128] <= 55.0
    ok_1024 = 60.0 <= gains[1024] <= 110.0
    ok_sat = saturation < 10.0
    ok = ok_128 and ok_1024 and ok_sat
    assert _verdict(10, ok, f"gain M=128: {gains[128]:.0f}% in [25,55] "
                            f"{'ok' if ok_128 else 'OFF'}; M=1024: {gains[1024]:.0f}% "
                            f"in [60,110] {'ok' if ok_1024 else 'OFF'}; full-reuse "
                            f"128->1024 {saturation:.0f}% <10% {'ok' if ok_sat else 'OFF'}")


def test_criterion_11_throughput_shapes(mu27):
    per_user = {}
    for ratio, M_values in ((20, range(40, 2001, 40)), (2, range(40, 2001, 80))):
        sweep = throughput_vs_m_sweep(mu27, ratio, list(M_values), 2000)
        per_user[ratio] = np.array([c_net / K for _, K, _, c_net in sweep])
    mono = bool(np.all(np.diff(per_user[20]) > 0))
    v = per_user[2]
    peak = int(np.argmax(v))
    peaked = (0 < peak < len(v) - 1
              and np.all(np.diff(v[: peak + 1]) > 0)
              and np.all(np.diff(v[peak:]) < 0))
    ok = mono and peaked
    assert _verdict(11, ok, f"M/K=20 per-user monotone: {mono}; M/K=2 interior "
                            f"peak then decline: {peaked} (peak index {peak})")


def test_criterion_12_training_fraction_floor(profile81):
    ok = True
    details = []
    for K in (1, 14):
        table = breakpoints(81, K, profile81)
        for ratio in (10, 20, 50, 100):
            N_coh = K * ratio
            p = optimal_assignment(81, K, N_coh, profile81, table=table)
            frac = pilot_length(p) / N_coh
            ok &= frac >= 0.05
            details.append(f"K={K} N/K={ratio}: {frac:.3f}")
        ok &= K / (K * 50) < 0.05  # full reuse falls below by N/K = 50
    assert _verdict(12, ok, "optimal fraction " + ", ".join(details) +
                            "; full reuse 0.02 < 0.05 at N/K=50")


def test_criterion_13_determinism(lat27, lat81, profile81, mu27):
    prof2 = rate_profile(lat81, 3.7)
    profile_same = (np.array_equal(prof2.C, profile81.C)
                    and np.array_equal(prof2.stderr, profile81.stderr))

    mu2 = mu_stats(lat27, 3.7)
    mu_same = (mu2.mu0 == mu27.mu0 and np.array_equal(mu2.mu1, mu27.mu1)
               and np.array_equal(mu2.mu3, mu27.mu3))

    # the exact baseline draws nothing; its Monte Carlo oracle still reproduces
    rand_same = (random_mean_sum_rate(lat81, 1, 9, trials=50, seed=13)
                 == random_mean_sum_rate(lat81, 1, 9, trials=50, seed=13))

    cfg_f = FiniteMConfig(M=100, K=1, N_coh=50)
    p = PilotAssignmentVector(L=27, K=1, p=(0, 3, 0))
    cdf_same = np.array_equal(
        per_user_rate_cdf(p, cfg_f, lat27, trials=5, seed=6),
        per_user_rate_cdf(p, cfg_f, lat27, trials=5, seed=6))

    ok = profile_same and mu_same and rand_same and cdf_same
    assert _verdict(13, ok, f"profile {profile_same}, mu {mu_same}, "
                            f"random {rand_same}, cdf {cdf_same}")
