import json
from collections import Counter

import numpy as np

from pilotreuse import (RateProfile, breakpoints, enumerate_assignments,
                        optimal_for_length, optimizer, pilot_length,
                        synthetic_linear_profile)
from pilotreuse.verify import (VerificationReport, check_corollary1, check_lemma1,
                               check_lemma2_bijection, check_monte_carlo_agreement,
                               check_theorem1, check_theorem2, run_verification)

LINEAR = synthetic_linear_profile(1.0, 6.0, 3)
LINEAR4 = synthetic_linear_profile(1.0, 6.0, 4)


def test_full_grid_passes():
    report = run_verification(L_values=(9, 27), K_values=(1, 2), slopes=(1.0, 6.0))
    assert report.ok
    payload = json.loads(report.to_json())
    assert payload["ok"]
    assert all(c["ok"] for c in payload["checks"])


def test_lemma_checks_count_instances():
    res = check_lemma1(27, 2)
    assert res.ok and res.checked > 0
    res = check_lemma2_bijection(27, 2)
    assert res.ok


def test_corollary_check_passes():
    assert check_corollary1(81, 3).ok


def _bottom_up_fill(L, K, N_p0):
    """A wrong closed form: the acts pushed as deep as they go, not top-down.

    It is the last enumerated vector of the length, so always valid, and it
    differs from the optimum wherever the length admits more than one vector.
    """
    return [p for p in enumerate_assignments(L, K) if pilot_length(p) == N_p0][-1]


def test_planted_chi_bug_is_caught_and_named(monkeypatch):
    monkeypatch.setattr(optimizer, "optimal_for_length", _bottom_up_fill)
    # L=27 with K=1 has one vector per length, so it could not tell
    for L, K, rates in ((27, 2, LINEAR), (81, 1, LINEAR4), (81, 2, LINEAR4)):
        res = check_theorem1(L, K, rates)
        assert not res.ok
        assert all("N_p0" in f for f in res.failures)
        # caught at exactly the lengths that hold more than one vector
        lengths = Counter(pilot_length(p) for p in enumerate_assignments(L, K))
        assert (sorted(f["N_p0"] for f in res.failures)
                == sorted(n for n, count in lengths.items() if count > 1)), (L, K)


def test_planted_theorem2_bug_is_caught(monkeypatch):
    def one_regime_late(L, K, N_coh, rates, table):
        """A wrong closed form: each breakpoint crossed one regime late."""
        return optimal_for_length(L, K, K + 2 * max(table.regime(N_coh) - 1, 0))

    monkeypatch.setattr(optimizer, "optimal_assignment", one_regime_late)
    res = check_theorem2(27, 1, LINEAR, range(1, 37))
    assert not res.ok
    assert all("N_coh" in f for f in res.failures)
    # below the first breakpoint the planted rule still answers full reuse
    assert min(f["N_coh"] for f in res.failures) >= breakpoints(27, 1, LINEAR).exact[0]


def test_monte_carlo_agreement(profile81):
    res = check_monte_carlo_agreement(81, 1, profile81, (10, 20, 40, 80, 160))
    assert res.ok, res.failures
    assert res.checked == 5


def test_rising_gain_profile_is_named():
    # g = 3^-i (C_{i+1} - C_i) = (1, 1/3, 7/9): g rises at depth 2
    planted = RateProfile(C=np.array([1.0, 2.0, 3.0, 10.0]), stderr=np.zeros(4))
    res = check_monte_carlo_agreement(81, 1, planted, (10, 20, 40, 80, 160))
    assert not res.ok
    assert len(res.failures) == 1
    assert res.failures[0]["depth"] == 2


def test_report_summarizes_failures(monkeypatch):
    monkeypatch.setattr(optimizer, "optimal_for_length", _bottom_up_fill)
    lines = "\n".join(VerificationReport([check_theorem1(27, 2, LINEAR)]).summary_lines())
    assert "[FAIL] theorem1 L=27 K=2" in lines
    assert "failing instance: {'N_p0'" in lines


def test_each_oracle_check_enumerates_once(monkeypatch, profile81):
    calls = []
    enumerate_all = optimizer.enumerate_assignments

    def counted(L, K):
        calls.append((L, K))
        return enumerate_all(L, K)

    monkeypatch.setattr(optimizer, "enumerate_assignments", counted)
    assert check_theorem1(27, 2, LINEAR).ok
    assert check_theorem2(27, 2, LINEAR, range(1, 73)).ok
    assert check_monte_carlo_agreement(81, 1, profile81, (10, 20, 40, 80, 160)).ok
    assert calls == [(27, 2), (27, 2), (81, 1)]
