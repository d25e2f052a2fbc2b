import json

import numpy as np

from pilotreuse import (PilotAssignmentVector, RateProfile, optimal_for_length,
                        optimizer, synthetic_linear_profile)
from pilotreuse.assignment import chi
from pilotreuse.verify import (check_corollary1, check_lemma1,
                               check_lemma2_bijection, check_monte_carlo_agreement,
                               check_theorem1, check_theorem2, run_verification)

LINEAR = synthetic_linear_profile(1.0, 6.0, 3)


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


def _chi_off_by_one(L, K, N_p0):
    """A deliberately wrong closed form: chi shifted one depth too deep."""
    m = {9: 2, 27: 3, 81: 4}[L]
    acts = (N_p0 - K) // 2
    x = min(chi(N_p0, K) + 1, m - 1)
    p = [0] * m
    p[x] = sum(K * 3**s for s in range(x + 1)) - acts
    if x + 1 < m:
        p[x + 1] = 3 * (acts - sum(K * 3**s for s in range(x)))
    # not always valid; fall back to a wrong-but-valid vector
    try:
        vec = PilotAssignmentVector(L=L, K=K, p=tuple(p))
        return vec
    except ValueError:
        return optimal_for_length(L, K, N_p0)


def test_planted_chi_bug_is_caught_and_named():
    res = check_theorem1(27, 1, LINEAR, closed_form=_chi_off_by_one)
    assert not res.ok
    assert res.failures
    assert all("N_p0" in f for f in res.failures)


def test_planted_theorem2_bug_is_caught():
    def always_full_reuse(L, K, N_coh, rates, table=None):
        return PilotAssignmentVector(L=L, K=K, p=(K,) + (0,) * 2)

    res = check_theorem2(27, 1, LINEAR, range(1, 37), closed_form=always_full_reuse)
    assert not res.ok
    assert all("N_coh" in f for f in res.failures)


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


def test_report_summarizes_failures():
    res = check_theorem1(27, 1, LINEAR, closed_form=_chi_off_by_one)
    lines = "\n".join(str(f) for f in res.failures)
    assert "N_p0" in lines


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
