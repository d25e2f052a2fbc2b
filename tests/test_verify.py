import json
from collections import Counter

import numpy as np
import pytest

from pilotreuse import (RateProfile, assignment, breakpoints, count_assignments,
                        enumerate_assignments, optimal_for_length, optimizer, pilot_length,
                        synthetic_linear_profile)
from pilotreuse.optimizer import exhaustive_extremes
from pilotreuse.verify import (CheckResult, VerificationReport,
                               check_corollary1, check_lemma1, check_lemma2_bijection,
                               check_theorem1, check_theorem2, require_grid,
                               run_verification)

LINEAR = synthetic_linear_profile(1.0, 6.0, 3)
LINEAR4 = synthetic_linear_profile(1.0, 6.0, 4)


def test_full_grid_passes():
    report = run_verification(L_values=(9, 27), K_values=(1, 2), slopes=(1.0, 6.0))
    assert report.ok
    payload = json.loads(report.to_json())
    assert payload["ok"]
    assert all(c["ok"] for c in payload["checks"])


def test_grid_has_no_default():
    # `pilotreuse verify`'s flags own the grid
    for grid in ({}, dict(L_values=(9,), K_values=(1,))):
        with pytest.raises(TypeError):
            run_verification(**grid)


@pytest.mark.parametrize("L", [1, 3, 10])
def test_grid_refuses_what_no_suite_runs_on(L):
    # L = 3 has a single depth; 1 and 10 are no lattice
    with pytest.raises(ValueError, match=f"L grid value {L} is not a power of 3 of at least 9"):
        require_grid([9, L], [1])


def test_grid_accepts_powers_of_three_from_nine():
    require_grid([9, 27, 3**7], [1, 2])


def test_one_failure_fails_the_check():
    res = CheckResult(name="theorem1 L=27 K=1", checked=1)
    assert res.ok
    res.fail(N_p0=7, closed_form=(0, 2, 2, 3), brute_force=(0, 1, 6, 0))
    assert not res.ok
    assert json.loads(VerificationReport([res]).to_json())["checks"][0]["ok"] is False


def test_lemma_checks_count_instances():
    res = check_lemma1(27, 2)
    assert res.ok and res.checked > 0
    res = check_lemma2_bijection(27, 2)
    assert res.ok


def test_lemma1_names_a_skipped_pilot_length(monkeypatch):
    # a planted enumeration that never yields a vector of pilot length 5
    enumerate_all = assignment.enumerate_assignments
    monkeypatch.setattr(assignment, "enumerate_assignments",
                        lambda L, K: (p for p in enumerate_all(L, K) if pilot_length(p) != 5))
    res = check_lemma1(27, 1)
    assert res.failures == [{"missing": [5], "extra": []}]


@pytest.mark.parametrize("shift, reason", [
    # one act too many at depth 0
    ((1, 0), "act count != (N_pil - K)/2"),
    # the act count kept, but depth 0 takes more than its K = 2 acts
    ((3, -3), "transition bounds violated"),
], ids=["act-count", "bounds"])
def test_lemma2_names_a_planted_transition_fault(monkeypatch, shift, reason):
    to_transition = assignment.to_transition
    monkeypatch.setattr(assignment, "to_transition",
                        lambda p: tuple(t + s for t, s in zip(to_transition(p), shift)))
    res = check_lemma2_bijection(27, 2)
    assert res.checked == count_assignments(27, 2)
    assert len(res.failures) == res.checked
    assert {f["reason"] for f in res.failures} == {reason}


def test_lemma2_names_a_planted_round_trip_fault(monkeypatch):
    # the vectors are drawn before the fault, as the enumeration converts
    # chains by `from_transition` too
    vectors = list(enumerate_assignments(27, 2))
    monkeypatch.setattr(assignment, "enumerate_assignments", lambda L, K: iter(vectors))
    # every chain converts back to full reuse, the last vector
    monkeypatch.setattr(assignment, "from_transition", lambda K, t: vectors[-1])
    res = check_lemma2_bijection(27, 2)
    assert [f["p"] for f in res.failures] == [p.p for p in vectors[:-1]]
    assert {f["reason"] for f in res.failures} == {"round trip mismatch"}


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
        res = check_theorem1(L, K, exhaustive_extremes(L, K, rates))
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
    res = check_theorem2(27, 1, LINEAR, exhaustive_extremes(27, 1, LINEAR), range(1, 37))
    assert not res.ok
    assert all("N_coh" in f for f in res.failures)
    # below the first breakpoint the planted rule still answers full reuse
    assert min(f["N_coh"] for f in res.failures) >= breakpoints(27, 1, LINEAR).exact[0]


def test_profile_check(profile81):
    (res,) = run_verification(L_values=(), K_values=(), slopes=(), profile=profile81).checks
    assert res.name == "profile L=81 K=1"
    assert res.ok, res.failures
    # every N_coh from 1 to 4·L·K/3, as the synthetic checks run
    assert res.checked == 4 * 81 // 3 == 108


def test_rising_gain_profile_is_named(monkeypatch):
    # g = 3^-i (C_{i+1} - C_i) = (1, 1/3, 7/9): g rises at depth 2
    planted = RateProfile(C=np.array([1.0, 2.0, 3.0, 10.0]), stderr=np.zeros(4))
    # refused before any suite runs: no suite may enumerate
    monkeypatch.setattr(assignment, "enumerate_assignments", None)
    monkeypatch.setattr(optimizer, "enumerate_assignments", None)
    with pytest.raises(ValueError, match="rises at depth 2,"):
        run_verification(L_values=(9,), K_values=(1,), slopes=(1.0,), profile=planted)


def test_report_summarizes_failures(monkeypatch):
    monkeypatch.setattr(optimizer, "optimal_for_length", _bottom_up_fill)
    report = VerificationReport([check_theorem1(27, 2, exhaustive_extremes(27, 2, LINEAR))])
    lines = "\n".join(report.summary_lines())
    assert "[FAIL] theorem1 L=27 K=2" in lines
    assert "failing instance: {'N_p0'" in lines


def test_each_oracle_check_enumerates_once(monkeypatch, profile81):
    # one exhaustive pass per (L, K, rates) serves Theorems 1 and 2
    passes, enumerations = [], []
    enumerate_all = optimizer.enumerate_assignments

    def counted_enumeration(L, K):
        enumerations.append((L, K))
        return enumerate_all(L, K)

    def counted_pass(L, K, rates):
        passes.append((L, K, tuple(rates.C)))
        return exhaustive_extremes(L, K, rates)

    monkeypatch.setattr(optimizer, "enumerate_assignments", counted_enumeration)
    monkeypatch.setattr(optimizer, "exhaustive_extremes", counted_pass)
    report = run_verification(L_values=(9, 27), K_values=(1, 2), slopes=(1.0, 6.0),
                              profile=profile81)
    assert report.ok
    instances = [(L, K, slope) for L in (9, 27) for K in (1, 2) for slope in (1.0, 6.0)]
    assert passes == [(L, K, tuple(synthetic_linear_profile(1.0, slope, {9: 2, 27: 3}[L]).C))
                      for L, K, slope in instances] + [(81, 1, tuple(profile81.C))]
    assert enumerations == [pass_[:2] for pass_ in passes]
    assert len(report.checks) == 4 * 3 + 2 * len(instances) + 1
