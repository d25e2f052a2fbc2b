"""Property suites checking the closed forms against brute-force oracles.

Each check returns a result object naming every failing instance, so a
broken closed form points straight at the offending N_p0 or N_coh.  The
closed forms' hypothesis (positive, nonincreasing per-depth gains) is
`optimizer.breakpoints`'s: `run_verification` refuses a profile outside it
before any suite runs, and the profile check is Theorem 2's check on that
profile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from . import assignment, optimizer
from .depths import RateProfile, exponent_of_three, synthetic_linear_profile


@dataclass
class CheckResult:
    name: str
    checked: int
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, **info):
        self.failures.append(info)


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> str:
        return json.dumps({
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "checked": c.checked,
                        "failures": c.failures} for c in self.checks],
        }, indent=2)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            lines.append(f"[{status}] {c.name} ({c.checked} instances)")
            for f in c.failures[:5]:
                lines.append(f"    failing instance: {f}")
        return lines


def check_lemma1(L: int, K: int) -> CheckResult:
    """Enumerated pilot lengths equal {K, K+2, ..., LK/3} exactly."""
    res = CheckResult(name=f"lemma1 L={L} K={K}", checked=0)
    seen = set()
    for p in assignment.enumerate_assignments(L, K):
        seen.add(assignment.pilot_length(p))
        res.checked += 1
    expected = set(assignment.valid_pilot_lengths(L, K))
    if seen != expected:
        res.fail(missing=sorted(expected - seen), extra=sorted(seen - expected))
    return res


def check_lemma2_bijection(L: int, K: int, limit: Optional[int] = None) -> CheckResult:
    """Transition bounds and exact round-trip for every enumerated vector."""
    res = CheckResult(name=f"lemma2+bijection L={L} K={K}", checked=0)
    for p in assignment.enumerate_assignments(L, K):
        if limit is not None and res.checked >= limit:
            break
        res.checked += 1
        t = assignment.to_transition(p)
        n_pil = assignment.pilot_length(p)
        if sum(t) != (n_pil - K) // 2:
            res.fail(p=p.p, t=t, reason="act count != (N_pil - K)/2")
            continue
        if any(not 0 <= t[i] <= K * 3**i for i in range(len(t))):
            res.fail(p=p.p, t=t, reason="transition bounds violated")
            continue
        if assignment.from_transition(K, t).p != p.p:
            res.fail(p=p.p, t=t, reason="round trip mismatch")
    return res


def _compare(name: str, cases: Iterable, closed_form: Callable, reference: Callable,
             keys: tuple[str, str, str]) -> CheckResult:
    """closed_form(case) against reference(case) for every case; a mismatch
    records the case and both vectors under keys = (case, closed form,
    reference)."""
    res = CheckResult(name=name, checked=0)
    for case in cases:
        res.checked += 1
        got, want = closed_form(case), reference(case)
        if got.p != want.p:
            res.fail(**dict(zip(keys, (case, got.p, want.p))))
    return res


def check_theorem1(L: int, K: int, oracle: optimizer.OracleTable) -> CheckResult:
    """Closed-form length-constrained optimum equals the brute-force argmax.

    The closed form reads no rates; `oracle` is `optimizer.exhaustive_extremes`
    of the rates it is checked on.
    """
    return _compare(f"theorem1 L={L} K={K}", assignment.valid_pilot_lengths(L, K),
                    lambda N_p0: optimizer.optimal_for_length(L, K, N_p0),
                    lambda N_p0: optimizer.oracle_optimum(oracle, N_p0=N_p0),
                    ("N_p0", "closed_form", "brute_force"))


def check_theorem2(L: int, K: int, rates: RateProfile, oracle: optimizer.OracleTable,
                   N_coh_values: Sequence[int]) -> CheckResult:
    """Closed-form net-rate optimum equals the brute-force argmax per N_coh;
    `oracle` is `optimizer.exhaustive_extremes(L, K, rates)`."""
    table = optimizer.breakpoints(L, K, rates)
    return _compare(f"theorem2 L={L} K={K}", N_coh_values,
                    lambda N_coh: optimizer.optimal_assignment(L, K, N_coh, rates, table=table),
                    lambda N_coh: optimizer.oracle_optimum(oracle, N_coh=N_coh),
                    ("N_coh", "closed_form", "brute_force"))


def check_corollary1(L: int, K: int) -> CheckResult:
    """Stepping (-1, +3) from each optimum reproduces the next length's."""
    return _compare(f"corollary1 L={L} K={K}", assignment.valid_pilot_lengths(L, K)[:-1],
                    lambda N_p0: optimizer.corollary_step(
                        optimizer.optimal_for_length(L, K, N_p0)),
                    lambda N_p0: optimizer.optimal_for_length(L, K, N_p0 + 2),
                    ("N_p0", "stepped", "direct"))


# Intercept of the synthetic linear profiles C_i = C0 + slope*i.
C0 = 1.0
# Theorem 2 is checked for N_coh = 1 .. THEOREM2_FACTOR * L*K/3, past the
# longest pilot length L*K/3, on the synthetic profiles and on a given one.
THEOREM2_FACTOR = 4


def _theorem2_coherence(L: int, K: int) -> range:
    return range(1, THEOREM2_FACTOR * assignment.valid_pilot_lengths(L, K)[-1] + 1)


def require_grid(L_values: Sequence[int], K_values: Sequence[int]):
    """Refuse a grid value no suite can run on: L = 3 has a single depth."""
    for L in L_values:
        try:
            if exponent_of_three(L) >= 2:
                continue
        except ValueError:
            pass
        raise ValueError(f"L grid value {L} is not a power of 3 of at least 9")
    for K in K_values:
        if K < 1:
            raise ValueError(f"K grid value {K} must be >= 1")


def run_verification(L_values: Sequence[int], K_values: Sequence[int],
                     slopes: Sequence[float],
                     profile: Optional[RateProfile] = None) -> VerificationReport:
    """The full oracle suite over the caller's grid of instances.

    The grid has no default here: `pilotreuse verify`'s flags own it.  One
    exhaustive oracle pass per (L, K, rates) serves both theorems' checks.
    """
    require_grid(L_values, K_values)
    if profile is not None:
        if profile.m < 2:
            raise ValueError(f"profile has {profile.m} depth; the suites need at least 2")
        # the closed forms' gain hypothesis, refused before any suite runs
        optimizer.breakpoints(3 ** profile.m, 1, profile)
    checks = []
    for L in L_values:
        m = exponent_of_three(L)
        for K in K_values:
            checks.append(check_lemma1(L, K))
            checks.append(check_lemma2_bijection(L, K))
            checks.append(check_corollary1(L, K))
            N_coh = _theorem2_coherence(L, K)
            for slope in slopes:
                rates = synthetic_linear_profile(C0, slope, m)
                oracle = optimizer.exhaustive_extremes(L, K, rates)
                for res in (check_theorem1(L, K, oracle),
                            check_theorem2(L, K, rates, oracle, N_coh)):
                    res.name += f" slope={slope}"
                    checks.append(res)
    if profile is not None:
        L = 3 ** profile.m
        oracle = optimizer.exhaustive_extremes(L, 1, profile)
        checks.append(check_theorem2(L, 1, profile, oracle, _theorem2_coherence(L, 1)))
        checks[-1].name = f"profile L={L} K=1"
    return VerificationReport(checks=checks)
