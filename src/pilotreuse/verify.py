"""Property suites checking the closed forms against brute-force oracles.

Each check returns a result object naming every failing instance, so a
broken closed form points straight at the offending N_p0 or N_coh.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import assignment, optimizer
from .channel import RateProfile, synthetic_linear_profile
from .hexgrid import exponent_of_three


@dataclass
class CheckResult:
    name: str
    ok: bool
    checked: int
    failures: list[dict] = field(default_factory=list)

    def fail(self, **info):
        self.ok = False
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
    res = CheckResult(name=f"lemma1 L={L} K={K}", ok=True, checked=0)
    seen = set()
    for p in assignment.enumerate_assignments(L, K):
        seen.add(assignment.pilot_length(p))
        res.checked += 1
    expected = assignment.valid_pilot_lengths(L, K)
    if seen != expected:
        res.fail(missing=sorted(expected - seen), extra=sorted(seen - expected))
    return res


def check_lemma2_bijection(L: int, K: int, limit: Optional[int] = None) -> CheckResult:
    """Transition bounds and exact round-trip for every enumerated vector."""
    res = CheckResult(name=f"lemma2+bijection L={L} K={K}", ok=True, checked=0)
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


def check_theorem1(L: int, K: int, rates: RateProfile) -> CheckResult:
    """Closed-form length-constrained optimum equals the brute-force argmax."""
    res = CheckResult(name=f"theorem1 L={L} K={K}", ok=True, checked=0)
    oracle = optimizer.exhaustive_extremes(L, K, rates)
    for N_p0 in sorted(assignment.valid_pilot_lengths(L, K)):
        res.checked += 1
        want = optimizer.oracle_optimum(oracle, N_p0=N_p0)
        got = optimizer.optimal_for_length(L, K, N_p0)
        if got.p != want.p:
            res.fail(N_p0=N_p0, closed_form=got.p, brute_force=want.p)
    return res


def check_theorem2(L: int, K: int, rates: RateProfile,
                   N_coh_values: Sequence[int]) -> CheckResult:
    """Closed-form net-rate optimum equals the brute-force argmax per N_coh."""
    res = CheckResult(name=f"theorem2 L={L} K={K}", ok=True, checked=0)
    table = optimizer.breakpoints(L, K, rates)
    oracle = optimizer.exhaustive_extremes(L, K, rates)
    for N_coh in N_coh_values:
        res.checked += 1
        want = optimizer.oracle_optimum(oracle, N_coh=N_coh)
        got = optimizer.optimal_assignment(L, K, N_coh, rates, table=table)
        if got.p != want.p:
            res.fail(N_coh=N_coh, closed_form=got.p, brute_force=want.p)
    return res


def check_corollary1(L: int, K: int) -> CheckResult:
    """Stepping (-1, +3) through the lengths reproduces every optimum."""
    res = CheckResult(name=f"corollary1 L={L} K={K}", ok=True, checked=0)
    lengths = sorted(assignment.valid_pilot_lengths(L, K))
    current = optimizer.optimal_for_length(L, K, lengths[0])
    for N_p0, N_next in zip(lengths, lengths[1:]):
        res.checked += 1
        stepped = optimizer.corollary_step(current, N_p0)
        direct = optimizer.optimal_for_length(L, K, N_next)
        if stepped.p != direct.p:
            res.fail(N_p0=N_p0, stepped=stepped.p, direct=direct.p)
        current = direct
    return res


def check_monte_carlo_agreement(L: int, K: int, rates: RateProfile,
                                N_coh_values: Sequence[int]) -> CheckResult:
    """Closed form vs brute force under a measured (noisy) profile.

    Where g_i = 3^-i (C_{i+1} - C_i) is nonincreasing, the top-down fill
    maximizes every prefix sum of the chain, so Theorem 2's closed form is
    exactly optimal, and the check is check_theorem2 on this profile.  A
    profile whose g rises breaks that hypothesis; the check then records one
    failure naming the first depth where g rises, in place of comparing.
    """
    C = [Fraction(float(c)) for c in rates.C]
    g = [(C[i + 1] - C[i]) / 3**i for i in range(rates.m - 1)]
    rise = next((i for i in range(1, len(g)) if g[i] > g[i - 1]), None)
    if rise is None:
        res = check_theorem2(L, K, rates, N_coh_values)
    else:
        res = CheckResult(name="", ok=True, checked=0)
        res.fail(depth=rise, g=[float(x) for x in g],
                 reason="g_i = 3^-i (C_{i+1} - C_i) rises: Theorem 2's hypothesis fails")
    res.name = f"mc-agreement L={L} K={K}"
    return res


# Intercept of the synthetic linear profiles C_i = C0 + slope*i.
C0 = 1.0
# Coherence intervals of the Monte Carlo agreement check.
MC_N_COH = (10, 20, 40, 80, 160)
# Theorem 2 is checked for N_coh = 1 .. THEOREM2_FACTOR * L*K/3, past the
# longest pilot length L*K/3.
THEOREM2_FACTOR = 4


def require_grid(L_values: Sequence[int], K_values: Sequence[int]):
    """Refuse a grid value no suite can run on: L = 3 has a single depth."""
    for L in L_values:
        if L < 9 or 3 ** round(math.log(L, 3)) != L:
            raise ValueError(f"L grid value {L} is not a power of 3 of at least 9")
    for K in K_values:
        if K < 1:
            raise ValueError(f"K grid value {K} must be >= 1")


def run_verification(L_values: Sequence[int] = (9, 27, 81),
                     K_values: Sequence[int] = (1, 2, 3),
                     slopes: Sequence[float] = (1.0, 6.0, 10.0),
                     mc_profile: Optional[RateProfile] = None) -> VerificationReport:
    """The full oracle suite over a grid of instances."""
    require_grid(L_values, K_values)
    checks = []
    for L in L_values:
        m = exponent_of_three(L)
        for K in K_values:
            checks.append(check_lemma1(L, K))
            checks.append(check_lemma2_bijection(L, K))
            checks.append(check_corollary1(L, K))
            for slope in slopes:
                rates = synthetic_linear_profile(C0, slope, m)
                t1 = check_theorem1(L, K, rates)
                t1.name += f" slope={slope}"
                checks.append(t1)
                t2 = check_theorem2(L, K, rates,
                                    range(1, THEOREM2_FACTOR * L * K // 3 + 1))
                t2.name += f" slope={slope}"
                checks.append(t2)
    if mc_profile is not None:
        L = 3 ** mc_profile.m
        checks.append(check_monte_carlo_agreement(L, 1, mc_profile, MC_N_COH))
    return VerificationReport(checks=checks)
