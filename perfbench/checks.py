"""Output checks: each returns None when an output is right, else the reason.

A command that exits non-zero or fails its check counts towards
`failed_frac`.  References live in `refs/` and are written once by
`make_refs.py`; no check calls the code under test.

- `rates`: C_i strictly increasing and each within RATES_Z combined standard
  errors of a stored high-trial profile.
- `same-profile:<id>`: the profile is bit-identical to command <id>'s
  (`--threads 2` against `--threads 1`).
- `verify`: report `ok`, and the check and instance counts of the grid.
- `table` (`optimize` and the `finite` sweeps): exact columns equal the
  reference, N_pil is the length of p_opt, and numeric columns lie within
  their stated tolerances.  For the `finite` sweeps p_opt must be a valid
  vector whose net rate under stored high-trial mu statistics is within the
  row's C_net tolerance of the optimum: near-ties may go either way.
- `cdf`: row count, ascending order, and quantiles within tolerance.

Monte Carlo tolerances come from the spread of the outputs over several
seeds (see make_refs.py), so they hold for any seed and for a deliberate
change of the random streams that keeps the estimators unbiased.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RATES_Z = 5.0


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_rates(stem: Path, ref: dict) -> str | None:
    prof = json.loads(stem.with_suffix(".json").read_text())
    C, se = prof["C"], prof["stderr"]
    if len(C) != len(ref["C"]):
        return f"{len(C)} depths, reference has {len(ref['C'])}"
    if any(b <= a for a, b in zip(C, C[1:])):
        return f"C not strictly increasing: {C}"
    for i, (c, s, rc, rs) in enumerate(zip(C, se, ref["C"], ref["stderr"])):
        z = abs(c - rc) / math.hypot(s, rs)
        if not z <= RATES_Z:
            return f"C_{i} = {c} is {z:.1f} stderr from the reference {rc}"
    return None


def check_same_profile(stem: Path, peer: Path) -> str | None:
    a = json.loads(stem.with_suffix(".json").read_text())
    b = json.loads(peer.with_suffix(".json").read_text())
    if (a["C"], a["stderr"]) != (b["C"], b["stderr"]):
        return f"profile differs from {peer.name}: {a['C']} vs {b['C']}"
    return None


def check_verify(path: Path, ref: dict) -> str | None:
    report = json.loads(path.read_text())
    if report.get("ok") is not True:
        return "verification report is not ok"
    checks = report["checks"]
    checked = sum(c["checked"] for c in checks)
    if (len(checks), checked) != (ref["checks"], ref["checked"]):
        return (f"{len(checks)} checks over {checked} instances, "
                f"expected {ref['checks']} over {ref['checked']}")
    return None


def check_table(path: Path, ref: dict) -> str | None:
    rows = read_rows(path)
    if len(rows) != ref["n_rows"]:
        return f"{len(rows)} rows, expected {ref['n_rows']}"
    for i, row in enumerate(rows):
        for col, values in ref["exact"].items():
            if row.get(col) != values[i]:
                return f"row {i}: {col} = {row.get(col)!r}, expected {values[i]!r}"
        if "near_optimal" in ref:
            reason = _near_optimal(row["p_opt"], i, ref["near_optimal"])
            if reason:
                return f"row {i}: {reason}"
        if "p_opt" in row and "N_pil" in row:
            if sum(map(int, row["p_opt"].split("-"))) != int(row["N_pil"]):
                return f"row {i}: N_pil {row['N_pil']} is not the length of {row['p_opt']}"
        for col, spec in ref["numeric"].items():
            value, tol = spec["value"][i], spec["tol"][i]
            got = float(row[col])
            if not abs(got - value) <= tol:
                return f"row {i}: {col} = {got}, expected {value} +- {tol}"
    return None


def finite_net_rate(p: list[int], M: int, K: int, N_coh: int, rho_db: float,
                    mu: dict) -> float:
    """C_net(p, M) under stored mu statistics; the model of pilotreuse.finitem."""
    rho = 10.0 ** (rho_db / 10.0)
    n_pil = sum(p)
    total = 0.0
    for i, p_i in enumerate(p):
        lead = (K * mu["mu0"] + 1.0 / rho) * (1.0 + mu["mu1"][i] + 1.0 / (n_pil * rho))
        interference = mu["mu3"][i] + (mu["mu3"][i] - mu["mu2"][i]) / M + lead / M
        total += p_i / 3**i * math.log2(1.0 + 1.0 / interference)
    return (1.0 - n_pil / N_coh) * total


def _near_optimal(p_opt: str, i: int, spec: dict) -> str | None:
    """p_opt must be valid, fit N_coh, and be within tol of the reference optimum."""
    p = [int(x) for x in p_opt.split("-")]
    M, K, N_coh = spec["M"][i], spec["K"][i], spec["N_coh"][i]
    m = len(spec["mu"]["mu1"])
    if (len(p) != m or any(not 0 <= x <= K * 3**d for d, x in enumerate(p))
            or sum(x * 3 ** (m - 1 - d) for d, x in enumerate(p)) != K * 3 ** (m - 1)):
        return f"p_opt {p_opt} is not a valid assignment for K={K}"
    if sum(p) > N_coh:
        return f"p_opt {p_opt} exceeds N_coh={N_coh}"
    value = finite_net_rate(p, M, K, N_coh, spec["rho_db"], spec["mu"])
    if not value >= spec["best"][i] - spec["tol"][i]:
        return (f"p_opt {p_opt} has reference net rate {value}, "
                f"below the optimum {spec['best'][i]} - {spec['tol'][i]}")
    return None


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, as numpy's default."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def check_cdf(path: Path, ref: dict) -> str | None:
    values = [float(r["rate"]) for r in read_rows(path)]
    if len(values) != ref["n_rows"]:
        return f"{len(values)} samples, expected {ref['n_rows']}"
    if any(b < a for a, b in zip(values, values[1:])):
        return "samples are not in ascending order"
    for q, want, tol in zip(ref["q"], ref["value"], ref["tol"]):
        got = quantile(values, q)
        if not abs(got - want) <= tol:
            return f"quantile {q}: {got}, expected {want} +- {tol}"
    return None


CHECKS = {"rates": check_rates, "verify": check_verify,
          "table": check_table, "cdf": check_cdf}
