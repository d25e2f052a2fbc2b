"""Write the stored references that the output checks compare with.

Run from the repository root:  python3 perfbench/make_refs.py
It takes several minutes on a 2-core machine.  Rate profiles that already
exist are kept (delete one to recompute it): `profile_L81.json` is also the
stored input of `optimize`, so changing it changes a workload.

- Rate profiles: high-trial `estimate_rate_profile` runs at REF_SEED.
- `optimize`: p_opt/N_pil from `brute_force_optimal(objective="cnet")` on the
  stored profile, in exact rational arithmetic.
- `finite` sweeps: each command runs at SEEDS; a numeric column's tolerance is
  K_SIGMA standard deviations of its value over those seeds (at least
  ABS_FLOOR, the CSV's rounding).  p_opt may be any vector whose net rate
  under high-trial mu statistics is within the row's C_net tolerance of the
  optimum (checks.finite_net_rate), so near-ties cannot fail the check on an
  unlucky seed.
- `verify`: the number of checks and instances of the grid.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from pilotreuse import channel, finitem, optimizer  # noqa: E402
from pilotreuse.hexgrid import build_lattice, exponent_of_three  # noqa: E402

import checks  # noqa: E402
from workloads import RATE_REFS, WORKLOADS  # noqa: E402

REF_SEED = 20171002
SEEDS = range(1000, 1008)
K_SIGMA = 8.0
ABS_FLOOR = 2e-6
RATE_TRIALS = {27: 400_000, 81: 1_000_000, 243: 400_000}
MU_TRIALS = 1_000_000
CDF_Q = [0.05 * i for i in range(1, 20)]


def rate_profiles():
    for L, rel in RATE_REFS.items():
        path = ROOT / rel
        if path.exists():
            continue
        lattice = build_lattice(exponent_of_three(L))
        cfg = channel.ChannelConfig(lattice=lattice, trials=RATE_TRIALS[L], seed=REF_SEED)
        path.write_text(channel.estimate_rate_profile(lattice, cfg, threads=2).to_json())
        print("wrote", path, flush=True)


def run_cli(cmd, seed: int, tmp: Path) -> Path:
    out = tmp / str(seed)
    out.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-m", "pilotreuse.cli", *cmd.cli_args(seed, str(out))],
                   cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
                   check=True, stdout=subprocess.DEVNULL)
    return out / cmd.output


def flag(cmd, name: str, cast=int):
    return cast(cmd.argv[cmd.argv.index(name) + 1])


def all_vectors(L: int, K: int) -> np.ndarray:
    """Every valid assignment vector, from transition chains t_0 <= K, t_i <= 3 t_{i-1}."""
    m = exponent_of_three(L)
    chains = np.arange(K + 1)[:, None]
    for _ in range(m - 2):
        reps = 3 * chains[:, -1] + 1
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        nxt = np.arange(reps.sum()) - starts
        chains = np.column_stack([np.repeat(chains, reps, axis=0), nxt])
    p = np.empty((len(chains), m), dtype=np.int64)
    p[:, 0] = K - chains[:, 0]
    for i in range(1, m - 1):
        p[:, i] = 3 * chains[:, i - 1] - chains[:, i]
    p[:, m - 1] = 3 * chains[:, m - 2]
    return p


def best_net_rate(L, M, K, N_coh, rho_db, mu) -> tuple[float, list[int]]:
    """The largest net rate under `mu` over every vector that fits N_coh."""
    vecs = all_vectors(L, K)
    n_pil = vecs.sum(axis=1)
    vecs, n_pil = vecs[n_pil <= N_coh], n_pil[n_pil <= N_coh]
    rho = 10.0 ** (rho_db / 10.0)
    lengths, inverse = np.unique(n_pil, return_inverse=True)
    rates = np.array([[math.log2(1.0 + 1.0 / finitem.interference(i, M, K, rho, int(n), mu))
                       for i in range(vecs.shape[1])] for n in lengths])
    weights = 3.0 ** -np.arange(vecs.shape[1])
    vals = (1.0 - n_pil / N_coh) * ((vecs * weights) * rates[inverse]).sum(axis=1)
    best = int(np.argmax(vals))
    return float(vals[best]), vecs[best].tolist()


def spread(samples: list[list[float]]) -> tuple[list[float], list[float]]:
    """Per-row mean over seeds and its K_SIGMA tolerance."""
    value = [statistics.fmean(col) for col in zip(*samples)]
    tol = [max(K_SIGMA * statistics.stdev(col), ABS_FLOOR) for col in zip(*samples)]
    return value, tol


def table_ref(cmd, outputs: list[Path], mu_cache: dict) -> dict:
    runs = [checks.read_rows(p) for p in outputs]
    header = list(runs[0][0])
    numeric = [c for c in header if c.startswith("C_net")]
    # N_pil follows p_opt, whose near-ties may differ between seeds
    exact = [c for c in header if c not in numeric and c not in ("p_opt", "N_pil")]
    ref = {"command": " ".join(cmd.argv), "seeds": list(SEEDS), "n_rows": len(runs[0]),
           "exact": {}, "numeric": {}}
    for col in exact:
        ref["exact"][col] = [r[col] for r in runs[0]]
        assert all([r[col] for r in run] == ref["exact"][col] for run in runs), col
    for col in numeric:
        value, tol = spread([[float(r[col]) for r in run] for run in runs])
        ref["numeric"][col] = {"value": value, "tol": tol}
    if cmd.argv[0] == "optimize":
        profile = channel.RateProfile.from_json((ROOT / RATE_REFS[81]).read_text())
        L, K = cmd.L, flag(cmd, "--K")
        brute = [optimizer.brute_force_optimal(L, K, profile, objective="cnet", N_coh=int(r["N_coh"]))
                 for r in runs[0]]
        ref["exact"]["p_opt"] = [p.dashed() for p in brute]
        ref["exact"]["N_pil"] = [str(sum(p.p)) for p in brute]
        return ref
    L, rho_db = cmd.L, flag(cmd, "--rho-db", float) if "--rho-db" in cmd.argv else 5.0
    if L not in mu_cache:
        mu_cache[L] = finitem.estimate_mu_stats(build_lattice(exponent_of_three(L)),
                                                trials=MU_TRIALS, seed=REF_SEED)
    mu = mu_cache[L]
    stored_mu = {"mu0": mu.mu0, "mu1": mu.mu1.tolist(), "mu2": mu.mu2.tolist(),
                 "mu3": mu.mu3.tolist(), "trials": MU_TRIALS, "seed": REF_SEED}
    spec = {"mu": stored_mu, "rho_db": rho_db, "M": [], "K": [], "N_coh": [],
            "best": [], "tol": ref["numeric"]["C_net"]["tol"]}
    for i, row in enumerate(runs[0]):
        if "M" in row:  # rate-vs-m
            M, K, N_coh = int(row["M"]), int(row["K"]), flag(cmd, "--coh")
        else:
            M, K = flag(cmd, "--M"), flag(cmd, "--K")
            N_coh = int(round(float(row["N_coh_over_K"]) * 10)) * K // 10
        best, p = best_net_rate(L, M, K, N_coh, rho_db, mu)
        assert math.isclose(checks.finite_net_rate(p, M, K, N_coh, rho_db, stored_mu),
                            best, rel_tol=1e-9)
        for col, value in (("M", M), ("K", K), ("N_coh", N_coh), ("best", best)):
            spec[col].append(value)
    ref["near_optimal"] = spec
    for path in outputs:
        assert checks.check_table(path, ref) is None, checks.check_table(path, ref)
    return ref


def cdf_ref(cmd, outputs: list[Path]) -> dict:
    runs = [sorted(float(r["rate"]) for r in checks.read_rows(p)) for p in outputs]
    value, tol = spread([[checks.quantile(run, q) for q in CDF_Q] for run in runs])
    return {"command": " ".join(cmd.argv), "seeds": list(SEEDS), "n_rows": len(runs[0]),
            "q": CDF_Q, "value": value, "tol": tol}


def verify_ref(cmd, output: Path) -> dict:
    report = json.loads(output.read_text())
    assert report["ok"]
    return {"command": " ".join(cmd.argv), "checks": len(report["checks"]),
            "checked": sum(c["checked"] for c in report["checks"])}


def command_refs(size: str):
    mu_cache: dict = {}
    cmds = [c for cmds in WORKLOADS[size].values() for c in cmds
            if c.check in ("table", "cdf", "verify")]
    (BENCH / "refs" / size).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp, ThreadPoolExecutor(2) as pool:
        for cmd in cmds:
            seeds = [REF_SEED] if cmd.check == "verify" else list(SEEDS)
            outputs = list(pool.map(lambda s: run_cli(cmd, s, Path(tmp)), seeds))
            if cmd.check == "verify":
                ref = verify_ref(cmd, outputs[0])
            elif cmd.check == "cdf":
                ref = cdf_ref(cmd, outputs)
            else:
                ref = table_ref(cmd, outputs, mu_cache)
            path = BENCH / "refs" / size / f"{cmd.id}.json"
            path.write_text(json.dumps(ref, indent=1) + "\n")
            print("wrote", path, flush=True)


if __name__ == "__main__":
    rate_profiles()
    for size in sys.argv[1:] or ["smoke", "full"]:
        command_refs(size)
