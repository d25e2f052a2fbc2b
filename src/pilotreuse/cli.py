"""Command-line front end: rate profiles, assignment tables, finite-M sweeps.

Outputs are plain CSV (comma separator, header row, '.' decimal) and JSON;
the table of `optimize` and `finite` is JSON when the --output name ends in
.json, and CSV otherwise.  An output of one fixed format refuses a name
ending in the other's suffix: `finite --mu-output` (CSV) refuses .json and
`verify --output` (JSON) refuses .csv.  Assignment vectors are rendered
dash-joined, e.g. 0-2-3-0.  Every command is deterministic given its flags
and seed.

Only `rates` computes a rate profile; `optimize` and `verify` read one with
--profile, and `optimize` takes its channel (gamma and geometry) from it.
`rates` and `finite` compute their expectations exactly, by
quadrature; only the per-user CDF of `finite --sweep cdf` draws.  A
subcommand has only the flags its runs read (see `_unread`), except the
Monte Carlo counts and seeds that `perfbench` passes: they stay accepted,
and unread, until its next change.

Exit codes: 0 success, 1 validation error (a bad flag included),
2 computation error, 3 verification failure.

Each subcommand imports the modules it calls when it runs, so a `rates`
process never loads the optimizer, finite-M or verification code; the module
top imports only the standard library and `depths`.  Numpy is loaded only
where it computes: by `rates`, by `optimize` with its random baseline and by
`finite --sweep cdf`.  A `verify` process, `optimize --random-trials 0` and
`finite --sweep table` and `rate-vs-m` load none.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .depths import RateProfile, _require_estimable, exponent_of_three


def __getattr__(name):
    # `cli.build_lattice` names `hexgrid.build_lattice`, which perfbench's
    # tracer test reads here; it goes with the benchmark's next change
    if name == "build_lattice":
        from .hexgrid import build_lattice
        return build_lattice
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _config_tokens(path: str, sub: argparse.ArgumentParser) -> list[str]:
    """A `key = value` file ('#' comments) as flag tokens for `sub` to parse.

    Each key names one of the subcommand's flags, so its value goes through
    the same type, choices and nargs checks as on the command line.  A switch
    takes `true` or `false`, and a list flag takes space-separated values.
    The key `config` is refused: the file that it names would not be read.
    """
    # every subcommand option has a default, so an empty parse names them all
    defaults = vars(sub.parse_args([]))
    tokens = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in defaults:
            raise ValueError(f"unknown config key: {key}")
        if dest == "config":
            raise ValueError(f"config key {key}: a config file cannot name another")
        flag = "--" + dest.replace("_", "-")
        if isinstance(defaults[dest], bool):
            if value not in ("true", "false"):
                raise ValueError(f"config key {key}: expected true or false, got {value!r}")
            if value == "true":
                tokens.append(flag)
        elif isinstance(defaults[dest], list):
            tokens += [flag, *value.split()]
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def _finite(text: str) -> float:
    """A float flag's value: nan and inf would pass every range check."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A seed flag's value: seed sequences take non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_common(sp: argparse.ArgumentParser, seed_help: str | None = None):
    sp.add_argument("--seed", type=_seed, default=0, help=seed_help)
    sp.add_argument("--output", type=str, default=None, help="output path (rates: a stem)")
    sp.add_argument("--config", type=str, default=None,
                    help="key = value file supplying defaults; flags win")


def _add_channel(sp: argparse.ArgumentParser):
    """The channel and lattice of the commands that draw user positions."""
    sp.add_argument("--L", type=int, default=81, help="cell count, a power of 3")
    sp.add_argument("--gamma", type=_finite, default=3.7)
    sp.add_argument("--hole-ratio", type=_finite, default=0.14)
    sp.add_argument("--no-wraparound", action="store_true",
                    help="finite patch instead of the toroidal lattice")


def _lattice(args):
    from .hexgrid import build_lattice

    return build_lattice(exponent_of_three(args.L), hole_ratio=args.hole_ratio,
                         wraparound=not args.no_wraparound)


def _write_csv(path: Path, header: list[str], rows: list[tuple]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_table(args, header: list[str], rows: list[tuple]):
    """Rows to --output: header-keyed JSON objects for a .json name, else CSV."""
    out = Path(args.output)
    if out.suffix == ".json":
        out.write_text(json.dumps([dict(zip(header, r)) for r in rows], indent=1))
    else:
        _write_csv(out, header, rows)
    print(f"wrote {out}")


def cmd_rates(args) -> int:
    from .channel import rate_profile

    # the profile is exact: --trials and --threads keep only their range checks
    _require_estimable(args.gamma, args.trials, args.threads)
    profile = rate_profile(_lattice(args), args.gamma)
    print(f"L={args.L} gamma={args.gamma} source={profile.source}")
    for i, (c, s) in enumerate(zip(profile.C, profile.stderr)):
        gap = f"  (+{c - profile.C[i - 1]:.3f})" if i else ""
        print(f"  C_{i} = {c:8.4f} +- {s:.4f}{gap}")
    if args.output:
        stem = Path(args.output)
        stem.with_suffix(".json").write_text(profile.to_json())
        _write_csv(stem.with_suffix(".csv"), ["depth", "C", "stderr"],
                   list(zip(range(profile.m), profile.C, profile.stderr)))
        print(f"wrote {stem.with_suffix('.json')} and {stem.with_suffix('.csv')}")
    return 0


def cmd_optimize(args) -> int:
    from . import assignment, optimizer

    if args.profile is None:
        raise ValueError("--profile is required: `rates --output STEM` writes STEM.json")
    if args.random_trials < 0 or args.random_trials == 1:
        raise ValueError(f"--random-trials must be 0 (off) or at least 2, "
                         f"got {args.random_trials}")
    L, K = args.L, args.K
    if K < 1:
        raise ValueError(f"--K must be >= 1, got {K}")
    # every pilot assignment needs N_pil >= K symbols of the coherence interval
    if args.coh is not None:
        if args.coh < K:
            raise ValueError(f"--coh {args.coh} is below K = {K}: no assignment fits")
        coh_values = [args.coh]
    else:
        coh_values = range(max(args.coh_min, K), args.coh_max + 1)
        if not coh_values:
            raise ValueError(f"--coh-min {args.coh_min} to --coh-max {args.coh_max} "
                             f"holds no N_coh >= K = {K}")
    profile = RateProfile.from_json(Path(args.profile).read_text())
    # judged before the baseline tables: `breakpoints` refuses a rising-gain profile
    points = optimizer.sweep_training_fraction(L, K, coh_values, profile)
    # the random baseline's sum rate per pilot length of the sweep; none when off
    random_sum: dict[int, float] = {}
    if args.random_trials > 0:
        from .channel import laplace_tables
        from .hexgrid import build_lattice

        # exact, so the count is not read; on the profile's channel and geometry
        if profile.gamma is None:
            raise ValueError("the profile records no gamma, which the random baseline reads")
        geometry = {name: getattr(profile, name) for name in ("hole_ratio", "wraparound")
                    if getattr(profile, name) is not None}
        tables = laplace_tables(build_lattice(exponent_of_three(L), **geometry),
                                profile.gamma)
        random_sum = {n_pil: optimizer.random_sum_rate(tables, K, n_pil)
                      for n_pil in {assignment.pilot_length(pt.p) for pt in points}}
    full = assignment.PilotAssignmentVector(L=L, K=K, p=(K,) + (0,) * (profile.m - 1))
    rows = []
    for point in points:
        n_pil = assignment.pilot_length(point.p)
        c_full = optimizer.cnet(full, profile, point.N_coh)
        c_rand = (point.N_coh - n_pil) / point.N_coh * random_sum.get(n_pil, float("nan"))
        rows.append((point.N_coh, point.p.dashed(), n_pil,
                     f"{point.C_net:.6f}", f"{c_full:.6f}", f"{c_rand:.6f}"))
    header = ["N_coh", "p_opt", "N_pil", "C_net_optimal", "C_net_full_reuse",
              "C_net_random_mean"]
    if args.output:
        _write_table(args, header, rows)
    # regime summary: one line per distinct optimal vector
    print(f"L={L} K={K}: optimal assignment regimes")
    prev = None
    for r in rows:
        if r[1] != prev:
            print(f"  N_coh >= {r[0]}: p = {r[1]} (N_pil = {r[2]})")
            prev = r[1]
    if args.coh is not None:
        row = rows[0]
        gain = (float(row[3]) / float(row[4]) - 1.0) * 100.0
        print(f"  C_net optimal {row[3]}, full reuse {row[4]}, gain {gain:.1f}%")
    return 0


def cmd_finite(args) -> int:
    from . import assignment, finitem

    if args.mu_output and Path(args.mu_output).suffix == ".json":
        raise ValueError("--mu-output writes CSV; its name cannot end in .json")
    # the moments are exact: --trials keeps only its range check
    _require_estimable(args.gamma, args.trials)
    # the sweep's grid and configurations are checked before the moments are computed
    if args.sweep == "table":
        # the tenths in the range (x * 10 rounded first) with N_coh >= K
        tenths = [t for t in range(math.ceil(round(args.coh_over_k_min * 10, 9)),
                                   math.floor(round(args.coh_over_k_max * 10, 9)) + 1)
                  if t * args.K // 10 >= args.K]
        if not tenths:
            raise ValueError(f"--coh-over-k-min {args.coh_over_k_min} to --coh-over-k-max "
                             f"{args.coh_over_k_max} holds no N_coh >= K = {args.K}")
        cfgs = [finitem.FiniteMConfig(args.M, args.K, tenth * args.K // 10, args.rho_db)
                for tenth in tenths]
    elif args.sweep == "rate-vs-m":
        if args.m_step < 1:
            raise ValueError(f"--m-step must be >= 1, got {args.m_step}")
        M_values = range(args.m_min, args.m_max + 1, args.m_step)
        if not M_values:
            raise ValueError(f"--m-min {args.m_min} to --m-max {args.m_max} holds no M")
        finitem._m_grid(args.m_over_k, M_values, args.coh, args.rho_db)
    else:  # cdf
        cfg = finitem.FiniteMConfig(args.M, args.K, args.coh, args.rho_db)
    lattice = _lattice(args)
    mu = finitem.mu_stats(lattice, gamma=args.gamma)
    if args.mu_output:
        header = ["depth", "mu1", "mu2", "mu3", "stderr_mu1", "stderr_mu3"]
        mu_rows = [(i, f"{mu.mu1[i]:.8e}", f"{mu.mu2[i]:.8e}", f"{mu.mu3[i]:.8e}",
                    f"{mu.stderr_mu1[i]:.2e}", f"{mu.stderr_mu3[i]:.2e}")
                   for i in range(mu.m)]
        _write_csv(Path(args.mu_output), header, mu_rows)
        # `# key,value` lines: mu0, then every input the moments depend on
        keys = [("mu0", f"{mu.mu0:.8e}"), ("gamma", mu.gamma), ("L", lattice.L),
                ("source", "quadrature"), ("order", finitem.MU_ORDER),
                ("hole_ratio", lattice.hole_ratio),
                ("wraparound", str(lattice.wraparound).lower())]
        with open(args.mu_output, "a") as fh:
            fh.writelines(f"# {key},{value}\n" for key, value in keys)
        print(f"wrote {args.mu_output}")
    rows: list[tuple] = []
    # optima are exact; `method` stays, always "exhaustive", as perfbench/refs pins it
    if args.sweep == "table":
        header = ["N_coh_over_K", "p_opt", "N_pil", "C_net", "method"]
        for tenth, cfg in zip(tenths, cfgs):
            p = finitem.optimal_assignment_finite(cfg, mu)
            rows.append((tenth / 10.0, p.dashed(), assignment.pilot_length(p),
                         f"{finitem.cnet_finite(p, cfg, mu):.6f}", "exhaustive"))
    elif args.sweep == "rate-vs-m":
        header = ["M", "K", "p_opt", "C_net", "C_net_per_user", "method"]
        for M, K, p, c_net in finitem.throughput_vs_m_sweep(
                mu, args.m_over_k, M_values, args.coh, rho_db=args.rho_db):
            rows.append((M, K, p.dashed(), f"{c_net:.6f}", f"{c_net / K:.6f}", "exhaustive"))
    else:  # cdf
        header = ["rate"]
        p = finitem.optimal_assignment_finite(cfg, mu)
        samples = finitem.per_user_rate_cdf(p, cfg, lattice, gamma=args.gamma,
                                            trials=args.cdf_trials, seed=args.seed)
        rows = [(f"{x:.6f}",) for x in samples]
    for row in rows[:12]:
        print("  ".join(str(x) for x in row))
    if len(rows) > 12:
        print(f"... {len(rows)} rows total")
    if args.output:
        _write_table(args, header, rows)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    if args.output and Path(args.output).suffix == ".csv":
        raise ValueError("verify --output writes JSON; its name cannot end in .csv")
    profile = (RateProfile.from_json(Path(args.profile).read_text())
               if args.profile else None)
    report = verify.run_verification(L_values=args.L_grid, K_values=args.K_grid,
                                     slopes=args.slopes, profile=profile)
    for line in report.summary_lines():
        print(line)
    if args.output:
        Path(args.output).write_text(report.to_json())
        print(f"wrote {args.output}")
    return 0 if report.ok else 3


def _unread(args) -> list[tuple[set[str], str]]:
    """The flags that this run ignores, each set with the setting that makes it
    ignore them."""
    if args.command == "finite":
        # the grid flags each sweep reads; every sweep reads all other flags
        reads = {"table": {"--K", "--M", "--coh-over-k-min", "--coh-over-k-max"},
                 "rate-vs-m": {"--coh", "--m-over-k", "--m-min", "--m-max", "--m-step"},
                 "cdf": {"--K", "--M", "--coh", "--cdf-trials"}}
        return [(set().union(*reads.values()) - reads[args.sweep], f"--sweep {args.sweep}")]
    rules = []
    if args.command == "optimize":
        if args.coh is not None:
            rules.append(({"--coh-min", "--coh-max"}, f"--coh {args.coh}"))
        if args.random_trials == 0:
            rules.append(({"--seed"}, "--random-trials 0"))
    return rules


# help of the Monte Carlo flags that perfbench still passes
_UNREAD = "not read: the value is exact; removed with the benchmark change"


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2, and flags are never abbreviated."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="pilotreuse",
        description="Optimal hierarchical pilot reuse for multi-cell massive MIMO")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    commands = {}

    sp = commands["rates"] = sub.add_parser(
        "rates", help="exact per-depth rate profile")
    _add_common(sp, seed_help=_UNREAD)
    _add_channel(sp)
    sp.add_argument("--trials", type=int, default=100_000, help=_UNREAD)
    sp.add_argument("--threads", type=int, default=1, help=_UNREAD)

    sp = commands["optimize"] = sub.add_parser(
        "optimize", help="optimal assignment table over coherence times")
    _add_common(sp, seed_help="has no effect: the random baseline is exact; "
                              "goes with --random-trials")
    sp.add_argument("--L", type=int, default=81, help="cell count, a power of 3")
    sp.add_argument("--K", type=int, default=1)
    sp.add_argument("--coh", type=int, default=None, help="single coherence interval")
    sp.add_argument("--coh-min", type=int, default=1)
    sp.add_argument("--coh-max", type=int, default=110)
    sp.add_argument("--profile", type=str, default=None,
                    help="rate profile JSON written by `rates` (required)")
    sp.add_argument("--random-trials", type=int, default=0,
                    help="0 skips the random-assignment baseline; 2 or more writes "
                         "its exact value on the profile's channel, and the count "
                         "is not read (it and --seed are to be removed)")

    sp = commands["finite"] = sub.add_parser("finite", help="finite antenna count sweeps")
    _add_common(sp, seed_help="read only by --sweep cdf, which draws user positions")
    _add_channel(sp)
    sp.add_argument("--trials", type=int, default=100_000, help=_UNREAD)
    sp.add_argument("--sweep", choices=("table", "rate-vs-m", "cdf"), default="table")
    sp.add_argument("--K", type=int, default=10)
    sp.add_argument("--M", type=int, default=128)
    sp.add_argument("--rho-db", type=_finite, default=5.0)
    sp.add_argument("--coh", type=int, default=200)
    sp.add_argument("--coh-over-k-min", type=_finite, default=3.0)
    sp.add_argument("--coh-over-k-max", type=_finite, default=7.0)
    sp.add_argument("--m-over-k", type=int, default=20)
    sp.add_argument("--m-min", type=int, default=40)
    sp.add_argument("--m-max", type=int, default=2000)
    sp.add_argument("--m-step", type=int, default=40)
    sp.add_argument("--cdf-trials", type=int, default=50)
    sp.add_argument("--mu-output", type=str, default=None,
                    help="also dump the mu statistics to this CSV for audit "
                         "(a .json name is refused)")

    sp = commands["verify"] = sub.add_parser(
        "verify", help="closed form vs brute force property suites")
    _add_common(sp, seed_help="has no effect: verify draws nothing")
    sp.add_argument("--L-grid", type=int, nargs="+", default=[9, 27])
    sp.add_argument("--K-grid", type=int, nargs="+", default=[1, 2, 3])
    sp.add_argument("--slopes", type=_finite, nargs="+", default=[1.0, 6.0, 10.0])
    sp.add_argument("--profile", type=str, default=None,
                    help="also compare closed form vs brute force on this rate "
                         "profile JSON, written by `rates`")
    return parser, commands


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        # config flags go before the command line's, so the latter win
        config = _config_tokens(args.config, commands[args.command]) if args.config else []
        tokens = [*config, *argv[1:]]
        args = parser.parse_args([argv[0], *tokens])
        # flags never abbreviate, so every token that names one is --flag[=value]
        given = {t.split("=")[0] for t in tokens if t[:2] == "--"}
        for unread, setting in _unread(args):
            if ignored := sorted(unread & given):
                raise ValueError(f"{args.command} {setting} does not read {', '.join(ignored)}")
        return {"rates": cmd_rates, "optimize": cmd_optimize, "finite": cmd_finite,
                "verify": cmd_verify}[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
