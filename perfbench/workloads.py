"""The benchmark's workloads: fixed sequences of `pilotreuse` CLI commands.

Each command is a fresh `python -m pilotreuse.cli` process; each pass appends
`--seed <workload seed> --output <scratch dir>/<output>`.  `{profile}` is the
stored rate profile that `optimize` reads, so `baseline-table` does not depend
on the channel code under test.  Every command names the output check that
feeds `failed_frac`; its reference is `refs/<size>/<id>.json`, or for `rates`
the stored profile of its L.
"""

from __future__ import annotations

from dataclasses import dataclass

PROFILE = "perfbench/refs/profile_L81.json"

# Stored high-trial rate profiles that `rates` outputs are compared with.
RATE_REFS = {27: "perfbench/refs/rates_L27.json",
             81: PROFILE,
             243: "perfbench/refs/rates_L243.json"}


@dataclass(frozen=True)
class Command:
    id: str          # names the output file and the reference
    argv: tuple      # CLI arguments, without --seed and --output
    check: str       # key into checks.CHECKS, `same-profile:<id>` names a peer

    @property
    def L(self) -> int | None:
        """The command's lattice size; `verify` builds none."""
        if "--L" not in self.argv:
            return None
        return int(self.argv[self.argv.index("--L") + 1])

    @property
    def output(self) -> str:
        """Output name: `rates` takes a stem and writes <stem>.json and .csv."""
        if self.argv[0] == "rates":
            return self.id
        return self.id + (".json" if self.argv[0] == "verify" else ".csv")

    def cli_args(self, seed: int, out: str) -> list[str]:
        args = [a.format(profile=PROFILE) for a in self.argv]
        return [*args, "--seed", str(seed), "--output", f"{out}/{self.output}"]


def _c(id, check, text):
    return Command(id=id, argv=tuple(text.split()), check=check)


WORKLOADS = {
    "full": {
        # Monte Carlo estimators at full chunk size (16384 rows): the distance
        # kernel and the sampler do most of the work.
        "mc-estimate": [
            _c("rates", "rates", "rates --L 81 --trials 16384"),
            _c("rates-threads2", "same-profile:rates",
               "rates --L 81 --trials 16384 --threads 2"),
            _c("rates-large", "rates", "rates --L 243 --trials 16384"),
            _c("finite-table", "table",
               "finite --sweep table --L 81 --K 10 --M 128 "
               "--coh-over-k-min 4 --coh-over-k-max 6 --trials 16384"),
        ],
        # Enumeration and exact search: Fraction objectives and the
        # count_assignments DP, almost no Monte Carlo.
        "exact-search": [
            _c("verify", "verify", "verify --L-grid 9 27 81 --K-grid 1 2 --slopes 6"),
            _c("finite-rate-vs-m", "table",
               "finite --sweep rate-vs-m --L 27 --m-over-k 2 --coh 2000 "
               "--m-min 40 --m-max 2000 --m-step 640 --trials 2000"),
        ],
        # The distance kernel on a few dozen rows per call: per-call overhead.
        "baseline-table": [
            _c("optimize", "table",
               "optimize --L 81 --K 1 --coh-min 1 --coh-max 110 "
               "--profile {profile} --random-trials 40"),
            _c("finite-cdf", "cdf",
               "finite --sweep cdf --L 27 --K 1 --M 100 --coh 50 "
               "--trials 2000 --cdf-trials 200"),
        ],
    },
    # The same commands at tiny sizes, so every workload, check and the tracer
    # run in seconds.
    "smoke": {
        "mc-estimate": [
            _c("rates", "rates", "rates --L 27 --trials 3000"),
            _c("rates-threads2", "same-profile:rates",
               "rates --L 27 --trials 3000 --threads 2"),
            _c("rates-large", "rates", "rates --L 81 --trials 2000"),
            _c("finite-table", "table",
               "finite --sweep table --L 27 --K 2 --M 16 "
               "--coh-over-k-min 4 --coh-over-k-max 5 --trials 2000"),
        ],
        "exact-search": [
            _c("verify", "verify", "verify --L-grid 9 27 --K-grid 1 2"),
            _c("finite-rate-vs-m", "table",
               "finite --sweep rate-vs-m --L 27 --m-over-k 2 --coh 200 "
               "--m-min 40 --m-max 200 --m-step 80 --trials 500"),
        ],
        "baseline-table": [
            _c("optimize", "table",
               "optimize --L 81 --K 1 --coh-min 1 --coh-max 20 "
               "--profile {profile} --random-trials 5"),
            _c("finite-cdf", "cdf",
               "finite --sweep cdf --L 27 --K 1 --M 100 --coh 50 "
               "--trials 500 --cdf-trials 10"),
        ],
    },
}
