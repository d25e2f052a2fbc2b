import ast
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pilotreuse import build_lattice, channel, cli, finitem
from pilotreuse.channel import RateProfile, laplace_tables
from pilotreuse.optimizer import random_sum_rate


ROOT = Path(__file__).resolve().parents[1]
# a stored L=81 rate profile, so optimize tests skip the Monte Carlo run
PROFILE81 = ROOT / "perfbench" / "refs" / "profile_L81.json"


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestRates:
    def test_writes_json_and_csv(self, tmp_path, capsys):
        out = tmp_path / "prof"
        code = run("rates", "--L", 27, "--trials", 2000, "--seed", 1,
                   "--output", out)
        assert code == 0
        prof = RateProfile.from_json((tmp_path / "prof.json").read_text())
        assert prof.m == 3
        with open(tmp_path / "prof.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["depth", "C", "stderr"]
        assert len(rows) == 4
        assert "C_0" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert run("rates", "--L", 9, "--trials", 500, "--seed", 3,
                       "--output", tmp_path / name) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_zero_trials_is_usage_error(self, capsys):
        assert run("rates", "--L", 27, "--trials", 0) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_cell_count_is_usage_error(self):
        assert run("rates", "--L", 80, "--trials", 100) == 1

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_refused(self, threads, capsys):
        assert run("rates", "--L", 9, "--trials", 200, "--threads", threads) == 1
        assert "threads" in capsys.readouterr().err

    def test_header_prints_the_source(self, tmp_path, capsys):
        out = tmp_path / "prof"
        assert run("rates", "--L", 27, "--trials", 2000, "--no-wraparound",
                   "--output", out) == 0
        assert "L=27 gamma=3.7 source=quadrature\n" in capsys.readouterr().out
        prof = RateProfile.from_json(out.with_suffix(".json").read_text())
        assert (prof.source, prof.wraparound, prof.trials, prof.seed) == (
            "quadrature", False, None, None)
        assert not any(prof.stderr)

    def test_trials_threads_and_seed_not_read(self, tmp_path):
        # the profile is exact, so the Monte Carlo flags leave the bytes alone
        for name, trials, threads, seed in (("a", 500, 1, 3), ("b", 9000, 2, 4)):
            assert run("rates", "--L", 9, "--trials", trials, "--threads", threads,
                       "--seed", seed, "--output", tmp_path / name) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("command", ["rates", "finite"])
    def test_hole_past_the_inscribed_circle_refused(self, command, capsys):
        # the position quadrature behind C_i and mu needs hole_ratio < √3/2
        assert run(command, "--L", 27, "--hole-ratio", 0.9) == 1
        err = capsys.readouterr().err
        assert "hole_ratio < √3/2" in err and "got 0.9" in err, err


class TestOptimize:
    def test_single_coherence_prints_gain(self, tmp_path, capsys):
        prof = tmp_path / "prof"
        run("rates", "--L", 81, "--trials", 3000, "--seed", 1, "--output", prof)
        code = run("optimize", "--L", 81, "--K", 1, "--coh", 40,
                   "--profile", prof.with_suffix(".json"))
        assert code == 0
        out = capsys.readouterr().out
        assert "gain" in out

    def test_range_table_matches_theorem2(self, tmp_path):
        prof = tmp_path / "prof"
        run("rates", "--L", 81, "--trials", 3000, "--seed", 1, "--output", prof)
        out = tmp_path / "table.csv"
        code = run("optimize", "--L", 81, "--K", 1, "--coh-min", 1,
                   "--coh-max", 60, "--profile", prof.with_suffix(".json"),
                   "--output", out)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        from pilotreuse import breakpoints, optimal_assignment
        profile = RateProfile.from_json(prof.with_suffix(".json").read_text())
        table = breakpoints(81, 1, profile)
        for row in rows[:: 7]:
            want = optimal_assignment(81, 1, int(row["N_coh"]), profile, table=table)
            assert row["p_opt"] == want.dashed()

    @pytest.mark.parametrize("K", [1, 2])
    def test_coherence_of_K_prints_no_gain(self, K, tmp_path, capsys):
        # at N_coh = K every vector nets 0, so the gain over full reuse is 0/0
        out = tmp_path / "table.csv"
        assert run("optimize", "--L", 81, "--K", K, "--coh", K, "--profile", PROFILE81,
                   "--output", out) == 0
        assert ("C_net optimal 0.000000, full reuse 0.000000, gain undefined"
                in capsys.readouterr().out)
        with open(out) as fh:
            (row,) = csv.DictReader(fh)
        assert row["C_net_optimal"] == row["C_net_full_reuse"] == "0.000000"

    @pytest.mark.parametrize("coh", [1, 2])
    def test_coherence_below_K_refused(self, coh, capsys):
        code = run("optimize", "--L", 81, "--K", 3, "--coh", coh,
                   "--profile", PROFILE81)
        assert code == 1
        err = capsys.readouterr().err
        assert f"--coh {coh}" in err and "K = 3" in err

    @pytest.mark.parametrize("K", [0, -1])
    def test_K_below_one_refused(self, K, capsys):
        # K = 0 has no pilot length, and the closed form's chain walk never ends
        code = run("optimize", "--L", 81, "--K", K, "--coh", 40,
                   "--profile", PROFILE81)
        assert code == 1
        assert f"--K must be >= 1, got {K}" in capsys.readouterr().err

    def test_range_skips_rows_below_K(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run("optimize", "--L", 81, "--K", 2, "--coh-min", 1, "--coh-max", 5,
                   "--profile", PROFILE81, "--output", out)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["N_coh"]) for r in rows] == [2, 3, 4, 5]
        assert all(float(r["C_net_optimal"]) >= 0 for r in rows)

    @pytest.mark.parametrize("lo, hi", [(1, 1), (1, 2), (40, 30)])
    def test_range_without_a_feasible_row_refused(self, lo, hi, capsys):
        code = run("optimize", "--L", 81, "--K", 3, "--coh-min", lo, "--coh-max", hi,
                   "--profile", PROFILE81)
        assert code == 1
        err = capsys.readouterr().err
        assert f"--coh-min {lo}" in err and f"--coh-max {hi}" in err and "K = 3" in err

    def test_random_baseline_column(self, tmp_path, tables27):
        prof = tmp_path / "prof"
        run("rates", "--L", 27, "--trials", 2000, "--seed", 1, "--output", prof)
        out = tmp_path / "t.csv"
        code = run("optimize", "--L", 27, "--K", 1, "--coh", 30,
                   "--profile", prof.with_suffix(".json"),
                   "--random-trials", 25, "--output", out)
        assert code == 0
        with open(out) as fh:
            row = next(csv.DictReader(fh))
        N_pil = int(row["N_pil"])
        want = (30 - N_pil) / 30 * random_sum_rate(tables27, 1, N_pil)
        assert row["C_net_random_mean"] == f"{want:.6f}" and want > 0

    def test_random_baseline_reads_neither_count_nor_seed(self, tmp_path):
        argv = ["optimize", "--L", 81, "--K", 2, "--coh-max", 30, "--profile", PROFILE81]
        outs = [tmp_path / f"{i}.csv" for i in range(2)]
        assert run(*argv, "--random-trials", 2, "--seed", 1, "--output", outs[0]) == 0
        assert run(*argv, "--random-trials", 40, "--seed", 2, "--output", outs[1]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_threads_refused_with_profile(self, capsys):
        # only `rates` runs on threads; optimize has no such flag
        for threads in (2, 1):
            with pytest.raises(SystemExit) as exc:
                run("optimize", "--L", 81, "--K", 1, "--coh", 30,
                    "--profile", PROFILE81, "--threads", threads)
            assert exc.value.code == 1
            assert "--threads" in capsys.readouterr().err

    def test_missing_profile_refused(self, capsys):
        # `rates` is the one command that estimates a profile
        assert run("optimize", "--L", 27, "--K", 1, "--coh", 30) == 1
        err = capsys.readouterr().err
        assert "--profile" in err and "rates --output" in err, err

    def test_json_output(self, tmp_path):
        prof = tmp_path / "prof"
        run("rates", "--L", 27, "--trials", 2000, "--seed", 1, "--output", prof)
        out = tmp_path / "t.json"
        code = run("optimize", "--L", 27, "--K", 2, "--coh", 30,
                   "--profile", prof.with_suffix(".json"), "--output", out)
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["N_coh"] == 30

    @staticmethod
    def _baseline(prof, out, coh=30):
        """The random-baseline row that optimize writes for this profile."""
        assert run("optimize", "--L", 27, "--K", 1, "--coh", coh, "--profile", prof,
                   "--random-trials", 2, "--output", out) == 0
        with open(out) as fh:
            return next(csv.DictReader(fh))

    def test_gamma_matching_the_profile_accepted(self, tmp_path):
        # the baseline is evaluated at the gamma that the profile records
        prof = tmp_path / "prof"
        run("rates", "--L", 27, "--gamma", 4, "--output", prof)
        row = self._baseline(prof.with_suffix(".json"), tmp_path / "t.csv")
        N_pil = int(row["N_pil"])
        want = (30 - N_pil) / 30 * random_sum_rate(laplace_tables(build_lattice(3), 4.0), 1,
                                                   N_pil)
        assert row["C_net_random_mean"] == f"{want:.6f}"

    @pytest.mark.parametrize("recorded", [True, False])
    def test_geometry_matching_or_unrecorded_accepted(self, tmp_path, recorded):
        # on the geometry the profile records, or the default where it records none
        prof = tmp_path / "prof.json"
        if recorded:
            run("rates", "--L", 27, "--no-wraparound", "--hole-ratio", 0.5,
                "--output", tmp_path / "prof")
            assert json.loads(prof.read_text())["wraparound"] is False
            lattice = build_lattice(3, hole_ratio=0.5, wraparound=False)
        else:  # written before profiles recorded their geometry
            prof.write_text(json.dumps({"gamma": 3.7, "C": [7.1, 14.4, 21.9],
                                        "stderr": [0.01] * 3}))
            lattice = build_lattice(3)
        row = self._baseline(prof, tmp_path / "t.csv", coh=40)
        N_pil = int(row["N_pil"])
        want = (40 - N_pil) / 40 * random_sum_rate(laplace_tables(lattice, 3.7), 1, N_pil)
        assert row["C_net_random_mean"] == f"{want:.6f}"

    def test_profile_without_gamma_refused_only_for_the_baseline(self, tmp_path, capsys):
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({"C": [7.1, 14.4, 21.9], "stderr": [0.01] * 3}))
        argv = ["optimize", "--L", 27, "--coh", 40, "--profile", prof]
        assert run(*argv, "--random-trials", 2) == 1
        assert "gamma" in capsys.readouterr().err
        assert run(*argv, "--random-trials", 0) == 0

    def test_rising_gain_profile_refused(self, tmp_path, monkeypatch, capsys):
        # g = 3^-i (C_{i+1} - C_i) = (2, 7/3) rises at depth 1; the closed form
        # would print 0-6-0 at C_net 5.714, where 1-2-3 reaches 5.905
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({"gamma": 3.7, "C": [3.0, 5.0, 12.0],
                                    "stderr": [0.0] * 3}))
        # refused before the random baseline's tables are built
        monkeypatch.setattr(channel, "laplace_tables", None)
        assert run("optimize", "--L", 27, "--K", 2, "--coh", 14, "--profile", prof,
                   "--random-trials", 2) == 1
        captured = capsys.readouterr()
        assert "rises at depth 1" in captured.err
        assert "0-6-0" not in captured.out

    @pytest.mark.parametrize("C", [[-5.0, -4.0], [-5.0, -4.0, -3.5]], ids=["L9", "L27"])
    def test_non_positive_C0_profile_refused(self, tmp_path, capsys, C):
        # outside Theorem 2's hypothesis; at L = 9 the closed form printed a
        # negative gain for the better vector
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({"C": C, "stderr": [0.0] * len(C)}))
        assert run("optimize", "--L", 3 ** len(C), "--K", 1, "--coh", 40,
                   "--profile", prof) == 1
        captured = capsys.readouterr()
        assert "C_0 = -5.0 is not positive" in captured.err
        assert "gain" not in captured.out

    @pytest.mark.parametrize("trials", [1, -3])
    def test_random_trials_below_two_refused(self, tmp_path, capsys, trials):
        prof = tmp_path / "prof"
        run("rates", "--L", 27, "--trials", 2000, "--seed", 1, "--output", prof)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("optimize", "--L", 27, "--K", 1, "--coh", 30,
                       "--profile", prof.with_suffix(".json"),
                       "--random-trials", trials)
        assert code == 1
        assert "--random-trials" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", [0, 2])
    def test_random_trials_off_or_two_accepted(self, tmp_path, trials):
        prof = tmp_path / "prof"
        run("rates", "--L", 27, "--trials", 2000, "--seed", 1, "--output", prof)
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("optimize", "--L", 27, "--K", 1, "--coh", 30,
                       "--profile", prof.with_suffix(".json"),
                       "--random-trials", trials, "--output", out)
        assert code == 0
        with open(out) as fh:
            value = float(next(csv.DictReader(fh))["C_net_random_mean"])
        assert value > 0 if trials else math.isnan(value)


class TestFinite:
    def test_table_sweep(self, tmp_path):
        out = tmp_path / "t3.csv"
        code = run("finite", "--sweep", "table", "--L", 27, "--K", 4, "--M", 64,
                   "--trials", 2000, "--coh-over-k-min", 3.0,
                   "--coh-over-k-max", 5.0, "--output", out)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["method"] == "exhaustive"
        assert all("-" in r["p_opt"] for r in rows)

    @pytest.mark.parametrize("low, high, want", [
        (4.35, 4.6, [4.4, 4.5, 4.6]), (4.3, 4.55, [4.3, 4.4, 4.5]),
        (0.7, 1.1, [1.0, 1.1]),
    ])
    def test_table_rows_are_the_tenths_within_the_range(self, tmp_path, low, high, want):
        out = tmp_path / "t.csv"
        assert run("finite", "--sweep", "table", "--L", 9, "--K", 2, "--M", 16,
                   "--coh-over-k-min", low, "--coh-over-k-max", high, "--output", out) == 0
        with open(out) as fh:
            assert [float(r["N_coh_over_K"]) for r in csv.DictReader(fh)] == want

    def test_rate_vs_m(self, tmp_path):
        out = tmp_path / "m.csv"
        code = run("finite", "--sweep", "rate-vs-m", "--L", 27, "--trials", 2000,
                   "--m-over-k", 10, "--m-min", 40, "--m-max", 120,
                   "--m-step", 40, "--coh", 400, "--output", out)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["M"]) for r in rows] == [40, 80, 120]

    def test_rate_vs_m_skips_points_with_K_over_N_coh(self, tmp_path):
        out = tmp_path / "m50.csv"
        code = run("finite", "--sweep", "rate-vs-m", "--L", 27, "--trials", 200,
                   "--coh", 50, "--m-min", 40, "--m-max", 2000, "--m-step", 400,
                   "--output", out)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # M/K = 20: K = 2, 22, 42 fit N_coh = 50; K = 62, 82 do not
        assert [int(r["K"]) for r in rows] == [2, 22, 42]

    def test_rate_vs_m_with_no_fitting_point_fails(self, capsys):
        code = run("finite", "--sweep", "rate-vs-m", "--L", 27, "--trials", 200,
                   "--coh", 1, "--m-min", 40, "--m-max", 80, "--m-step", 40)
        assert code == 1
        assert "no grid point fits" in capsys.readouterr().err

    def test_rate_vs_m_is_exact_at_large_K(self, tmp_path):
        # K = 77, 78 at L = 81: over two million valid vectors each
        out = tmp_path / "m81.csv"
        code = run("finite", "--sweep", "rate-vs-m", "--L", 81, "--trials", 300,
                   "--m-over-k", 20, "--m-min", 1540, "--m-max", 1560,
                   "--m-step", 20, "--coh", 2000, "--output", out)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["K"]) for r in rows] == [77, 78]
        assert all(r["method"] == "exhaustive" for r in rows)

    def test_mu_output(self, tmp_path):
        mu_out = tmp_path / "mu.csv"
        code = run("finite", "--sweep", "table", "--L", 27, "--K", 2, "--M", 16,
                   "--trials", 500, "--coh-over-k-min", 4.0,
                   "--coh-over-k-max", 4.0, "--mu-output", mu_out, "--seed", 7,
                   "--gamma", 3.2, "--hole-ratio", 0.2, "--no-wraparound")
        assert code == 0
        with open(mu_out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["depth", "mu1", "mu2", "mu3", "stderr_mu1", "stderr_mu3"]
        data = [r for r in rows[1:] if not r[0].startswith("#")]
        assert [r[0] for r in data] == ["0", "1", "2"]
        # `# key,value` lines follow the table: mu0 and the inputs it depends on
        keys = dict(r for r in rows[1 + len(data):])
        assert float(keys.pop("# mu0")) >= 1.0
        assert keys == {"# gamma": "3.2", "# L": "27", "# source": "quadrature",
                        "# order": "16", "# hole_ratio": "0.2", "# wraparound": "false"}

    def test_moments_read_neither_trials_nor_seed(self, tmp_path):
        outs = [tmp_path / f"mu{i}.csv" for i in range(2)]
        for out, trials, seed in zip(outs, (300, 5000), (1, 2)):
            assert run("finite", "--sweep", "table", "--L", 27, "--K", 2, "--M", 16,
                       "--coh-over-k-min", 4.0, "--coh-over-k-max", 4.0,
                       "--trials", trials, "--seed", seed, "--mu-output", out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_threads_flag_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("finite", "--L", 27, "--trials", 100, "--threads", 2)
        assert exc.value.code == 1
        assert "--threads" in capsys.readouterr().err

    def test_threads_config_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 2\n")
        assert run("finite", "--config", cfg, "--L", 27, "--trials", 100) == 1
        assert "threads" in capsys.readouterr().err

    def test_cdf(self, tmp_path):
        out = tmp_path / "cdf.csv"
        code = run("finite", "--sweep", "cdf", "--L", 27, "--K", 1, "--M", 100,
                   "--trials", 2000, "--coh", 50, "--cdf-trials", 3,
                   "--output", out)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        values = [float(r[0]) for r in rows[1:]]
        assert values == sorted(values)
        assert len(values) == 3 * 27


class TestFiniteRefusesBadSweepInputs:
    """Every bad grid or trial count exits 1 and names the value."""

    @pytest.mark.parametrize("argv, words", [
        (("--trials", 0), ["trials", "0"]),
        (("--sweep", "rate-vs-m", "--m-over-k", 0), ["M/K", "0"]),
        (("--sweep", "rate-vs-m", "--m-step", 0), ["--m-step", "0"]),
        (("--sweep", "cdf", "--K", 1, "--coh", 50, "--cdf-trials", 0), ["CDF trials", "0"]),
        (("--sweep", "cdf", "--K", 1, "--coh", 50, "--cdf-trials", -1), ["CDF trials", "-1"]),
        (("--coh-over-k-min", 6, "--coh-over-k-max", 4),
         ["--coh-over-k-min 6.0", "--coh-over-k-max 4.0"]),
        (("--sweep", "rate-vs-m", "--m-min", 80, "--m-max", 40),
         ["--m-min 80", "--m-max 40"]),
        (("--M", 0, "--K", 2), ["M = 0, K = 2, N_coh = 6"]),
        (("--K", 0), ["M = 128, K = 0, N_coh = 0"]),
        (("--sweep", "cdf", "--K", 2, "--coh", 0), ["M = 128, K = 2, N_coh = 0"]),
    ], ids=["trials-0", "m-over-k-0", "m-step-0", "cdf-trials-0", "cdf-trials-negative",
            "empty-table-range", "empty-m-range", "M-0", "K-0", "coh-0"])
    def test_refused(self, argv, words, capsys):
        assert run("finite", "--L", 9, "--trials", 50, *argv) == 1
        err = capsys.readouterr().err
        assert all(w in err for w in words), err

    @pytest.mark.parametrize("argv", [
        ("--M", 0, "--K", 2), ("--K", 0), ("--sweep", "cdf", "--K", 2, "--coh", 0),
    ], ids=["M-0", "K-0", "coh-0"])
    def test_config_refused_before_the_moments(self, argv, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("the moments were computed")

        monkeypatch.setattr(finitem, "mu_stats", unexpected)
        assert run("finite", "--L", 9, "--trials", 50, *argv) == 1
        assert "M, K and N_coh must all be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("--m-over-k", 0), "M/K must be >= 1, got 0"),
        (("--m-over-k", 20, "--m-min", 50, "--m-max", 50), "M=50 is not a multiple of M/K=20"),
        (("--m-over-k", 10, "--m-min", 80, "--m-max", 120, "--coh", 7),
         "no grid point fits N_coh = 7: every K exceeds it"),
    ], ids=["m-over-k-0", "not-a-multiple", "no-K-fits"])
    def test_m_grid_refused_before_the_moments(self, argv, message, monkeypatch, capsys):
        def unexpected(*args, **kwargs):
            raise AssertionError("the moments were computed")

        monkeypatch.setattr(finitem, "mu_stats", unexpected)
        assert run("finite", "--sweep", "rate-vs-m", "--L", 9, *argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("sweep, argv", [
        ("table", ("--K", 2, "--M", 16, "--coh-over-k-min", 4, "--coh-over-k-max", 4.2)),
        ("rate-vs-m", ("--m-over-k", 2, "--coh", 200, "--m-min", 40, "--m-max", 200,
                       "--m-step", 80)),
        ("cdf", ("--K", 1, "--M", 100, "--coh", 50, "--cdf-trials", 2)),
    ], ids=["table", "rate-vs-m", "cdf"])
    @pytest.mark.parametrize("rho_db", ["-4000", "4000"])
    def test_unrepresentable_power_refused(self, sweep, argv, rho_db, monkeypatch, capsys):
        # 10^(rho_db/10) overflows to inf or underflows to 0, so I_i(M)
        # cannot be formed: a bad input, refused before the moments
        monkeypatch.setattr(finitem, "mu_stats", lambda *a, **k: pytest.fail("computed"))
        assert run("finite", "--sweep", sweep, "--L", 27, *argv, "--rho-db", rho_db) == 1
        assert f"rho_db = {float(rho_db)} is out of range" in capsys.readouterr().err

    def test_unrepresentable_power_refused_from_a_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho-db = -4000\n")
        assert run("finite", "--L", 27, "--K", 2, "--M", 16, "--config", cfg) == 1
        assert "rho_db = -4000.0 is out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--coh-over-k-min", "--coh-over-k-max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_ratio_refused(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run("finite", "--L", 9, "--trials", 50, f"{flag}={value}")
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert flag in err and repr(value) in err, err


# the flags that one `finite` sweep reads and another ignores
SWEEP_READS = {
    "table": {"--K", "--M", "--coh-over-k-min", "--coh-over-k-max"},
    "rate-vs-m": {"--coh", "--m-over-k", "--m-min", "--m-max", "--m-step"},
    "cdf": {"--K", "--M", "--coh", "--cdf-trials"},
}
FOREIGN = [(sweep, flag) for sweep, reads in SWEEP_READS.items()
           for flag in sorted(set().union(*SWEEP_READS.values()) - reads)]


def _finite_default(flag):
    _, commands = cli.build_parser()
    return vars(commands["finite"].parse_args([]))[flag[2:].replace("-", "_")]


class TestFiniteReadsOnlyItsSweepFlags:
    """A flag that the chosen sweep ignores exits 1, even at its default value."""

    @pytest.mark.parametrize("sweep, flag", FOREIGN)
    def test_foreign_flag_refused(self, sweep, flag, capsys):
        value = _finite_default(flag)
        assert run("finite", "--sweep", sweep, "--L", 9, "--trials", 20, flag, value) == 1
        err = capsys.readouterr().err
        assert f"finite --sweep {sweep} does not read {flag}" in err, err

    @pytest.mark.parametrize("sweep, flag", FOREIGN)
    def test_foreign_config_key_refused(self, tmp_path, sweep, flag, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"sweep = {sweep}\n{flag[2:]} = {_finite_default(flag)}\n")
        assert run("finite", "--config", cfg, "--L", 9, "--trials", 20) == 1
        err = capsys.readouterr().err
        assert f"finite --sweep {sweep} does not read {flag}" in err, err

    @pytest.mark.parametrize("sweep", sorted(SWEEP_READS))
    def test_every_flag_the_sweep_reads_accepted(self, sweep, capsys):
        argv = [tok for flag in sorted(SWEEP_READS[sweep])
                for tok in (flag, _finite_default(flag))]
        common = ["--gamma", 3.7, "--hole-ratio", 0.14, "--rho-db", 5]
        assert run("finite", "--sweep", sweep, "--L", 9, "--trials", 20, "--seed", 1,
                   *common, *argv) == 0, capsys.readouterr().err


def test_optimize_seed_refused_without_random_baseline(tmp_path, capsys):
    # only the random baseline draws, so --seed 5 would write --seed 0's bytes
    argv = ["optimize", "--L", 81, "--coh-max", 40, "--profile", PROFILE81]
    for seed in (5, 0):
        assert run(*argv, "--seed", seed) == 1
        assert "optimize --random-trials 0 does not read --seed" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 0\n")
    assert run(*argv, "--config", cfg) == 1
    assert "does not read --seed" in capsys.readouterr().err
    out = tmp_path / "o.csv"
    assert run(*argv, "--seed", 5, "--random-trials", 2, "--output", out) == 0


@pytest.mark.parametrize("from_config", [False, True])
def test_optimize_coh_range_refused_with_one_coh(tmp_path, capsys, from_config):
    # --coh picks one interval, so a range would be dropped without a word
    argv = ["optimize", "--L", 81, "--coh", 30, "--profile", PROFILE81]
    if from_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("coh-min = 5\ncoh-max = 10\n")
        argv += ["--config", cfg]
    else:
        argv += ["--coh-min", 5, "--coh-max", 10]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "optimize --coh 30 does not read --coh-max, --coh-min" in err, err


@pytest.mark.parametrize("text, problem", [
    ('[2.0, 3.0]', "a rate profile is a JSON object, got a list"),
    ('{"stderr": [0.1, 0.1]}', "the rate profile has no C"),
    ('{"C": [2.0, 3.0]}', "the rate profile has no stderr"),
    ('{"C": [2.0, 1e400], "stderr": [0.1, 0.1]}', "C and stderr must be finite"),
    ('{"C": {"a": 1}, "stderr": [0.1]}',
     "the rate profile's C must be a list of numbers, got {'a': 1}"),
    ('{"C": [2.0, 3.0], "stderr": [0.1, 0.1], "trials": "many"}',
     "the rate profile's trials must be an integer, got 'many'"),
], ids=["list", "no-C", "no-stderr", "infinite-C", "dict-C", "string-trials"])
@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_bad_profile_file_refused(tmp_path, capsys, command, text, problem):
    prof = tmp_path / "prof.json"
    prof.write_text(text)
    argv = (["optimize", "--L", 9, "--coh", 20] if command == "optimize"
            else ["verify", "--L-grid", 9, "--K-grid", 1])
    assert run(*argv, "--profile", prof) == 1
    assert f"error: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("rates", "--gamma"), ("rates", "--hole-ratio"), ("finite", "--rho-db"),
    ("verify", "--slopes"),
])
def test_every_float_flag_refuses_nan(command, flag, capsys):
    # nan fails every comparison, so a range check such as gamma <= 2 lets it through
    with pytest.raises(SystemExit) as exc:
        run(command, f"{flag}=nan")
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert flag in err and "'nan'" in err, err


@pytest.mark.parametrize("command", ["rates", "optimize", "finite"])
@pytest.mark.parametrize("gamma", ["-1", "1", "2"])
def test_every_command_refuses_gamma_of_two_or_less(command, gamma, tmp_path, capsys):
    # one channel rule: optimize applies it to the gamma its profile records
    if command == "optimize":
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({"gamma": float(gamma), "C": [7.1, 14.4],
                                    "stderr": [0.01] * 2}))
        inputs = ("--profile", prof, "--random-trials", 2)
    else:
        inputs = ("--trials", 50, "--gamma", gamma)
    assert run(command, "--L", 9, *inputs) == 1
    err = capsys.readouterr().err
    assert f"gamma must exceed 2, got {float(gamma)}" in err, err


@pytest.mark.parametrize("command", ["rates", "optimize", "finite", "verify"])
@pytest.mark.parametrize("value", ["-1", "x"])
def test_every_command_refuses_a_bad_seed(command, value, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command, "--seed", value)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "--seed" in err and f"non-negative integer, got {value!r}" in err, err


# --threads: TestOptimize and TestVerify
@pytest.mark.parametrize("command, flag", [
    ("optimize", ("--trials", 2000)), ("optimize", ("--gamma", 3.7)),
    ("optimize", ("--hole-ratio", 0.14)), ("optimize", ("--no-wraparound",)),
    ("optimize", ("--format", "csv")), ("verify", ("--with-mc",)),
    ("verify", ("--gamma", 3.7)), ("verify", ("--L", 27)), ("verify", ("--K", 2)),
    ("verify", ("--trials", 2000)), ("verify", ("--hole-ratio", 0.14)),
    ("verify", ("--no-wraparound",)),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_flags_a_command_does_not_read_are_usage_errors(command, flag, capsys):
    # optimize and verify read a stored profile, so they have no Monte Carlo or
    # channel flags; and no flag is abbreviated, so verify's --L is not --L-grid
    with pytest.raises(SystemExit) as exc:
        run(command, *flag)
    assert exc.value.code == 1
    assert flag[0] in capsys.readouterr().err


def test_flag_census():
    # every settable flag of every subcommand: adding or dropping one edits this list
    common = ["--seed", "--output", "--config"]
    channel = ["--L", "--gamma", "--hole-ratio", "--no-wraparound"]
    want = {
        "rates": [*common, *channel, "--trials", "--threads"],
        "optimize": [*common, "--L", "--K", "--coh", "--coh-min", "--coh-max", "--profile",
                     "--random-trials"],
        "finite": [*common, *channel, "--trials", "--sweep", "--K", "--M", "--rho-db",
                   "--coh", "--coh-over-k-min", "--coh-over-k-max", "--m-over-k", "--m-min",
                   "--m-max", "--m-step", "--cdf-trials", "--mu-output"],
        "verify": [*common, "--L-grid", "--K-grid", "--slopes", "--profile"],
    }
    _, commands = cli.build_parser()
    got = {name: [flag for action in sub._actions for flag in action.option_strings
                  if flag not in ("-h", "--help")] for name, sub in commands.items()}
    assert got == want


def test_api_census():
    # the public API by an AST walk over the modules, __init__ left out: the
    # public module-level names (functions, classes and assigned names), the
    # parameters of the public functions among them, the public methods and
    # fields of the public classes, and the package's exports; adding or
    # dropping a name edits these numbers
    import pilotreuse

    def public(name):
        return not name.startswith("_")

    names = params = members = 0
    for path in sorted((ROOT / "src" / "pilotreuse").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                names += sum(isinstance(t, ast.Name) and public(t.id) for t in node.targets)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names += public(node.target.id)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and public(node.name):
                names += 1
                if isinstance(node, ast.FunctionDef):
                    a = node.args
                    params += (len(a.posonlyargs + a.args + a.kwonlyargs)
                               + bool(a.vararg) + bool(a.kwarg))
                else:
                    members += sum(public(item.name) if isinstance(item, ast.FunctionDef)
                                   else isinstance(item, ast.AnnAssign)
                                   and public(item.target.id)
                                   for item in node.body)
    assert (names, params, members, len(pilotreuse.__all__)) == (70, 131, 65, 30)


def test_code_line_census():
    # the lines of the modules that hold code: neither blank, nor a comment,
    # nor within a module, class or function docstring (its AST span);
    # adding or dropping code edits this number
    total = 0
    for path in sorted((ROOT / "src" / "pilotreuse").glob("*.py")):
        text = path.read_text()
        docstrings = {n for node in ast.walk(ast.parse(text))
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and ast.get_docstring(node, clean=False) is not None
                      for n in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
        total += sum(n not in docstrings and line.strip() != ""
                     and not line.strip().startswith("#")
                     for n, line in enumerate(text.splitlines(), 1))
    assert total == 1473


def test_config_seed_is_checked_as_the_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    with pytest.raises(SystemExit) as exc:
        run("rates", "--config", cfg)
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("grid, words", [
        (("--L-grid", 3), ["L grid value 3"]),
        (("--L-grid", 9, 10), ["L grid value 10"]),
        (("--L-grid", 1), ["L grid value 1"]),
        (("--K-grid", 1, 0), ["K grid value 0"]),
    ], ids=["L-3", "L-10", "L-1", "K-0"])
    def test_grid_value_refused(self, grid, words, capsys):
        # L = 3 has a single depth, which no suite can run on
        assert run("verify", "--slopes", 6.0, *grid) == 1
        err = capsys.readouterr().err
        assert all(w in err for w in words), err

    def test_passing_grid_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = run("verify", "--L-grid", 9, "--K-grid", 1, 2,
                   "--slopes", 1.0, 6.0, "--output", out)
        assert code == 0
        assert json.loads(out.read_text())["ok"]

    def test_threads_refused_without_mc(self, capsys):
        # verify runs no Monte Carlo, so it has no --threads flag
        with pytest.raises(SystemExit) as exc:
            run("verify", "--L-grid", 9, "--K-grid", 1, "--slopes", 6.0, "--threads", 2)
        assert exc.value.code == 1
        assert "--threads" in capsys.readouterr().err

    def test_profile_adds_the_profile_check(self, tmp_path):
        out = tmp_path / "report.json"
        code = run("verify", "--L-grid", 9, "--K-grid", 1, "--slopes", 6.0,
                   "--profile", PROFILE81, "--output", out)
        assert code == 0
        names = [c["name"] for c in json.loads(out.read_text())["checks"]]
        assert names[-1] == "profile L=81 K=1"
        assert not any(n.startswith("profile") for n in names[:-1])

    @pytest.mark.parametrize("C, words", [
        # its L = 3 has one depth, which no suite can run on, as for --L-grid 3
        ([2.0], "profile has 1 depth"),
        # g = 3^-i (C_{i+1} - C_i) = (2, 7/3): outside Theorem 2's hypothesis
        ([3.0, 5.0, 12.0], "rises at depth 1"),
        # positive gains, but the rates are not
        ([-5.0, -4.0], "C_0 = -5.0 is not positive"),
    ], ids=["one-depth", "rising-gain", "non-positive-C0"])
    def test_one_depth_profile_refused(self, tmp_path, capsys, C, words):
        prof = tmp_path / "prof.json"
        prof.write_text(json.dumps({"C": C, "stderr": [0.1] * len(C)}))
        assert run("verify", "--L-grid", 9, "--K-grid", 1, "--profile", prof) == 1
        captured = capsys.readouterr()
        assert words in captured.err
        assert captured.out == ""

    def test_failing_report_exits_three(self, monkeypatch, capsys):
        from pilotreuse.verify import CheckResult, VerificationReport

        def fake_run(**kwargs):
            bad = CheckResult(name="theorem1 L=27 K=1", checked=1)
            bad.fail(N_p0=7, closed_form=(0, 2, 2, 3), brute_force=(0, 1, 6, 0))
            return VerificationReport(checks=[bad])

        monkeypatch.setattr("pilotreuse.verify.run_verification", fake_run)
        assert run("verify") == 3
        out = capsys.readouterr().out
        assert "FAIL" in out and "N_p0" in out


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 9\ngamma = 3.2  # a comment\nhole-ratio = 0.3\n")
        out1 = tmp_path / "c1"
        assert run("rates", "--config", cfg, "--output", out1) == 0
        prof = RateProfile.from_json(out1.with_suffix(".json").read_text())
        assert (prof.m, prof.gamma, prof.hole_ratio) == (2, 3.2, 0.3)
        # explicit flag beats the config value
        out2 = tmp_path / "c2"
        assert run("rates", "--config", cfg, "--gamma", 4, "--output", out2) == 0
        prof2 = RateProfile.from_json(out2.with_suffix(".json").read_text())
        assert (prof2.m, prof2.gamma, prof2.hole_ratio) == (2, 4.0, 0.3)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_flag = 3\n")
        assert run("rates", "--config", cfg) == 1

    def test_config_naming_another_config_refused(self, tmp_path, capsys):
        # the named file would never be read, so its keys would be dropped silently
        (tmp_path / "inner.cfg").write_text("gamma = 4\n")
        outer = tmp_path / "outer.cfg"
        outer.write_text(f"config = {tmp_path / 'inner.cfg'}\n")
        assert run("rates", "--config", outer, "--L", 9) == 1
        assert "config key config" in capsys.readouterr().err


class TestConfigValues:
    """Config values pass the same checks as the flags they name."""

    @staticmethod
    def _cfg(tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        return cfg

    def test_false_switch_stays_off(self, tmp_path):
        cfg = self._cfg(tmp_path, "no-wraparound = false\ntrials = 300\n")
        out = tmp_path / "prof"
        assert run("rates", "--config", cfg, "--L", 27, "--output", out) == 0
        prof = RateProfile.from_json(out.with_suffix(".json").read_text())
        assert prof.wraparound is True

    def test_true_switch_turns_on(self, tmp_path):
        cfg = self._cfg(tmp_path, "no-wraparound = true\ntrials = 300\n")
        out = tmp_path / "prof"
        assert run("rates", "--config", cfg, "--L", 27, "--output", out) == 0
        prof = RateProfile.from_json(out.with_suffix(".json").read_text())
        assert prof.wraparound is False

    def test_switch_takes_only_true_or_false(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, "no-wraparound = yes\n")
        assert run("rates", "--config", cfg, "--L", 9, "--trials", 100) == 1
        assert "no-wraparound" in capsys.readouterr().err

    def test_profile_key_reaches_verification(self, tmp_path, monkeypatch):
        seen = []

        def fake_run(**kwargs):
            from pilotreuse.verify import VerificationReport

            seen.append(kwargs["profile"])
            return VerificationReport(checks=[])

        monkeypatch.setattr("pilotreuse.verify.run_verification", fake_run)
        cfg = self._cfg(tmp_path, f"profile = {PROFILE81}\n")
        assert run("verify", "--config", cfg) == 0
        assert run("verify", "--config", self._cfg(tmp_path, "slopes = 6\n")) == 0
        stored = RateProfile.from_json(PROFILE81.read_text())
        assert seen[0].C == stored.C and seen[1] is None

    def test_bad_choice_refused(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, "sweep = bogus\n")
        with pytest.raises(SystemExit) as exc:
            run("finite", "--config", cfg, "--L", 9, "--trials", 50)
        assert exc.value.code == 1
        assert "--sweep" in capsys.readouterr().err

    def test_bad_format_refused(self, tmp_path, capsys):
        # the table's format follows the --output suffix, so no command has the key
        cfg = self._cfg(tmp_path, "format = json\n")
        assert run("optimize", "--config", cfg, "--profile", PROFILE81, "--coh", 40) == 1
        assert "unknown config key: format" in capsys.readouterr().err

    def test_list_values_and_flags_win(self, tmp_path, monkeypatch):
        seen = []

        def fake_run(**kwargs):
            from pilotreuse.verify import VerificationReport

            seen.append(kwargs["L_values"])
            return VerificationReport(checks=[])

        monkeypatch.setattr("pilotreuse.verify.run_verification", fake_run)
        assert run("verify", "--config", self._cfg(tmp_path, "L-grid = 9\n")) == 0
        assert run("verify", "--config", self._cfg(tmp_path, "L-grid = 9 27\n")) == 0
        assert run("verify", "--config", self._cfg(tmp_path, "L-grid = 9 27\n"),
                   "--L-grid", 81) == 0
        assert seen == [[9], [9, 27], [81]]

    def test_bad_type_refused(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, "trials = many\n")
        with pytest.raises(SystemExit) as exc:
            run("rates", "--config", cfg)
        assert exc.value.code == 1
        assert "--trials" in capsys.readouterr().err


class TestFormat:
    """No command has --format: a table is JSON when its --output ends in .json."""

    @pytest.mark.parametrize("argv", [
        ("rates", "--L", 9, "--trials", 100, "--format", "json"),
        ("optimize", "--coh", 40, "--profile", PROFILE81, "--format", "json"),
        ("finite", "--L", 9, "--format", "json"),
        ("verify", "--L-grid", 9, "--K-grid", 1, "--slopes", 6, "--format", "csv"),
    ], ids=["rates", "optimize", "finite", "verify"])
    def test_flag_is_usage_error_where_unread(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 1
        assert "--format" in capsys.readouterr().err

    # optimize's format key: TestConfigValues::test_bad_format_refused
    @pytest.mark.parametrize("command, key", [
        ("optimize", "gamma"), ("optimize", "hole-ratio"), ("optimize", "no-wraparound"),
        ("finite", "format"),
    ])
    def test_removed_flags_are_unknown_config_keys(self, tmp_path, command, key, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        inputs = ("--coh", 40, "--profile", PROFILE81) if command == "optimize" else ()
        assert run(command, "--config", cfg, *inputs) == 1
        assert f"unknown config key: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    @pytest.mark.parametrize("command", ["optimize", "finite"])
    def test_output_suffix_selects_the_format(self, tmp_path, command, suffix):
        out = tmp_path / f"t{suffix}"
        inputs = (("--coh-max", 5, "--profile", PROFILE81) if command == "optimize"
                  else ("--L", 9, "--K", 2, "--M", 16))
        assert run(command, *inputs, "--output", out) == 0
        text = out.read_text()
        if suffix == ".json":
            assert isinstance(json.loads(text), list)
        else:
            assert text.split(",", 1)[0] in ("N_coh", "N_coh_over_K")

    @pytest.mark.parametrize("argv, flag, suffix, computes", [
        (("finite", "--L", 9, "--K", 2, "--M", 16, "--mu-output"), "--mu-output", ".json",
         "pilotreuse.finitem.mu_stats"),
        (("verify", "--L-grid", 9, "--K-grid", 1, "--slopes", 6, "--output"), "--output",
         ".csv", "pilotreuse.verify.run_verification"),
    ], ids=["finite-mu-output", "verify-output"])
    def test_fixed_format_output_refuses_the_other_suffix(self, tmp_path, monkeypatch,
                                                          capsys, argv, flag, suffix,
                                                          computes):
        # refused before any computation, and nothing is written
        monkeypatch.setattr(computes, lambda *a, **k: pytest.fail("computed"))
        out = tmp_path / f"out{suffix}"
        assert run(*argv, out) == 1
        err = capsys.readouterr().err
        assert flag in err and suffix in err, err
        assert not out.exists()

    def test_config_key_rejected_for_rates(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = json\n")
        assert run("rates", "--config", cfg, "--L", 9, "--trials", 100) == 1
        assert "format" in capsys.readouterr().err


def _loaded(code: str, modules: list[str]) -> list[str]:
    """Which of `modules` a fresh interpreter has loaded after running `code`;
    the test session has loaded everything."""
    code += f"\nimport sys\nprint([m for m in {modules!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _run_code(argv: list[str]) -> str:
    return f"from pilotreuse import cli\nassert cli.main({argv!r}) == 0"


def _load_workloads():
    """perfbench/workloads.py, loaded read-only as tests/test_tooling.py does."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_workloads()
# the `full` benchmark commands that compute with numpy: the rate profiles,
# the random baseline of `optimize` and the drawn per-user CDF
NUMERIC_COMMANDS = {"rates", "rates-threads2", "rates-large", "optimize", "finite-cdf"}


class TestStartup:
    def test_cli_import_leaves_unused_modules_unloaded(self):
        unused = ["pilotreuse.finitem", "pilotreuse.optimizer", "pilotreuse.verify",
                  "pilotreuse.hexgrid", "pilotreuse.channel", "numpy",
                  "fractions", "concurrent.futures"]
        assert _loaded("import pilotreuse.cli", unused) == []

    def test_rates_run_leaves_the_samplers_unloaded(self, tmp_path):
        # the exact profile draws nothing, so no RNG, seeding or thread pool,
        # and its Gauss–Legendre rule needs no polynomial package; nor does
        # it read assignment vectors
        unused = ["numpy.random", "secrets", "hashlib", "concurrent.futures",
                  "numpy.polynomial", "pilotreuse.assignment"]
        argv = ["rates", "--L", "27", "--threads", "2", "--output", str(tmp_path / "p")]
        assert _loaded(_run_code(argv), unused) == []

    def test_finite_table_run_leaves_the_oracles_unloaded(self):
        # the finite-M optimum is the fill of `assignment`: no closed forms
        # of `optimizer`, no verification and no exact rationals
        unused = ["pilotreuse.optimizer", "pilotreuse.verify", "fractions"]
        argv = ["finite", "--sweep", "table", "--L", "27", "--K", "3", "--M", "16"]
        assert _loaded(_run_code(argv), unused) == []

    @pytest.mark.parametrize("extra", [[], ["--profile", str(PROFILE81)]],
                             ids=["grid", "profile"])
    def test_verify_run_loads_no_numeric_code(self, extra):
        # the exact layer is plain Python, the stored profile included
        unused = ["numpy", "pilotreuse.hexgrid", "pilotreuse.channel", "pilotreuse.finitem"]
        argv = ["verify", "--L-grid", "9", "27", "--K-grid", "1", "2", "--slopes", "6", *extra]
        assert _loaded(_run_code(argv), unused) == []

    @pytest.mark.parametrize("command", [
        command for workload in _WORKLOADS.WORKLOADS["full"].values() for command in workload
    ], ids=lambda command: command.id)
    def test_benchmark_command_loads_numpy_only_where_it_computes_with_it(self, command,
                                                                          tmp_path):
        # `verify`, the finite-M table and rate-vs-m are plain Python
        argv = [str(ROOT / arg) if arg == _WORKLOADS.PROFILE else arg
                for arg in command.cli_args(seed=1, out=str(tmp_path))]
        want = ["numpy"] if command.id in NUMERIC_COMMANDS else []
        assert _loaded(_run_code(argv), ["numpy"]) == want

    def test_optimize_without_the_baseline_loads_no_numpy(self):
        # only the random baseline reads the channel
        argv = ["optimize", "--L", "81", "--coh", "40", "--profile", str(PROFILE81),
                "--random-trials", "0"]
        assert _loaded(_run_code(argv), ["numpy"]) == []

    def test_every_export_resolves_and_is_listed(self):
        import pilotreuse

        listed = dir(pilotreuse)
        for name in pilotreuse.__all__:
            assert getattr(pilotreuse, name) is not None
            assert name in listed
        with pytest.raises(AttributeError):
            pilotreuse.no_such_name
