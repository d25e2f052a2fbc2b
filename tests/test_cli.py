import csv
import json

import pytest

from pilotreuse import cli
from pilotreuse.channel import RateProfile


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

    def test_random_baseline_column(self, tmp_path):
        prof = tmp_path / "prof"
        run("rates", "--L", 27, "--trials", 2000, "--seed", 1, "--output", prof)
        out = tmp_path / "t.csv"
        code = run("optimize", "--L", 27, "--K", 1, "--coh", 30,
                   "--profile", prof.with_suffix(".json"),
                   "--random-trials", 25, "--output", out)
        assert code == 0
        with open(out) as fh:
            row = next(csv.DictReader(fh))
        assert float(row["C_net_random_mean"]) > 0

    def test_json_output(self, tmp_path):
        prof = tmp_path / "prof"
        run("rates", "--L", 27, "--trials", 2000, "--seed", 1, "--output", prof)
        out = tmp_path / "t.json"
        code = run("optimize", "--L", 27, "--K", 2, "--coh", 30,
                   "--profile", prof.with_suffix(".json"),
                   "--output", out, "--format", "json")
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["N_coh"] == 30


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

    def test_rate_vs_m(self, tmp_path):
        out = tmp_path / "m.csv"
        code = run("finite", "--sweep", "rate-vs-m", "--L", 27, "--trials", 2000,
                   "--m-over-k", 10, "--m-min", 40, "--m-max", 120,
                   "--m-step", 40, "--coh", 400, "--output", out)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["M"]) for r in rows] == [40, 80, 120]

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
                   "--coh-over-k-max", 4.0, "--mu-output", mu_out)
        assert code == 0
        with open(mu_out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["depth", "mu1", "mu2", "mu3", "stderr_mu1", "stderr_mu3"]
        assert [r[0] for r in rows[1:-1]] == ["0", "1", "2"]
        assert rows[-1][0] == "# mu0" and float(rows[-1][1]) >= 1.0

    def test_threads_flag_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("finite", "--L", 27, "--trials", 100, "--threads", 2)
        assert exc.value.code == 2
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


class TestVerify:
    def test_passing_grid_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = run("verify", "--L-grid", 9, "--K-grid", 1, 2,
                   "--slopes", 1.0, 6.0, "--output", out)
        assert code == 0
        assert json.loads(out.read_text())["ok"]

    def test_failing_report_exits_three(self, monkeypatch, capsys):
        from pilotreuse.verify import CheckResult, VerificationReport

        def fake_run(**kwargs):
            bad = CheckResult(name="theorem1 L=27 K=1", ok=True, checked=1)
            bad.fail(N_p0=7, closed_form=(0, 2, 2, 3), brute_force=(0, 1, 6, 0))
            return VerificationReport(checks=[bad])

        monkeypatch.setattr("pilotreuse.cli.verify.run_verification", fake_run)
        assert run("verify") == 3
        out = capsys.readouterr().out
        assert "FAIL" in out and "N_p0" in out


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L = 9\ntrials = 700  # fast\nseed = 5\n")
        out1 = tmp_path / "c1"
        assert run("rates", "--config", cfg, "--output", out1) == 0
        prof = RateProfile.from_json(out1.with_suffix(".json").read_text())
        assert prof.trials == 700 and prof.seed == 5 and prof.m == 2
        # explicit flag beats the config value
        out2 = tmp_path / "c2"
        assert run("rates", "--config", cfg, "--trials", 900, "--output", out2) == 0
        prof2 = RateProfile.from_json(out2.with_suffix(".json").read_text())
        assert prof2.trials == 900 and prof2.seed == 5

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_flag = 3\n")
        assert run("rates", "--config", cfg) == 1
