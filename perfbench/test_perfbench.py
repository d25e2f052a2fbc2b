"""Tests of the benchmark itself:  python -m pytest perfbench

Every output check must pass on genuine output and fail on a planted
corruption of it; the tracer must patch by-name imports, time generators per
`next()` and nest worker-thread spans; smoke runs must print a well-formed
result; and a directory without the program must make the benchmark fail.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import compare
import run
import tracer
from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pilotreuse import assignment, channel, cli, finitem, hexgrid, optimizer  # noqa: E402

SMOKE = WORKLOADS["smoke"]
SEED = 7


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One smoke pass of every workload: (commands, output dir, references)."""
    out = tmp_path_factory.mktemp("outputs")
    cmds = [c for w in SMOKE.values() for c in w]
    refs = run.load_refs(cmds, "smoke")
    runs, _ = run.subprocess_pass(cmds, SEED, out, refs, run.child_env())
    assert [r.error for r in runs] == [None] * len(runs)
    return {c.id: c for c in cmds}, out, refs


def _check(outputs, cid):
    cmds, out, refs = outputs
    return run.check_output(cmds[cid], out, refs)


def _edit_json(path: Path, fn):
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def _edit_csv(path: Path, fn):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    rows = fn(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header)
        writer.writeheader()
        writer.writerows(rows)


def _set(rows, i, col, value):
    rows[i][col] = value
    return rows


def _swap_c(d):
    d["C"][1], d["C"][2] = d["C"][2], d["C"][1]


def _shift_c0(d):
    d["C"][0] += 10 * d["stderr"][0]


def _nudge_c0(d):
    d["C"][0] = d["C"][0] * (1 + 1e-15) + 1e-13


def _drop_check(d):
    d["checks"].pop()


CORRUPTIONS = {
    "rates": [("json", _swap_c), ("json", _shift_c0)],
    "rates-threads2": [("json", _nudge_c0)],
    "rates-large": [("json", _shift_c0)],
    "verify": [("json", lambda d: d.update(ok=False)), ("json", _drop_check)],
    "optimize": [
        ("csv", lambda r: _set(r, 19, "p_opt", "0-0-0-3") and _set(r, 19, "N_pil", "3")),
        ("csv", lambda r: _set(r, 5, "N_pil", "7")),
        ("csv", lambda r: _set(r, 3, "C_net_optimal", f"{float(r[3]['C_net_optimal']) + 1e-4:.6f}")),
        ("csv", lambda r: _set(r, 3, "C_net_random_mean", "9.0")),
    ],
    "finite-table": [
        ("csv", lambda r: _set(r, 0, "p_opt", "0-6-0") and _set(r, 0, "N_pil", "6")),
        ("csv", lambda r: _set(r, 0, "C_net", f"{1.5 * float(r[0]['C_net']):.6f}")),
        ("csv", lambda r: r[:-1]),
    ],
    "finite-rate-vs-m": [
        ("csv", lambda r: _set(r, 0, "method", "heuristic")),
        ("csv", lambda r: _set(r, 1, "K", "61")),
        ("csv", lambda r: _set(r, 2, "C_net_per_user", "0.0")),
    ],
    "finite-cdf": [
        ("csv", lambda r: r[1:]),
        ("csv", lambda r: r[::-1]),
        ("csv", lambda r: [{"rate": f"{float(x['rate']) + 1.0:.6f}"} for x in r]),
    ],
}


def test_every_check_has_planted_faults():
    assert set(CORRUPTIONS) == {c.id for w in SMOKE.values() for c in w}


@pytest.mark.parametrize("cid,n", [(cid, n) for cid, cs in CORRUPTIONS.items()
                                   for n in range(len(cs))])
def test_planted_fault_is_caught(outputs, cid, n):
    cmds, out, _ = outputs
    assert _check(outputs, cid) is None
    cmd = cmds[cid]
    path = out / cmd.output
    if cmd.argv[0] == "rates":
        path = path.with_suffix(".json")
    saved = path.read_bytes()
    kind, corrupt = CORRUPTIONS[cid][n]
    try:
        (_edit_json if kind == "json" else _edit_csv)(path, corrupt)
        assert _check(outputs, cid) is not None
    finally:
        path.write_bytes(saved)
    assert _check(outputs, cid) is None


def test_missing_output_and_nonzero_exit_count_as_failed(tmp_path):
    bad = Command(id="verify", argv=("verify", "--L-grid", "10"), check="verify")
    refs = {"verify": {"checks": 1, "checked": 1}}
    runs, _ = run.subprocess_pass([bad], SEED, tmp_path, refs, run.child_env())
    assert runs[0].rc == 1 and runs[0].error.startswith("exit code 1")
    assert run.check_output(bad, tmp_path, refs).startswith("unreadable output")


# -- tracer -------------------------------------------------------------------


def test_tracer_patches_by_name_imports_and_restores_them():
    originals = (finitem.derive_rng, optimizer.enumerate_assignments,
                 optimizer.count_assignments, cli.build_lattice,
                 hexgrid.HexLattice.__dict__["min_image_norms"])
    with tracer.Tracer():
        assert finitem.derive_rng is channel.derive_rng is not originals[0]
        assert optimizer.enumerate_assignments is assignment.enumerate_assignments
        assert optimizer.enumerate_assignments is not originals[1]
        assert optimizer.count_assignments is not originals[2]
        assert cli.build_lattice is hexgrid.build_lattice is not originals[3]
        assert hexgrid.HexLattice.__dict__["min_image_norms"] is not originals[4]
    assert (finitem.derive_rng, optimizer.enumerate_assignments,
            optimizer.count_assignments, cli.build_lattice,
            hexgrid.HexLattice.__dict__["min_image_norms"]) == originals


def test_generator_is_timed_per_next_not_while_consumer_runs():
    with tracer.Tracer() as tr:
        n = 0
        t0 = time.perf_counter()
        for _ in optimizer.enumerate_assignments(27, 2):
            time.sleep(0.01)  # the consumer's time is not the generator's
            n += 1
        wall = time.perf_counter() - t0
    st = tr.stats["assignment.enumerate_assignments"]
    assert st.calls == 1 and st.counts["vectors"] == n == assignment.count_assignments(27, 2)
    assert st.self_s < 0.1 * wall


def test_self_time_excludes_children():
    rates = channel.synthetic_linear_profile(1.0, 6.0, 3)
    with tracer.Tracer() as tr:
        optimizer.brute_force_optimal(27, 3, rates, objective="cnet", N_coh=20)
    bf = tr.stats["optimizer.brute_force_optimal"]
    children = sum(tr.stats[n].total_s for n in ("assignment.count_assignments",
                                                   "assignment.enumerate_assignments"))
    assert bf.total_s == pytest.approx(bf.self_s + children, rel=1e-6, abs=1e-9)


def test_worker_thread_spans_nest_under_the_caller():
    lattice = hexgrid.build_lattice(3)
    cfg = channel.ChannelConfig(lattice=lattice, trials=40_000, seed=3)
    stats = {}
    for threads in (1, 2):
        with tracer.Tracer() as tr:
            channel.estimate_rate_profile(lattice, cfg, threads=threads)
        stats[threads] = tr.stats
    for threads in (1, 2):
        est = stats[threads]["channel.estimate_rate_profile"]
        kernel = stats[threads]["hexgrid.min_image_norms"]
        assert 0 <= est.self_s < 0.5 * est.total_s
        assert kernel.self_s > 0
    assert tracer.exact_counts(stats[1]) == tracer.exact_counts(stats[2])


def test_tracer_is_thread_safe_under_contention():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    lattice = hexgrid.build_lattice(2)
    deltas = lattice.centers[:4]
    try:
        with tracer.Tracer() as tr:
            workers = [threading.Thread(target=lambda: [lattice.min_image_norms(deltas)
                                                        for _ in range(2000)])
                       for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    st = tr.stats["hexgrid.min_image_norms"]
    assert st.calls == 8000 and st.counts["rows"] == 32000


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS["full"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert list(WORKLOADS["smoke"]) == list(WORKLOADS["full"])
    assert all([c.id for c in WORKLOADS["smoke"][w]] == [c.id for c in WORKLOADS["full"][w]]
               for w in WORKLOADS["full"])


def test_compare_gives_a_verdict_per_metric(tmp_path, capsys):
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        d = tmp_path / side
        d.mkdir()
        for seed in range(10):
            wall = scale * (3.0 + 0.01 * seed)
            metrics = {"wall_s": wall, "cpu_s": 3.0 + 0.01 * seed, "peak_rss_mb": 40.0,
                       "setup_s": 0.4 / scale}
            data = {"record": {"size": "full", "workload": "mc-estimate",
                               "machine": {"seed": seed}},
                    "result": {"metrics": {k: {"value": v} for k, v in metrics.items()}}}
            (d / f"x-{seed}-trace0-1.json").write_text(json.dumps(data))
    compare.main([str(tmp_path / "parent"), str(tmp_path / "change")])
    verdicts = {line.split()[0]: line.split()[-1]
                for line in capsys.readouterr().out.splitlines()[1:]}
    assert verdicts == {"wall_s": "gain", "cpu_s": "ok", "peak_rss_mb": "ok",
                        "setup_s": "worse"}


# -- whole runs ---------------------------------------------------------------


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", list(SMOKE))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_a_correct_result(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["failures"] + record["faults"]
    assert result["failed"] == 0 and result["attempted"] >= len(SMOKE[workload])
    names = ({n for n, _, _ in tracer.PER_LAYER} if trace == "1" else set(run.END_TO_END))
    assert set(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert all(result["metrics"][n]["value"] > 0 for n in run.END_TO_END)
    else:
        m = {n: v["value"] for n, v in result["metrics"].items()}
        assert m["cli.main.calls"] == len(SMOKE[workload])
        assert m["cli.main.s"] >= 0.9 * min(record["traced_wall_s"])
        assert m["hexgrid.build_lattice.calls"] == sum(c.L is not None for c in SMOKE[workload])


def test_determinism_fault_is_reported(tmp_path):
    args = ("--workload", "exact-search", "--seed", "11", "--trace", "1", "--smoke")
    first = _bench(*args)
    assert json.loads(first.stdout.splitlines()[-1])["correct"]
    stored = sorted((ROOT / ".perfbench" / "determinism").glob("*-smoke-exact-search-11-trace1.json"),
                    key=lambda p: p.stat().st_mtime)[-1]
    saved = stored.read_text()
    try:
        counts = json.loads(saved)
        counts["assignment.enumerate_assignments.vectors"] += 1
        stored.write_text(json.dumps(counts))
        second = _bench(*args)
        result = json.loads(second.stdout.splitlines()[-1])
        faults = json.loads(second.stdout.splitlines()[-2])["record"]["faults"]
        assert not result["correct"]
        assert any("enumerate_assignments.vectors" in f for f in faults)
    finally:
        stored.write_text(saved)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "mc-estimate", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
