#!/usr/bin/env python3
"""The pilotreuse benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload mc-estimate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload mc-estimate --seed 1 --trace 1 --smoke

--trace 0 runs the workload's commands as fresh `python -m pilotreuse.cli`
processes, one after another (a closed loop), pass after pass until
--seconds is spent (at least one pass), and reports the end-to-end metrics.
--trace 1 runs three passes in this process untraced and three traced,
alternating, and reports the per-layer metrics.  --smoke runs the same commands at tiny sizes.

The last line of standard output is the result; the line before it is the
run record (machine, code, per-command figures, determinism).  Both are also
kept under .perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# No command may use more than nproc = 2 threads: `--threads 2` is the most
# any command asks for, so BLAS stays single-threaded.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import RATE_REFS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
TRACED_PASSES = 3
COMMAND_TIMEOUT_S = 150
# What a command pays before its first sample: interpreter, import, lattice.
SETUP_PROBE = ("import sys, pilotreuse.cli\n"
               "from pilotreuse.hexgrid import build_lattice\n"
               "if sys.argv[1] != '0':\n"
               "    build_lattice(int(sys.argv[1]))")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class CommandRun:
    id: str
    rc: int
    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    error: str | None = None


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


def spawn(argv: list[str], log: Path, env: dict) -> tuple[int, float, float, float]:
    """Run one process to completion: exit code, wall s, CPU s, peak RSS MB.

    os.wait4 gives this child's own rusage; RUSAGE_CHILDREN's ru_maxrss is
    the maximum over every child reaped so far.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def lattice_exponent(L: int | None) -> int:
    """m with 3^m = L, or 0 for a command that builds no lattice."""
    m = 0
    while L is not None and 3**m < L:
        m += 1
    return m


def setup_pass(cmds, env: dict, log: Path) -> float:
    total = 0.0
    for cmd in cmds:
        argv = [sys.executable, "-c", SETUP_PROBE, str(lattice_exponent(cmd.L))]
        rc, wall, _, _ = spawn(argv, log, env)
        if rc != 0:
            raise RuntimeError(f"set-up probe failed: {log.read_text()[-500:]}")
        total += wall
    return total


def check_output(cmd, out: Path, refs: dict) -> str | None:
    path = out / cmd.output
    try:
        if cmd.check.startswith("same-profile:"):
            return checks.check_same_profile(path, out / cmd.check.split(":", 1)[1])
        return checks.CHECKS[cmd.check](path, refs[cmd.id])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def output_digest(cmd, out: Path) -> str:
    path = out / cmd.output
    files = [path.with_suffix(".json")] if cmd.argv[0] == "rates" else [path]
    h = hashlib.sha256()
    for f in files:
        h.update(f.read_bytes() if f.exists() else b"missing")
    return h.hexdigest()


def subprocess_pass(cmds, seed: int, out: Path, refs: dict, env: dict):
    runs, digests = [], {}
    for cmd in cmds:
        argv = [sys.executable, "-m", "pilotreuse.cli", *cmd.cli_args(seed, str(out))]
        rc, wall, cpu, rss = spawn(argv, out / f"{cmd.id}.log", env)
        error = (f"exit code {rc}: {(out / f'{cmd.id}.log').read_text()[-300:]}"
                 if rc != 0 else check_output(cmd, out, refs))
        runs.append(CommandRun(cmd.id, rc, wall, cpu, rss, error))
        digests[cmd.id] = output_digest(cmd, out)
    return runs, digests


def inprocess_pass(cli, cmds, seed: int, out: Path, refs: dict):
    runs = []
    for cmd in cmds:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(cmd.cli_args(seed, str(out)))
            error = None
        except Exception:  # the pass goes on; the failure is counted
            rc, error = -1, traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
        if error is None:
            error = f"exit code {rc}" if rc != 0 else check_output(cmd, out, refs)
        runs.append(CommandRun(cmd.id, rc, wall, error=error))
    return runs


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return {"percentile": 100.0 * (k + 1) / n, "value": sorted(samples)[k]}


def timed_run(cmds, seed: int, seconds: float, refs: dict, work: Path):
    env = child_env()
    setup_pass(cmds[:1], env, work / "warmup.log")  # fills bytecode and page caches
    setups = [setup_pass(cmds, env, work / "setup.log") for _ in range(SETUP_REPEATS)]
    passes, digests = [], []
    deadline = time.perf_counter() + seconds
    while True:
        out = work / f"pass{len(passes)}"
        out.mkdir()
        started = time.perf_counter()
        runs, digest = subprocess_pass(cmds, seed, out, refs, env)
        passes.append(runs)
        digests.append(digest)
        shutil.rmtree(out)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    walls = [sum(r.wall_s for r in p) for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(r.cpu_s for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r.peak_rss_mb for r in p) for p in passes),
        "setup_s": statistics.median(setups),
    }
    faults = [f"{cid}: output differs between passes at one seed"
              for cid in digests[0] if any(d[cid] != digests[0][cid] for d in digests)]
    record = {
        "passes": len(passes),
        "wall_s": {"median": metrics["wall_s"], "tail": tail_percentile(walls),
                   "samples": len(walls)},
        "setup_s_samples": setups,
        "commands": [[asdict(r) for r in p] for p in passes],
    }
    return [r for p in passes for r in p], metrics, digests[0], faults, record


def traced_run(cmds, seed: int, refs: dict, work: Path):
    """TRACED_PASSES untraced and traced passes, alternating; the traced pass
    with the median wall time gives the per-layer metrics."""
    sys.path.insert(0, str(SRC))
    import pilotreuse.cli as cli

    def one_pass(name):
        out = work / name
        out.mkdir()
        runs = inprocess_pass(cli, cmds, seed, out, refs)
        shutil.rmtree(out)
        return runs

    untraced, traced, tracers = [], [], []
    for i in range(TRACED_PASSES):
        untraced.append(one_pass(f"untraced{i}"))
        with tracer.Tracer() as tr:
            traced.append(one_pass(f"traced{i}"))
        tracers.append(tr)
    untraced_walls = [sum(r.wall_s for r in p) for p in untraced]
    traced_walls = [sum(r.wall_s for r in p) for p in traced]
    mid = sorted(range(TRACED_PASSES), key=traced_walls.__getitem__)[TRACED_PASSES // 2]
    stats = tracers[mid].stats
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    counts = [tracer.exact_counts(t.stats) for t in tracers]
    faults = [f"determinism fault: traced pass {i} counted differently from pass 0"
              for i, c in enumerate(counts) if c != counts[0]]
    record = {
        "untraced_wall_s": untraced_walls,
        "traced_wall_s": traced_walls,
        "cli_main_share_of_traced_wall": stats["cli.main"].total_s / traced_walls[mid],
        "largest_call_candidate_bytes": (stats["hexgrid.min_image_norms"].counts.get("max_rows", 0)
                                         * tracer.CANDIDATE_BYTES_PER_ROW),
        "self_s": {name: st.self_s for name, st in stats.items()},
        "commands": [asdict(r) for p in untraced + traced for r in p],
    }
    runs = [r for p in untraced + traced for r in p]
    return runs, tracer.layer_metrics(stats, overhead), counts[0], faults, record


def cpu_caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return caches


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def machine_info(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cpu_caches(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": git_commit(),
        "code_sha256": code_digest(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def determinism_faults(key: str, observed: dict) -> list[str]:
    """Compare with an earlier run of the same code, workload and seed."""
    path = STATE / "determinism" / f"{key}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(observed, indent=1, sort_keys=True))
        return []
    earlier = json.loads(path.read_text())
    return [f"determinism fault: {name} was {earlier.get(name)}, now {observed.get(name)}"
            for name in sorted(set(earlier) | set(observed))
            if earlier.get(name) != observed.get(name)]


def load_refs(cmds, size: str) -> dict:
    refs = {}
    for cmd in cmds:
        if cmd.check == "rates":
            refs[cmd.id] = json.loads((ROOT / RATE_REFS[cmd.L]).read_text())
        elif cmd.check in checks.CHECKS:
            refs[cmd.id] = json.loads((BENCH / "refs" / size / f"{cmd.id}.json").read_text())
    return refs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for testing")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "pilotreuse" / "cli.py").is_file():
        print(f"error: no pilotreuse sources under {SRC}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    cmds = WORKLOADS[size][args.workload]
    try:
        refs = load_refs(cmds, size)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read references: {exc}", file=sys.stderr)
        return 2

    info = machine_info(args.seed)
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            runs, values, observed, faults, record = traced_run(cmds, args.seed, refs, work)
            units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        else:
            runs, values, observed, faults, record = timed_run(
                cmds, args.seed, args.seconds, refs, work)
            units = END_TO_END
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    key = f"{info['code_sha256'][:16]}-{size}-{args.workload}-{args.seed}-trace{args.trace}"
    faults += determinism_faults(key, observed)
    failures = [f"{r.id}: {r.error}" for r in runs if r.error]
    result = {
        "correct": not failures and not faults,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "size": size, "trace": args.trace,
              "machine": info, "failures": failures, "faults": faults,
              "failed_frac": len(failures) / len(runs), **record}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{key}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
