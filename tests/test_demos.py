"""Every demo and the README's library quick start run against the library in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_script(demo)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    (block,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                          re.DOTALL | re.MULTILINE)
    script = tmp_path / "quick_start.py"
    script.write_text(block)
    proc = run_script(script)
    assert proc.stdout.startswith("(0, 0, 9, 0) "), proc.stderr
    # only the block's last line, an invalid vector, raises
    assert proc.returncode == 1
    assert f'quick_start.py", line {len(block.splitlines())}, in <module>' in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("ValueError: ")
