"""The benchmark's hooks into the program: what perfbench looks up by name.

`perfbench/tracer.py` patches functions by their qualified names and reads
counters from their arguments, and `perfbench/workloads.py` runs CLI command
lines.  A rename or a dropped flag would make the benchmark fail or read
zeros, so these tests load both files, without changing them, and check
every name and command line against the program.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

from pilotreuse import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load("tracer").TRACED
WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("module, qualname", sorted(TRACED))
def test_traced_name_resolves_with_its_counters_parameter(module, qualname):
    target = importlib.import_module(f"pilotreuse.{module}")
    for part in qualname.split("."):
        target = getattr(target, part)
    counter = TRACED[module, qualname]
    reads = re.findall(r'arg\("(\w+)"\)', inspect.getsource(counter)) if counter else []
    assert set(reads) <= set(inspect.signature(target).parameters), reads


@pytest.mark.parametrize("size, workload, command", [
    (size, name, cmd) for size, workloads in WORKLOADS.items()
    for name, cmds in workloads.items() for cmd in cmds
], ids=lambda v: getattr(v, "id", v))
def test_workload_command_parses(size, workload, command):
    parser, _ = cli.build_parser()
    args = parser.parse_args(command.cli_args(seed=1, out="out"))
    assert args.command == command.argv[0]
