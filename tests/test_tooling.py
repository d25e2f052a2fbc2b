"""The benchmark's hooks into the program: what perfbench looks up by name.

`perfbench/tracer.py` patches functions by their qualified names and reads
counters from their arguments, `perfbench/workloads.py` runs CLI command
lines, and `perfbench/make_refs.py` calls the library to write the stored
references.  A rename or a dropped flag would make the benchmark fail or read
zeros, so these tests load the first two and parse the third, without
changing or running any of them, and check every name, call and command line
against the program.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

from pilotreuse import RateProfile, breakpoints, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")
TRACED = TRACER.TRACED
_workloads = _load("workloads")
WORKLOADS = _workloads.WORKLOADS


def _traced(module, qualname):
    target = importlib.import_module(f"pilotreuse.{module}")
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


@pytest.mark.parametrize("module, qualname", sorted(TRACED))
def test_traced_name_resolves_with_its_counters_parameter(module, qualname):
    target = _traced(module, qualname)
    counter = TRACED[module, qualname]
    reads = re.findall(r'arg\("(\w+)"\)', inspect.getsource(counter)) if counter else []
    assert set(reads) <= set(inspect.signature(target).parameters), reads


def test_vector_counts_are_read_from_generator_functions():
    # the tracer counts `vectors` only as the items that a generator function
    # yields (today, of assignment.enumerate_assignments alone)
    spans = [name.rsplit(".", 1)[0] for name, _, _ in TRACER.PER_LAYER
             if name.endswith(".vectors")]
    assert spans
    for span in spans:
        assert inspect.isgeneratorfunction(_traced(*span.split(".", 1))), span


@pytest.mark.parametrize("size, workload, command", [
    (size, name, cmd) for size, workloads in WORKLOADS.items()
    for name, cmds in workloads.items() for cmd in cmds
], ids=lambda v: getattr(v, "id", v))
def test_workload_command_parses(size, workload, command):
    parser, _ = cli.build_parser()
    args = parser.parse_args(command.cli_args(seed=1, out="out"))
    assert args.command == command.argv[0]


@pytest.mark.parametrize("path", sorted(set(_workloads.RATE_REFS.values())))
def test_stored_profile_meets_the_gain_hypothesis(path):
    # `breakpoints` refuses a profile whose gains g_i = 3^-i (C_{i+1} - C_i)
    # rise, so a benchmark command reading a stored profile must never meet it
    profile = RateProfile.from_json((PERFBENCH.parent / path).read_text())
    for K in (1, 2, 3):
        breakpoints(3 ** profile.m, K, profile)


def _library_calls(path):
    """The distinct calls in `path` into the library, sorted.

    A call is (module, target path, positional count, keywords); its target
    is a name imported from a pilotreuse module, or an attribute chain on it.
    """
    tree = ast.parse(path.read_text())
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pilotreuse"):
            for alias in node.names:
                roots[alias.asname or alias.name] = (node.module, alias.name)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.insert(0, func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in roots:
            module, name = roots[func.id]
            calls.append((module, (name, *chain), len(node.args),
                          tuple(k.arg for k in node.keywords)))
    return sorted(set(calls))


MAKE_REFS_CALLS = _library_calls(PERFBENCH / "make_refs.py")


def test_make_refs_calls_the_library():
    called = {(module, path[0]) for module, path, *_ in MAKE_REFS_CALLS}
    assert {("pilotreuse", "channel"), ("pilotreuse", "finitem"), ("pilotreuse", "optimizer"),
            ("pilotreuse.hexgrid", "build_lattice")} <= called


@pytest.mark.parametrize("module, path, n_args, keywords", [
    pytest.param(*call, id="-".join([".".join(call[1]), *call[3]])) for call in MAKE_REFS_CALLS])
def test_make_refs_call_resolves_and_binds(module, path, n_args, keywords):
    # as `from module import name` does: an attribute, else a submodule
    try:
        target = getattr(importlib.import_module(module), path[0])
    except AttributeError:
        target = importlib.import_module(f"{module}.{path[0]}")
    for part in path[1:]:
        target = getattr(target, part)
    # its positional and keyword arguments bind to the target's parameters
    inspect.signature(target).bind(*[None] * n_args, **dict.fromkeys(keywords))
