"""The CLI's parser without argparse agrees with argparse or steps aside.

For every command line of a corpus, ``cli._parse`` either returns None,
leaving the line to argparse, or exactly the namespace argparse builds.
"""

import ast
import sys
from pathlib import Path

import pytest

from displab.cli import COMMANDS, _int, _parse, build_parser

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"

# a value each option accepts, by flag; other flags take a family string
VALID = {"--vertex": "v1", "--spec": "path:1", "--kind": "exp:1",
         "--tworow": "2,3", "--file": "digraph.txt"}


def agrees(argv):
    """True when the fast parse took argv; fails when it differs from
    argparse."""
    fast = _parse(list(argv))
    if fast is None:
        return False
    assert vars(fast) == vars(build_parser().parse_args(argv)), argv
    return True


def valid_value(flag, spec):
    if "choices" in spec:
        return str(spec["choices"][-1])
    if spec.get("type") is _int:
        return "3"
    return VALID.get(flag, "path:3")


def base_argv(name):
    """The command with every required flag and a valid value for it."""
    argv = [name]
    for flag, spec in COMMANDS[name][1]:
        if spec.get("required"):
            argv += [flag, valid_value(flag, spec)]
    return argv


def well_formed_cases():
    for name, (_, options, _) in COMMANDS.items():
        yield base_argv(name)
        for flag, spec in options:
            if spec.get("required"):
                continue
            if spec.get("action") == "store_true":
                yield base_argv(name) + [flag]
            else:
                yield base_argv(name) + [flag, valid_value(flag, spec)]
            if spec.get("action") == "append":
                yield base_argv(name) + [flag, "path:2", flag, "path:3"]


def malformed_cases():
    for name, (_, options, _) in COMMANDS.items():
        base = base_argv(name)
        for i in range(len(base) + 1):
            yield base[:i] + ["-h"] + base[i:]
        yield base + ["extra"]
        for flag, spec in options:
            value = [] if spec.get("action") == "store_true" else [
                valid_value(flag, spec)]
            rest = base
            if spec.get("required"):
                at = base.index(flag)
                rest = base[:at] + base[at + 2:]
                yield rest
            if spec.get("type") is _int:
                yield rest + [flag, "x"]
                yield rest + [flag, "-1"]
            else:
                yield rest + [flag, "-x"]
            if "choices" in spec:
                yield rest + [flag, "nope"]
            if spec.get("action") != "append":
                yield rest + [flag, *value, flag, *value]
            yield rest + [flag[:-1], *value]
            if value:
                yield rest + [f"{flag}={value[0]}"]
                yield rest + [flag]


def workload_argvs(tmp_path):
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    for name in ("count", "poly", "nonstrict"):
        for seed in (1, 2, 3):
            work = tmp_path / f"{name}-{seed}"
            work.mkdir()
            for job in workloads.build(name, seed, work, expected={}).jobs:
                yield list(job.argv)


def test_cli_argvs():
    """Every literal command line of test_cli.py, with a placeholder for
    each argument built at run time."""
    tree = ast.parse((TESTS / "test_cli.py").read_text())
    argvs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") in (
                "run", "run_cli"):
            items = node.args[1:] if node.func.id == "run" else node.args
        elif isinstance(node, (ast.Tuple, ast.List)):
            items = node.elts
        else:
            continue
        argv = [x.value if isinstance(x, ast.Constant) else "placeholder"
                for x in items]
        if argv and argv[0] in COMMANDS and all(isinstance(a, str)
                                                for a in argv):
            argvs.append(argv)
    assert len(argvs) > 50
    taken = [agrees(argv) for argv in argvs]
    assert sum(taken) > len(argvs) // 2


def test_workload_argvs_take_the_fast_parse(tmp_path):
    argvs = list(workload_argvs(tmp_path))
    assert len(argvs) > 200
    # no workload job needs argparse
    assert [argv for argv in argvs if not agrees(argv)] == []


@pytest.mark.parametrize("argv", list(well_formed_cases()), ids=" ".join)
def test_well_formed_argv_takes_the_fast_parse(argv):
    assert agrees(argv)


@pytest.mark.parametrize("argv", list(malformed_cases()), ids=" ".join)
def test_malformed_argv_is_left_to_argparse(argv):
    assert _parse(argv) is None
