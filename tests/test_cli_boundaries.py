"""Boundary sweep of the CLI: every command line built here exits 0, 1 or 2
without a traceback, in bounded time.

The command lines are generated from ``cli.COMMANDS``: each integer option
at -1, 0, 1, its cap, one past its cap and 10^30; each family kind at 63
vertices under ``--max-order 63`` and at 64; and the integer spellings that
``int()`` takes and the CLI refuses.
"""

import signal
import time

import pytest

from displab import cli
from displab.cli import COMMANDS, _int, main
from displab.extremal import SEARCH_ORDER_LIMIT
from displab.counting import MASK_VERTEX_LIMIT

# the cap of each integer option, or None where the option has none
CAPS = {
    ("count", "--max-order"): MASK_VERTEX_LIMIT,
    ("dispositions", "--max-order"): MASK_VERTEX_LIMIT,
    ("dispositions", "--cap"): cli.DISPOSITIONS_CAP_LIMIT,
    ("companion", "--max-order"): MASK_VERTEX_LIMIT,
    ("ode", "--catalan"): None,
    ("ode", "--staircase"): cli.STAIRCASE_ORDER_LIMIT,
    ("ode", "--laguerre"): None,
    ("ode", "--r"): 3,
    ("gram", "--catalan"): cli.GRAM_SIZE_LIMIT,
    ("gram", "--laguerre"): cli.GRAM_SIZE_LIMIT,
    ("nonstrict", "--max-order"): MASK_VERTEX_LIMIT,
    ("nonstrict", "--max-size"): cli.MAX_SIZE_LIMIT,
    ("series", "--order"): cli.SERIES_ORDER_LIMIT,
    ("extremal", "--order"): SEARCH_ORDER_LIMIT,
    ("families", "--max-order"): MASK_VERTEX_LIMIT,
}

# the rest of a command line around the option under test
CONTEXT = {
    "count": ["--family", "path:3"],
    "dispositions": ["--family", "path:3"],
    "companion": ["--family", "path:3", "--vertex", "v1"],
    "nonstrict": ["--family", "path:3"],
    "series": ["--kind", "exp:1"],
    "families": ["--spec", "path:1"],
}

LAX = ("５", "1_0", "+5", "６_３", " 3", "3 ", "٣")

SECONDS_PER_ARGV = 5


def int_options():
    for name, (_, options, _) in COMMANDS.items():
        for flag, spec in options:
            if spec.get("type") is _int:
                yield name, flag


def family_specs(n):
    tree = ",".join(["-1"] + [str((v - 1) // 2) for v in range(1, n)])
    return [f"path:{n}", f"empty:{n}", f"star:{n}", f"staircase:{n}",
            f"tworow:{n // 2},{n - n // 2}", f"qary:{n - 1},2", f"tree:{tree}",
            f"dispositional:{n // 2},0;{n - n // 2},1"]


def boundary_argvs():
    for name, flag in int_options():
        cap = CAPS[name, flag]
        values = [-1, 0, 1, 10**30] + ([] if cap is None else [cap, cap + 1])
        context = CONTEXT.get(name, ["--catalan", "3"] if flag == "--r" else [])
        for value in values + list(LAX):
            yield [name, *context, flag, str(value)]
    for name in ("count", "dispositions", "companion", "nonstrict"):
        context = ["--vertex", "v1"] if name == "companion" else []
        for n in (MASK_VERTEX_LIMIT, MASK_VERTEX_LIMIT + 1):
            for family in family_specs(n):
                yield [name, "--family", family, *context,
                       "--max-order", str(n)]
    for value in LAX:
        yield ["ode", "--tworow", f"{value},3"]
        yield ["companion", "--family", "path:3", "--vertex", value]
        for kind in (f"exp:{value}", f"nspath-size:{value}",
                     f"bessel:{value},1"):
            yield ["series", "--kind", kind, "--order", "2"]


class Hang(BaseException):
    """Raised by the watchdog; no handler in ``main`` catches it."""


def test_boundary_sweep_exits_cleanly(capsys):
    def alarm(signum, frame):
        raise Hang

    assert sorted(int_options()) == sorted(CAPS)
    previous = signal.signal(signal.SIGALRM, alarm)
    failures = []
    start = time.perf_counter()
    try:
        for argv in boundary_argvs():
            began = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_ARGV)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Hang:
                code = "hang"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            took = time.perf_counter() - began
            err = capsys.readouterr().err
            if (code not in (0, 1, 2) or "Traceback" in err
                    or took >= SECONDS_PER_ARGV):
                failures.append((argv, code, round(took, 2), err[-200:]))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert failures == []
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("argv", [
    ["count", "--family"],
    ["dispositions", "--family"],
    ["companion", "--vertex", "v1", "--family"],
    ["nonstrict", "--family"],
    ["families", "--spec"],
])
def test_file_family_string_is_an_unknown_family(tmp_path, capsys, argv):
    path = tmp_path / "digraph.txt"
    path.write_text("n 2\n0 1\n")
    assert main([*argv, f"file:{path}"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: unknown family 'file'\n")
