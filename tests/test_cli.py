"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import displab
from displab.cli import COMMANDS, DISPOSITIONS_CAP_LIMIT, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_family(capsys):
    code, out, _ = run(capsys, "count", "--family", "staircase:6")
    assert code == 0 and out.strip() == "61"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--family", "tworow:2,3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"count": 5, "n": 5}


def test_count_from_text_file(tmp_path, capsys):
    path = tmp_path / "digraph.txt"
    path.write_text("n 3\n0 1\n1 2\n")
    code, out, _ = run(capsys, "count", "--file", str(path))
    assert code == 0 and out.strip() == "1"


def test_count_from_json_file(tmp_path, capsys):
    path = tmp_path / "digraph.json"
    path.write_text('{"n": 2, "arcs": [[0, 1], [1, 0]]}')
    code, out, _ = run(capsys, "count", "--file", str(path))
    assert code == 0 and out.strip() == "0"


def test_empty_family_counts_as_absent(tmp_path, capsys):
    path = tmp_path / "digraph.txt"
    path.write_text("n 3\n0 1\n1 2\n")
    code, out, _ = run(capsys, "count", "--family", "", "--file", str(path))
    assert code == 0 and out.strip() == "1"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "--family", "nosuch:4")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("family, reason", [
    # spellings that int() takes and a family string does not
    ("staircase:1_0", "invalid literal for int() with base 10: '1_0'"),
    ("staircase:\u0667", "invalid literal for int() with base 10: '\u0667'"),
    ("staircase:+7", "invalid literal for int() with base 10: '+7'"),
    ("tworow: 3,4", "invalid literal for int() with base 10: ' 3'"),
    ("qary:2,\uff13", "invalid literal for int() with base 10: '\uff13'"),
    ("tree:-1,0,0 ", "invalid literal for int() with base 10: '0 '"),
    ("dispositional:2,0;2,-1_0",
     "invalid literal for int() with base 10: '-1_0'"),
    # refusals that int() made, in its words
    ("staircase:abc", "invalid literal for int() with base 10: 'abc'"),
    ("tworow:a,b", "invalid literal for int() with base 10: 'a'"),
    ("tree:", "invalid literal for int() with base 10: ''"),
    ("tworow:2", "not enough values to unpack (expected 2, got 1)"),
    ("tworow:1,2,3", "too many values to unpack (expected 2)"),
    ("staircase:-3", "order must be nonnegative"),
])
def test_family_integers_are_ascii_decimals(capsys, family, reason):
    code, out, err = run(capsys, "count", "--family", family)
    assert (code, out) == (2, "")
    assert err == f"error: bad family string {family!r}: {reason}\n"


def test_long_bad_family_integer_is_cut_as_int_cuts_it(capsys):
    # int() shows at most 200 characters of the text's repr
    family = "staircase:" + "x" * 300
    code, out, err = run(capsys, "count", "--family", family)
    assert (code, out) == (2, "")
    assert err == (f"error: bad family string {family!r}: invalid literal "
                   f"for int() with base 10: '{'x' * 199}\n")


def usage(command):
    """The usage lines argparse prints before an error of the command."""
    subparsers = next(a for a in build_parser()._actions
                      if a.dest == "command")
    return subparsers.choices[command].format_usage()


@pytest.mark.parametrize("argv, flag, value", [
    (("extremal", "--order", "５"), "--order", "５"),
    (("extremal", "--order", "1_0"), "--order", "1_0"),
    (("count", "--family", "staircase:7", "--max-order", "６_３"),
     "--max-order", "６_３"),
    (("count", "--family", "path:3", "--max-order", "+5"),
     "--max-order", "+5"),
])
def test_int_options_are_ascii_decimals(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err == (usage(argv[0]) + f"displab {argv[0]}: error: argument "
                       f"{flag}: invalid int value: {value!r}\n")


@pytest.mark.parametrize("argv, message", [
    (("series", "--kind", "exp:1_0", "--order", "2"),
     "bad series kind 'exp:1_0': invalid literal for int() with base 10: "
     "'1_0'"),
    (("ode", "--tworow", "２,３"),
     "bad --tworow '２,３'"),
    (("companion", "--family", "path:3", "--vertex", "１"),
     "unknown vertex '１'"),
])
def test_integers_in_cli_text_are_ascii_decimals(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_size_cap_exit_code(capsys):
    code, _, err = run(capsys, "count", "--family", "empty:30")
    assert code == 1 and "max-order" in err


def test_max_order_flag(capsys):
    code, out, _ = run(capsys, "count", "--family", "empty:30",
                       "--max-order", "40")
    assert code == 0 and out.strip() == str(265252859812191058636308480000000)


def test_max_order_zero_is_a_cap_and_negative_exits_two(capsys):
    code, out, err = run(capsys, "count", "--family", "path:3",
                         "--max-order", "0")
    assert code == 1 and out == "" and "max-order" in err
    code, out, err = run(capsys, "count", "--family", "path:3",
                         "--max-order", "-1")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("gram", "--catalan", "0"),
    ("gram", "--catalan", "-2"),
    ("gram", "--laguerre", "0"),
    ("ode", "--laguerre", "-1"),
    ("extremal", "--order", "0"),
    ("extremal", "--order", "-3"),
    ("families", "--spec", "path:1", "--max-order", "-1"),
    ("dispositions", "--family", "path:3", "--cap", "-1"),
])
def test_size_below_minimum_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:"), argv


@pytest.mark.parametrize("argv", [
    ("series", "--kind", "nspaths", "--order", "2000"),
    ("series", "--kind", "exp:1", "--order", "2000", "--format", "json"),
])
def test_output_too_long_to_print_exits_one(capsys, argv):
    # CPython refuses to print an int of more than 4300 digits
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:"), argv
    assert "too long to print" in err


def test_series_below_digit_limit_prints(capsys):
    code, out, _ = run(capsys, "series", "--kind", "nspaths", "--order", "1500")
    assert code == 0 and len(out.split()) == 1501


def test_companion_pretty(capsys):
    code, out, _ = run(capsys, "companion", "--family", "tworow:2,3",
                       "--vertex", "v2", "--format", "pretty")
    assert code == 0
    assert out.strip() == "1/2·X^3 + 11/2·X^2 + 13·X + 5"


def test_companion_json_routes_agree(capsys):
    code, out1, _ = run(capsys, "companion", "--family", "staircase:4",
                        "--vertex", "v1", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "companion", "--family", "staircase:4",
                        "--vertex", "v1", "--format", "json",
                        "--route", "recurrence")
    assert code == 0
    assert json.loads(out1)["poly"] == json.loads(out2)["poly"]
    data = json.loads(out1)
    assert data["vertex"] == 0 and data["counters"][0] == 5


def test_companion_dual(capsys):
    code, out, _ = run(capsys, "companion", "--family", "path:2",
                       "--vertex", "v1", "--dual", "--format", "json")
    assert code == 0
    assert json.loads(out)["poly"] == ["1"]


def test_companion_recurrence_on_star_finishes(capsys):
    argv = ["companion", "--family", "star:18", "--vertex", "v1"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "displab.cli", *argv, "--route", "recurrence"],
        env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0 and proc.stdout == out


def test_dispositions(capsys):
    code, out, _ = run(capsys, "dispositions", "--family", "staircase:3")
    assert code == 0
    assert out.splitlines() == ["2 1 3", "3 1 2"]


def test_dispositions_json(capsys):
    code, out, _ = run(capsys, "dispositions", "--family", "staircase:3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["dispositions"] == [[2, 1, 3], [3, 1, 2]]


def test_dispositions_cap_exit(capsys):
    code, _, err = run(capsys, "dispositions", "--family", "empty:6",
                       "--cap", "3")
    assert code == 1 and "cap" in err


def test_ode_catalan_pretty(capsys):
    code, out, _ = run(capsys, "ode", "--catalan", "2")
    assert code == 0
    assert out.strip() == ("(X^2 + 8·X)Y'' + (X^2 + 8·X + 8)Y'"
                           " - (2·X + 12)Y = 0")


def test_ode_staircase_json(capsys):
    code, out, _ = run(capsys, "ode", "--staircase", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"U": ["0", "1"], "V": ["1", "1"], "W": ["-1"]}


def test_ode_tworow(capsys):
    code, out, _ = run(capsys, "ode", "--tworow", "2,3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["U"] == ["0", "25", "2"]


def test_ode_requires_exactly_one_selector(capsys):
    code, _, err = run(capsys, "ode", "--catalan", "2", "--laguerre", "3")
    assert code == 2


def test_ode_laguerre(capsys):
    code, out, _ = run(capsys, "ode", "--laguerre", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"U": ["0", "1"], "V": ["1", "-1"], "W": ["3"]}


def test_ode_bad_parameters_exit_two(capsys):
    for argv in (("ode", "--staircase", "0"), ("ode", "--catalan", "1"),
                 ("ode", "--tworow", "3,2")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err, argv


@pytest.mark.parametrize("n1, n2, r", [(0, 2, 2), (0, 3, 3), (0, 4, 3),
                                       (1, 3, 3)])
def test_ode_tworow_degenerate_triples_answer(capsys, n1, n2, r):
    # the printed closed forms vanish here; the elimination still finds
    # an equation that the companion satisfies
    from displab.algebra import Polynomial
    from displab.companion import two_row_companion
    from displab.ode import Ode2, verify_ode

    code, out, err = run(capsys, "ode", "--tworow", f"{n1},{n2}",
                         "--r", str(r), "--format", "json")
    assert code == 0 and err == ""
    data = json.loads(out)
    ode = Ode2(*(Polynomial.from_json(data[key]) for key in "UVW"))
    assert verify_ode(ode, two_row_companion(n1, n2, r))


@pytest.mark.parametrize("r", ["2", "3"])
def test_ode_catalan_above_gram_cap_exits_one(capsys, r):
    # the equations come from the elimination, so `ode --catalan` stops
    # where `gram --catalan` does
    code, out, err = run(capsys, "ode", "--catalan", "101", "--r", r)
    assert (code, out) == (1, "")
    assert err == "error: --catalan 101 exceeds the cap 100\n"


def test_ode_staircase_above_vertex_cap_exits_one(capsys):
    code, out, err = run(capsys, "ode", "--staircase", "151")
    assert code == 1 and out == "" and err.startswith("error:")


def test_ode_staircase_past_mask_cap(capsys):
    # the zigzag companion reads the Seidel-Entringer row, so it needs no
    # subset mask and answers past 63 vertices
    from displab.companion import staircase_companion
    from displab.algebra import Polynomial
    from displab.ode import Ode2, verify_ode

    code, out, _ = run(capsys, "ode", "--staircase", "64", "--format", "json")
    assert code == 0
    data = json.loads(out)
    ode = Ode2(*(Polynomial.from_json(data[key]) for key in "UVW"))
    assert verify_ode(ode, staircase_companion(64))


def test_gram_csv(capsys):
    code, out, _ = run(capsys, "gram", "--catalan", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",C1,C2,C3"
    # off-diagonal entries are zero
    assert lines[1].split(",")[2] == "0"


def test_nonstrict_table(capsys):
    code, out, _ = run(capsys, "nonstrict", "--family", "path:2",
                       "--max-size", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "digraph,i=1,i=2,i=3"
    assert lines[1] == "path:2,1,3,6"


def test_nonstrict_names_file_rows_by_their_path(tmp_path, capsys):
    path = tmp_path / "digraph.txt"
    path.write_text("n 2\n0 1\n0 1\n")
    code, out, _ = run(capsys, "nonstrict", "--file", str(path), "--family",
                       "path:2", "--max-size", "2")
    assert code == 0
    assert out == f"digraph,i=1,i=2\npath:2,1,3\nfile:{path},1,3\n"


def test_nonstrict_max_size_below_one_exits_two(capsys):
    for size in ("0", "-2"):
        code, out, err = run(capsys, "nonstrict", "--family", "path:3",
                             "--max-size", size)
        assert code == 2 and out == "" and "--max-size" in err, size


def test_series(capsys):
    code, out, _ = run(capsys, "series", "--kind", "exp:1", "--order", "3")
    assert code == 0 and out.strip() == "1 1 1/2 1/6"
    code, out, _ = run(capsys, "series", "--kind", "nspath-size:2",
                       "--order", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1", "2", "3/2"]


def test_series_negative_order_exits_two(capsys):
    code, out, err = run(capsys, "series", "--kind", "exp:1", "--order", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --order must be at least 0, got -1\n"


def test_extremal_json(capsys):
    code, out, _ = run(capsys, "extremal", "--order", "4")
    assert code == 0
    data = json.loads(out)
    assert data["max_counter"] == 5 and data["order"] == 4


def test_families_json(capsys):
    code, out, _ = run(capsys, "families", "--spec", "staircase:5")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 5 and data["counter"] == 16
    assert data["arcs"] == [[0, 1], [2, 1], [2, 3], [4, 3]]


def test_paper_tables_pass(capsys):
    code, out, _ = run(capsys, "paper-tables")
    assert code == 0
    assert "MISMATCH" not in out
    assert "generalized-zigzag i=0: ok" in out


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "extremal", "--order", "5")
    _, out2, _ = run(capsys, "extremal", "--order", "5")
    assert out1 == out2
    _, out3, _ = run(capsys, "gram", "--catalan", "4")
    _, out4, _ = run(capsys, "gram", "--catalan", "4")
    assert out3 == out4


def test_counters_route_past_twenty_one_vertices(capsys):
    argv = ["companion", "--family", "staircase:22", "--vertex", "v1",
            "--max-order", "63"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    code, by_heights, _ = run(capsys, *argv, "--route", "recurrence")
    assert code == 0 and out == by_heights


def test_requires_input_source(capsys):
    code, _, err = run(capsys, "count")
    assert code == 2 and "family" in err


def fresh_python(code: str) -> str:
    """Stdout of `code` run by a new interpreter that imports from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_families_loads_only_what_it_runs():
    out = fresh_python("""
import sys
from displab import cli
cli.main(["families", "--spec", "path:1"])
print([m for m in ("dataclasses", "concurrent.futures", "csv",
                   "displab.companion", "displab.ode",
                   "displab.orthogonality", "displab.extremal")
       if m in sys.modules])
""")
    assert out.splitlines()[-1] == "[]"


def test_exports_resolve_to_their_submodule_objects():
    for name in displab.__all__:
        obj = getattr(displab, name)
        # a submodule itself, or the attribute of the module defining it
        home = (sys.modules.get(f"displab.{name}")
                or getattr(sys.modules[obj.__module__], name))
        assert obj is home, name
    star: dict = {}
    exec("from displab import *", star)
    assert set(displab.__all__) <= set(star) & set(dir(displab))


def test_exports_resolve_under_threads():
    # 8 threads race through the first imports of a fresh package
    out = fresh_python("""
import sys, threading
sys.setswitchinterval(1e-6)
import displab
barrier = threading.Barrier(8)
seen = []

def resolve():
    barrier.wait()
    seen.append({name: getattr(displab, name) for name in displab.__all__})

threads = [threading.Thread(target=resolve) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
bad = sorted({name for got in seen for name, obj in got.items()
              if obj is not (sys.modules.get(f"displab.{name}")
                             or getattr(sys.modules[obj.__module__], name))})
print(sum(t.is_alive() for t in threads), len(seen), bad)
""")
    assert out.splitlines()[-1] == "0 8 []"


@pytest.mark.parametrize("argv, unused", [
    (["count", "--family", "path:3"], ("json", "fractions", "decimal")),
    (["families", "--spec", "path:1"], ("fractions", "decimal")),
    (["nonstrict", "--family", "path:3", "--max-size", "4"],
     ("json", "fractions", "decimal", "displab.algebra")),
    (["ode", "--catalan", "3"], ("json",)),
    (["ode", "--tworow", "2,3"], ("json",)),
    (["ode", "--laguerre", "3"], ("displab.companion", "displab.counting",
                                  "displab.families", "displab.graph")),
    (["gram", "--laguerre", "3"], ("json", "displab.companion",
                                   "displab.counting", "displab.families",
                                   "displab.graph")),
    (["dispositions", "--family", "path:3"], ("fractions", "decimal")),
    (["extremal", "--order", "4"], ("fractions", "decimal")),
    (["count", "--file", "FILE"], ("json",)),
    (["nonstrict", "--file", "FILE"], ("json",)),
    (["companion", "--family", "path:3", "--vertex", "v1"], ("json",)),
])
def test_integer_paths_load_no_json_or_fractions(argv, unused, tmp_path):
    # FILE is a digraph in the text format
    path = tmp_path / "d.txt"
    path.write_text("n 3\n0 1\n1 2\n")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    out = fresh_python(f"""
import sys
at_start = set(sys.modules)
from displab import cli
cli.main({argv!r})
print([m for m in {unused!r} if m in sys.modules and m not in at_start])
""")
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    ["count", "--family", "path:3"],
    ["families", "--spec", "path:1"],
    ["extremal", "--order", "4"],
    ["nonstrict", "--family", "path:3", "--max-size", "4"],
    ["dispositions", "--family", "path:3"],
    ["companion", "--family", "path:3", "--vertex", "v1"],
    ["ode", "--staircase", "4"],
    ["gram", "--catalan", "3"],
    ["series", "--kind", "exp:2"],
    ["paper-tables"],
])
def test_well_formed_commands_load_no_argparse(argv):
    out = fresh_python(f"""
import sys
at_start = set(sys.modules)
from displab import cli
cli.main({argv!r})
print([m for m in ("argparse", "gettext", "locale")
       if m in sys.modules and m not in at_start])
""")
    assert out.splitlines()[-1] == "[]"


def run_cli(*argv, timeout=60):
    """`python -m displab.cli argv...` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "displab.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


def test_entry_point_keeps_output_and_exit_codes(capsys):
    # about 0.8 MB of stdout must survive the heap freeze at exit
    argv = ("nonstrict", "--family", "staircase:14", "--family", "star:14",
            "--max-size", "8000")
    proc = run_cli(*argv)
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0 and len(out) > 800_000
    assert proc.stdout == out
    for argv, code in ((("count", "--family", "empty:30"), 1),
                       (("count", "--family", "nosuch:4"), 2)):
        proc = run_cli(*argv)
        assert proc.returncode == code and proc.stdout == "", argv
        assert proc.stderr.startswith("error:"), argv


@pytest.mark.parametrize("argv", [
    ("dispositions", "--family", "empty:8", "--cap", "50000"),
    ("count", "--family", "staircase:12"),
    ("nonstrict", "--family", "staircase:14", "--max-size", "8000"),
    ("paper-tables",),
])
def test_closed_stdout_exits_one_quietly(argv):
    # the reading end of stdout is closed before the command writes
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, "-m", "displab.cli", *argv],
                              env=env, stdout=write, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("argv, code, err", [
    pytest.param(("count", "--family", "path:3"), 1, "", id="output"),
    pytest.param(("count", "--family", "nosuch:4"), 2,
                 "error: unknown family 'nosuch'\n", id="refusal"),
])
def test_started_without_stdout(argv, code, err):
    # a process started with fd 1 closed has no sys.stdout: output ends it
    # as a closed pipe does, and a refusal that prints nothing keeps its code
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "displab.cli", *argv],
                          env=env, stderr=subprocess.PIPE, text=True,
                          timeout=60, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (code, err)


# runs displab.cli as __main__ with its address space capped at 512 MB
LIMITED_CLI = """
import resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
sys.argv = ["displab", *sys.argv[1:]]
runpy.run_module("displab.cli", run_name="__main__")
"""


@pytest.mark.parametrize("argv", [
    ("count", "--family", "path:1000000000000"),
    ("count", "--file", "{text}"),
    ("nonstrict", "--file", "{json}"),
    ("dispositions", "--family", "staircase:99999999999"),
    ("companion", "--family", "qary:2,1000000000000", "--vertex", "v1"),
    ("nonstrict", "--family", "tworow:1,1000000000000"),
    ("count", "--family", "dispositional:1000000000000,0"),
])
def test_oversized_digraph_refused_before_building(tmp_path, argv):
    text = tmp_path / "big.txt"
    text.write_text("n 1000000000000\n")
    data = tmp_path / "big.json"
    data.write_text('{"n": 1000000000000, "arcs": []}')
    argv = [a.format(text=text, json=data) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", LIMITED_CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error:") and "max-order" in proc.stderr


@pytest.mark.parametrize("argv, option", [
    (("nonstrict", "--family", "path:3", "--max-size", "10001"), "--max-size"),
    (("nonstrict", "--family", "path:3", "--max-size", "100000000"),
     "--max-size"),
    (("gram", "--catalan", "101"), "--catalan"),
    (("gram", "--laguerre", "1000000000000", "--format", "json"),
     "--laguerre"),
    (("families", "--spec", "path:1000000000000"), "--spec"),
    (("families", "--spec", "qary:2,1000000000000"), "--spec"),
    (("series", "--kind", "exp:0", "--order", "1000000"), "--order"),
    (("dispositions", "--family", "empty:12", "--cap",
      str(DISPOSITIONS_CAP_LIMIT + 1)), "--cap"),
    (("ode", "--staircase", "151"), "--staircase"),
    (("ode", "--staircase", "1000000000000"), "--staircase"),
])
def test_size_above_cap_refused_before_computing(argv, option):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", LIMITED_CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith(f"error: {option} ") and "cap" in proc.stderr


@pytest.mark.parametrize("kind", [
    "exp:" + "9" * 300, "nspath-size:" + "9" * 300, "bessel:0," + "9" * 300])
def test_oversized_series_parameter_refused_before_building(kind):
    # building these coefficients would take minutes before the print
    # check could refuse them
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, "series", "--kind", kind,
         "--order", "2000"],
        env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error:") and "too long" in proc.stderr


@pytest.mark.parametrize("kind", [
    "nspath-size:134217727", "exp:131071", "bessel:0,268435455",
    "nspath-size:1000", "exp:3", "nspaths"])
def test_unprintable_series_refused_before_building(capsys, monkeypatch,
                                                     kind):
    def never(*args):
        raise AssertionError("the series was built")

    from displab import algebra, nonstrict

    for module, name in ((algebra, "exp_series"),
                         (algebra, "bessel_i_series"),
                         (nonstrict, "nonstrict_path_series"),
                         (nonstrict, "nonstrict_path_series_fixed_size")):
        monkeypatch.setattr(module, name, never)
    code, out, err = run(capsys, "series", "--kind", kind, "--order", "2000")
    assert code == 1 and out == ""
    assert err == (f"error: a series coefficient has more than "
                   f"{sys.get_int_max_str_digits()} digits, too long to "
                   f"print; lower --order\n")


def test_sizes_at_the_caps_are_accepted(capsys):
    code, out, _ = run(capsys, "nonstrict", "--family", "path:2",
                       "--max-size", "10000", "--format", "json")
    assert code == 0 and json.loads(out)["path:2"][-1] == 10000 * 10001 // 2
    code, out, _ = run(capsys, "gram", "--laguerre", "100")
    rows = out.splitlines()
    assert code == 0 and len(rows) == 101
    assert rows[-1].split(",")[-1] == "1"
    # --max-order gates only the printed counter
    code, out, _ = run(capsys, "families", "--spec", "empty:100000")
    data = json.loads(out)
    assert code == 0 and data["n"] == 100000 and data["counter"] is None
    code, out, _ = run(capsys, "series", "--kind", "exp:0", "--order", "2000")
    assert code == 0 and len(out.split()) == 2001
    code, out, _ = run(capsys, "dispositions", "--family", "staircase:3",
                       "--cap", str(DISPOSITIONS_CAP_LIMIT))
    assert code == 0 and out == "2 1 3\n3 1 2\n"


@pytest.mark.parametrize("error, message", [
    (MemoryError, ""),
    (MemoryError, "cannot allocate"),
    (RecursionError, "maximum recursion depth exceeded"),
    (OverflowError, "int too large to convert"),
])
def test_internal_errors_exit_one_without_traceback(capsys, monkeypatch,
                                                    error, message):
    def handler(args):
        raise error(message)

    help_text, options, _ = COMMANDS["count"]
    monkeypatch.setitem(COMMANDS, "count", (help_text, options, handler))
    code, out, err = run(capsys, "count", "--family", "path:3")
    detail = f": {message}" if message else ""
    assert code == 1 and out == ""
    assert err == f"error: {error.__name__}{detail}\n"
