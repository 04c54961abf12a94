"""CLI surface: subcommands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import displab
from displab.cli import main

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


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "--family", "nosuch:4")
    assert code == 2 and "error" in err


def test_size_cap_exit_code(capsys):
    code, _, err = run(capsys, "count", "--family", "empty:30")
    assert code == 1 and "max-order" in err


def test_max_order_flag_and_env(capsys, monkeypatch):
    code, out, _ = run(capsys, "count", "--family", "empty:30",
                       "--max-order", "40")
    assert code == 0 and out.strip() == str(265252859812191058636308480000000)
    monkeypatch.setenv("DISPLAB_MAX_ORDER", "40")
    code, out, _ = run(capsys, "count", "--family", "empty:30")
    assert code == 0
    monkeypatch.setenv("DISPLAB_MAX_ORDER", "10")
    code, _, _ = run(capsys, "count", "--family", "empty:30")
    assert code == 1


def test_max_order_zero_is_a_cap_and_negative_exits_two(capsys, monkeypatch):
    code, out, err = run(capsys, "count", "--family", "path:3",
                         "--max-order", "0")
    assert code == 1 and out == "" and "max-order" in err
    code, out, err = run(capsys, "count", "--family", "path:3",
                         "--max-order", "-1")
    assert code == 2 and out == "" and err.startswith("error:")
    monkeypatch.setenv("DISPLAB_MAX_ORDER", "-1")
    code, out, err = run(capsys, "count", "--family", "path:3")
    assert code == 2 and out == "" and "DISPLAB_MAX_ORDER" in err


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


def test_ode_staircase_above_vertex_cap_exits_one(capsys):
    code, out, err = run(capsys, "ode", "--staircase", "64")
    assert code == 1 and out == "" and err.startswith("error:")


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
