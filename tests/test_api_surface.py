"""The library keeps only what a CLI path or a paper statement needs.

Every public function, class and method of ``src/displab`` must be named
somewhere in ``src`` outside its own definition, in ``bench/*.py`` or in
``tests/test_acceptance.py``, or be kept on purpose in ``KEPT``.  A name
counts where it is read as a variable, an attribute or an import; the
strings of ``displab.__all__`` do not count, nor do the names that
``bench/*.py`` defines itself, such as its reference closed forms.

The same holds for options: each default of a public function or method
(a class's ``__init__`` is called by the class name) must be passed by
some call and left at its default by another, counting the calls in
``src`` outside the definition itself, in ``bench/*.py`` and in
``tests/test_acceptance.py``, or be kept on purpose in ``KEPT_DEFAULTS``.
A parameter no such call sets is a constant; one every call sets needs
no default.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KEPT = (
    # brute-force oracles, the ground truth of every counter
    "count_bruteforce", "nonstrict_bruteforce",
    # acceptance criterion 10 imports it
    "iso_check",
    # paper statements with no CLI path
    "moment_xi_djLn", "maximality_witness", "gram_projection",
    "staircase_path_counter", "two_row_decomposition", "order_polynomial",
    "two_row_counter", "nonstrict_two_row",
)


def references(tree) -> Counter:
    """How often each name is read as a variable, an attribute or an
    imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names


def definitions(tree) -> set:
    """The names of every function and class that tree defines."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def public_definitions(tree):
    """Top-level functions and classes, and the methods of those classes,
    whose names do not start with an underscore."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_"))


def test_every_public_name_has_a_reader():
    sources = {path: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "displab").glob("*.py"))}
    in_src = sum(map(references, sources.values()), Counter())
    bench = [ast.parse(path.read_text())
             for path in sorted((ROOT / "bench").glob("*.py"))]
    outside = sum(map(references, bench), Counter())
    for name in set().union(*map(definitions, bench)):
        del outside[name]
    outside += references(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text()))
    unread = [f"{path.name}: {node.name}"
              for path, tree in sources.items()
              for node in public_definitions(tree)
              if node.name not in KEPT and not outside[node.name]
              and in_src[node.name] == references(node)[node.name]]
    assert not unread, ("public names that no CLI path, benchmark or "
                        f"acceptance test reads: {', '.join(unread)}")


def test_kept_names_are_defined():
    defined = {node.name
               for path in (ROOT / "src" / "displab").glob("*.py")
               for node in public_definitions(ast.parse(path.read_text()))}
    assert set(KEPT) <= defined, set(KEPT) - defined


# (called name, parameter, reason) of each default kept without a caller
# of both kinds
KEPT_DEFAULTS = ()


def defaulted_parameters(node, is_method: bool):
    """(name, position) of each parameter of a function definition that
    has a default; position is None for a keyword-only one, and does not
    count a method's self or cls."""
    args = node.args
    positional = [*args.posonlyargs, *args.args][is_method:]
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def public_callables(tree):
    """(called name, definition, is method) of every public function and
    method, with a public class's ``__init__`` called by the class name."""
    for node in public_definitions(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, node not in tree.body
        else:
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and m.name == "__init__":
                    yield node.name, m, True


def calls(tree, own=()):
    """(called name, call) of every call in tree, by the name it is
    called by; a bare call of a name in ``own`` is left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id not in own:
                yield node.func.id, node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, node


def sets(call: ast.Call, name: str, position) -> bool:
    """Whether call passes the parameter, by keyword or by position."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_default_is_set_and_left_by_some_caller():
    sources = {path: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "displab").glob("*.py"))}
    bench = [ast.parse(path.read_text())
             for path in sorted((ROOT / "bench").glob("*.py"))]
    own = set().union(*map(definitions, bench))
    outside = [*(c for tree in bench for c in calls(tree, own)),
               *calls(ast.parse(
                   (ROOT / "tests" / "test_acceptance.py").read_text()))]
    in_src = [c for tree in sources.values() for c in calls(tree)]
    kept = {(f, p) for f, p, _ in KEPT_DEFAULTS}
    defined, unused = set(), []
    for path, tree in sources.items():
        for called, node, is_method in public_callables(tree):
            inside = {id(c) for c in ast.walk(node)}
            callers = [c for name, c in [*in_src, *outside]
                       if name == called and id(c) not in inside]
            for param, position in defaulted_parameters(node, is_method):
                defined.add((called, param))
                passed = [sets(c, param, position) for c in callers]
                if (called, param) not in kept and not (
                        any(passed) and not all(passed)):
                    unused.append(f"{path.name}: {called}({param})")
    assert not unused, ("defaults that no CLI path, benchmark or acceptance "
                        "test both sets and leaves: " + ", ".join(unused))
    assert kept <= defined, kept - defined


def test_sources_parse_at_the_requires_python_floor():
    # feature_version refuses grammar newer than the floor, such as except*
    # (3.11) or type parameter lists (3.12)
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    version = tuple(map(int, floor.groups()))
    for path in sorted((ROOT / "src" / "displab").glob("*.py")):
        ast.parse(path.read_text(), path.name, feature_version=version)
