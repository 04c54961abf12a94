"""The library keeps only what a CLI path or a paper statement needs.

Every public function, class and method of ``src/displab`` must be named
somewhere in ``src`` outside its own definition, in ``bench/*.py`` or in
``tests/test_acceptance.py``, or be kept on purpose in ``KEPT``.  A name
counts where it is read as a variable, an attribute or an import; the
strings of ``displab.__all__`` do not count, nor do the names that
``bench/*.py`` defines itself, such as its reference closed forms.
"""

import ast
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
