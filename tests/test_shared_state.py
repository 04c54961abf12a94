"""The library keeps no shared mutable state: an `ast` scan of its modules
for thread locks and function caches, the usual ways such state comes in."""

import ast
from pathlib import Path

import pytest

import displab

SOURCES = sorted(Path(displab.__file__).parent.glob("*.py"))
THREAD_MODULES = {"threading", "_thread"}
CACHES = {"cache", "lru_cache"}


def shared_state_uses(source: str) -> list[str]:
    """What in the source imports a thread module or uses a functools
    cache, one entry each."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] in THREAD_MODULES]
        elif isinstance(node, ast.ImportFrom):
            if node.module in THREAD_MODULES:
                found.append(node.module)
            elif node.module == "functools":
                found += [f"functools.{a.name}" for a in node.names
                          if a.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            found.append(f"functools.{node.attr}")
    return found


@pytest.mark.parametrize("source", [
    "import threading",
    "import threading as t",
    "from threading import Lock",
    "import _thread",
    "from functools import lru_cache",
    "from functools import cache as memo",
    "import functools\n@functools.lru_cache(None)\ndef f(): pass",
    "import functools\ng = functools.cache(len)",
])
def test_scan_finds_each_kind_of_use(source):
    assert shared_state_uses(source)


def test_scan_passes_plain_functools():
    assert shared_state_uses("from functools import reduce\n"
                             "import functools\nfunctools.partial(int)") == []


def test_no_module_imports_threading_or_caches():
    assert len(SOURCES) > 10
    found = {path.name: uses for path in SOURCES
             if (uses := shared_state_uses(path.read_text(encoding="utf-8")))}
    assert found == {}
