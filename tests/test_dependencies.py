"""The package imports only the standard library, numpy and itself, so its
runtime dependency list stays ``["numpy"]``; test-only libraries such as
scipy and hypothesis stay out of ``src``."""

import ast
import sys
from pathlib import Path

import cdrpipe

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "cdrpipe"}
PACKAGE = Path(cdrpipe.__file__).parent


def imported_top_levels(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_modules_import_only_the_standard_library_numpy_and_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    outside = {f"{path.relative_to(PACKAGE)}: {name}"
               for path in modules
               for name in imported_top_levels(path.read_text(encoding="utf-8"))
               if name not in ALLOWED}
    assert not outside


def test_the_guard_sees_nested_and_conditional_imports():
    source = ("import os, scipy.sparse\n"
              "from . import model\n"
              "def f():\n"
              "    try:\n"
              "        from hypothesis import given\n"
              "    except ImportError:\n"
              "        pass\n")
    assert imported_top_levels(source) - ALLOWED == {"scipy", "hypothesis"}
