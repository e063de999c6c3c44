"""Every name a module of the package imports is read in that module, and
importing the package loads no module it does not need.

Each ``src/qcasimir/*.py`` other than ``__init__.py`` (whose imports are the
public exports) is parsed with ``ast``; a name bound by an import and never
loaded is a leftover of code that moved or was deleted.  Annotations count
as reads, string annotations included.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qcasimir"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by string annotations such as ``-> "EPoly"``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            out |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_leftovers():
    source = (
        "from __future__ import annotations\n"
        "from dataclasses import dataclass\n"
        "from .casimir import DegenerateEvaluation, hc_value\n"
        "import random, os.path\n"
        "from .exact import EPoly, QLaurent\n"
        "def f(x: 'EPoly') -> QLaurent:\n"
        "    return hc_value(random.random(), os.path)\n"
    )
    assert unused_imports(source) == ["dataclass", "DegenerateEvaluation"]


def test_import_loads_no_dataclass_machinery():
    # every CLI call and verify run starts a fresh interpreter; dataclasses
    # (and inspect, ast, dis, tokenize with it) would cost it at start-up
    code = (
        "import sys; before = set(sys.modules); import qcasimir; "
        "print(qcasimir.__file__); print(*sorted(set(sys.modules) - before))"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert Path(out[0]).resolve().parent == SRC
    loaded = set(out[1].split())
    assert "qcasimir.roots" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
