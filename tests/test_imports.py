"""Every name a module of the package imports is used in that module.

No linter ships with the test dependencies, so this walks each module's
syntax tree: an imported name that is never referenced afterwards is dead.
`__init__.py` is skipped because its imports are the package's re-exports,
and `from __future__` imports are compiler directives, not names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "esarb"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = (
        "import math\n"
        "import os\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    sep: str = os.sep\n"
    )
    assert _unused_imports(source) == ["line 1: math", "line 3: field"]
    assert "cli.py" in [p.name for p in MODULES]
