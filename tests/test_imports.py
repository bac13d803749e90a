"""Every name a module under ``src/`` or ``tests/`` imports is used in it.

No linter ships with the project, so this walks each file's AST and fails,
naming the file and line, on an imported name that no expression reads.
``from __future__`` imports and the re-exports of ``__init__.py`` files are
not checked. Scopes are not told apart: a name imported in one function and
read in another counts as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py")
               if path.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no ``ast.Name`` reads."""
    imported: dict[str, int] = {}
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom a import b, c as d\n"
              "def f():\n    from e import g\n    return np.zeros(d)\n")
    assert unused_imports(source) == [(2, "os"), (4, "b"), (6, "g")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, "\n".join(f"{path.relative_to(ROOT)}:{line}: {name!r} imported "
                                 f"but unused" for line, name in unused)
