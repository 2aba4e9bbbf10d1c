"""Every name a module imports is read somewhere in that module.

No linter runs on this tree, so an AST scan of `src/dualflow` and
`tests` does the one check: an imported name that the module never
loads (and does not list in `__all__`) is dead code.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src/dualflow", "tests")


def unused_imports(source):
    """(line, name) of each imported name that `source` never reads."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def python_files():
    for folder in SCANNED:
        for name in sorted(os.listdir(os.path.join(ROOT, folder))):
            if name.endswith(".py"):
                yield f"{folder}/{name}"


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c\nc(np)\n") == [(1, "os")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from m import f\n__all__ = ['f']\n") == []


@pytest.mark.parametrize("path", list(python_files()))
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        unused = unused_imports(fh.read())
    assert not unused, f"{path}: imported but never read: " + ", ".join(
        f"{name} (line {line})" for line, name in unused)
