"""Every module reads every name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module.

    A name counts as read when it is loaded anywhere in the module, as the
    root of an attribute chain included.  ``from __future__`` imports bind
    nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # a package __init__ imports to re-export
    found = {
        str(path.relative_to(ROOT)): unused
        for path in MODULES
        if path.name != "__init__.py" and (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def test_detector_sees_unread_and_read_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\nimport numpy as np\nfrom math import pi, tau\n"
        "import xml.dom\n"
        "print(sys.argv, np.pi, xml.dom, tau)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "pi (line 4)"]
