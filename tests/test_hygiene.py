"""Source hygiene: every module-level import of the library is used.

``__init__.py`` is exempt, because its imports are the public re-exports,
and so are ``from __future__`` imports.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vtrees"


def unused_imports(source: str) -> list:
    """Names bound by a module-level import and never read in the module."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_detected():
    assert unused_imports("import math\nimport os.path\n"
                          "from typing import Iterable as It, Sequence\n"
                          "x: Sequence = os.sep\n") == ["math", "It"]


def test_library_has_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text(encoding="utf-8"))
             for p in modules}
    assert {k: v for k, v in found.items() if v} == {}
